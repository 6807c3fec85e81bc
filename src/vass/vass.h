// Vector Addition Systems with States (Section 4.2). The verifier's
// per-task products generate their transition relations on the fly, so
// the analyses work against the VassSystem callback interface; an
// explicit adjacency-list implementation is provided for tests and for
// the undecidability-encoding example.
//
// Markings are packed vectors of int64 counters (vass/marking.h: the
// canonical trailing-zero-stripped representation, the arena, and the
// portable dominance kernel); the sentinel kOmega denotes the
// accelerated "arbitrarily large" value of Karp–Miller trees.
// Dimensions are allowed to grow during exploration (the verifier
// allocates a counter per newly discovered (relation, TS-type) pair);
// missing trailing coordinates read as 0.
#ifndef HAS_VASS_VASS_H_
#define HAS_VASS_VASS_H_

#include <cstdint>
#include <vector>

#include "vass/marking.h"

namespace has {

/// An outgoing edge of a VASS state. `label` is an opaque tag the
/// caller uses to reconstruct what the transition meant (the verifier
/// stores an index into its transition table).
struct VassEdge {
  int target = -1;
  Delta delta;
  int64_t label = -1;
};

/// Callback interface: a (possibly implicit) VASS.
class VassSystem {
 public:
  virtual ~VassSystem() = default;
  /// Appends the outgoing edges of `state` to `out`.
  virtual void Successors(int state, std::vector<VassEdge>* out) = 0;

  /// Opaque token for systems that split one successor computation
  /// into a pure prepare step and a mutating commit step (TaskVass).
  class Prepared {
   public:
    virtual ~Prepared() = default;
  };

  /// Partial-order reduction hook: the number of LEADING edges of
  /// `state`'s successor list that form a valid ample prefix — the
  /// explorer may expand only those edges as long as at least one of
  /// them makes progress (see KarpMillerOptions::por). 0 means no
  /// reduction. Contract: the value is a pure function of `state`
  /// (never of markings or arrival order), and every prefix edge has a
  /// non-negative delta (it can never be marking-disabled) and targets a
  /// real successor — the reduced graph is a subgraph of the full one's
  /// closure under the prefix transitions.
  virtual int AmplePrefix(int state) const {
    (void)state;
    return 0;
  }
};

/// Explicit VASS for tests and examples.
class ExplicitVass : public VassSystem {
 public:
  explicit ExplicitVass(int num_states) : adj_(num_states) {}

  int num_states() const { return static_cast<int>(adj_.size()); }

  /// Adds an action (from, delta, to); returns its label.
  int64_t AddAction(int from, Delta delta, int to);

  void Successors(int state, std::vector<VassEdge>* out) override;

 private:
  std::vector<std::vector<VassEdge>> adj_;
};

}  // namespace has

#endif  // HAS_VASS_VASS_H_
