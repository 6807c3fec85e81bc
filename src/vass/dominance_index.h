// Summary-bucketed dominance index over one per-state antichain.
//
// Entries are grouped into buckets keyed by their summary (support
// word + magnitude-threshold word, see MarkingSummary in
// vass/marking.h), so one summary test per BUCKET stands in for one
// per entry and a probe never walks the whole chain: DominatorOf
// enumerates only buckets whose key a candidate could be ≤ of,
// AntichainAbsorb only buckets whose key could be ≤ the new entry.
// Entries whose summary is ω-saturated (every supported group holds
// an ω) go to a single "wild" bucket with per-entry filtering instead —
// ω-heavy antichains would otherwise shatter into near-singleton
// buckets and the bucket loop would degenerate back into the
// per-entry scan.
//
// Bucketing is a pure refinement of the SummaryMayDominate filter:
// entries sharing a bucket share their exact summary, so skipping a
// bucket is exactly skipping each member by the summary test — no
// dominance decision can change, only how many payloads are touched.
//
// The summaries also resolve most SUCCESSFUL probes without a payload
// compare (the ω-cover fast accept). For markings of width <= 32 the
// summary words are EXACT per-dimension bit sets (one group per
// dimension, no wrap), so "every nonzero dimension of the candidate is
// an ω dimension of the entry" — a pure word test — PROVES m ≤ entry:
// nonzero candidate dimensions meet ω, zero ones meet anything. This
// is what makes the antichain cheap on ω-saturated frontiers, where
// nearly every probe succeeds and no negative filter can fire at all.
//
// Determinism contract: DominatorOf returns the MINIMUM node id among
// all dominators of the candidate ("resolve ties by node rank"), which
// is a pure function of the antichain CONTENT — independent of bucket
// enumeration order, insertion history, or removal order. The pruned
// build and the POR ample-progress path therefore pick the identical
// node. (Bucket order itself is insertion-ordered, which keeps the
// probe counters deterministic too.)
#ifndef HAS_VASS_DOMINANCE_INDEX_H_
#define HAS_VASS_DOMINANCE_INDEX_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/hashing.h"
#include "vass/marking.h"

namespace has {

class DominanceIndex {
 public:
  /// Probe-cost accounting for one DominatorOf / RemoveCoveredBy call.
  /// `payload_probes` counts DominanceLeq invocations (the payload
  /// touches the bucketing exists to avoid), `bucket_probes` counts
  /// buckets examined, `skipped` counts entries resolved by a summary
  /// test alone — negatively (bucket-level key miss, or per-entry miss
  /// in the wild bucket) or positively (the ω-cover fast accept) —
  /// without touching their payload. Entries behind a node-rank cutoff
  /// are not counted anywhere: once a dominator with a smaller id is
  /// in hand they cost nothing, not even a summary test.
  struct Stats {
    size_t bucket_probes = 0;
    size_t payload_probes = 0;
    size_t skipped = 0;
  };

  /// Adds an antichain entry. Node ids must be inserted in ascending
  /// order (the explorer inserts in node-creation order), which keeps
  /// every bucket sorted by id for free.
  void Insert(int node, MarkingView marking);

  /// Minimum node id whose marking dominates (is ≥) `m`, or -1.
  int DominatorOf(const MarkingView& m, Stats* stats) const;

  /// Removes every entry whose marking is ≤ `m` (strictly or equal),
  /// invoking `victim(node)` for each in UNSPECIFIED order — callers
  /// needing determinism must not depend on callback order (the
  /// explorer's absorb path only flags victims, which is order-
  /// independent).
  template <typename Fn>
  void RemoveCoveredBy(const MarkingView& m, Stats* stats, Fn&& victim) {
    const MarkingSummary ms = ExtendedSummary(m);
    const bool m_exact = m.size() <= 32;
    const uint32_t m_omega = static_cast<uint32_t>(ms.support >> 32);
    for (size_t bi = 0; bi < buckets_.size();) {
      Bucket& bucket = buckets_[bi];
      ++stats->bucket_probes;
      if (!SummaryMayDominate(bucket.key, ms)) {
        stats->skipped += bucket.entries.size();
        ++bi;
        continue;
      }
      // ω-cover fast accept, covering direction: every nonzero
      // dimension of the bucket's (shared, exact) support meets an ω
      // of m, proving entry ≤ m for every exact entry without a
      // payload compare.
      const bool omega_accept =
          m_exact &&
          (static_cast<uint32_t>(bucket.key.support) & ~m_omega) == 0;
      FilterBucket(bucket, m, omega_accept, stats, victim);
      if (bucket.entries.empty()) {
        EraseBucket(bi);  // replaces bi with the last bucket
      } else {
        ++bi;
      }
    }
    if (!wild_.entries.empty()) {
      ++stats->bucket_probes;
      size_t kept = 0;
      for (Entry& e : wild_.entries) {
        if (!SummaryMayDominate(e.summary, ms)) {
          ++stats->skipped;
          wild_.entries[kept++] = e;
          continue;
        }
        if (m_exact && e.exact &&
            (static_cast<uint32_t>(e.summary.support) & ~m_omega) == 0) {
          ++stats->skipped;
          victim(e.node);
          continue;
        }
        ++stats->payload_probes;
        if (DominanceLeq(e.marking, m)) {
          victim(e.node);
        } else {
          wild_.entries[kept++] = e;
        }
      }
      size_ -= wild_.entries.size() - kept;
      wild_.entries.resize(kept);
    }
  }

  /// Live entries across all buckets.
  size_t size() const { return size_; }
  /// Live buckets (the wild bucket counts as one when non-empty).
  size_t num_buckets() const {
    return buckets_.size() + (wild_.entries.empty() ? 0 : 1);
  }

 private:
  struct Entry {
    int node;
    MarkingView marking;
    MarkingSummary summary;  // exact per-entry summary (wild filtering)
    /// Width <= 32: each summary bit is one dimension (no group wrap),
    /// so the ω-cover fast accept may trust the words as exact sets.
    bool exact;
  };
  struct Bucket {
    MarkingSummary key;
    std::vector<Entry> entries;  // ascending node id
  };
  struct SummaryHash {
    size_t operator()(const MarkingSummary& s) const {
      size_t seed = 0;
      HashMix(&seed, s.support);
      HashMix(&seed, s.magnitude);
      return seed;
    }
  };

  /// ω-saturated summaries (every supported group holds an ω) route to
  /// the wild bucket: such entries absorb whole magnitude classes and
  /// would otherwise spread across many tiny exact-key buckets.
  static bool IsWild(const MarkingSummary& s) {
    const uint32_t nonzero = static_cast<uint32_t>(s.support);
    const uint32_t omega = static_cast<uint32_t>(s.support >> 32);
    return nonzero != 0 && omega == nonzero;
  }

  template <typename Fn>
  void FilterBucket(Bucket& bucket, const MarkingView& m, bool omega_accept,
                    Stats* stats, Fn&& victim) {
    size_t kept = 0;
    for (Entry& e : bucket.entries) {
      if (omega_accept && e.exact) {
        ++stats->skipped;
        victim(e.node);
        continue;
      }
      ++stats->payload_probes;
      if (DominanceLeq(e.marking, m)) {
        victim(e.node);
      } else {
        bucket.entries[kept++] = e;  // stable: keeps ascending id order
      }
    }
    size_ -= bucket.entries.size() - kept;
    bucket.entries.resize(kept);
  }

  void EraseBucket(size_t bi);

  std::vector<Bucket> buckets_;
  Bucket wild_;
  std::unordered_map<MarkingSummary, size_t, SummaryHash> bucket_of_;
  size_t size_ = 0;
};

}  // namespace has

#endif  // HAS_VASS_DOMINANCE_INDEX_H_
