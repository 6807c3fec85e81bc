// Transition records (TaskVass::record) and the edges that carry them,
// over the bench families (POR on and off) and every property of the
// committed specs, for every R_T entry reachable from the root:
//   - an edge's label is its target state, and the record of that label
//     names the target's service; a record's child key names a computed
//     entry, its result index lies inside the entry's returning set and
//     is -1 exactly for a "(non-returning)" opening; and the record
//     agrees with the target state's own stage of the opened child
//     (β_c, ⊥, outcome). This is why one record per state suffices.
//   - every edge into a blocking state has an empty delta. The root cut
//     (TaskVass::Successors) relies on it: such an edge is enabled at
//     every marking, so the pass that emits it cuts.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/rt_relation.h"
#include "core/verifier.h"
#include "spec/parser.h"
#include "test_paths.h"
#include "workloads.h"

namespace has {

/// Reads the child stages and outcomes of TaskVass states.
class TaskVassTestPeer {
 public:
  static const ChildStage& Stage(const TaskVass& vass, int state, int child) {
    return vass.stages(state)[child];
  }
  /// The pooled (type, cell) of outcome `id`.
  static std::pair<TypeId, CellId> Outcome(const TaskVass& vass, int id) {
    const TaskVass::OutcomeKey& o = vass.outcome_keys_[static_cast<size_t>(id)];
    return {o.iso, o.cell};
  }
};

namespace {

using EntryCheck = std::function<void(const RtEngine&, const ArtifactSystem&,
                                      const RtEngine::Entry&,
                                      const std::string&)>;

/// Runs the root query of `property` and calls `check` on every entry
/// reachable from a root entry through the records' child keys.
void ForEachEntry(const std::string& what, const ArtifactSystem& system,
                  const HltlProperty& property, const VerifierOptions& options,
                  const EntryCheck& check) {
  const HltlProperty negated = property.Negated();
  std::optional<Hcd> hcd;
  if (SystemUsesArithmetic(system, property)) {
    hcd = BuildSystemHcd(system, negated);
  }
  RtEngine engine(&system, &negated, options,
                  hcd.has_value() ? &*hcd : nullptr);
  engine.CheckRoot();
  const Task& root = system.task(system.root());
  PartialIsoType empty_input(&system.schema(), &root.vars(),
                             engine.context(system.root()).nav_depth());
  std::vector<RtQueryKey> keys;
  std::unordered_set<RtQueryKey, RtQueryKeyHash> seen;
  const auto add = [&](const RtQueryKey& key) {
    if (engine.FindEntry(key) != nullptr && seen.insert(key).second) {
      keys.push_back(key);
    }
  };
  for (Assignment beta = 0; beta < 64; ++beta) {
    add(engine.EntryKey(system.root(), empty_input, Cell(), beta));
  }
  ASSERT_FALSE(keys.empty()) << what;
  for (size_t i = 0; i < keys.size(); ++i) {
    const RtEngine::Entry& entry = *engine.FindEntry(keys[i]);
    for (int s = 0; s < entry.vass->num_states(); ++s) {
      if (entry.vass->record(s).child_key.valid()) {
        add(entry.vass->record(s).child_key);
      }
    }
    check(engine, system, entry,
          what + " entry " + std::to_string(i) + " (task " +
              std::to_string(entry.task) + ")");
  }
}

/// Every bench family and every committed spec property, POR on and
/// off.
void ForEachRun(const EntryCheck& check) {
  std::vector<bench::Workload> families;
  for (bool arith : {false, true}) {
    families.push_back(bench::MakeWorkload(SchemaClass::kAcyclic, 3, 2,
                                           /*with_sets=*/true, arith));
  }
  families.push_back(bench::MakeWorkload(SchemaClass::kCyclic, 3, 2,
                                         /*with_sets=*/true, false));
  families.push_back(bench::MakeDeepHierarchy(4, 3));
  families.push_back(bench::MakeAdversarialCyclic(4, 2));
  families.push_back(bench::MakeMultiSet(3, 2, 2));
  for (int k = 1; k <= 3; ++k) {
    families.push_back(bench::MakeMultiRelation(3, 2, k));
  }
  for (int k = 1; k <= 2; ++k) {
    families.push_back(bench::MakeSlicedMultiRelation(3, 2, k));
  }
  for (int w = 2; w <= 4; ++w) {
    families.push_back(bench::MakeCommutingServices(w, 2));
  }
  families.push_back(
      bench::WithHoldingProperty(bench::MakeDeepHierarchy(4, 3)));
  families.push_back(
      bench::WithHoldingProperty(bench::MakeMultiRelation(3, 2, 2)));
  families.push_back(
      bench::WithHoldingProperty(bench::MakeCommutingServices(3, 2)));
  for (bool por : {false, true}) {
    VerifierOptions options;
    options.por = por;
    const std::string mode = por ? " por=1" : " por=0";
    for (const bench::Workload& w : families) {
      ForEachEntry(w.name + mode, w.system, w.property, options, check);
    }
    for (const std::string& path : SpecFiles("examples/specs")) {
      auto parsed = ParseSpec(ReadFile(path));
      ASSERT_TRUE(parsed.ok()) << path;
      for (const auto& [name, property] : parsed->properties) {
        ForEachEntry(path + ":" + name + mode, parsed->system, property,
                     options, check);
      }
    }
  }
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

TEST(TransitionRecordTest, EdgeLabelIsTargetStateAndRecordMatchesIt) {
  size_t edges = 0;
  size_t openings = 0;
  size_t bottoms = 0;
  ForEachRun([&](const RtEngine& engine, const ArtifactSystem& system,
                 const RtEngine::Entry& entry, const std::string& where) {
    const TaskVass& vass = *entry.vass;
    const KarpMiller& graph = *entry.graph;
    for (int n = 0; n < graph.num_nodes(); ++n) {
      for (const KarpMiller::Edge& e : graph.edges(n)) {
        if (e.label() < 0) continue;  // a retired node's cover-edge
        ++edges;
        const int target = graph.node_state(e.target);
        ASSERT_EQ(e.label(), target) << where << ", node " << n;
        EXPECT_EQ(vass.record(e.label()).service, vass.state_service(target))
            << where << ", node " << n;
      }
    }
    const std::vector<TaskId>& children = system.task(entry.task).children();
    for (int s = 0; s < vass.num_states(); ++s) {
      const TransitionRecord& rec = vass.record(s);
      const std::string at = where + ", state " + std::to_string(s);
      const bool bottom_note = EndsWith(rec.note, "(non-returning)");
      if (!rec.child_key.valid()) {
        EXPECT_EQ(rec.child_result_index, -1) << at;
        EXPECT_FALSE(bottom_note) << at;
        continue;
      }
      ++openings;
      const RtEngine::Entry* child = engine.FindEntry(rec.child_key);
      ASSERT_NE(child, nullptr) << at;
      EXPECT_EQ(rec.child_result_index == -1, bottom_note) << at;
      ASSERT_LT(rec.child_result_index,
                static_cast<int>(child->result.returning.size()))
          << at;
      // The record agrees with the target state's stage of the child.
      ASSERT_EQ(rec.service.kind, ServiceRef::Kind::kOpening) << at;
      EXPECT_EQ(rec.child_key.task, rec.service.task) << at;
      const int c = static_cast<int>(
          std::find(children.begin(), children.end(), rec.service.task) -
          children.begin());
      ASSERT_LT(c, static_cast<int>(children.size())) << at;
      const ChildStage& stage = TaskVassTestPeer::Stage(vass, s, c);
      EXPECT_EQ(rec.child_key.beta, stage.beta) << at;
      EXPECT_EQ(stage.kind == ChildStage::Kind::kActiveBottom, bottom_note)
          << at;
      if (rec.child_result_index < 0) {
        ++bottoms;
        continue;
      }
      ASSERT_EQ(stage.kind, ChildStage::Kind::kActive) << at;
      const ChildOutcome& want =
          child->result.returning[static_cast<size_t>(rec.child_result_index)];
      const auto [iso, cell] = TaskVassTestPeer::Outcome(vass, stage.outcome);
      EXPECT_EQ(engine.pool().type(iso).Signature(), want.iso.Signature())
          << at;
      EXPECT_TRUE(engine.pool().cell(cell) == want.cell) << at;
    }
  });
  EXPECT_GT(edges, 0u);
  EXPECT_GT(openings, 0u);
  EXPECT_GT(bottoms, 0u);
}

// The root cut's premise: every edge into a blocking state opens or
// closes a child and changes no counter, so the cutting edge rule
// catches every route into ⊥ and the expansion fallback in
// TaskVass::Successors never fires.
TEST(TransitionRecordTest, EdgesIntoBlockingStatesHaveEmptyDeltas) {
  size_t into_blocking = 0;
  ForEachRun([&](const RtEngine&, const ArtifactSystem&,
                 const RtEngine::Entry& entry, const std::string& where) {
    const KarpMiller& graph = *entry.graph;
    for (int n = 0; n < graph.num_nodes(); ++n) {
      for (const KarpMiller::Edge& e : graph.edges(n)) {
        if (e.label() < 0) continue;  // a retired node's cover-edge
        if (!entry.vass->IsBlocking(graph.node_state(e.target))) continue;
        ++into_blocking;
        EXPECT_TRUE(e.delta().empty()) << where << ", node " << n;
      }
    }
  });
  EXPECT_GT(into_blocking, 0u);
}

// A step whose input-bound retrieve finds nothing is dropped before
// anything is allocated for it. `step` inserts y's tuple into N (not
// input-bound once `fill` has set y) and retrieves the null tuple (which
// is input-bound) from B, which nothing fills: every such step is
// dropped, and no counter dimension may appear for its insert.
TEST(TransitionRecordTest, DroppedStepAllocatesNoDimension) {
  StatusOr<ParsedSpec> spec = ParseSpec(R"(
system {
  relation R { }
  task Main {
    ids: x, y;
    set N (y);
    set B (x);
    service fill { pre: true; post: y != null; }
    service step {
      pre: true;
      post: x == null;
      insert into N;
      retrieve from B;
    }
  }
}
property never_steps { G ! svc(step) }
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const HltlProperty& property = spec->properties[0].second;
  const ServiceRef fill = ServiceRef::Internal(spec->system.root(), 0);
  const ServiceRef step = ServiceRef::Internal(spec->system.root(), 1);
  size_t states = 0;
  size_t filled = 0;
  ForEachEntry("dropped step", spec->system, property, VerifierOptions{},
               [&](const RtEngine&, const ArtifactSystem&,
                   const RtEngine::Entry& entry, const std::string& where) {
                 TaskVass& vass = *entry.vass;
                 EXPECT_EQ(vass.num_dimensions(), 0) << where;
                 for (int s = 0; s < vass.num_states(); ++s) {
                   std::vector<VassEdge> out;
                   vass.Successors(s, &out);
                   for (const VassEdge& e : out) {
                     EXPECT_NE(vass.state_service(e.target), step) << where;
                   }
                   if (vass.state_service(s) == fill) ++filled;
                 }
                 states += static_cast<size_t>(vass.num_states());
                 EXPECT_EQ(vass.num_dimensions(), 0) << where;
               });
  EXPECT_GT(states, 0u);
  EXPECT_GT(filled, 0u);
  // Slicing would remove the dead `step` before the engine sees it.
  VerifierOptions options;
  options.slice = false;
  const VerifyResult result = Verify(spec->system, property, options);
  EXPECT_EQ(result.verdict, Verdict::kHolds);
  EXPECT_EQ(result.stats.counter_dims, 0u);
}

}  // namespace
}  // namespace has
