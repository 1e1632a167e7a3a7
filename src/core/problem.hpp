// Immutable per-search context: the scheduling instance plus everything
// precomputed from it (levels, node-equivalence classes, processor
// automorphisms, ready-node priority order, the heuristic upper bound).
// Shared read-only by all PPE threads in the parallel algorithm.
#pragma once

#include <memory>
#include <vector>

#include "dag/equivalence.hpp"
#include "dag/graph.hpp"
#include "dag/levels.hpp"
#include "machine/automorphism.hpp"
#include "machine/machine.hpp"
#include "sched/schedule.hpp"

namespace optsched::core {

using dag::NodeId;
using machine::CommMode;
using machine::ProcId;

class SearchProblem {
 public:
  SearchProblem(const dag::TaskGraph& graph, const machine::Machine& machine,
                CommMode comm = CommMode::kUnitDistance);

  /// Warm construction after an InstanceDelta: reuse what the delta cannot
  /// have changed instead of recomputing from scratch. Levels are patched
  /// via dag::update_levels restricted to the seeds' cones (pass an empty
  /// `level_seeds` when the graph is unchanged — the previous levels are
  /// copied verbatim), and the processor automorphism group is copied when
  /// `machine_changed` is false. `previous` must describe the pre-delta
  /// instance with the same node count. The result is bit-identical to a
  /// cold SearchProblem of (graph, machine, comm).
  SearchProblem(const dag::TaskGraph& graph, const machine::Machine& machine,
                CommMode comm, const SearchProblem& previous,
                const std::vector<bool>& level_seeds, bool machine_changed);

  const dag::TaskGraph& graph() const noexcept { return *graph_; }
  const machine::Machine& machine() const noexcept { return *machine_; }
  CommMode comm() const noexcept { return comm_; }
  const dag::Levels& levels() const noexcept { return levels_; }
  const dag::NodeEquivalence& equivalence() const noexcept { return equiv_; }
  const machine::AutomorphismGroup& automorphisms() const noexcept {
    return autos_;
  }

  std::uint32_t num_nodes() const noexcept {
    return static_cast<std::uint32_t>(graph_->num_nodes());
  }
  std::uint32_t num_procs() const noexcept { return machine_->num_procs(); }

  /// Scale factor turning a static level (sum of node weights) into an
  /// admissible execution-time lower bound on a heterogeneous machine.
  double sl_scale() const noexcept { return sl_scale_; }

  /// Rank of a node in the paper's ready-node ordering (descending
  /// b-level + t-level; rank 0 = highest priority). Ties by smaller id.
  std::uint32_t priority_rank(NodeId n) const { return priority_rank_[n]; }

  /// Inverse permutation of priority_rank: node_by_rank()[r] is the node
  /// with rank r. Lets the expansion ready-bitset iterate in rank order.
  const std::vector<NodeId>& node_by_rank() const noexcept {
    return node_by_rank_;
  }

  /// static_level[n] * sl_scale and weight(n) * sl_scale, precomputed so
  /// the heuristic inner loops read contiguous arrays with no per-element
  /// multiply (and so scalar and wide paths share the exact same doubles).
  const std::vector<double>& scaled_static_level() const noexcept {
    return scaled_static_level_;
  }
  const std::vector<double>& scaled_weight() const noexcept {
    return scaled_weight_;
  }

  /// The paper's upper-bound heuristic schedule (the incumbent the search
  /// starts from) and its makespan U.
  const sched::Schedule& upper_bound_schedule() const noexcept { return *ub_; }
  double upper_bound() const noexcept { return ub_len_; }

 private:
  /// Priority ranks + upper-bound schedule, shared by both constructors.
  void init_derived();

  const dag::TaskGraph* graph_;
  const machine::Machine* machine_;
  CommMode comm_;
  dag::Levels levels_;
  dag::NodeEquivalence equiv_;
  machine::AutomorphismGroup autos_;
  std::vector<std::uint32_t> priority_rank_;
  std::vector<NodeId> node_by_rank_;
  std::shared_ptr<const sched::Schedule> ub_;
  double ub_len_ = 0.0;
  double sl_scale_ = 1.0;
  std::vector<double> scaled_static_level_;
  std::vector<double> scaled_weight_;
};

}  // namespace optsched::core
