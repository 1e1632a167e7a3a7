#include "core/problem.hpp"

#include <algorithm>
#include <numeric>

#include "sched/list_scheduler.hpp"

namespace optsched::core {

SearchProblem::SearchProblem(const dag::TaskGraph& graph,
                             const machine::Machine& machine, CommMode comm)
    : graph_(&graph),
      machine_(&machine),
      comm_(comm),
      levels_(dag::compute_levels(graph)),
      equiv_(graph),
      autos_(machine) {
  OPTSCHED_REQUIRE(graph.finalized(), "SearchProblem requires finalize()");
  init_derived();
}

SearchProblem::SearchProblem(const dag::TaskGraph& graph,
                             const machine::Machine& machine, CommMode comm,
                             const SearchProblem& previous,
                             const std::vector<bool>& level_seeds,
                             bool machine_changed)
    : graph_(&graph),
      machine_(&machine),
      comm_(comm),
      levels_(level_seeds.empty()
                  ? previous.levels_
                  : dag::update_levels(graph, previous.levels_, level_seeds)),
      equiv_(graph),
      autos_(machine_changed ? machine::AutomorphismGroup(machine)
                             : previous.autos_) {
  OPTSCHED_REQUIRE(graph.finalized(), "SearchProblem requires finalize()");
  OPTSCHED_REQUIRE(graph.num_nodes() == previous.graph().num_nodes(),
                   "warm SearchProblem: node count changed");
  init_derived();
}

void SearchProblem::init_derived() {
  sl_scale_ = 1.0 / machine_->max_speed();

  // Paper §3.2: ready nodes are considered in decreasing b-level + t-level.
  std::vector<NodeId> order(graph_->num_nodes());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const double pa = levels_.priority(a), pb = levels_.priority(b);
    if (pa != pb) return pa > pb;
    return a < b;
  });
  priority_rank_.assign(graph_->num_nodes(), 0);
  for (std::uint32_t r = 0; r < order.size(); ++r)
    priority_rank_[order[r]] = r;
  node_by_rank_ = std::move(order);

  ub_ = std::make_shared<const sched::Schedule>(
      sched::upper_bound_schedule(*graph_, *machine_, comm_));
  ub_len_ = ub_->makespan();

  const std::size_t v = graph_->num_nodes();
  scaled_static_level_.resize(v);
  scaled_weight_.resize(v);
  for (NodeId n = 0; n < v; ++n) {
    scaled_static_level_[n] = levels_.static_level[n] * sl_scale_;
    scaled_weight_[n] = graph_->weight(n) * sl_scale_;
  }
}

}  // namespace optsched::core
