#include "bnb/chen_yu.hpp"

#include <gtest/gtest.h>

#include "bnb/exhaustive.hpp"
#include "core/astar.hpp"
#include "dag/generators.hpp"

namespace optsched::bnb {
namespace {

using core::SearchProblem;
using machine::Machine;

TEST(ChenYu, OptimalOnPaperExample) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  const SearchProblem problem(g, m);
  const auto r = chen_yu_schedule(problem);
  EXPECT_DOUBLE_EQ(r.makespan, 14.0);
  EXPECT_TRUE(r.proved_optimal);
  EXPECT_NO_THROW(sched::validate(r.schedule));
  EXPECT_GT(r.paths_evaluated, 0u);
}

TEST(ChenYu, MatchesOracleAcrossSeeds) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    dag::RandomDagParams p;
    p.num_nodes = 7;
    p.ccr = 1.0;
    p.seed = seed;
    const auto g = dag::random_dag(p);
    const auto m = Machine::fully_connected(2);
    const SearchProblem problem(g, m);
    const double oracle = exhaustive_schedule(g, m).makespan;
    EXPECT_DOUBLE_EQ(chen_yu_schedule(problem).makespan, oracle) << seed;
  }
}

TEST(ChenYu, UnderestimateIsAdmissibleAtRootAssignments) {
  // For the first assignment (n -> p at its earliest time), the Chen & Yu
  // bound must never exceed the true optimum of the whole problem.
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    dag::RandomDagParams params;
    params.num_nodes = 7;
    params.ccr = 1.0;
    params.seed = seed;
    const auto g = dag::random_dag(params);
    const auto m = Machine::fully_connected(2);
    const SearchProblem problem(g, m);
    const double opt = exhaustive_schedule(g, m).makespan;

    for (const dag::NodeId n : g.entry_nodes()) {
      const double ft = g.weight(n);  // entry task starting at 0 on proc 0
      const double lb = chen_yu_underestimate(problem, n, 0, ft, 4096);
      EXPECT_LE(lb, opt + 1e-9) << "seed " << seed << " node " << n;
      EXPECT_GE(lb, ft - 1e-9);
    }
  }
}

TEST(ChenYu, UnderestimateOnChainIsExactPath) {
  // For a pure chain the path bound is exact: sum of weights + min comm
  // (zero when co-located).
  const auto g = dag::chain(4, 10.0, 5.0);
  const auto m = Machine::fully_connected(2);
  const SearchProblem problem(g, m);
  const double lb = chen_yu_underestimate(problem, 0, 0, 10.0, 4096);
  EXPECT_DOUBLE_EQ(lb, 40.0);
}

TEST(ChenYu, UnderestimateExitNodeIsItsFinish) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  const SearchProblem problem(g, m);
  // n6 (index 5) is the unique exit node.
  EXPECT_DOUBLE_EQ(chen_yu_underestimate(problem, 5, 1, 42.0, 4096), 42.0);
}

TEST(ChenYu, PathCapFallsBackToFinishTime) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  const SearchProblem problem(g, m);
  // Cap of 0 paths forces the admissible g-only fallback.
  EXPECT_DOUBLE_EQ(chen_yu_underestimate(problem, 0, 0, 2.0, 0), 2.0);
}

TEST(ChenYu, ExpandsMoreStatesThanAStar) {
  // The whole point of Table 1: identical optimum, more work per state and
  // no Kwok-Ahmad prunings.
  for (std::uint64_t seed : {11u, 12u}) {
    dag::RandomDagParams p;
    p.num_nodes = 8;
    p.ccr = 1.0;
    p.seed = seed;
    const auto g = dag::random_dag(p);
    const auto m = Machine::fully_connected(3);
    const SearchProblem problem(g, m);

    const auto astar = core::astar_schedule(problem);
    const auto chen = chen_yu_schedule(problem);
    EXPECT_DOUBLE_EQ(chen.makespan, astar.makespan);
    EXPECT_GE(chen.stats.expanded, astar.stats.expanded);
  }
}

TEST(ChenYu, RespectsExpansionLimit) {
  dag::RandomDagParams p;
  p.num_nodes = 18;
  p.ccr = 1.0;
  p.seed = 13;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(4);
  const SearchProblem problem(g, m);
  ChenYuConfig cfg;
  cfg.max_expansions = 100;
  const auto r = chen_yu_schedule(problem, cfg);
  EXPECT_FALSE(r.proved_optimal);
  EXPECT_EQ(r.reason, core::Termination::kExpansionLimit);
  EXPECT_NO_THROW(sched::validate(r.schedule));  // upper-bound fallback
}

TEST(ChenYu, RespectsTimeLimit) {
  dag::RandomDagParams p;
  p.num_nodes = 22;
  p.ccr = 1.0;
  p.seed = 14;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(4);
  const SearchProblem problem(g, m);
  ChenYuConfig cfg;
  cfg.time_budget_ms = 50;
  const auto r = chen_yu_schedule(problem, cfg);
  if (!r.proved_optimal) {
    EXPECT_EQ(r.reason, core::Termination::kTimeLimit);
  }
  EXPECT_NO_THROW(sched::validate(r.schedule));
}

TEST(ChenYu, HopScaledCommModel) {
  // The underestimate "matches paths against the processor graph" — under
  // kHopScaled the matching must respect distances.
  const auto g = dag::chain(2, 5.0, 4.0);
  const auto m = Machine::chain(3);
  const SearchProblem problem(g, m, machine::CommMode::kHopScaled);
  // First task on proc 0 finishing at 5; best continuation keeps the
  // child co-located: 5 + 5 = 10.
  EXPECT_DOUBLE_EQ(chen_yu_underestimate(problem, 0, 0, 5.0, 4096), 10.0);
  const auto r = chen_yu_schedule(problem);
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
}

}  // namespace
}  // namespace optsched::bnb
