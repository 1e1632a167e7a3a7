// End-to-end reproduction of the paper's worked example (Figures 1-4):
// scheduling the 6-node DAG of Figure 1(a) onto the 3-processor ring of
// Figure 1(b).
#include <gtest/gtest.h>

#include "bnb/chen_yu.hpp"
#include "bnb/exhaustive.hpp"
#include "core/astar.hpp"
#include "core/ida_star.hpp"
#include "dag/graph.hpp"
#include "parallel/parallel_astar.hpp"

namespace optsched {
namespace {

constexpr double kPaperOptimal = 14.0;  // Figure 4's schedule length

TEST(PaperExample, AStarFindsOptimal14) {
  const auto g = dag::paper_figure1();
  const auto m = machine::Machine::paper_ring3();
  const auto r = core::astar_schedule(g, m);
  EXPECT_DOUBLE_EQ(r.makespan, kPaperOptimal);
  EXPECT_TRUE(r.proved_optimal);
  EXPECT_EQ(r.reason, core::Termination::kOptimal);
  EXPECT_NO_THROW(sched::validate(r.schedule));
}

TEST(PaperExample, ExhaustiveConfirms14) {
  const auto g = dag::paper_figure1();
  const auto m = machine::Machine::paper_ring3();
  EXPECT_DOUBLE_EQ(bnb::exhaustive_schedule(g, m).makespan, kPaperOptimal);
}

TEST(PaperExample, PaperFaithfulModePopsTheGoal) {
  const auto g = dag::paper_figure1();
  const auto m = machine::Machine::paper_ring3();
  const auto cfg = core::SearchConfig::paper_faithful();
  const auto r = core::astar_schedule(g, m, cfg);
  EXPECT_DOUBLE_EQ(r.makespan, kPaperOptimal);
  EXPECT_TRUE(r.proved_optimal);
  // The paper's trace generates 26 states and expands 9; our expansion
  // order differs in tie-breaking, but the tree must stay the same order
  // of magnitude (all prunings active) — far below the >3^6 = 729-state
  // exhaustive tree the paper compares against.
  EXPECT_LE(r.stats.generated, 100u);
  EXPECT_LE(r.stats.expanded, 60u);
  EXPECT_GE(r.stats.generated, 20u);
}

TEST(PaperExample, PruningShrinksSearchTree) {
  const auto g = dag::paper_figure1();
  const auto m = machine::Machine::paper_ring3();

  core::SearchConfig pruned = core::SearchConfig::paper_faithful();
  core::SearchConfig unpruned = pruned;
  unpruned.prune = core::PruneConfig::none();

  const auto with = core::astar_schedule(g, m, pruned);
  const auto without = core::astar_schedule(g, m, unpruned);
  EXPECT_DOUBLE_EQ(with.makespan, without.makespan);
  EXPECT_LT(with.stats.generated, without.stats.generated / 3);
  EXPECT_LT(with.stats.expanded, without.stats.expanded);
}

TEST(PaperExample, UpperBoundHeuristicWithinRangeOfOptimal) {
  const auto g = dag::paper_figure1();
  const auto m = machine::Machine::paper_ring3();
  const core::SearchProblem problem(g, m);
  EXPECT_GE(problem.upper_bound(), kPaperOptimal);
  EXPECT_LE(problem.upper_bound(), 2 * kPaperOptimal);
}

TEST(PaperExample, ChenYuBaselineAgreesButExpandsMore) {
  const auto g = dag::paper_figure1();
  const auto m = machine::Machine::paper_ring3();
  const core::SearchProblem problem(g, m);

  const auto astar = core::astar_schedule(problem,
                                          core::SearchConfig::paper_faithful());
  const auto chen = bnb::chen_yu_schedule(problem);
  EXPECT_DOUBLE_EQ(chen.makespan, kPaperOptimal);
  EXPECT_TRUE(chen.proved_optimal);
  // Chen & Yu lacks the §3.2 prunings: it must examine more states.
  EXPECT_GT(chen.stats.expanded, astar.stats.expanded);
}

TEST(PaperExample, IdaStarAgrees) {
  const auto g = dag::paper_figure1();
  const auto m = machine::Machine::paper_ring3();
  const auto r = core::ida_star_schedule(g, m);
  EXPECT_DOUBLE_EQ(r.makespan, kPaperOptimal);
  EXPECT_TRUE(r.proved_optimal);
}

TEST(PaperExample, ParallelAgreesFor2PPEs) {
  // Section 3.3 walks this exact configuration (2 PPEs) and reports the
  // parallel algorithm generating a few extra states but the same optimum.
  const auto g = dag::paper_figure1();
  const auto m = machine::Machine::paper_ring3();
  const core::SearchProblem problem(g, m);

  par::ParallelConfig cfg;
  cfg.num_ppes = 2;
  const auto r = par::parallel_astar_schedule(problem, cfg);
  EXPECT_DOUBLE_EQ(r.result.makespan, kPaperOptimal);
  EXPECT_TRUE(r.result.proved_optimal);
}

TEST(PaperExample, EveryHeuristicFindsTheOptimum) {
  const auto g = dag::paper_figure1();
  const auto m = machine::Machine::paper_ring3();
  for (core::HFunction h :
       {core::HFunction::kZero, core::HFunction::kPaper, core::HFunction::kPath,
        core::HFunction::kComposite}) {
    core::SearchConfig cfg;
    cfg.h = h;
    const auto r = core::astar_schedule(g, m, cfg);
    EXPECT_DOUBLE_EQ(r.makespan, kPaperOptimal) << core::to_string(h);
    EXPECT_TRUE(r.proved_optimal);
  }
}

TEST(PaperExample, OneProcessorDegeneratesToTotalWork) {
  const auto g = dag::paper_figure1();
  const auto m1 = machine::Machine::fully_connected(1);
  const auto r = core::astar_schedule(g, m1);
  EXPECT_DOUBLE_EQ(r.makespan, 19.0);  // sum of all node weights
}

TEST(PaperExample, MoreProcessorsNeverHurt) {
  const auto g = dag::paper_figure1();
  double last = 1e30;
  for (std::uint32_t p = 1; p <= 4; ++p) {
    const auto m = machine::Machine::fully_connected(p);
    const auto r = core::astar_schedule(g, m);
    EXPECT_TRUE(r.proved_optimal);
    EXPECT_LE(r.makespan, last + 1e-9);
    last = r.makespan;
  }
}

}  // namespace
}  // namespace optsched
