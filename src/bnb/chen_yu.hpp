// Reimplementation of the Chen & Yu branch-and-bound comparator [3]
// (G.-H. Chen and J.-S. Yu, "A Branch-And-Bound-With-Underestimates
// Algorithm for the Task Assignment Problem with Precedence Constraint",
// ICDCS 1990) as described in the paper's §2 — the baseline of Table 1.
//
// The algorithm is a best-first branch-and-bound over the same state space
// as the A* search, but its underestimate is deliberately expensive to
// evaluate: for a newly scheduled node n,
//
//   1. enumerate all complete execution paths from n to an exit node;
//   2. for each path, exhaustively match it against the processor graph —
//      a DP over (path position x processor) that finds the assignment of
//      the path's nodes minimizing communication-aware completion time;
//   3. the underestimate is the latest such minimal exit finish time.
//
// Kwok & Ahmad's point, which Table 1 quantifies, is that this per-state
// cost dominates the runtime even though the bound itself is reasonable;
// our reimplementation preserves exactly that property. Path enumeration
// is capped (`max_paths_per_eval`); beyond the cap the evaluation falls
// back to the g-only bound, which keeps the bound admissible.
#pragma once

#include "core/astar.hpp"
#include "core/problem.hpp"

namespace optsched::bnb {

struct ChenYuConfig {
  std::uint64_t max_expansions = 0;   ///< 0 = unlimited
  double time_budget_ms = 0.0;        ///< 0 = unlimited
  std::size_t max_memory_bytes = 0;   ///< 0 = unlimited
  std::size_t max_paths_per_eval = 4096;
  core::SearchControls controls{};    ///< cancellation + progress
};

struct ChenYuResult {
  sched::Schedule schedule;
  double makespan = 0.0;
  bool proved_optimal = false;
  core::Termination reason = core::Termination::kOptimal;
  /// Expanded/generated, the context-load split, arena + CLOSED + OPEN
  /// memory at the end, and the elapsed time.
  core::SearchStats stats;
  std::uint64_t paths_evaluated = 0;  ///< underestimate work
};

ChenYuResult chen_yu_schedule(const core::SearchProblem& problem,
                              const ChenYuConfig& config = {});

/// Evaluate the Chen & Yu underestimate for a node finishing at `finish` on
/// `proc` (exposed for admissibility tests). Returns a lower bound on the
/// finish time of the last exit node reachable from `node`.
double chen_yu_underestimate(const core::SearchProblem& problem,
                             dag::NodeId node, machine::ProcId proc,
                             double finish, std::size_t max_paths,
                             std::uint64_t* paths_counter = nullptr);

}  // namespace optsched::bnb
