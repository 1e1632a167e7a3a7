#include "bnb/chen_yu.hpp"

#include <algorithm>
#include <limits>

#include "core/open_list.hpp"
#include "core/search_kernel.hpp"
#include "core/signature.hpp"
#include "util/timer.hpp"

namespace optsched::bnb {

using core::kNoParent;
using core::OpenEntry;
using core::OpenList;
using core::SearchProblem;
using core::State;
using core::StateArena;
using core::StateIndex;
using core::StepAction;
using dag::NodeId;
using machine::ProcId;

namespace {

/// DP over (path position, processor): minimal finish time of the last
/// path node, given path[0] = the just-scheduled node fixed on `proc`
/// finishing at `finish`. Communication between consecutive path nodes is
/// charged per the machine's comm model ("matching the execution path
/// against the processor graph").
double match_path(const SearchProblem& problem,
                  const std::vector<NodeId>& path, ProcId proc,
                  double finish) {
  const auto& graph = problem.graph();
  const auto& machine = problem.machine();
  const std::uint32_t p = machine.num_procs();

  if (path.size() == 1) return finish;

  std::vector<double> cur(p), next(p);
  // Position 0 is fixed on `proc`.
  const double first_edge_cost = [&] {
    for (const auto& [child, cost] : graph.children(path[0]))
      if (child == path[1]) return cost;
    OPTSCHED_ASSERT(false);
    return 0.0;
  }();
  for (ProcId q = 0; q < p; ++q) {
    const double arrive =
        finish + machine.comm_delay(first_edge_cost, proc, q, problem.comm());
    cur[q] = arrive + machine.exec_time(graph.weight(path[1]), q);
  }
  for (std::size_t i = 2; i < path.size(); ++i) {
    double edge_cost = 0.0;
    for (const auto& [child, cost] : graph.children(path[i - 1]))
      if (child == path[i]) {
        edge_cost = cost;
        break;
      }
    for (ProcId q = 0; q < p; ++q) {
      double best = std::numeric_limits<double>::infinity();
      for (ProcId r = 0; r < p; ++r) {
        const double arrive =
            cur[r] + machine.comm_delay(edge_cost, r, q, problem.comm());
        best = std::min(best, arrive);
      }
      next[q] = best + machine.exec_time(graph.weight(path[i]), q);
    }
    std::swap(cur, next);
  }
  return *std::min_element(cur.begin(), cur.end());
}

/// Kernel policy for the Chen & Yu best-first branch-and-bound: the shared
/// pop/goal/limit loop with the expensive path-matching underestimate as
/// the expansion step. No stale filter and no incumbent pruning — the
/// baseline expands every ready node on every processor (the §3.2
/// isomorphism/equivalence reasoning is Kwok & Ahmad's addition).
struct ChenYuPolicy {
  ChenYuPolicy(const SearchProblem& p, const ChenYuConfig& c,
               ChenYuResult& r)
      : problem(p), config(c), result(r), ctx(p), seen(1 << 12) {
    ctx.set_stats(&result.stats);
    State root;
    root.sig = core::root_signature();
    root.parent = kNoParent;
    const StateIndex root_idx = arena.add(root);
    seen.insert(core::root_signature());
    open.push({0.0, 0.0, root_idx});
  }

  const SearchProblem& problem;
  const ChenYuConfig& config;
  ChenYuResult& result;
  StateArena arena;
  core::ExpansionContext ctx;
  util::FlatSet128 seen;
  OpenList open;
  OpenEntry current{};
  std::optional<StateIndex> goal;

  bool keep_searching() const { return !goal.has_value(); }

  bool pop(StateIndex& out) {
    if (open.empty()) return false;
    current = open.pop();
    out = current.index;
    return true;
  }

  bool on_empty() { return false; }

  StepAction classify(StateIndex idx) {
    return arena.hot(idx).depth() == problem.num_nodes() ? StepAction::kGoal
                                                         : StepAction::kExpand;
  }

  void on_goal(StateIndex idx) {
    // Best-first on an admissible bound: the first complete schedule
    // popped is optimal.
    goal = idx;
    result.proved_optimal = true;
  }

  void expand(StateIndex idx) {
    ctx.move_to(arena, idx);
    ++result.stats.expanded;
    const util::Key128 parent_sig = arena.sig(idx);
    const std::uint32_t parent_depth = arena.hot(idx).depth();

    for (const NodeId n : ctx.ready()) {
      for (ProcId p = 0; p < problem.num_procs(); ++p) {
        const double st = ctx.start_time(n, p);
        const double ft =
            st + problem.machine().exec_time(problem.graph().weight(n), p);
        const double g = std::max(ctx.g(), ft);

        const double lb = std::max(
            g, chen_yu_underestimate(problem, n, p, ft,
                                     config.max_paths_per_eval,
                                     &result.paths_evaluated));

        const util::Key128 sig = core::extend_signature(parent_sig, n, p, ft);
        if (!seen.insert(sig)) continue;

        State child;
        child.sig = sig;
        child.finish = ft;
        child.g = g;
        child.h = lb - g;  // store so f == lb
        child.parent = idx;
        child.node = n;
        child.proc = p;
        child.depth = parent_depth + 1;
        const StateIndex child_idx = arena.add(child);
        ++result.stats.generated;
        open.push({lb, g, child_idx});
      }
    }
  }

  void after_expand() {}

  std::uint64_t expanded_count() const { return result.stats.expanded; }

  std::size_t memory_now() const {
    return arena.memory_bytes() + seen.memory_bytes() + open.memory_bytes();
  }

  void maybe_progress(core::KernelGuard& guard) {
    guard.maybe_progress(result.stats.expanded, current.f,
                         problem.upper_bound());
  }
};

}  // namespace

double chen_yu_underestimate(const SearchProblem& problem, NodeId node,
                             ProcId proc, double finish,
                             std::size_t max_paths,
                             std::uint64_t* paths_counter) {
  const auto& graph = problem.graph();

  // Enumerate all root-to-exit paths starting at `node` by explicit DFS.
  double bound = finish;
  std::vector<NodeId> path{node};
  std::vector<std::size_t> child_cursor{0};
  std::size_t paths = 0;
  bool capped = false;

  while (!path.empty()) {
    const NodeId top = path.back();
    const auto children = graph.children(top);
    std::size_t& cursor = child_cursor.back();
    if (children.empty()) {
      // Complete path: match against the processor graph.
      if (++paths > max_paths) {
        capped = true;
        break;
      }
      bound = std::max(bound, match_path(problem, path, proc, finish));
      path.pop_back();
      child_cursor.pop_back();
      continue;
    }
    if (cursor == children.size()) {
      path.pop_back();
      child_cursor.pop_back();
      continue;
    }
    path.push_back(children[cursor++].node);
    child_cursor.push_back(0);
  }
  if (paths_counter) *paths_counter += paths;
  if (capped) return finish;  // admissible fallback (g-only information)
  return bound;
}

ChenYuResult chen_yu_schedule(const SearchProblem& problem,
                              const ChenYuConfig& config) {
  StateArena::require_packable(problem.num_nodes(), problem.num_procs());
  util::Timer timer;
  ChenYuResult result{sched::Schedule(problem.upper_bound_schedule()), 0.0,
                      false, core::Termination::kOptimal, {}, 0};
  ChenYuPolicy policy(problem, config, result);
  core::KernelGuard guard(
      config.controls,
      {config.max_expansions, config.time_budget_ms, config.max_memory_bytes},
      timer);

  if (const auto hit = core::run_search_loop(guard, policy))
    result.reason = *hit;

  if (policy.goal) {
    result.schedule =
        core::reconstruct_schedule(problem, policy.arena, *policy.goal);
  }
  result.makespan = result.schedule.makespan();
  result.stats.peak_memory_bytes = policy.memory_now();
  result.stats.elapsed_seconds = timer.seconds();
  sched::validate(result.schedule);
  return result;
}

}  // namespace optsched::bnb
