#include "core/astar.hpp"

#include <algorithm>
#include <set>

#include "core/open_list.hpp"
#include "core/search_kernel.hpp"
#include "util/timer.hpp"

namespace optsched::core {

namespace {

State make_root() {
  State root;
  root.sig = root_signature();
  root.parent = kNoParent;
  root.depth = 0;
  root.g = 0.0;
  root.h = 0.0;
  return root;
}

/// Shared bookkeeping for both selection disciplines (plain A* and FOCAL).
struct SearchDriver {
  explicit SearchDriver(const SearchProblem& p, const SearchConfig& c,
                        WarmStart* w = nullptr)
      : problem(p),
        config(c),
        expander(p, c),
        seen(1 << 12),
        incumbent_len(p.upper_bound()),
        warm(w),
        guard(c.controls,
              {c.max_expansions, c.time_budget_ms, c.max_memory_bytes},
              timer) {
    if (warm && warm->seed_upper_bound < incumbent_len) {
      incumbent_len = warm->seed_upper_bound;
      seed_schedule = warm->seed_schedule;
    }
  }

  const SearchProblem& problem;
  SearchConfig config;
  Expander expander;
  StateArena arena;
  util::FlatSet128 seen;
  double incumbent_len;                  ///< best complete schedule known
  std::optional<StateIndex> incumbent;   ///< goal state achieving it (if any)
  /// Warm-start repaired incumbent (only when it beats the static U): the
  /// fallback schedule when the search proves nothing in the arena beats it.
  const sched::Schedule* seed_schedule = nullptr;
  WarmStart* warm = nullptr;           ///< null = cold solve
  std::vector<std::uint8_t> flags;     ///< per-arena expansion record (warm)
  std::vector<double> bounds;          ///< prune bound at expansion (warm)
  util::Timer timer;
  KernelGuard guard;

  bool is_goal_depth(std::uint32_t depth) const {
    return depth == problem.num_nodes();
  }

  /// Threshold passed to the expander's upper-bound pruning.
  double prune_bound() const {
    if (!config.prune.upper_bound) return 0.0;  // unused
    return config.prune.strict_upper_bound ? problem.upper_bound()
                                           : incumbent_len;
  }

  /// Expand through the Expander, keeping the warm-start expansion record
  /// current: which states were expanded, and whether any child was
  /// discarded by upper-bound pruning (that decision compared an f and a
  /// bound specific to this instance, so such an expansion cannot be
  /// trusted to replay from the arena and a future resolve re-expands it).
  template <typename Emit>
  void expand_state(StateIndex idx, Emit&& emit) {
    if (!warm) {
      expander.expand(arena, seen, idx, prune_bound(), emit);
      return;
    }
    const std::uint64_t pruned_before = expander.stats().pruned_upper_bound;
    const double bound = prune_bound();
    expander.expand(arena, seen, idx, bound, emit);
    flags.resize(arena.size(), 0);
    bounds.resize(arena.size(), 0.0);
    flags[idx] = WarmStart::kExpanded;
    bounds[idx] = bound;
    if (expander.stats().pruned_upper_bound != pruned_before)
      flags[idx] |= WarmStart::kBoundPruned;
  }

  /// Record a goal state if it beats the incumbent.
  void offer_goal(StateIndex idx) {
    const HotState& s = arena.hot(idx);
    OPTSCHED_ASSERT(is_goal_depth(s.depth()));
    if (s.g < incumbent_len) {
      incumbent_len = s.g;
      incumbent = idx;
    } else if (!incumbent) {
      // Equal to the heuristic bound: prefer the search's schedule so the
      // caller sees a goal found by A* (matters only for reporting).
      if (s.g <= incumbent_len) incumbent = idx;
    }
  }

  SearchResult finish(Termination reason, bool proved, double bound_factor,
                      std::size_t max_open, std::size_t open_mem) {
    SearchResult result{
        incumbent ? reconstruct_schedule(problem, arena, *incumbent)
        : seed_schedule
            ? sched::Schedule(*seed_schedule)
            : sched::Schedule(problem.upper_bound_schedule()),
        0.0, proved, bound_factor, reason, {}};
    result.makespan = result.schedule.makespan();
    util::merge_counters(result.stats, expander.stats());
    result.stats.max_open_size = max_open;
    result.stats.peak_memory_bytes =
        arena.memory_bytes() + seen.memory_bytes() + open_mem;
    result.stats.arena_hot_bytes = arena.hot_memory_bytes();
    result.stats.arena_cold_bytes = arena.cold_memory_bytes();
    result.stats.elapsed_seconds = timer.seconds();
    sched::validate(result.schedule);
    return result;
  }
};

// ---- plain A* (4-ary heap on (f, -g, index)) -----------------------------

struct AStarPolicy {
  explicit AStarPolicy(SearchDriver& driver)
      : d(driver), exact(driver.config.h_weight == 1.0) {}

  SearchDriver& d;
  OpenList open;
  OpenEntry current{};  ///< last popped entry (f drives progress/domination)
  std::size_t max_open = 1;
  bool exact;
  bool goal_popped = false;

  bool keep_searching() const { return !goal_popped; }

  bool pop(StateIndex& out) {
    if (open.empty()) return false;
    current = open.pop();
    out = current.index;
    return true;
  }

  bool on_empty() { return false; }  // serial: an empty frontier ends it

  StepAction classify(StateIndex idx) {
    // Incumbent domination: current.f is the minimum over OPEN, so nothing
    // left can strictly beat the incumbent — it is optimal (for exact
    // search). Paper-fidelity mode keeps the f == U frontier alive so the
    // goal is popped explicitly, as in the Figure 3 trace.
    const bool dominated = d.config.prune.strict_upper_bound
                               ? current.f > d.incumbent_len + 1e-9
                               : current.f >= d.incumbent_len - 1e-9;
    if (exact && dominated) return StepAction::kStop;
    if (d.is_goal_depth(d.arena.hot(idx).depth())) return StepAction::kGoal;
    return StepAction::kExpand;
  }

  void on_goal(StateIndex idx) {
    // Goal popped with minimum f: optimal (admissible h, exact dedup).
    d.offer_goal(idx);
    goal_popped = true;
  }

  void expand(StateIndex idx) {
    d.expand_state(idx, [&](StateIndex k, const State& child) {
      if (d.config.incumbent_updates && d.is_goal_depth(child.depth)) {
        d.offer_goal(k);
        return;  // complete: nothing to expand
      }
      open.push({child.f(), child.g, k});
    });
  }

  void after_expand() { max_open = std::max(max_open, open.size()); }

  std::uint64_t expanded_count() const { return d.expander.stats().expanded; }

  std::size_t memory_now() const {
    return d.arena.memory_bytes() + d.seen.memory_bytes() +
           open.memory_bytes();
  }

  void maybe_progress(KernelGuard& guard) {
    guard.maybe_progress(expanded_count(), current.f, d.incumbent_len);
  }
};

/// Seed OPEN + CLOSED from the arena. Cold start: a fresh root. Warm
/// start: CLOSED is pre-populated with the retained signatures (sound:
/// equal signatures imply an identical assignment multiset, hence equal
/// g), h is re-derived against the new instance, and retained states go
/// back onto OPEN — except skippable closed states (see WarmStart): for a
/// cost-only delta, a state the previous run fully expanded with no
/// bound-pruned child and no guard node ready re-expands to exactly the
/// children already in the arena, so it stays closed. That skip is where
/// a warm re-solve saves search work. Every state pushed back onto OPEN
/// has its expansion flags cleared: it is an OPEN member again, and if
/// this run ends without expanding it a stale kExpanded would otherwise
/// claim arena children that later compactions may have dropped.
template <typename Push>
void seed_frontier(SearchDriver& d, Push&& push) {
  if (d.arena.size() == 0) d.arena.add(make_root());
  if (d.warm) {
    d.flags.resize(d.arena.size(), 0);
    d.bounds.resize(d.arena.size(), 0.0);
  }
  const bool warm_arena = d.warm && d.arena.size() > 1;
  const bool allow_skip =
      warm_arena && d.warm->cost_only &&
      d.warm->guard_nodes.size() == d.problem.num_nodes();
  const double initial_prune = d.prune_bound();
  std::uint64_t skipped = 0;
  for (StateIndex i = 0; i < d.arena.size(); ++i) {
    d.seen.insert(d.arena.sig(i));
    if (warm_arena) {
      // Positions the expansion context on i (the guard test below reads
      // its ready list) and re-derives h against the new instance.
      const double h = d.expander.state_h(d.arena, i);
      if (i > 0) d.arena.patch_h(i, h * d.config.h_weight);
    }
    const std::uint8_t fl = d.warm ? d.flags[i] : 0;
    const bool replayable =
        (fl & WarmStart::kExpanded) &&
        (!(fl & WarmStart::kBoundPruned) ||
         (d.warm && d.warm->cost_nondecrease && d.bounds[i] >= initial_prune));
    if (allow_skip && replayable) {
      bool guard_ready = false;
      for (const dag::NodeId n : d.expander.context().ready())
        if (d.warm->guard_nodes[n]) {
          guard_ready = true;
          break;
        }
      if (!guard_ready) {
        ++skipped;
        continue;
      }
    }
    if (d.warm) d.flags[i] = 0;
    // Mirror generation-time upper-bound pruning for re-seeded states: a
    // retained state at or above the incumbent cannot lead to anything
    // better (admissible h), so it stays closed (its signature is already
    // in `seen`) without entering OPEN. The root is always pushed.
    if (warm_arena && i > 0 && d.config.prune.upper_bound) {
      const HotState& s = d.arena.hot(i);
      const bool over = d.config.prune.strict_upper_bound
                            ? s.f > d.problem.upper_bound() + 1e-9
                            : s.f >= d.incumbent_len - 1e-9;
      if (over && !d.is_goal_depth(s.depth())) continue;
    }
    push(i);
  }
  if (d.warm) d.warm->states_skipped = skipped;
}

SearchResult run_astar(SearchDriver& d) {
  AStarPolicy p(d);
  seed_frontier(d, [&](StateIndex i) {
    const HotState& s = d.arena.hot(i);
    p.open.push({s.f, s.g, i});
  });

  const double bound_factor = std::max(1.0, d.config.h_weight);

  if (const auto hit = run_search_loop(d.guard, p))
    return d.finish(*hit, false, bound_factor, p.max_open,
                    p.open.memory_bytes());

  if (p.goal_popped)
    return d.finish(
        p.exact ? Termination::kOptimal : Termination::kBoundedOptimal, true,
        p.exact ? 1.0 : bound_factor, p.max_open, p.open.memory_bytes());

  // OPEN exhausted or dominated: every complete schedule not examined was
  // proven >= the incumbent, so the incumbent is optimal.
  return d.finish(Termination::kOptimal, p.exact,
                  p.exact ? 1.0 : bound_factor, p.max_open,
                  p.open.memory_bytes());
}

// ---- Aε* (FOCAL) ---------------------------------------------------------
//
// OPEN is an ordered set by (f, -g); FOCAL is the prefix with
// f <= (1 + eps) * fmin, from which the entry with the smallest h (ties:
// larger g, then smaller index — deterministic) is expanded. Theorem 2:
// the first goal obtained this way costs at most (1+eps) * optimal.
struct FocalEntry {
  double f;
  double g;
  double h;
  StateIndex index;

  friend bool operator<(const FocalEntry& a, const FocalEntry& b) {
    if (a.f != b.f) return a.f < b.f;
    if (a.g != b.g) return a.g > b.g;
    return a.index < b.index;
  }
};

struct FocalPolicy {
  explicit FocalPolicy(SearchDriver& driver)
      : d(driver), eps(driver.config.epsilon) {}

  SearchDriver& d;
  std::set<FocalEntry> open;
  double eps;
  FocalEntry current{};
  double fmin_at_pop = 0.0;  ///< frontier minimum when `current` was chosen
  std::size_t max_open = 1;
  bool goal_popped = false;
  bool bound_reached = false;  ///< incumbent within (1+eps) of everything left
  bool bound_exact = false;

  bool keep_searching() {
    if (goal_popped || bound_reached) return false;
    if (open.empty()) return true;  // let pop report exhaustion
    // (1+eps)-termination: the incumbent is already within the guarantee
    // of everything that remains (optimal >= fmin).
    const double fmin = open.begin()->f;
    if (d.incumbent_len <= (1.0 + eps) * fmin + 1e-9) {
      bound_reached = true;
      bound_exact = d.incumbent_len <= fmin + 1e-9;
      return false;
    }
    return true;
  }

  bool pop(StateIndex& out) {
    if (open.empty()) return false;
    fmin_at_pop = open.begin()->f;
    const double bound = (1.0 + eps) * fmin_at_pop;

    // Select min-h within the FOCAL prefix. Any member of FOCAL preserves
    // the (1+eps) guarantee (Pearl & Kim: the secondary selection rule is
    // free), so the scan is capped to keep selection O(1) amortized —
    // beyond the cap the smallest-f member is as good a choice as any.
    constexpr int kFocalScanCap = 64;
    auto chosen = open.begin();
    int scanned = 0;
    for (auto it = open.begin(); it != open.end() && it->f <= bound + 1e-12 &&
                                 scanned < kFocalScanCap;
         ++it, ++scanned) {
      const bool better =
          it->h < chosen->h || (it->h == chosen->h && it->g > chosen->g);
      if (better) chosen = it;
    }
    current = *chosen;
    open.erase(chosen);
    out = current.index;
    return true;
  }

  bool on_empty() { return false; }

  StepAction classify(StateIndex idx) {
    return d.is_goal_depth(d.arena.hot(idx).depth()) ? StepAction::kGoal
                                                     : StepAction::kExpand;
  }

  void on_goal(StateIndex idx) {
    d.offer_goal(idx);
    goal_popped = true;
  }

  void expand(StateIndex idx) {
    d.expand_state(idx, [&](StateIndex k, const State& child) {
      if (d.config.incumbent_updates && d.is_goal_depth(child.depth)) {
        d.offer_goal(k);
        return;
      }
      open.insert({child.f(), child.g, child.h, k});
    });
  }

  void after_expand() { max_open = std::max(max_open, open.size()); }

  std::uint64_t expanded_count() const { return d.expander.stats().expanded; }

  /// Entry storage estimate for the FOCAL set (node-based; same factor as
  /// the parallel engine's accounting).
  std::size_t open_memory_bytes() const {
    return open.size() * sizeof(FocalEntry) * 3;
  }

  std::size_t memory_now() const {
    return d.arena.memory_bytes() + d.seen.memory_bytes() +
           open_memory_bytes();
  }

  void maybe_progress(KernelGuard& guard) {
    guard.maybe_progress(expanded_count(), fmin_at_pop, d.incumbent_len);
  }
};

SearchResult run_focal(SearchDriver& d) {
  FocalPolicy p(d);
  seed_frontier(d, [&](StateIndex i) {
    const HotState& s = d.arena.hot(i);
    p.open.insert({s.f, s.g, s.h(), i});
  });

  const double bound_factor =
      (1.0 + p.eps) * std::max(1.0, d.config.h_weight);

  if (const auto hit = run_search_loop(d.guard, p))
    return d.finish(*hit, false, bound_factor, p.max_open,
                    p.open_memory_bytes());

  if (p.bound_reached)
    return d.finish(p.bound_exact ? Termination::kOptimal
                                  : Termination::kBoundedOptimal,
                    true, p.bound_exact ? 1.0 : bound_factor, p.max_open,
                    p.open_memory_bytes());

  if (p.goal_popped) {
    const bool is_exact =
        p.current.f <= p.fmin_at_pop + 1e-9 && d.config.h_weight == 1.0;
    return d.finish(is_exact ? Termination::kOptimal
                             : Termination::kBoundedOptimal,
                    true, is_exact ? 1.0 : bound_factor, p.max_open,
                    p.open_memory_bytes());
  }

  return d.finish(Termination::kOptimal, d.config.h_weight == 1.0,
                  d.config.h_weight == 1.0 ? 1.0 : bound_factor, p.max_open,
                  p.open_memory_bytes());
}

/// Move the previous arena in and compact it to the clean subset: a state
/// survives iff its own assigned node is clean and its parent survived —
/// i.e. its whole chain avoids dirty nodes (parents precede children in
/// the arena, so one forward pass with index remapping suffices). A
/// surviving chain's stored g/finish/signature replay bit-identically
/// under the new instance (the context replay asserts exactly that in
/// debug builds); h is stale and is re-derived during frontier seeding.
/// The previous run's expansion record rides along under the same
/// remapping. Returns the retained count (0 = nothing reusable; the
/// caller starts from a cold root).
std::size_t retain_clean(SearchDriver& d, WarmStart& warm) {
  StateArena old = std::move(warm.arena);
  std::vector<std::uint8_t> old_flags = std::move(warm.expansion_flags);
  std::vector<double> old_bounds = std::move(warm.expansion_bounds);
  d.expander.invalidate_context();  // the context may point at old indices
  if (warm.instance_replaced || old.size() == 0 || !old.hot(0).is_root() ||
      warm.dirty_nodes.size() != d.problem.num_nodes())
    return 0;
  old_flags.resize(old.size(), 0);
  old_bounds.resize(old.size(), 0.0);
  std::vector<StateIndex> remap(old.size(), kNoParent);
  for (StateIndex i = 0; i < old.size(); ++i) {
    const HotState& hs = old.hot(i);
    State s;
    if (hs.is_root()) {
      s = make_root();
    } else {
      const dag::NodeId n = hs.node();
      if (n == dag::kInvalidNode || warm.dirty_nodes[n]) continue;
      if (hs.parent == kNoParent || remap[hs.parent] == kNoParent) continue;
      s.sig = old.sig(i);
      s.finish = old.finish(i);
      s.g = hs.g;
      s.h = hs.f - hs.g;  // stale; re-derived at seeding
      s.parent = remap[hs.parent];
      s.node = n;
      s.proc = hs.proc();
      s.depth = hs.depth();
    }
    remap[i] = d.arena.add(s);
    d.flags.push_back(old_flags[i]);
    d.bounds.push_back(old_bounds[i]);
  }
  return d.arena.size();
}

}  // namespace

SearchResult astar_schedule(const SearchProblem& problem,
                            const SearchConfig& config) {
  return astar_schedule(problem, config, nullptr);
}

SearchResult astar_schedule(const SearchProblem& problem,
                            const SearchConfig& config, WarmStart* warm) {
  OPTSCHED_REQUIRE(config.epsilon >= 0.0, "epsilon must be >= 0");
  OPTSCHED_REQUIRE(config.h_weight >= 1.0, "h_weight must be >= 1");
  StateArena::require_packable(problem.num_nodes(), problem.num_procs());
  SearchDriver driver(problem, config, warm);
  std::size_t retained = 0;
  if (warm) {
    warm->states_retained = 0;
    warm->states_skipped = 0;
    warm->instant_proof = false;
    retained = retain_clean(driver, *warm);
    warm->states_retained = retained;

    // Instant proof: the effective incumbent (the repaired seed, or the
    // static U when that is at least as good) already matches the root's
    // admissible lower bound (unweighted h of the empty schedule), so no
    // complete schedule can beat it — return it proved-optimal with zero
    // expansions. A cold solve of the same instance reaches the same
    // makespan (it is the optimum), so bit-agreement is preserved. The
    // expansion record is wiped: no seeding pass ran, so nothing verified
    // that recorded expansions still have their children in the arena.
    {
      if (driver.arena.size() == 0) driver.arena.add(make_root());
      const double root_lb = driver.expander.state_h(driver.arena, 0);
      if (driver.incumbent_len <= root_lb + 1e-9) {
        warm->instant_proof = true;
        warm->warm_used = retained > 0 || driver.seed_schedule != nullptr;
        SearchResult result = driver.finish(Termination::kOptimal, true, 1.0,
                                            /*max_open=*/0, /*open_mem=*/0);
        warm->arena = std::move(driver.arena);
        warm->expansion_flags.assign(warm->arena.size(), 0);
        warm->expansion_bounds.assign(warm->arena.size(), 0.0);
        return result;
      }
    }
    warm->warm_used = retained > 0 || driver.seed_schedule != nullptr;
  }
  SearchResult result =
      config.epsilon > 0.0 ? run_focal(driver) : run_astar(driver);
  if (warm) {
    driver.flags.resize(driver.arena.size(), 0);
    driver.bounds.resize(driver.arena.size(), 0.0);
    warm->arena = std::move(driver.arena);
    warm->expansion_flags = std::move(driver.flags);
    warm->expansion_bounds = std::move(driver.bounds);
  }
  return result;
}

SearchResult astar_schedule(const dag::TaskGraph& graph,
                            const machine::Machine& machine,
                            const SearchConfig& config, CommMode comm) {
  const SearchProblem problem(graph, machine, comm);
  return astar_schedule(problem, config);
}

}  // namespace optsched::core
