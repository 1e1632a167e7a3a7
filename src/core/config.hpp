// Search configuration: pruning toggles (paper §3.2), heuristic selection,
// the Aε* approximation factor (§3.4), and resource limits.
#pragma once

#include <cstdint>

#include "core/controls.hpp"
#include "core/heuristics.hpp"

namespace optsched::core {

/// The paper's state-space pruning techniques, individually toggleable so
/// Table 1's "A* full" column (no pruning) and the ablation bench can be
/// reproduced. Duplicate detection via the CLOSED/SEEN set is part of the
/// base A* algorithm (its absence makes the search an exhaustive tree walk)
/// and is listed here only for experimentation.
struct PruneConfig {
  bool processor_isomorphism = true;
  bool node_equivalence = true;
  bool upper_bound = true;
  bool duplicate_detection = true;

  /// Paper fidelity switch for the upper-bound rule. The paper discards a
  /// state only when f(s) > U ("greater than"), which keeps the entire
  /// f == U frontier alive when the heuristic schedule is already optimal
  /// — a common case. Our default discards f(s) >= bound and treats the
  /// heuristic schedule as an incumbent (classic B&B semantics), proving
  /// optimality by exhausting every state strictly cheaper than it. Set
  /// true to reproduce the paper's search tree (e.g. Figure 3) exactly.
  bool strict_upper_bound = false;

  /// All §3.2 techniques on (the paper's "A*" column).
  static PruneConfig all() { return {}; }

  /// No §3.2 techniques (the paper's "A* full" column). Duplicate
  /// detection stays on — it is part of the base algorithm.
  static PruneConfig none() {
    return {.processor_isomorphism = false,
            .node_equivalence = false,
            .upper_bound = false,
            .duplicate_detection = true,
            .strict_upper_bound = false};
  }

  /// Exactly the paper's §3.2 behaviour (Figure 3's worked example).
  static PruneConfig paper() {
    PruneConfig p;
    p.strict_upper_bound = true;
    return p;
  }
};

struct SearchConfig {
  PruneConfig prune{};
  HFunction h = HFunction::kPaper;

  /// Weighted A*: child f = g + h_weight * h. 1.0 = optimal A*; w > 1
  /// returns a solution within factor w of optimal, faster (extension).
  double h_weight = 1.0;

  /// Aε* (paper §3.4): when > 0, expand from the FOCAL list
  /// {s : f(s) <= (1+epsilon) * min f} choosing the smallest h; the
  /// returned schedule is within (1+epsilon) of optimal.
  double epsilon = 0.0;

  /// Update the incumbent as soon as a goal state is *generated* (not just
  /// expanded), tightening the upper-bound pruning threshold on the fly —
  /// anytime branch-and-bound behaviour. Disabled in paper-fidelity mode.
  bool incumbent_updates = true;

  /// Resource limits; 0 = unlimited. When a limit is hit the search
  /// returns the best schedule known so far (never worse than the
  /// upper-bound heuristic's) with proved_optimal = false.
  std::uint64_t max_expansions = 0;
  double time_budget_ms = 0.0;
  /// Cap on search-state memory (arena + CLOSED set + OPEN list). Honored
  /// exactly by the serial A*/Aε*; the parallel engine enforces it as a
  /// per-PPE share; IDA* runs in O(v) and never trips it.
  std::size_t max_memory_bytes = 0;

  /// Cooperative cancellation and progress observation (see controls.hpp).
  SearchControls controls{};

  /// Exactly the paper's algorithm as described (for fidelity tests):
  /// strict f > U pruning, goal recognized at expansion only.
  static SearchConfig paper_faithful() {
    SearchConfig c;
    c.prune = PruneConfig::paper();
    c.incumbent_updates = false;
    return c;
  }
};

enum class Termination : std::uint8_t {
  kOptimal,          ///< goal popped with minimum f (or OPEN exhausted)
  kBoundedOptimal,   ///< Aε*/weighted A* goal within the configured factor
  kExpansionLimit,
  kTimeLimit,
  kMemoryLimit,      ///< SearchConfig::max_memory_bytes reached
  kCancelled,        ///< SearchControls::cancel was triggered
  kHeuristic,        ///< polynomial list heuristic ran (no optimality proof)
};

const char* to_string(Termination t);

}  // namespace optsched::core
