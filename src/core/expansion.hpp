// State expansion: rebuilding a state's schedule context from its parent
// chain and generating successor states (paper §3.1's expansion operator
// with §3.2's pruning techniques applied).
//
// States store only their last assignment (core/state.hpp); the full
// partial-schedule context — per-node finish times and processors, per-
// processor ready times, the ready list — lives in ExpansionContext.
// A full rebuild (`load`) replays the whole chain in O(depth + e).
// `move_to` exploits frontier locality instead: consecutive pops from OPEN
// are usually near each other in the search tree, so it finds the lowest
// common ancestor of the currently loaded state and the target, rewinds
// assignments back to the LCA through an undo stack, and replays only the
// divergent suffix — falling back to `load` when the delta would do more
// assignment work than a full replay. Both paths are deterministic, so the
// recomputed times equal the stored ones exactly (asserted), and the
// full/incremental split is observable through ExpandStats.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/heuristics.hpp"
#include "core/problem.hpp"
#include "core/signature.hpp"
#include "core/state.hpp"
#include "util/counters.hpp"
#include "util/flat_set.hpp"

namespace optsched::core {

/// Counters accumulated across expansions (reported in SearchResult).
struct ExpandStats {
  std::uint64_t expanded = 0;          ///< states whose successors were built
  std::uint64_t generated = 0;         ///< successor states stored
  std::uint64_t duplicates_dropped = 0;///< successors already seen
  std::uint64_t pruned_upper_bound = 0;
  std::uint64_t skipped_equivalence = 0;  ///< ready nodes skipped (Def. 3)
  std::uint64_t skipped_isomorphism = 0;  ///< processors skipped (Def. 2)
  std::uint64_t loads_full = 0;           ///< context rebuilt from the root
  std::uint64_t loads_incremental = 0;    ///< context delta-replayed via LCA
  std::uint64_t assignments_replayed = 0; ///< apply ops across all loads

  friend bool operator==(const ExpandStats&, const ExpandStats&) = default;

  /// The counter list (util/counters.hpp).
  template <class V, class... S>
  static void for_each_counter(V&& v, S&... s) {
    using namespace util::counter_rows;
    v(C{"expanded", kSum}, s.expanded...);
    v(C{"generated", kSum}, s.generated...);
    v(C{"duplicates_dropped", kSum}, s.duplicates_dropped...);
    v(C{"pruned_upper_bound", kSum}, s.pruned_upper_bound...);
    v(C{"skipped_equivalence", kSum}, s.skipped_equivalence...);
    v(C{"skipped_isomorphism", kSum}, s.skipped_isomorphism...);
    v(C{"loads_full", kSum}, s.loads_full...);
    v(C{"loads_incremental", kSum}, s.loads_incremental...);
    v(C{"assignments_replayed", kSum}, s.assignments_replayed...);
  }
};

/// Reconstructed schedule context of one state. One instance per search
/// thread; all storage is reused across load()/move_to() calls.
class ExpansionContext {
 public:
  explicit ExpansionContext(const SearchProblem& problem);

  /// Rebuild the context for `arena[index]` from scratch.
  void load(const StateArena& arena, StateIndex index);

  /// Bring the context to `arena[index]` by rewinding to the lowest common
  /// ancestor of the currently loaded state and replaying the divergent
  /// suffix; falls back to load() past the divergence threshold (or when
  /// nothing valid is loaded). Bit-exact with a fresh load().
  void move_to(const StateArena& arena, StateIndex index);

  /// Forget the loaded state (e.g. the arena was cleared or swapped).
  void invalidate() noexcept { attached_ = false; }

  /// The arena dropped every index >= first_dropped (StateArena::truncate);
  /// forget the loaded state if it was among them. Surviving indices keep
  /// their contents, so a loaded state below the cut stays valid.
  void invalidate_from(StateIndex first_dropped) noexcept {
    if (attached_ && loaded_ >= first_dropped) attached_ = false;
  }

  /// Counter sink for load/replay accounting (may be null).
  void set_stats(ExpandStats* stats) noexcept { stats_ = stats; }

  const SearchProblem& problem() const noexcept { return *problem_; }

  bool scheduled(NodeId n) const { return proc_of_[n] != machine::kInvalidProc; }
  double finish_time(NodeId n) const { return finish_[n]; }
  ProcId proc_of(NodeId n) const { return proc_of_[n]; }
  double proc_ready(ProcId p) const { return proc_ready_[p]; }
  const std::vector<bool>& busy() const noexcept { return busy_; }
  double g() const noexcept { return g_; }
  NodeId nmax() const noexcept { return nmax_; }
  std::uint32_t depth() const noexcept { return depth_; }

  /// Ready nodes in the paper's priority order (descending b+t level).
  /// Readiness is kept as a rank-indexed bitset (O(1) insert/remove in
  /// apply/rewind instead of a sorted-vector memmove); this accessor
  /// materializes it into a reused scratch vector — the hot expansion
  /// loop iterates the bitset words directly and never pays for this.
  const std::vector<NodeId>& ready() const {
    ready_list_.clear();
    for_each_ready([&](NodeId n) { ready_list_.push_back(n); });
    return ready_list_;
  }

  /// Visit ready nodes in priority-rank order: a ctz scan over the bitset
  /// words — same order the sorted ready vector historically produced
  /// (ranks are unique). `fn` must not change readiness.
  template <typename Fn>
  void for_each_ready(Fn&& fn) const {
    const std::vector<NodeId>& by_rank = problem_->node_by_rank();
    for (std::size_t w = 0; w < ready_bits_.size(); ++w) {
      std::uint64_t bits = ready_bits_[w];
      while (bits != 0) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        fn(by_rank[(w << 6) + b]);
      }
    }
  }

  /// Earliest start of `n` on `p` given this context (append semantics).
  double start_time(NodeId n, ProcId p) const;

  ScheduleView view() const {
    return {finish_.data(), proc_of_.data(), g_, nmax_, depth_};
  }

  /// Assignment sequence (root to this state) — for schedule reconstruction
  /// and for serializing states across PPEs.
  const std::vector<std::pair<NodeId, ProcId>>& assignments() const noexcept {
    return assignment_seq_;
  }

 private:
  friend class Expander;

  /// Undo record for one applied assignment.
  struct Undo {
    NodeId node;
    ProcId proc;
    double prev_proc_ready;
    double prev_g;
    NodeId prev_nmax;
    bool prev_busy;
  };

  /// Reset to the empty schedule (O(v + p)).
  void reset();
  /// Schedule `n` on `p` on top of the current context; returns the finish
  /// time. Maintains ready list, pending counts, and the undo stack.
  double apply(NodeId n, ProcId p);
  /// Undo the most recent apply().
  void rewind_one();
  /// apply() the stored assignment of arena[i] and record it on the path.
  void replay_state(const StateArena& arena, StateIndex i);

  void ready_insert(NodeId n);
  void ready_remove(NodeId n);

  const SearchProblem* problem_;
  std::vector<double> finish_;
  std::vector<ProcId> proc_of_;
  std::vector<double> proc_ready_;
  std::vector<bool> busy_;
  /// Readiness bitset indexed by priority rank (bit r = node_by_rank[r]).
  std::vector<std::uint64_t> ready_bits_;
  mutable std::vector<NodeId> ready_list_;  ///< ready() scratch
  std::vector<std::uint32_t> pending_parents_;
  std::vector<StateIndex> chain_;   // scratch for parent walks
  std::vector<StateIndex> path_;    // arena indices root -> loaded, by depth
  std::vector<Undo> undo_;          // parallel to path_
  std::vector<std::pair<NodeId, ProcId>> assignment_seq_;
  double g_ = 0.0;
  NodeId nmax_ = dag::kInvalidNode;
  std::uint32_t depth_ = 0;

  const StateArena* arena_ = nullptr;
  StateIndex loaded_ = 0;
  bool attached_ = false;
  ExpandStats* stats_ = nullptr;
};

/// Generates the successors of a state, applying the configured pruning.
/// The same Expander instance must not be used concurrently; the parallel
/// algorithm creates one per PPE.
class Expander {
 public:
  Expander(const SearchProblem& problem, const SearchConfig& config);

  /// Expand arena[index]. Every surviving successor is appended to `arena`
  /// and reported through `emit(StateIndex, const State&)`; the State
  /// reference is the generation record, valid only during the callback
  /// (copy it or re-read through the arena to keep it). `seen` is the
  /// pluggable duplicate-detection probe — any type with
  /// `bool insert(const util::Key128&)` returning true for a first-seen
  /// signature: the serial engines pass a thread-local FlatSet128, the
  /// parallel transports pass their mode's structure (PPE-local set, or
  /// the hash-sharded global table). `prune_bound` is the current
  /// upper-bound threshold (the incumbent makespan, or the static U in
  /// paper-fidelity mode); children with f >= bound (f > bound when
  /// strict_upper_bound) are discarded.
  template <typename Seen, typename Emit>
  void expand(StateArena& arena, Seen& seen, StateIndex index,
              double prune_bound, Emit&& emit);

  ExpandStats& stats() noexcept { return stats_; }
  const ExpandStats& stats() const noexcept { return stats_; }
  const ExpansionContext& context() const noexcept { return ctx_; }

  /// Forward arena invalidations to the owned context (IDA* truncation).
  void invalidate_context_from(StateIndex first_dropped) noexcept {
    ctx_.invalidate_from(first_dropped);
  }
  void invalidate_context() noexcept { ctx_.invalidate(); }

  /// Unweighted h of arena[index] under *this* problem (loads the context).
  /// Used by the warm-start path: for the root it is the instance's global
  /// lower bound (the instant-proof test), and generally it re-derives the
  /// value a cold search would have stored.
  double state_h(const StateArena& arena, StateIndex index);

  /// Recompute h (times the configured weight) for arena indices
  /// [1, arena.size()) and patch the stored f values. The root (index 0)
  /// keeps h = 0, matching make_root(). Warm-start retention calls this
  /// after truncating the arena to the clean prefix: the retained g values
  /// replay identically under the new instance, but h was computed against
  /// the old one and a stale (possibly inadmissible) f would break the
  /// optimality proof when the delta lowered costs.
  void repatch_h(StateArena& arena);

 private:
  /// Build the child state for (node -> proc) on top of the loaded context.
  /// Returns false if the child was pruned.
  template <typename Seen, typename Emit>
  bool try_emit_child(StateArena& arena, Seen& seen, StateIndex parent_index,
                      NodeId node, ProcId proc, double prune_bound,
                      Emit&& emit);

  const SearchProblem* problem_;
  SearchConfig config_;
  ExpansionContext ctx_;
  ExpandStats stats_;
  std::vector<double> h_scratch_;
  std::vector<ProcId> proc_rep_;
  std::vector<bool> class_taken_;
  /// Signature of the state being expanded, copied once per expand (a
  /// reference into the cold array would dangle across arena growth).
  util::Key128 parent_sig_{};
};

// ---- implementation of the templated members ----------------------------

template <typename Seen, typename Emit>
void Expander::expand(StateArena& arena, Seen& seen, StateIndex index,
                      double prune_bound, Emit&& emit) {
  ctx_.move_to(arena, index);
  ++stats_.expanded;
  parent_sig_ = arena.sig(index);

  const auto& autos = problem_->automorphisms();
  const std::uint32_t p = problem_->num_procs();

  // Processor isomorphism (Def. 2 / automorphism orbits): try only one
  // representative per equivalence class of processors.
  if (config_.prune.processor_isomorphism) {
    autos.state_classes(ctx_.busy_, proc_rep_);
  } else {
    proc_rep_.resize(p);
    for (ProcId q = 0; q < p; ++q) proc_rep_[q] = q;
  }

  // Node equivalence (Def. 3): among ready nodes of one equivalence class,
  // expand only the first (equivalent nodes tie in priority and are
  // ordered by id, so the first seen is the smallest id).
  const auto& equiv = problem_->equivalence();
  if (config_.prune.node_equivalence) {
    class_taken_.assign(problem_->num_nodes(), false);
  }

  ctx_.for_each_ready([&](const NodeId n) {
    if (config_.prune.node_equivalence) {
      const NodeId rep = equiv.representative(n);
      if (class_taken_[rep]) {
        ++stats_.skipped_equivalence;
        return;
      }
      class_taken_[rep] = true;
    }
    for (ProcId q = 0; q < p; ++q) {
      if (proc_rep_[q] != q) {
        ++stats_.skipped_isomorphism;
        continue;
      }
      try_emit_child(arena, seen, index, n, q, prune_bound, emit);
    }
  });
}

template <typename Seen, typename Emit>
bool Expander::try_emit_child(StateArena& arena, Seen& seen,
                              StateIndex parent_index, NodeId node,
                              ProcId proc, double prune_bound, Emit&& emit) {
  const double st = ctx_.start_time(node, proc);
  const double ft =
      st + problem_->machine().exec_time(problem_->graph().weight(node), proc);
  const double child_g = std::max(ctx_.g_, ft);

  // Temporarily extend the context so the heuristic sees the child state.
  // Only the fields ScheduleView reads are touched; the ready list, undo
  // stack, and processor-ready times stay at the parent state.
  const NodeId saved_nmax = ctx_.nmax_;
  const double saved_g = ctx_.g_;
  ctx_.finish_[node] = ft;
  ctx_.proc_of_[node] = proc;
  ctx_.g_ = child_g;
  if (ft > saved_g || saved_nmax == dag::kInvalidNode) ctx_.nmax_ = node;
  ctx_.depth_ += 1;

  const double h =
      evaluate_h(config_.h, *problem_, ctx_.view(), h_scratch_.data()) *
      config_.h_weight;

  // Restore the context before any early return.
  ctx_.finish_[node] = 0.0;
  ctx_.proc_of_[node] = machine::kInvalidProc;
  ctx_.g_ = saved_g;
  ctx_.nmax_ = saved_nmax;
  ctx_.depth_ -= 1;

  const double f = child_g + h;
  if (config_.prune.upper_bound) {
    const bool over = config_.prune.strict_upper_bound
                          ? f > prune_bound + 1e-9
                          : f >= prune_bound - 1e-9;
    if (over) {
      ++stats_.pruned_upper_bound;
      return false;
    }
  }

  const util::Key128 sig = extend_signature(parent_sig_, node, proc, ft);
  if (config_.prune.duplicate_detection && !seen.insert(sig)) {
    ++stats_.duplicates_dropped;
    return false;
  }

  State child;
  child.sig = sig;
  child.finish = ft;
  child.g = child_g;
  child.h = h;
  child.parent = parent_index;
  child.node = node;
  child.proc = proc;
  child.depth = ctx_.depth_ + 1;

  const StateIndex idx = arena.add(child);
  ++stats_.generated;
  emit(idx, child);
  return true;
}

/// Rebuild the complete schedule a goal state denotes.
sched::Schedule reconstruct_schedule(const SearchProblem& problem,
                                     const StateArena& arena,
                                     StateIndex goal_index);

}  // namespace optsched::core
