#include "parallel/parallel_astar.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "core/open_list.hpp"
#include "core/search_kernel.hpp"
#include "core/signature.hpp"
#include "parallel/dist_transport.hpp"
#include "util/timer.hpp"

namespace optsched::par {

using core::Expander;
using core::kNoParent;
using core::KernelGuard;
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

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-PPE OPEN list: the serial engine's 4-ary heap (core::OpenList) for
/// exact A*, so measured speedups compare like with like, and an ordered
/// set with the FOCAL selection rule for Aε*.
class PpeOpen {
 public:
  /// One frontier entry for batched pushes.
  struct Item {
    double f, g, h;
    StateIndex index;
  };

  explicit PpeOpen(double epsilon) : eps_(epsilon) {}

  bool empty() const {
    return eps_ > 0 ? set_.empty() : heap_.empty();
  }

  std::size_t size() const {
    return eps_ > 0 ? set_.size() : heap_.size();
  }

  double min_f() const {
    if (empty()) return kInf;
    return eps_ > 0 ? set_.begin()->f : heap_.top().f;
  }

  void push(double f, double g, double h, StateIndex idx) {
    if (eps_ > 0)
      set_.insert({f, g, h, idx});
    else
      heap_.push({f, g, idx});
  }

  /// Batched insert: one O(n) heapify for the heap case
  /// (OpenList::push_batch) — used for transferred/stolen state batches.
  void push_batch(const std::vector<Item>& items) {
    if (eps_ > 0) {
      for (const Item& it : items) set_.insert({it.f, it.g, it.h, it.index});
      return;
    }
    std::vector<OpenEntry> entries;
    entries.reserve(items.size());
    for (const Item& it : items) entries.push_back({it.f, it.g, it.index});
    heap_.push_batch(entries);
  }

  /// Remove and return the next state to expand (A*: min (f, -g, index);
  /// Aε*: min h within the f <= (1+eps)*fmin prefix, scan capped — any
  /// FOCAL member preserves the guarantee; see core/astar.cpp).
  StateIndex pop_best() {
    OPTSCHED_ASSERT(!empty());
    if (eps_ == 0) return heap_.pop().index;
    constexpr int kFocalScanCap = 64;
    const double bound = (1.0 + eps_) * set_.begin()->f + 1e-12;
    auto chosen = set_.begin();
    int scanned = 0;
    for (auto it = set_.begin();
         it != set_.end() && it->f <= bound && scanned < kFocalScanCap;
         ++it, ++scanned) {
      const bool better =
          it->h < chosen->h || (it->h == chosen->h && it->g > chosen->g);
      if (better) chosen = it;
    }
    const StateIndex idx = chosen->index;
    set_.erase(chosen);
    return idx;
  }

  /// Remove up to `count` entries biased away from the best (load
  /// sharing). `live_bound` is the incumbent bound *at extraction time*:
  /// the underlying queues re-apply it so a donation band computed before
  /// the incumbent tightened cannot ship dead states (f >= bound).
  std::vector<StateIndex> extract_surplus(std::size_t count,
                                          double live_bound) {
    std::vector<StateIndex> out;
    if (eps_ == 0) {
      for (const auto& e : heap_.extract_surplus(count, live_bound))
        out.push_back(e.index);
      return out;
    }
    while (out.size() < count && set_.size() > 1) {
      auto last = std::prev(set_.end());
      out.push_back(last->index);
      set_.erase(last);
    }
    return out;
  }

  /// Remove the up-to-`count` best entries (work-stealing donations).
  std::vector<StateIndex> extract_best(std::size_t count) {
    std::vector<StateIndex> out;
    while (out.size() < count && !empty()) out.push_back(pop_best());
    return out;
  }

  void clear() {
    heap_.clear();
    set_.clear();
  }

  /// Entry storage (heap capacity, or node estimate for the FOCAL set —
  /// same factor as the serial Aε*'s accounting in core/astar.cpp).
  std::size_t memory_bytes() const {
    return heap_.memory_bytes() + set_.size() * sizeof(Entry) * 3;
  }

 private:
  struct Entry {
    double f, g, h;
    StateIndex index;
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.f != b.f) return a.f < b.f;
      if (a.g != b.g) return a.g > b.g;
      return a.index < b.index;
    }
  };

  double eps_;
  OpenList heap_;
  std::set<Entry> set_;
};

struct Shared {
  Shared(const SearchProblem& p, const ParallelConfig& c)
      : problem(p),
        config(c),
        incumbent(std::min(p.upper_bound(), c.seed_upper_bound)),
        transport(make_transport(c, p, done)) {}

  const SearchProblem& problem;
  const ParallelConfig& config;
  std::atomic<bool> done{false};  ///< before transport: it keeps a pointer
  core::SharedIncumbent<std::vector<std::pair<NodeId, ProcId>>> incumbent;
  std::unique_ptr<Transport> transport;

  /// 0 none, 1 expansions, 2 time, 3 cancelled, 4 memory.
  std::atomic<int> abort_reason{0};
  std::atomic<std::uint64_t> total_expanded{0};
  util::Timer timer;

  /// Register a complete schedule; keeps the best across all PPEs.
  void offer_incumbent(double len,
                       std::vector<std::pair<NodeId, ProcId>> seq) {
    if (incumbent.offer(len, std::move(seq)) && config.naive_termination)
      done.store(true);
  }

  double incumbent_bound() const { return incumbent.bound(); }

  /// Progress callbacks are serialized here so PPEs can report from their
  /// own threads without requiring a thread-safe user callback.
  std::mutex progress_mu;
  core::ProgressGate progress_gate{config.search.controls};  ///< ditto

  void maybe_progress() {
    const auto& controls = config.search.controls;
    if (!controls.progress) return;  // cheap pre-check before locking
    const std::uint64_t expanded =
        total_expanded.load(std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(progress_mu);
    if (!progress_gate.open(expanded)) return;
    const double lower_bound = transport->global_lower_bound();
    controls.progress({expanded, lower_bound == kInf ? 0.0 : lower_bound,
                       incumbent_bound(), timer.seconds()});
  }
};

/// One search worker. The main loop is the shared kernel
/// (core/search_kernel.hpp) instantiated over this PPE's thread-local
/// frontier/arena; Ppe itself is the kernel policy, and doubles as the
/// PpeHost the transport endpoint manipulates.
class Ppe final : public PpeHost {
 public:
  Ppe(Shared& shared, std::uint32_t id)
      : shared_(shared),
        id_(id),
        expander_(shared.problem, shared.config.search),
        import_ctx_(shared.problem),
        import_scratch_(2 * std::size_t{shared.problem.num_nodes()}, 0.0),
        import_finish_(shared.problem.num_nodes(), 0.0),
        import_proc_of_(shared.problem.num_nodes(), machine::kInvalidProc),
        import_proc_ready_(shared.problem.num_procs(), 0.0),
        open_(shared.config.search.epsilon),
        link_(shared.transport->connect(id)),
        progress_gate_(shared.config.search.controls) {}

  void run();

  const core::ExpandStats& stats() const { return expander_.stats(); }

  /// This PPE's search-state memory (arena + OPEN list + its share of the
  /// transport's structures — the local SEEN set or the sharded table).
  /// Arena and dedup structures only grow, and OPEN is small next to
  /// them, so the end-of-run value is within one OPEN list of the peak.
  std::size_t memory_bytes() const {
    return arena_.memory_bytes() + open_.memory_bytes() +
           link_->memory_bytes();
  }
  std::size_t arena_hot_bytes() const { return arena_.hot_memory_bytes(); }
  std::size_t arena_cold_bytes() const { return arena_.cold_memory_bytes(); }

  // ---- kernel policy interface -------------------------------------------

  bool keep_searching() const {
    return !shared_.done.load(std::memory_order_acquire);
  }

  bool pop(StateIndex& out) {
    // Fast-drop a fully dominated frontier (everything >= incumbent).
    if (!open_.empty() && dominated()) open_.clear();
    if (open_.empty()) return false;
    link_->mark_busy();
    out = open_.pop_best();
    return true;
  }

  /// Empty frontier: the transport's refill/steal/quiescence dance.
  /// Always continues the loop — either the transport refills OPEN, or
  /// global quiescence flips the done flag keep_searching() observes.
  bool on_empty() {
    link_->on_empty(*this);
    return true;
  }

  StepAction classify(StateIndex idx) {
    const core::HotState& s = arena_.hot(idx);
    if (s.depth() == shared_.problem.num_nodes()) return StepAction::kGoal;
    if (exact() && s.f >= shared_.incumbent_bound() - 1e-9)
      return StepAction::kSkip;  // stale
    return StepAction::kExpand;
  }

  void on_goal(StateIndex idx) {
    shared_.offer_incumbent(arena_.hot(idx).g, assignment_sequence(idx));
  }

  void expand(StateIndex idx) {
    LinkSeen seen{link_.get()};
    expander_.expand(arena_, seen, idx, prune_bound(),
                     [&](StateIndex child_idx, const State& child) {
                       accept_child(child_idx, child);
                     });
    shared_.total_expanded.fetch_add(1, std::memory_order_relaxed);
  }

  void after_expand() { link_->after_expand(*this); }

  std::uint64_t expanded_count() const {
    return shared_.total_expanded.load(std::memory_order_relaxed);
  }

  std::size_t memory_now() const { return memory_bytes(); }

  /// Progress goes through the shared serialized reporter; the local gate
  /// only bounds how often this PPE takes the shared lock.
  void maybe_progress(KernelGuard&) {
    if (progress_gate_.open(expanded_count())) shared_.maybe_progress();
  }

  // ---- PpeHost interface (called by the transport) -----------------------

  std::uint32_t id() const override { return id_; }
  std::size_t frontier_size() const override { return open_.size(); }
  double frontier_min_f() const override { return open_.min_f(); }

  /// Is this PPE's frontier unable to improve on the incumbent?
  bool dominated() const override {
    const double inc = shared_.incumbent_bound();
    const double fmin = open_.min_f();
    if (exact()) return fmin >= inc - 1e-9;
    return inc <= (1.0 + shared_.config.search.epsilon) * fmin + 1e-9;
  }

  StateIndex pop_best() override { return open_.pop_best(); }

  void push_index(StateIndex idx) override {
    const core::HotState& s = arena_.hot(idx);
    open_.push(s.f, s.g, s.h(), idx);
  }

  void push_batch(const std::vector<StateIndex>& indices) override {
    std::vector<PpeOpen::Item> items;
    items.reserve(indices.size());
    for (const StateIndex idx : indices) {
      const core::HotState& s = arena_.hot(idx);
      items.push_back({s.f, s.g, s.h(), idx});
    }
    open_.push_batch(items);
  }

  std::vector<StateIndex> extract_surplus(std::size_t n) override {
    // Re-read the shared incumbent at extraction time: the donation band a
    // transport computed from an earlier frontier snapshot may predate a
    // bound tightened by another PPE's goal, and exact search must never
    // donate states that bound has already killed.
    return open_.extract_surplus(n, exact() ? shared_.incumbent_bound()
                                            : kInf);
  }

  std::vector<StateIndex> extract_best(std::size_t n) override {
    return open_.extract_best(n);
  }

  StateMsg serialize(StateIndex idx) const override {
    return {assignment_sequence(idx), arena_.hot(idx).f};
  }

  void import_batch(const std::vector<StateMsg>& msgs) override {
    std::vector<PpeOpen::Item> items;
    items.reserve(msgs.size());
    for (const StateMsg& msg : msgs)
      if (const auto item = import_one(msg)) items.push_back(*item);
    open_.push_batch(items);
  }

  std::vector<StateIndex> expand_collect(StateIndex idx) override {
    std::vector<StateIndex> children;
    LinkSeen seen{link_.get()};
    expander_.expand(arena_, seen, idx, prune_bound(),
                     [&](StateIndex child_idx, const State& child) {
                       if (child.depth == shared_.problem.num_nodes()) {
                         shared_.offer_incumbent(
                             child.g, assignment_sequence(child_idx));
                         return;
                       }
                       children.push_back(child_idx);
                     });
    shared_.total_expanded.fetch_add(1, std::memory_order_relaxed);
    return children;
  }

 private:
  /// The pluggable duplicate-detection probe handed to the Expander: the
  /// transport decides whether it is a PPE-local set or the global
  /// sharded table.
  struct LinkSeen {
    PpeLink* link;
    bool insert(const util::Key128& k) { return link->dedup_insert(k); }
  };

  /// Seed-time probe: the pre-distribution expansion must be identical on
  /// every PPE, so the probe result comes from a throwaway local set; the
  /// mode's real structure just records the signature.
  struct SeedSeen {
    util::FlatSet128* local;
    PpeLink* link;
    bool insert(const util::Key128& k) {
      const bool fresh = local->insert(k);
      if (fresh) link->record_signature(k);
      return fresh;
    }
  };

  bool exact() const { return shared_.config.search.epsilon == 0.0; }

  double prune_bound() const {
    if (shared_.config.search.prune.strict_upper_bound)
      return shared_.problem.upper_bound();
    return shared_.incumbent_bound();
  }

  std::vector<std::pair<NodeId, ProcId>> assignment_sequence(
      StateIndex idx) const {
    std::vector<std::pair<NodeId, ProcId>> seq;
    for (StateIndex i = idx; i != kNoParent; i = arena_.hot(i).parent) {
      if (arena_.hot(i).is_root()) break;
      seq.emplace_back(arena_.hot(i).node(), arena_.hot(i).proc());
    }
    std::reverse(seq.begin(), seq.end());
    return seq;
  }

  /// Push one freshly generated state, routing goals to the incumbent.
  void accept_child(StateIndex idx, const State& child) {
    if (child.depth == shared_.problem.num_nodes()) {
      shared_.offer_incumbent(child.g, assignment_sequence(idx));
      return;
    }
    open_.push(child.f(), child.g, child.h, idx);
  }

  /// Rebuild a transferred state in the local arena; returns the frontier
  /// entry to enqueue (nullopt for complete schedules, which go to the
  /// incumbent). Received states are always enqueued — dropping one could
  /// orphan it (see header comment).
  std::optional<PpeOpen::Item> import_one(const StateMsg& msg);

  void initial_distribution();

  Shared& shared_;
  std::uint32_t id_;
  Expander expander_;
  core::ExpansionContext import_ctx_;   ///< reused across imports
  std::vector<double> import_scratch_;  ///< h-evaluation scratch
  std::vector<double> import_finish_;   ///< replay scratch, ditto
  std::vector<ProcId> import_proc_of_;
  std::vector<double> import_proc_ready_;
  StateArena arena_;
  PpeOpen open_;
  std::unique_ptr<PpeLink> link_;
  core::ProgressGate progress_gate_;
};

std::optional<PpeOpen::Item> Ppe::import_one(const StateMsg& msg) {
  const auto& problem = shared_.problem;
  const auto& graph = problem.graph();
  const auto& machine = problem.machine();

  // Replay the assignment sequence, creating the chain of states locally.
  auto& finish = import_finish_;
  auto& proc_of = import_proc_of_;
  auto& proc_ready = import_proc_ready_;
  std::fill(finish.begin(), finish.end(), 0.0);
  std::fill(proc_of.begin(), proc_of.end(), machine::kInvalidProc);
  std::fill(proc_ready.begin(), proc_ready.end(), 0.0);

  StateIndex parent = kNoParent;
  util::Key128 sig = core::root_signature();
  double g = 0.0;
  std::uint32_t depth = 0;

  // The chain needs a local root to anchor replay for future expansions.
  State root;
  root.sig = sig;
  root.parent = kNoParent;
  parent = arena_.add(root);

  for (const auto& [node, proc] : msg.assignments) {
    double dat = 0.0;
    for (const auto& [par, cost] : graph.parents(node))
      dat = std::max(dat, finish[par] + machine.comm_delay(
                                            cost, proc_of[par], proc,
                                            problem.comm()));
    const double st = std::max(proc_ready[proc], dat);
    const double ft = st + machine.exec_time(graph.weight(node), proc);
    finish[node] = ft;
    proc_of[node] = proc;
    proc_ready[proc] = ft;
    g = std::max(g, ft);
    sig = core::extend_signature(sig, node, proc, ft);
    ++depth;

    State s;
    s.sig = sig;
    s.finish = ft;
    s.g = g;
    s.h = 0.0;  // interior-chain h is never read; the final h is below
    s.parent = parent;
    s.node = node;
    s.proc = proc;
    s.depth = depth;
    parent = arena_.add(s);
  }
  OPTSCHED_ASSERT(depth == msg.assignments.size());

  if (depth == shared_.problem.num_nodes()) {
    shared_.offer_incumbent(g, msg.assignments);
    return std::nullopt;
  }

  // Recompute h for the transferred frontier state. msg.f lower-bounds the
  // recomputed f only up to the sender's h function, which is identical —
  // so the values must agree.
  import_ctx_.move_to(arena_, parent);
  const double h =
      core::evaluate_h(shared_.config.search.h, problem, import_ctx_.view(),
                       import_scratch_.data()) *
      shared_.config.search.h_weight;
  arena_.patch_h(parent, h);  // so re-sharing this state sends the right f
  OPTSCHED_ASSERT(std::abs((g + h) - msg.f) < 1e-6);

  link_->record_signature(sig);  // best effort; duplicates tolerated
  return PpeOpen::Item{g + h, g, h, parent};
}

void Ppe::initial_distribution() {
  // Every PPE deterministically expands from the initial state until at
  // least q candidate states exist (or the space is exhausted), then takes
  // its share by the transport's partition strategy — identical
  // computation on every PPE, so no startup messages are needed.
  const std::uint32_t q = shared_.config.num_ppes;
  const PartitionStrategy& partition = shared_.transport->partition();

  // Seed pruning uses the *static* upper bound (tightened by a warm-start
  // seed, which is also fixed before the run), never the live incumbent:
  // a goal found by a fast-seeding PPE would otherwise shrink a slow
  // seeder's bound mid-seed, its frontier ranks would shift, and the
  // rank-based interleave hand-out could orphan a state no PPE owns
  // (breaking the optimality proof). The kept-but-dominated extras are
  // filtered by the normal incumbent checks right after seeding.
  const double seed_bound = std::min(shared_.problem.upper_bound(),
                                     shared_.config.seed_upper_bound);

  util::FlatSet128 seed_local(1 << 8);
  SeedSeen seed_seen{&seed_local, link_.get()};

  State root;
  root.sig = core::root_signature();
  root.parent = kNoParent;
  const StateIndex root_idx = arena_.add(root);
  seed_seen.insert(root.sig);

  OpenList frontier;
  frontier.push({arena_.hot(root_idx).f, 0.0, root_idx});
  while (!frontier.empty() && frontier.size() < q) {
    const OpenEntry e = frontier.pop();
    if (arena_.hot(e.index).depth() == shared_.problem.num_nodes()) {
      shared_.offer_incumbent(arena_.hot(e.index).g,
                              assignment_sequence(e.index));
      continue;
    }
    expander_.expand(arena_, seed_seen, e.index, seed_bound,
                     [&](StateIndex idx, const State& child) {
                       if (child.depth == shared_.problem.num_nodes()) {
                         shared_.offer_incumbent(child.g,
                                                 assignment_sequence(idx));
                         return;
                       }
                       frontier.push({child.f(), child.g, idx});
                     });
  }

  // Deterministic total order: (f, -g, arena index).
  std::vector<OpenEntry> entries;
  while (!frontier.empty()) entries.push_back(frontier.pop());

  for (std::size_t j = 0; j < entries.size(); ++j) {
    if (partition.owner_of(j, arena_.sig(entries[j].index), q) != id_)
      continue;
    const core::HotState& s = arena_.hot(entries[j].index);
    open_.push(s.f, s.g, s.h(), entries[j].index);
  }
  link_->publish(open_.min_f(), open_.size());
}

void Ppe::run() {
  // First touch on the PPE's own thread: the arena's pages land on the
  // memory local to the CPU this PPE runs on.
  arena_.reserve(std::size_t{1} << 12);
  link_->on_thread_start();

  initial_distribution();

  // The shared kernel owns limits/cancellation (polled every 64 pops, as
  // the hand-rolled loop did) against the shared run timer; the memory cap
  // is a per-PPE share: each PPE only sees its own arena plus its share of
  // the transport's structures, and both only grow, so the shares sum to
  // the cap.
  const auto& cfg = shared_.config.search;
  KernelGuard::Limits limits{cfg.max_expansions, cfg.time_budget_ms, 0};
  if (cfg.max_memory_bytes)
    limits.max_memory_bytes = std::max<std::size_t>(
        1, cfg.max_memory_bytes / shared_.config.num_ppes);
  KernelGuard guard(cfg.controls, limits, shared_.timer, /*poll_period=*/64);

  if (const auto hit = core::run_search_loop(guard, *this)) {
    int code = 0;
    switch (*hit) {
      case core::Termination::kExpansionLimit: code = 1; break;
      case core::Termination::kTimeLimit: code = 2; break;
      case core::Termination::kCancelled: code = 3; break;
      case core::Termination::kMemoryLimit: code = 4; break;
      default: break;
    }
    shared_.abort_reason.store(code);
    shared_.done.store(true);
  }
  link_->publish(open_.min_f(), open_.size());
  // Final idle mark so a quiescence check by a straggler sees this PPE
  // parked.
  link_->mark_idle();
}

/// Satellite fix (ws-mode PPE collapse on tiny instances): dry-run the
/// deterministic seed expansion to measure how large the initial frontier
/// gets, and cap the PPE count at what that frontier can feed — one steal
/// batch per PPE. Without this, 8 PPEs fight over a frontier of a dozen
/// states and most spend the whole run stealing each other's leftovers
/// (BENCH_pr5 ws expanded_per_ppe on v=12: [389, 212, 46, 18, 16, 12, 3,
/// 3]). The measurement is a pure function of (problem, config), so the
/// clamped run stays deterministic; its expansions are thrown away and
/// bounded by 4 * num_ppes * steal_batch pops.
std::uint32_t measure_effective_ppes(const SearchProblem& problem,
                                     const ParallelConfig& config) {
  if (config.mode != TransportMode::kWorkStealing || config.num_ppes <= 1)
    return config.num_ppes;

  struct LocalSeen {
    util::FlatSet128* set;
    bool insert(const util::Key128& k) { return set->insert(k); }
  };

  const std::size_t target =
      static_cast<std::size_t>(config.num_ppes) * config.steal_batch;
  const std::size_t max_pops = 4 * target;
  const double bound =
      std::min(problem.upper_bound(), config.seed_upper_bound);

  Expander expander(problem, config.search);
  StateArena arena;
  util::FlatSet128 local(1 << 8);
  LocalSeen seen{&local};

  State root;
  root.sig = core::root_signature();
  root.parent = kNoParent;
  const StateIndex root_idx = arena.add(root);
  seen.insert(root.sig);

  OpenList frontier;
  frontier.push({arena.hot(root_idx).f, 0.0, root_idx});
  std::size_t pops = 0;
  while (!frontier.empty() && frontier.size() < target &&
         pops < max_pops) {
    const OpenEntry e = frontier.pop();
    ++pops;
    if (arena.hot(e.index).depth() == problem.num_nodes()) continue;
    expander.expand(arena, seen, e.index, bound,
                    [&](StateIndex idx, const State& child) {
                      if (child.depth == problem.num_nodes()) return;
                      frontier.push({child.f(), child.g, idx});
                    });
  }

  if (frontier.size() >= target) return config.num_ppes;
  const auto feedable = static_cast<std::uint32_t>(
      std::max<std::size_t>(1, frontier.size() / config.steal_batch));
  return std::min(config.num_ppes, feedable);
}

}  // namespace

ParallelResult parallel_astar_schedule(const SearchProblem& problem,
                                       const ParallelConfig& config) {
  OPTSCHED_REQUIRE(config.num_ppes >= 1, "need at least one PPE");
  OPTSCHED_REQUIRE(config.search.h_weight >= 1.0, "h_weight must be >= 1");
  OPTSCHED_REQUIRE(config.search.epsilon >= 0.0, "epsilon must be >= 0");
  OPTSCHED_REQUIRE(config.steal_batch >= 1, "steal_batch must be >= 1");
  // The shard table is allocated eagerly, before any memory budget can
  // bite — refuse counts that could not possibly help.
  OPTSCHED_REQUIRE(config.shards <= (1u << 16),
                   "shards must be <= 65536 (0 = auto)");
  StateArena::require_packable(problem.num_nodes(), problem.num_procs());

  // The distributed mode runs on its own multi-process harness, not the
  // in-process Transport substrate below.
  if (config.mode == TransportMode::kDistributed)
    return dist_astar_schedule(problem, config);

  // Run with the effective PPE count (see measure_effective_ppes); the
  // adjusted config must outlive the run — Shared keeps a reference.
  ParallelConfig run_config = config;
  run_config.num_ppes = measure_effective_ppes(problem, config);

  Shared shared(problem, run_config);
  std::vector<std::unique_ptr<Ppe>> ppes;
  ppes.reserve(run_config.num_ppes);
  for (std::uint32_t i = 0; i < run_config.num_ppes; ++i)
    ppes.push_back(std::make_unique<Ppe>(shared, i));

  {
    std::vector<std::thread> threads;
    threads.reserve(run_config.num_ppes);
    for (auto& ppe : ppes)
      threads.emplace_back([&ppe] { ppe->run(); });
    for (auto& t : threads) t.join();
  }

  // Assemble the result from the shared incumbent.
  ParallelResult out{
      core::SearchResult{sched::Schedule(problem.graph(), problem.machine(),
                                         problem.comm()),
                         0.0, false, 1.0, core::Termination::kOptimal, {}},
      {}};
  {
    const auto [len, seq] = shared.incumbent.snapshot();
    (void)len;  // the schedule recomputes its makespan exactly
    if (seq.empty()) {
      // No goal beat the initial incumbent; that bound came from the
      // static upper-bound schedule or the warm-start seed, whichever
      // was tighter.
      if (config.seed_schedule &&
          config.seed_schedule->makespan() <= problem.upper_bound())
        out.result.schedule = *config.seed_schedule;
      else
        out.result.schedule = problem.upper_bound_schedule();
    } else {
      for (const auto& [n, p] : seq) out.result.schedule.append(n, p);
    }
  }
  sched::validate(out.result.schedule);
  out.result.makespan = out.result.schedule.makespan();

  const int abort_reason = shared.abort_reason.load();
  const double eps = config.search.epsilon;
  if (abort_reason == 1) {
    out.result.reason = core::Termination::kExpansionLimit;
  } else if (abort_reason == 2) {
    out.result.reason = core::Termination::kTimeLimit;
  } else if (abort_reason == 3) {
    out.result.reason = core::Termination::kCancelled;
  } else if (abort_reason == 4) {
    out.result.reason = core::Termination::kMemoryLimit;
  } else if (config.naive_termination) {
    // First-goal termination has no quality guarantee (kept for fidelity).
    out.result.reason = core::Termination::kBoundedOptimal;
    out.result.proved_optimal = false;
    out.result.bound_factor = kInf;
  } else {
    const bool exact = eps == 0.0 && config.search.h_weight == 1.0;
    out.result.proved_optimal = true;
    out.result.bound_factor =
        exact ? 1.0 : (1.0 + eps) * std::max(1.0, config.search.h_weight);
    out.result.reason = exact ? core::Termination::kOptimal
                              : core::Termination::kBoundedOptimal;
  }

  for (const auto& ppe : ppes) {
    util::merge_counters(out.result.stats, ppe->stats());
    out.result.stats.peak_memory_bytes += ppe->memory_bytes();
    out.result.stats.arena_hot_bytes += ppe->arena_hot_bytes();
    out.result.stats.arena_cold_bytes += ppe->arena_cold_bytes();
    out.par_stats.expanded_per_ppe.push_back(ppe->stats().expanded);
  }
  out.result.stats.elapsed_seconds = shared.timer.seconds();
  shared.transport->collect(out.par_stats);
  out.par_stats.effective_ppes = run_config.num_ppes;
  return out;
}

ParallelResult parallel_astar_schedule(const dag::TaskGraph& graph,
                                       const machine::Machine& machine,
                                       const ParallelConfig& config) {
  const SearchProblem problem(graph, machine);
  return parallel_astar_schedule(problem, config);
}

}  // namespace optsched::par
