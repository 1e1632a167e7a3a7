// Adapters that expose every built-in engine through the unified API.
//
// Each adapter translates the SolveRequest's unified limits and controls
// into the engine's native config, parses the engine's declared options,
// and normalizes the native result into a SolveResult. Option values that
// fail to parse raise InvalidRequest before the engine runs.
#include <algorithm>
#include <functional>
#include <limits>
#include <optional>

#include "api/builtin.hpp"
#include "api/registry.hpp"
#include "bnb/chen_yu.hpp"
#include "bnb/exhaustive.hpp"
#include "core/ida_star.hpp"
#include "parallel/parallel_astar.hpp"
#include "parallel/ws_transport.hpp"
#include "sched/list_scheduler.hpp"

namespace optsched::api {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

/// Cap on `ppes` / `procs`: every worker is an OS thread or process, and
/// the daemon forwards engine options from its clients, so one request
/// must not be able to ask for an unbounded number of them.
constexpr std::int64_t kMaxWorkers = 256;

[[noreturn]] void bad_option(const std::string& engine,
                             const std::string& key,
                             const std::string& value,
                             const std::string& expected) {
  throw InvalidRequest("engine '" + engine + "': option " + key + "=" +
                       value + " is invalid (expected " + expected + ")");
}

double opt_double(const Options& options, const std::string& engine,
                  const std::string& key, double fallback) {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  try {
    std::size_t used = 0;
    const double v = std::stod(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    bad_option(engine, key, it->second, "a number");
  }
}

/// Range-checked before any narrowing cast — a negative or oversized value
/// must become InvalidRequest, not wrap to a different unsigned count.
std::int64_t opt_int(const Options& options, const std::string& engine,
                     const std::string& key, std::int64_t fallback,
                     std::int64_t min_value,
                     std::int64_t max_value = kMaxU32) {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  std::int64_t v = 0;
  try {
    std::size_t used = 0;
    v = std::stoll(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument(it->second);
  } catch (const std::exception&) {
    bad_option(engine, key, it->second, "an integer");
  }
  if (v < min_value)
    bad_option(engine, key, it->second,
               ">= " + std::to_string(min_value));
  if (v > max_value)
    bad_option(engine, key, it->second,
               "<= " + std::to_string(max_value));
  return v;
}

bool opt_bool(const Options& options, const std::string& engine,
              const std::string& key, bool fallback) {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  if (it->second == "1" || it->second == "true") return true;
  if (it->second == "0" || it->second == "false") return false;
  bad_option(engine, key, it->second, "0|1|true|false");
}

core::PruneConfig opt_prune(const Options& options,
                            const std::string& engine) {
  const auto it = options.find("prune");
  if (it == options.end()) return core::PruneConfig::all();
  if (it->second == "all") return core::PruneConfig::all();
  if (it->second == "none") return core::PruneConfig::none();
  if (it->second == "paper") return core::PruneConfig::paper();
  bad_option(engine, "prune", it->second, "all|none|paper");
}

core::HFunction opt_h(const Options& options, const std::string& engine) {
  const auto it = options.find("h");
  if (it == options.end()) return core::HFunction::kPaper;
  if (it->second == "zero") return core::HFunction::kZero;
  if (it->second == "paper") return core::HFunction::kPaper;
  if (it->second == "path") return core::HFunction::kPath;
  if (it->second == "composite") return core::HFunction::kComposite;
  bad_option(engine, "h", it->second, "zero|paper|path|composite");
}

/// Unified limits + controls -> the search engines' native config.
core::SearchConfig base_search_config(const SolveRequest& request) {
  core::SearchConfig config;
  config.max_expansions = request.limits.max_expansions;
  config.time_budget_ms = request.limits.time_budget_ms;
  config.max_memory_bytes = request.limits.max_memory_bytes;
  config.controls.cancel = request.cancel;
  config.controls.progress = request.progress;
  config.controls.progress_every = request.progress_every;
  return config;
}

SolveResult from_search(core::SearchResult&& r) {
  SolveResult out{std::move(r.schedule)};
  out.makespan = r.makespan;
  out.proved_optimal = r.proved_optimal;
  out.bound_factor = r.proved_optimal ? r.bound_factor : kInf;
  out.reason = r.reason;
  out.stats.search = r.stats;
  return out;
}

/// The request's pre-built problem when present (SolveSession re-solve),
/// else a locally built one parked in `storage`.
const core::SearchProblem& request_problem(
    const SolveRequest& request,
    std::optional<core::SearchProblem>& storage) {
  if (request.problem) return *request.problem;
  storage.emplace(*request.graph, *request.machine, request.comm);
  return *storage;
}

// ---- A* / Aε* ------------------------------------------------------------

/// `epsilon_default` distinguishes the two registered names: `astar` does
/// not declare the epsilon option at all; `aeps` defaults it to 0.2.
class AStarSolver : public Solver {
 public:
  AStarSolver(std::string name, double epsilon_default)
      : name_(std::move(name)), epsilon_default_(epsilon_default) {}

  SolveResult solve(const SolveRequest& request) const override {
    core::SearchConfig config = base_search_config(request);
    config.prune = opt_prune(request.options, name_);
    config.h = opt_h(request.options, name_);
    config.h_weight =
        opt_double(request.options, name_, "h-weight", 1.0);
    config.epsilon =
        opt_double(request.options, name_, "epsilon", epsilon_default_);
    config.incumbent_updates =
        opt_bool(request.options, name_, "incumbent", true);
    if (config.epsilon < 0)
      throw InvalidRequest("engine '" + name_ + "': epsilon must be >= 0");
    if (config.h_weight < 1)
      throw InvalidRequest("engine '" + name_ + "': h-weight must be >= 1");
    std::optional<core::SearchProblem> storage;
    const core::SearchProblem& problem = request_problem(request, storage);
    SolveResult out =
        from_search(core::astar_schedule(problem, config, request.warm));
    if (request.warm) {
      out.stats.warm_start_used = request.warm->warm_used;
      out.stats.states_retained = request.warm->states_retained;
    }
    return out;
  }

 private:
  std::string name_;
  double epsilon_default_;
};

// ---- IDA* ----------------------------------------------------------------

class IdaSolver : public Solver {
 public:
  SolveResult solve(const SolveRequest& request) const override {
    core::SearchConfig config = base_search_config(request);
    config.prune = opt_prune(request.options, "ida");
    config.h = opt_h(request.options, "ida");
    const core::SearchProblem problem(*request.graph, *request.machine,
                                      request.comm);
    return from_search(core::ida_star_schedule(problem, config));
  }
};

// ---- parallel A* / Aε* ---------------------------------------------------

class ParallelSolver : public Solver {
 public:
  SolveResult solve(const SolveRequest& request) const override {
    par::ParallelConfig config;
    config.search = base_search_config(request);
    config.search.epsilon =
        opt_double(request.options, "parallel", "epsilon", 0.0);
    config.search.h = opt_h(request.options, "parallel");
    config.num_ppes = static_cast<std::uint32_t>(opt_int(
        request.options, "parallel", "ppes", 4, /*min_value=*/1, kMaxWorkers));
    config.min_period = static_cast<std::uint32_t>(opt_int(
        request.options, "parallel", "min-period", 2, /*min_value=*/1));
    config.steal_batch = static_cast<std::uint32_t>(opt_int(
        request.options, "parallel", "steal-batch", 8, /*min_value=*/1));
    config.shards = static_cast<std::uint32_t>(opt_int(
        request.options, "parallel", "shards", 0, /*min_value=*/0, 1 << 16));
    config.naive_termination =
        opt_bool(request.options, "parallel", "naive-term", false);
    const auto mode = request.options.find("mode");
    if (mode != request.options.end()) {
      if (mode->second == "ring")
        config.mode = par::TransportMode::kRing;
      else if (mode->second == "ws")
        config.mode = par::TransportMode::kWorkStealing;
      else if (mode->second == "dist")
        config.mode = par::TransportMode::kDistributed;
      else
        bad_option("parallel", "mode", mode->second, "ring|ws|dist");
    }
    // Distributed mode: `procs` (worker *processes*) is its spelling of
    // the worker count; it is exact-only and always sound-terminating.
    if (request.options.count("procs")) {
      if (config.mode != par::TransportMode::kDistributed)
        throw InvalidRequest(
            "engine 'parallel': option 'procs' requires mode=dist "
            "(use 'ppes' for the in-process modes)");
      config.num_ppes = static_cast<std::uint32_t>(
          opt_int(request.options, "parallel", "procs", 4, /*min_value=*/1,
                  kMaxWorkers));
    }
    if (config.mode == par::TransportMode::kDistributed) {
      if (config.search.epsilon != 0.0)
        throw InvalidRequest(
            "engine 'parallel': mode=dist supports exact search only "
            "(epsilon must be 0)");
      if (config.search.h_weight != 1.0)
        throw InvalidRequest(
            "engine 'parallel': mode=dist supports exact search only "
            "(weight must be 1)");
      if (config.naive_termination)
        throw InvalidRequest(
            "engine 'parallel': mode=dist always uses sound termination "
            "(drop naive-term)");
    }
    const auto it = request.options.find("topology");
    if (it != request.options.end()) {
      if (it->second == "ring")
        config.topology = par::MailboxNetwork::Topology::kRing;
      else if (it->second == "mesh")
        config.topology = par::MailboxNetwork::Topology::kMesh;
      else if (it->second == "clique")
        config.topology = par::MailboxNetwork::Topology::kFullyConnected;
      else
        bad_option("parallel", "topology", it->second, "ring|mesh|clique");
    }
    if (config.search.epsilon < 0)
      throw InvalidRequest("engine 'parallel': epsilon must be >= 0");
    // The sharded dedup table is allocated eagerly, before the search's
    // per-PPE memory budget is ever polled — so when the caller set a
    // budget, account for that fixed allocation up front and refuse
    // configurations it alone would bust, instead of letting the poll
    // abort a search that never had a chance.
    if (config.mode == par::TransportMode::kWorkStealing &&
        request.limits.max_memory_bytes > 0) {
      const std::uint32_t effective_shards =
          config.shards > 0 ? config.shards
                            : std::min(4 * config.num_ppes, 4096u);
      const std::size_t fixed =
          par::ShardedSignatureTable::estimate_bytes(effective_shards);
      if (fixed > request.limits.max_memory_bytes)
        throw InvalidRequest(
            "engine 'parallel': the dedup table's fixed allocation (" +
            std::to_string(fixed) + " bytes for " +
            std::to_string(effective_shards) +
            " shards) exceeds max_memory_bytes (" +
            std::to_string(request.limits.max_memory_bytes) +
            "); lower shards or raise the budget");
    }
    // Warm-start (SolveSession re-solve): the parallel engine reuses no
    // arena states, but a seeded incumbent prunes from expansion one.
    if (request.warm) {
      config.seed_upper_bound = request.warm->seed_upper_bound;
      config.seed_schedule = request.warm->seed_schedule;
    }
    std::optional<core::SearchProblem> storage;
    const core::SearchProblem& problem = request_problem(request, storage);
    par::ParallelResult r = par::parallel_astar_schedule(problem, config);
    SolveResult out = from_search(std::move(r.result));
    static_cast<par::ParallelStats&>(out.stats) = std::move(r.par_stats);
    // Per-thread attribution is timing-dependent: report the sorted
    // distribution so identical runs diff cleanly modulo load balance.
    std::sort(out.stats.expanded_per_ppe.begin(),
              out.stats.expanded_per_ppe.end(),
              std::greater<std::uint64_t>());
    if (request.warm) {
      const bool used = request.warm->seed_schedule != nullptr;
      out.stats.warm_start_used = used;
      request.warm->warm_used = used;
      request.warm->states_retained = 0;
      request.warm->instant_proof = false;
    }
    return out;
  }
};

// ---- Chen & Yu branch-and-bound ------------------------------------------

class ChenYuSolver : public Solver {
 public:
  SolveResult solve(const SolveRequest& request) const override {
    bnb::ChenYuConfig config;
    config.max_expansions = request.limits.max_expansions;
    config.time_budget_ms = request.limits.time_budget_ms;
    config.max_memory_bytes = request.limits.max_memory_bytes;
    config.controls.cancel = request.cancel;
    config.controls.progress = request.progress;
    config.controls.progress_every = request.progress_every;
    config.max_paths_per_eval = static_cast<std::size_t>(opt_int(
        request.options, "chenyu", "max-paths", 4096, /*min_value=*/0));
    const core::SearchProblem problem(*request.graph, *request.machine,
                                      request.comm);
    bnb::ChenYuResult r = bnb::chen_yu_schedule(problem, config);
    SolveResult out{std::move(r.schedule)};
    out.makespan = r.makespan;
    out.proved_optimal = r.proved_optimal;
    out.bound_factor = r.proved_optimal ? 1.0 : kInf;
    out.reason = r.reason;
    out.stats.search = r.stats;
    out.stats.paths_evaluated = r.paths_evaluated;
    return out;
  }
};

// ---- exhaustive oracle ---------------------------------------------------

class ExhaustiveSolver : public Solver {
 public:
  SolveResult solve(const SolveRequest& request) const override {
    bnb::ExhaustiveResult r = bnb::exhaustive_schedule(
        *request.graph, *request.machine, request.comm);
    SolveResult out{std::move(r.schedule)};
    out.makespan = r.makespan;
    out.proved_optimal = true;
    out.bound_factor = 1.0;
    out.reason = core::Termination::kOptimal;
    out.stats.search.expanded = r.nodes_visited;
    return out;
  }
};

// ---- polynomial list heuristics ------------------------------------------

using HeuristicFn = sched::Schedule (*)(const dag::TaskGraph&,
                                        const machine::Machine&,
                                        machine::CommMode);

class HeuristicSolver : public Solver {
 public:
  explicit HeuristicSolver(HeuristicFn fn) : fn_(fn) {}

  SolveResult solve(const SolveRequest& request) const override {
    SolveResult out{fn_(*request.graph, *request.machine, request.comm)};
    sched::validate(out.schedule);
    out.makespan = out.schedule.makespan();
    out.proved_optimal = false;
    out.bound_factor = kInf;
    out.reason = core::Termination::kHeuristic;
    return out;
  }

 private:
  HeuristicFn fn_;
};

const std::vector<OptionSpec> kAStarOptions = {
    {"h", "heuristic function: zero|paper|path|composite"},
    {"h-weight", "weighted A* factor (>= 1; solution within that factor)"},
    {"prune", "pruning preset: all|none|paper"},
    {"incumbent", "anytime incumbent updates: 0|1 (default 1)"},
};

std::vector<OptionSpec> with_epsilon(std::vector<OptionSpec> options,
                                     const std::string& help) {
  options.insert(options.begin(), {"epsilon", help});
  return options;
}

}  // namespace

namespace detail {

void register_builtin_engines(SolverRegistry& registry) {
  registry.add(
      {"astar",
       "serial A* (paper Sec. 3.1/3.2) — optimal, all prunings by default",
       {.optimal = true, .anytime = true, .parallel = false, .bounded = true,
        .warm_start = true},
       kAStarOptions,
       [] { return std::make_unique<AStarSolver>("astar", 0.0); }});
  registry.add(
      {"aeps",
       "serial Aeps* FOCAL search (Sec. 3.4) — within (1+epsilon) of optimal",
       {.optimal = false, .anytime = true, .parallel = false, .bounded = true,
        .warm_start = true},
       with_epsilon(kAStarOptions,
                    "approximation factor (default 0.2; 0 = exact A*)"),
       [] { return std::make_unique<AStarSolver>("aeps", 0.2); }});
  registry.add(
      {"ida",
       "iterative-deepening A* — optimal in O(v) memory, exact-only",
       {.optimal = true, .anytime = true, .parallel = false, .bounded = false},
       {{"h", "heuristic function: zero|paper|path|composite"},
        {"prune", "pruning preset: all|none|paper"}},
       [] { return std::make_unique<IdaSolver>(); }});
  registry.add(
      {"parallel",
       "multi-threaded parallel A*/Aeps*: ring (Sec. 3.3), work stealing, "
       "or multi-process HDA* (mode=dist)",
       {.optimal = true, .anytime = true, .parallel = true, .bounded = true,
        .warm_start = true},
       {{"ppes", "worker thread count, 1..256 (default 4)"},
        {"mode", "transport: ring (paper Sec. 3.3) | ws (work stealing + "
                 "sharded dedup) | dist (worker processes over AF_UNIX "
                 "sockets, exact-only); default ring"},
        {"procs", "dist mode: worker process count, 1..256 (default 4)"},
        {"epsilon", "approximation factor (default 0 = exact)"},
        {"h", "heuristic function: zero|paper|path|composite"},
        {"topology", "ring mode: PPE interconnect: ring|mesh|clique"},
        {"min-period",
         "ring mode: minimum expansions between comm rounds (default 2)"},
        {"steal-batch", "ws mode: donation/steal batch size (default 8)"},
        {"shards",
         "ws mode: dedup-table shard count, <= 65536 (default 0 = 4x ppes); "
         "the table's fixed allocation is checked against max_memory_bytes "
         "up front"},
        {"naive-term", "paper's first-goal termination: 0|1 (default 0)"}},
       [] { return std::make_unique<ParallelSolver>(); }});
  registry.add(
      {"chenyu",
       "Chen & Yu branch-and-bound baseline (Table 1) — optimal but slow",
       {.optimal = true, .anytime = true, .parallel = false, .bounded = false},
       {{"max-paths", "path-enumeration cap per underestimate (default 4096)"}},
       [] { return std::make_unique<ChenYuSolver>(); }});
  registry.add(
      {"exhaustive",
       "brute-force oracle — exact, exponential, ignores limits (v <= ~9)",
       {.optimal = true, .anytime = false, .parallel = false,
        .bounded = false},
       {},
       [] { return std::make_unique<ExhaustiveSolver>(); }});

  registry.add({"blevel",
                "b-level list heuristic (the search's upper bound, FAST)",
                {},
                {},
                [] {
                  return std::make_unique<HeuristicSolver>(
                      &sched::upper_bound_schedule);
                }});
  registry.add({"hlfet",
                "Highest Level First with Estimated Times list heuristic",
                {},
                {},
                [] { return std::make_unique<HeuristicSolver>(&sched::hlfet); }});
  registry.add({"mcp",
                "Modified Critical Path list heuristic (ALAP, insertion)",
                {},
                {},
                [] { return std::make_unique<HeuristicSolver>(&sched::mcp); }});
  registry.add({"etf",
                "Earliest Task First dynamic list heuristic",
                {},
                {},
                [] { return std::make_unique<HeuristicSolver>(&sched::etf); }});
}

}  // namespace detail

}  // namespace optsched::api
