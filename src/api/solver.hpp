// Unified solver API: one request/result pair for every engine.
//
// Every scheduling engine in the library — the optimal searches (A*, Aε*,
// IDA*, parallel A*, Chen & Yu B&B, the exhaustive oracle), the polynomial
// list heuristics, and the portfolio meta-solver — is callable through the
// same SolveRequest -> SolveResult boundary. Engine-specific knobs travel
// as parsed key=value option strings validated against the engine's
// declared option spec (see registry.hpp), so the CLI, benches, tests, and
// external callers need no per-engine dispatch code.
//
// Cross-cutting controls (expansion/deadline/memory limits, cooperative
// cancellation, progress callbacks) are part of the request and are
// honored by every anytime engine: a cancelled or budget-limited solve
// still returns a valid complete schedule with proved_optimal = false.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/astar.hpp"
#include "core/controls.hpp"
#include "parallel/stats.hpp"
#include "sched/schedule.hpp"

namespace optsched::api {

/// Engine-specific options as parsed key=value pairs ("epsilon" -> "0.2").
using Options = std::map<std::string, std::string>;

/// Parse a comma-separated "k1=v1,k2=v2" spec (empty string -> empty map).
/// Throws util::Error on entries without '=' or with an empty key.
Options parse_options(const std::string& spec);

/// Parse an engine spec "name[:k=v[:k=v...]]" into the registry name plus
/// its options — colon-separated so specs compose inside comma-separated
/// engine lists (e.g. `--engines astar,parallel:mode=ws:ppes=4`). A bare
/// name yields empty options. Option values must not contain ':' or ','
/// (no declared engine option needs them; portfolio's engines list is
/// '+'-separated).
std::pair<std::string, Options> parse_engine_spec(const std::string& spec);

/// Canonical form of an engine spec: round-trips parse_engine_spec and
/// re-serializes as "name[:k=v...]" with options sorted by key and every
/// numeric value normalized to its shortest exact form — so
/// "ws:steal-batch=08" and "ws:steal-batch=8", or "aeps:epsilon=0.20"
/// and "aeps:epsilon=0.2", canonicalize identically. This is the engine
/// half of the server's result-cache key (server/result_cache.hpp): two
/// specs with equal canonical forms configure bit-identical solves.
/// Non-numeric values (mode names, portfolio member lists) pass through
/// verbatim. Purely syntactic — the name is not checked against the
/// registry.
std::string canonical_engine_spec(const std::string& spec);

/// Thrown for a malformed SolveRequest — unknown engine, option key the
/// engine does not declare, unparsable option value, or an engine
/// constraint violation (e.g. epsilon on the exact-only IDA*). Raised by
/// the registry's validation path before any search work starts.
class InvalidRequest : public util::Error {
 public:
  using util::Error::Error;
};

/// Unified resource limits; 0 = unlimited.
struct SolveLimits {
  std::uint64_t max_expansions = 0;
  double time_budget_ms = 0.0;
  /// Search-state memory cap. Exact for serial A*/Aε* and Chen & Yu,
  /// a per-PPE share for the parallel engine, never binding for IDA*
  /// (O(v) working set), ignored by the heuristics and the oracle.
  std::size_t max_memory_bytes = 0;
};

/// Everything an engine needs to solve one instance. The graph and machine
/// are borrowed, not copied — they must outlive the solve() call.
struct SolveRequest {
  SolveRequest(const dag::TaskGraph& g, const machine::Machine& m,
               machine::CommMode c = machine::CommMode::kUnitDistance)
      : graph(&g), machine(&m), comm(c) {}

  const dag::TaskGraph* graph;
  const machine::Machine* machine;
  machine::CommMode comm;

  SolveLimits limits{};
  core::CancellationToken cancel{};   ///< cancel() from any thread
  core::ProgressFn progress{};        ///< observed incumbent / lower bound
  std::uint64_t progress_every = 1024;

  Options options{};  ///< engine-specific, validated by the registry

  /// Warm-start plumbing (set by SolveSession, null for one-shot solves).
  /// `warm` carries the previous solve's arena + the delta's invalidation
  /// summary into engines advertising EngineCaps::warm_start; engines
  /// without the capability ignore it and solve cold. `problem` is an
  /// optional pre-built SearchProblem over the same graph/machine/comm
  /// (borrowed; must outlive the call) so the session's incremental
  /// b-level update is not thrown away by an engine rebuilding from
  /// scratch.
  core::WarmStart* warm = nullptr;
  const core::SearchProblem* problem = nullptr;
};

/// Serving-layer counters (src/server), filled in by server::Client when
/// the solve was answered by a resident daemon; always false/0 for
/// in-process solves. The daemon's SolveReply extends this struct too:
/// they describe one request, not the cached solve. `cache_hit` means
/// the result came from the daemon's LRU result cache verbatim;
/// `cache_lookups` and `cache_bytes` snapshot the daemon-lifetime lookup
/// count and resident cache size at reply time; `queue_wait_ms` is the
/// admission-to-start wait in the daemon's worker pool (0 for hits,
/// which bypass the pool).
struct ServeStats {
  bool cache_hit = false;
  std::uint64_t cache_lookups = 0;
  std::size_t cache_bytes = 0;
  double queue_wait_ms = 0.0;

  friend bool operator==(const ServeStats&, const ServeStats&) = default;

  /// The counter list (util/counters.hpp).
  template <class V, class... S>
  static void for_each_counter(V&& v, S&... s) {
    using namespace util::counter_rows;
    v(C{"cache_hit", kMax, kRun}, s.cache_hit...);
    v(C{"cache_lookups", kMax, kRun}, s.cache_lookups...);
    v(C{"cache_bytes", kMax, kRun}, s.cache_bytes...);
    v(C{"queue_wait_ms", kMax, kRun}, s.queue_wait_ms...);
  }
};

/// Superset of every engine's counters; fields an engine does not track
/// stay 0 (e.g. peak_memory_bytes for the heuristics, the transport
/// counters inherited from ParallelStats for the serial engines).
struct SolveStats : par::ParallelStats, ServeStats {
  core::SearchStats search{};          ///< expansions, memory, time, ...
  std::uint64_t paths_evaluated = 0;   ///< Chen & Yu underestimate work
  std::uint32_t engines_raced = 0;     ///< portfolio members launched
  /// Warm-start re-solve (SolveSession): whether any previous-solve state
  /// was reused, how many arena states survived the delta, and the
  /// session's estimate of search work skipped vs. the previous solve
  /// (100 * (1 - expanded/prev_expanded), clamped to [0, 100]; the churn
  /// runner reports the exact warm-vs-cold figure instead).
  bool warm_start_used = false;
  std::uint64_t states_retained = 0;
  double search_skipped_pct = 0.0;

  friend bool operator==(const SolveStats&, const SolveStats&) = default;

  /// The engine's counter list (util/counters.hpp): everything the solve
  /// produced, which is what the daemon caches and replies with. The
  /// serving counters are ServeStats' own list.
  template <class V, class... S>
  static void for_each_counter(V&& v, S&... s) {
    using namespace util::counter_rows;
    core::SearchStats::for_each_counter(v, s.search...);
    par::ParallelStats::for_each_counter(v, s...);
    v(C{"paths_evaluated", kSum}, s.paths_evaluated...);
    v(C{"engines_raced", kMax}, s.engines_raced...);
    v(C{"warm_start_used", kMax}, s.warm_start_used...);
    v(C{"states_retained", kSum}, s.states_retained...);
    v(C{"search_skipped_pct", kMax}, s.search_skipped_pct...);
  }
};

/// Unified result: always a valid complete schedule, plus the proof state.
struct SolveResult {
  explicit SolveResult(sched::Schedule s) : schedule(std::move(s)) {}

  sched::Schedule schedule;
  double makespan = 0.0;
  bool proved_optimal = false;
  /// Guaranteed makespan <= bound_factor * optimal; 1.0 when proved
  /// optimal, (1+eps) for Aε*, infinity when no guarantee (heuristics,
  /// budget-limited incumbents).
  double bound_factor = 1.0;
  core::Termination reason = core::Termination::kOptimal;
  /// Engine that produced the schedule; for the portfolio this is the
  /// member that won the race.
  std::string engine;
  SolveStats stats{};
};

/// Abstract engine interface. Implementations are stateless adapters: the
/// registry constructs one per solve() call, and the request carries all
/// per-call state, so a Solver itself is trivially thread-compatible.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Run on a registry-validated request (options are checked against the
  /// engine's declared spec before this is called).
  virtual SolveResult solve(const SolveRequest& request) const = 0;
};

/// Per-engine capability flags, surfaced by --list-engines and used by
/// registry-driven test suites to pick applicable engines.
struct EngineCaps {
  bool optimal = false;   ///< proves optimality when run without limits
  bool anytime = false;   ///< keeps an incumbent; honors limits/cancel
  bool parallel = false;  ///< uses worker threads
  bool bounded = false;   ///< supports a (1+eps)/weight suboptimality bound
  /// Consumes SolveRequest::warm (SolveSession re-solve): arena prefix
  /// reuse for the serial searches, seeded incumbent for the parallel
  /// engine. Engines without it degrade to a cold re-solve.
  bool warm_start = false;

  /// No flags at all = a polynomial list heuristic (instant, no proof,
  /// no budget handling). Keep in sync when adding flags.
  bool is_heuristic() const {
    return !optimal && !anytime && !parallel && !bounded && !warm_start;
  }
};

}  // namespace optsched::api
