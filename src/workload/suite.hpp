// SuiteRunner: fan a scenario corpus out across a thread pool of
// SolveRequests and aggregate one report.
//
// Sharding is per instance: workers claim corpus indices from an atomic
// counter, materialize the instance once, run every configured engine on
// it sequentially (so the per-instance differential oracle sees all
// results together), validate every returned schedule with
// ScheduleValidator, and write records into preallocated (instance,
// engine) slots — the report is therefore deterministic regardless of the
// thread count or completion order; only the timing column varies.
//
// The differential oracle per instance:
//  * all proved-optimal results (bound_factor == 1) must agree on the
//    makespan;
//  * a proved bounded result (Aε*) must lie in
//    [optimal, bound_factor * optimal];
//  * every other result (heuristics, budget-limited incumbents) must be
//    >= the proved optimum.
// Any disagreement is recorded as an oracle mismatch and fails ok().
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "workload/scenario.hpp"

namespace optsched::workload {

struct SuiteConfig {
  /// Engine specs, "name[:k=v[:k=v...]]" — a registry name plus engine
  /// options (api::parse_engine_spec), so one suite can cross-check
  /// configurations of the same engine (e.g. "parallel:mode=ring:ppes=4"
  /// vs "parallel:mode=ws:ppes=4"). Must be non-empty; reports key
  /// records off the full spec string.
  std::vector<std::string> engines;
  unsigned jobs = 1;                 ///< worker threads (clamped to corpus)
  api::SolveLimits limits{};         ///< per-instance budgets (0 = none)
  bool validate_schedules = true;    ///< run ScheduleValidator on every run
  bool differential_oracle = true;   ///< cross-check engines per instance
  double oracle_tolerance = 1e-6;    ///< absolute makespan slack
  core::CancellationToken cancel{};  ///< aborts the whole suite
  /// Called once per finished run, serialized under an internal mutex
  /// (suitable for progress lines from any worker).
  std::function<void(const struct SuiteRecord&)> on_record;
  /// Remote execution hook: when set, every (instance, engine) run is
  /// delegated here instead of calling api::solve in-process — the
  /// CLI's `suite --via-socket` mode routes runs through a
  /// server::Client, reusing this corpus fan-out as the daemon's
  /// concurrent-load driver. The hook receives the locally
  /// materialized instance (its `name` is the canonical spec line) and
  /// must return a result whose schedule borrows that instance, so the
  /// ScheduleValidator and the differential oracle apply to remote
  /// results exactly as to local ones. Called concurrently from
  /// `jobs` worker threads; open one connection per thread.
  std::function<api::SolveResult(
      const Instance& instance, const std::string& engine_spec,
      const api::SolveLimits& limits)>
      remote_solve;
};

/// One (instance, engine) run. For serial engines every field except
/// time_ms is a pure function of the spec and engine, so reports diff
/// cleanly across runs; multithreaded engines (`parallel`, `portfolio`)
/// report timing-dependent search stats, which is why the CLI's default
/// engine set is serial-only. Per-PPE expansion counts are stored sorted
/// (descending) and emitted with min/max aggregates — per-thread
/// attribution is timing-dependent, so reports never depend on PPE
/// numbering, only on the (still timing-dependent) distribution.
struct SuiteRecord {
  std::size_t instance = 0;  ///< corpus index
  std::string spec;          ///< canonical scenario line
  std::string family;
  std::string engine;        ///< full engine spec ("parallel:mode=ws")
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::uint32_t procs = 0;
  double makespan = 0.0;
  bool proved_optimal = false;
  double bound_factor = 0.0;
  std::string termination;
  std::uint64_t expanded = 0;
  std::uint64_t generated = 0;
  std::uint64_t loads_full = 0;
  std::uint64_t loads_incremental = 0;
  std::size_t peak_memory_bytes = 0;
  std::size_t arena_hot_bytes = 0;
  std::size_t arena_cold_bytes = 0;
  std::string parallel_mode;  ///< "ring"/"ws"; empty for serial engines
  std::uint64_t states_transferred = 0;  ///< parallel: shipped or stolen
  std::uint64_t steals = 0;              ///< parallel ws mode
  std::uint64_t shard_hits = 0;  ///< duplicates filtered by the shared table
  std::vector<std::uint64_t> expanded_per_ppe;  ///< sorted descending
  /// PPEs actually run after the feedability clamp (parallel ws mode; 0
  /// for serial engines).
  std::uint32_t effective_ppes = 0;
  /// Warm-start columns (SolveStats): always present so suite and churn
  /// reports share a schema; one-shot suite runs leave them false/0.
  bool warm_start_used = false;
  std::uint64_t states_retained = 0;
  double search_skipped_pct = 0.0;
  /// Serving-layer columns (SolveStats): false/0 for in-process runs;
  /// filled by the --via-socket remote hook. cache_lookups/cache_bytes
  /// snapshot daemon-lifetime state and queue_wait_ms is wall-clock, so
  /// like time_ms they are excluded from determinism diffs.
  bool cache_hit = false;
  std::uint64_t cache_lookups = 0;
  std::size_t cache_bytes = 0;
  double queue_wait_ms = 0.0;
  /// Distributed-mode counters (parallel engine, mode=dist; 0 elsewhere).
  /// Run-dependent — bound-arrival timing changes which states cross
  /// process boundaries — so they live in the trailing CSV zone too.
  std::uint64_t states_serialized = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t termination_rounds = 0;
  std::uint64_t states_deduped_at_send = 0;
  std::uint64_t flushes = 0;
  std::uint64_t bytes_sent = 0;
  bool valid = false;  ///< ScheduleValidator verdict (true when disabled)
  std::string error;   ///< exception text; empty on success
  double time_ms = 0.0;
};

struct SuiteReport {
  /// (instance, engine) row-major: records[i * engines + e].
  std::vector<SuiteRecord> records;
  std::vector<std::string> engines;
  std::vector<std::string> oracle_mismatches;
  std::vector<std::string> validator_failures;
  std::vector<std::string> errors;  ///< materialize/solve exceptions
  std::size_t instances = 0;
  unsigned jobs = 0;
  bool cancelled = false;
  double wall_ms = 0.0;

  /// No mismatches, no validator failures, no errors, not cancelled.
  bool ok() const {
    return oracle_mismatches.empty() && validator_failures.empty() &&
           errors.empty() && !cancelled;
  }

  /// Human-readable per-engine aggregate table plus the failure lists.
  std::string summary() const;
};

/// Run the whole corpus. Throws util::Error on an empty engine list or an
/// engine name the registry does not know (before any work starts).
SuiteReport run_suite(const std::vector<ScenarioSpec>& corpus,
                      const SuiteConfig& config);

/// One header row plus one row per record. The trailing eleven columns
/// (cache_hit, cache_lookups, cache_bytes, queue_wait_ms,
/// states_serialized, batches_sent, termination_rounds,
/// states_deduped_at_send, flushes, bytes_sent, time_ms) are run-dependent
/// — serving-layer state, dist-mode communication, and wall-clock — so determinism diffs strip them by *name*
/// (scripts/strip_csv_columns.awk; never by position, which silently
/// breaks when columns move); every earlier column is a pure function of
/// spec and engine for serial engines.
void write_csv(const SuiteReport& report, std::ostream& out);

/// Full report as JSON: suite metadata, per-engine aggregates, failure
/// lists, and all records (time fields last).
void write_json(const SuiteReport& report, std::ostream& out);

}  // namespace optsched::workload
