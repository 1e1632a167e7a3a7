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

/// SuiteConfig::remote_solve: (instance, engine spec, limits) -> result.
using RemoteSolveFn = std::function<api::SolveResult(
    const Instance& instance, const std::string& engine_spec,
    const api::SolveLimits& limits)>;

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
  /// CLI's `suite --via-socket` and `submit` route runs through a daemon
  /// with server::remote_solver, reusing this corpus fan-out as the
  /// daemon's load driver. The hook receives the locally materialized
  /// instance (its `name` is the canonical spec line) and must return a
  /// result whose schedule borrows that instance, so the
  /// ScheduleValidator and the differential oracle apply to remote
  /// results exactly as to local ones. Called concurrently from `jobs`
  /// worker threads; a thrown exception becomes the run's error.
  RemoteSolveFn remote_solve;
};

/// One (instance, engine) run: its identity, its verdict and the
/// engine's counters as returned. For serial engines every field except
/// the run-dependent ones (time_ms, and the counters whose list entry
/// says so) is a pure function of the spec and engine, so reports diff
/// cleanly across runs; multithreaded engines (`parallel`, `portfolio`)
/// report timing-dependent search stats, which is why the CLI's default
/// engine set is serial-only.
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
  api::SolveStats stats{};
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

/// One header row plus one row per record, RFC 4180 quoted. Columns
/// are addressed by *name* (scripts/strip_csv_columns.awk), never by
/// position. After the record's identity and verdict come one column
/// per counter of api::SolveStats' and api::ServeStats' lists
/// (util/counters.hpp; the per-PPE distribution is JSON-only), then
/// valid, error and spec. The run-dependent ones — serving-layer state,
/// dist-mode communication counters and wall-clock, listed by
/// run_dependent_columns() — come last; every earlier column is a pure
/// function of spec and engine for serial engines, so determinism diffs
/// strip exactly that list.
void write_csv(const SuiteReport& report, std::ostream& out);

/// Names of the run-dependent report columns, in CSV order.
std::vector<std::string> run_dependent_columns();

/// Full report as one line of JSON (util::Json, sorted keys): suite
/// metadata, per-engine aggregates, failure lists, and every record with
/// the CSV's columns plus the per-PPE expansion distribution. Each
/// engine's aggregate over its error-free runs holds max_<name> for every
/// numeric counter column (and time_ms), plus total_<name> where the
/// counter's merge rule is a sum. A non-finite number (the bound_factor
/// of a result that proved nothing) is written as null.
void write_json(const SuiteReport& report, std::ostream& out);

}  // namespace optsched::workload
