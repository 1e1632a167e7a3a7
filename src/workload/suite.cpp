#include "workload/suite.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <type_traits>
#include <variant>

#include "api/registry.hpp"
#include "sched/validator.hpp"
#include "util/jsonl.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace optsched::workload {

namespace {

/// A failure line tagged with its instance index so the collected lists
/// can be sorted into corpus order after the (unordered) parallel run.
struct Tagged {
  std::size_t instance;
  std::string line;
};

void sort_into(std::vector<Tagged>& tagged, std::vector<std::string>& out) {
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const Tagged& a, const Tagged& b) {
                     return a.instance < b.instance;
                   });
  out.reserve(tagged.size());
  for (auto& t : tagged) out.push_back(std::move(t.line));
}

/// Differential oracle over one instance's records (see suite.hpp).
void check_oracle(const std::vector<ScenarioSpec>& corpus, std::size_t i,
                  const SuiteRecord* recs, std::size_t count, double tol,
                  std::vector<Tagged>& mismatches) {
  double optimal = 0.0;
  const SuiteRecord* reference = nullptr;
  for (std::size_t e = 0; e < count; ++e) {
    const SuiteRecord& r = recs[e];
    if (!r.error.empty() || !r.proved_optimal || r.bound_factor != 1.0)
      continue;
    if (!reference) {
      reference = &r;
      optimal = r.makespan;
    } else if (std::abs(r.makespan - optimal) > tol) {
      mismatches.push_back(
          {i, "instance " + std::to_string(i) + " [" + corpus[i].to_string() +
                  "]: " + r.engine + " proved " + std::to_string(r.makespan) +
                  " but " + reference->engine + " proved " +
                  std::to_string(optimal)});
    }
  }
  if (!reference) return;
  for (std::size_t e = 0; e < count; ++e) {
    const SuiteRecord& r = recs[e];
    if (!r.error.empty() || &r == reference) continue;
    if (r.proved_optimal && r.bound_factor == 1.0) continue;  // checked above
    const char* why = nullptr;
    if (r.makespan < optimal - tol) {
      why = "is below the proved optimum";
    } else if (r.proved_optimal && r.bound_factor > 1.0 &&
               r.makespan > r.bound_factor * optimal + tol) {
      why = "exceeds its proved suboptimality bound";
    }
    if (why)
      mismatches.push_back(
          {i, "instance " + std::to_string(i) + " [" + corpus[i].to_string() +
                  "]: " + r.engine + " makespan " + std::to_string(r.makespan) +
                  " " + why + " (" + std::to_string(optimal) + " by " +
                  reference->engine + ")"});
  }
}

}  // namespace

SuiteReport run_suite(const std::vector<ScenarioSpec>& corpus,
                      const SuiteConfig& config) {
  OPTSCHED_REQUIRE(!config.engines.empty(),
                   "suite needs at least one engine");
  auto& registry = api::SolverRegistry::instance();
  // Engine specs carry options ("parallel:mode=ws:ppes=4"); resolve them
  // up front so an unknown engine or malformed spec throws before any
  // work starts (undeclared option keys are caught by registry.solve).
  std::vector<std::string> engine_names(config.engines.size());
  std::vector<api::Options> engine_options(config.engines.size());
  for (std::size_t e = 0; e < config.engines.size(); ++e) {
    auto [name, options] = api::parse_engine_spec(config.engines[e]);
    registry.info(name);  // throws InvalidRequest on an unknown engine
    engine_names[e] = std::move(name);
    engine_options[e] = std::move(options);
  }

  const std::size_t num_instances = corpus.size();
  const std::size_t num_engines = config.engines.size();

  SuiteReport report;
  report.engines = config.engines;
  report.instances = num_instances;
  report.records.resize(num_instances * num_engines);
  for (std::size_t i = 0; i < num_instances; ++i)
    for (std::size_t e = 0; e < num_engines; ++e) {
      SuiteRecord& rec = report.records[i * num_engines + e];
      rec.instance = i;
      rec.spec = corpus[i].to_string();
      rec.family = corpus[i].family;
      rec.engine = config.engines[e];
    }
  if (num_instances == 0) {
    report.jobs = 0;
    return report;
  }

  const unsigned jobs = static_cast<unsigned>(std::clamp<std::size_t>(
      config.jobs ? config.jobs : 1, 1, num_instances));
  report.jobs = jobs;

  util::Timer wall;
  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards the tagged lists and on_record
  std::vector<Tagged> mismatches, failures, errors;

  auto worker = [&] {
    const sched::ScheduleValidator validator;
    while (true) {
      if (config.cancel.cancelled()) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_instances) return;
      SuiteRecord* recs = report.records.data() + i * num_engines;

      std::optional<Instance> instance;
      try {
        instance.emplace(corpus[i].materialize());
      } catch (const std::exception& ex) {
        const std::lock_guard<std::mutex> lock(mu);
        for (std::size_t e = 0; e < num_engines; ++e)
          recs[e].error = ex.what();
        errors.push_back({i, "instance " + std::to_string(i) + " [" +
                                 corpus[i].to_string() +
                                 "]: materialize failed: " + ex.what()});
        continue;
      }

      for (std::size_t e = 0; e < num_engines; ++e) {
        SuiteRecord& rec = recs[e];
        rec.nodes = instance->graph.num_nodes();
        rec.edges = instance->graph.num_edges();
        rec.procs = instance->machine.num_procs();

        api::SolveRequest request(instance->graph, instance->machine,
                                  instance->comm);
        request.limits = config.limits;
        request.cancel = config.cancel;
        request.options = engine_options[e];

        const util::Timer timer;
        try {
          // --via-socket mode: ship the run to the daemon instead of
          // solving in-process. The hook returns a rebuilt result whose
          // schedule borrows *instance, so validation and the oracle
          // below see it exactly like a local result.
          const api::SolveResult result =
              config.remote_solve
                  ? config.remote_solve(*instance, config.engines[e],
                                        config.limits)
                  : api::solve(engine_names[e], request);
          rec.makespan = result.makespan;
          rec.proved_optimal = result.proved_optimal;
          rec.bound_factor = result.bound_factor;
          rec.termination = core::to_string(result.reason);
          rec.stats = result.stats;
          rec.valid = true;
          if (config.validate_schedules) {
            const auto violations = validator.check(result.schedule);
            if (!violations.empty()) {
              rec.valid = false;
              const std::lock_guard<std::mutex> lock(mu);
              for (const auto& v : violations)
                failures.push_back(
                    {i, "instance " + std::to_string(i) + " [" + rec.spec +
                            "] " + rec.engine + ": [" +
                            sched::to_string(v.kind) + "] " + v.message});
            }
          }
        } catch (const std::exception& ex) {
          rec.error = ex.what();
          const std::lock_guard<std::mutex> lock(mu);
          errors.push_back({i, "instance " + std::to_string(i) + " [" +
                                   rec.spec + "] " + rec.engine + ": " +
                                   ex.what()});
        }
        rec.time_ms = timer.millis();
        if (config.on_record) {
          const std::lock_guard<std::mutex> lock(mu);
          config.on_record(rec);
        }
      }

      if (config.differential_oracle) {
        std::vector<Tagged> local;
        check_oracle(corpus, i, recs, num_engines, config.oracle_tolerance,
                     local);
        if (!local.empty()) {
          const std::lock_guard<std::mutex> lock(mu);
          for (auto& t : local) mismatches.push_back(std::move(t));
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (unsigned j = 0; j < jobs; ++j) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  // Read the token itself, not a worker-observed flag: a cancellation that
  // lands after the last index is claimed must still mark the report (its
  // in-flight solves returned truncated incumbents).
  report.cancelled = config.cancel.cancelled();
  if (report.cancelled)
    for (auto& rec : report.records)
      if (rec.termination.empty() && rec.error.empty()) rec.error = "not-run";

  sort_into(mismatches, report.oracle_mismatches);
  sort_into(failures, report.validator_failures);
  sort_into(errors, report.errors);
  report.wall_ms = wall.millis();
  return report;
}

std::string SuiteReport::summary() const {
  std::ostringstream out;
  out << "suite: " << instances << " instances x " << engines.size()
      << " engines, " << jobs << " jobs, " << util::format_seconds(wall_ms / 1e3)
      << (cancelled ? " (CANCELLED)" : "") << "\n";

  util::Table table({"engine", "runs", "optimal", "mean makespan",
                     "mean expanded", "delta loads", "total time"});
  for (const auto& engine : engines) {
    util::Accumulator makespan, expanded, time_ms;
    std::uint64_t runs = 0, proved = 0, delta = 0;
    for (const auto& rec : records) {
      if (rec.engine != engine || !rec.error.empty()) continue;
      ++runs;
      if (rec.proved_optimal) ++proved;
      makespan.add(rec.makespan);
      expanded.add(static_cast<double>(rec.stats.search.expanded));
      delta += rec.stats.search.loads_incremental;
      time_ms.add(rec.time_ms);
    }
    table.row()
        .cell(engine)
        .cell(runs)
        .cell(proved)
        .cell(makespan.mean())
        .cell(expanded.mean(), 1)
        .cell(delta)
        .cell(util::format_seconds(time_ms.sum() / 1e3));
  }
  table.print(out);

  auto dump = [&out](const char* title, const std::vector<std::string>& list) {
    if (list.empty()) return;
    out << title << " (" << list.size() << "):\n";
    for (const auto& line : list) out << "  " << line << "\n";
  };
  // Serving-layer line only when runs actually went through a daemon
  // (in-process suites report zero lookups).
  std::uint64_t lookups = 0, hits = 0;
  for (const auto& rec : records) {
    lookups += rec.stats.cache_lookups ? 1 : 0;
    hits += rec.stats.cache_hit ? 1 : 0;
  }
  if (lookups)
    out << "cache: " << hits << "/" << lookups << " runs served from cache\n";

  dump("ORACLE MISMATCHES", oracle_mismatches);
  dump("VALIDATOR FAILURES", validator_failures);
  dump("ERRORS", errors);
  if (ok()) out << "oracle: all engines agree; all schedules valid\n";
  return out.str();
}

namespace {

/// One report cell. Counters stay integers (util::format_number would
/// write 1000000 as 1e+06); flags print 1/0 in CSV and true/false in JSON.
using Cell = std::variant<std::uint64_t, double, bool, std::string>;

/// One named cell of a record's report row.
struct Field {
  const char* name;
  /// Serving-layer state, dist-mode communication or wall-clock: differs
  /// between reruns, so determinism diffs strip it.
  bool run_dependent;
  /// Per-engine JSON aggregates over error-free runs, for numeric
  /// counters only: "max_<name>" always, plus "total_<name>" when the
  /// counter adds up (Merge::kSum).
  std::optional<util::Merge> merge;
  Cell cell;
};

template <class T>
Cell to_cell(const T& v) {
  if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>)
    return static_cast<std::uint64_t>(v);
  else
    return v;
}

/// A record's report row, in CSV column order: the record's identity and
/// verdict, the semantic counters of api::SolveStats' and api::ServeStats'
/// lists, valid/error/spec, then the run-dependent zone (the lists'
/// run-dependent counters and time_ms). The CSV, the JSON records and the
/// JSON aggregates are all generated from it, so a counter reaches every
/// report through its row in the list. The per-PPE distribution is not a
/// cell (record_json adds it).
std::vector<Field> fields(const SuiteRecord& r) {
  std::vector<Field> row = {
      {"instance", false, {}, std::uint64_t{r.instance}},
      {"family", false, {}, r.family},
      {"engine", false, {}, r.engine},
      {"nodes", false, {}, std::uint64_t{r.nodes}},
      {"edges", false, {}, std::uint64_t{r.edges}},
      {"procs", false, {}, std::uint64_t{r.procs}},
      {"makespan", false, {}, r.makespan},
      {"proved_optimal", false, {}, r.proved_optimal},
      {"bound_factor", false, {}, r.bound_factor},
      {"termination", false, {}, r.termination}};
  std::vector<Field> trailing;
  const auto counter = [&](const util::CounterInfo& c, const auto& v) {
    if constexpr (!std::is_same_v<std::decay_t<decltype(v)>,
                                  std::vector<std::uint64_t>>) {
      const bool run = c.cls == util::CounterClass::kRunDependent;
      (run ? trailing : row).push_back({c.name, run, c.merge, to_cell(v)});
    }
  };
  api::SolveStats::for_each_counter(counter, r.stats);
  api::ServeStats::for_each_counter(counter, r.stats);
  row.push_back({"valid", false, {}, r.valid});
  row.push_back({"error", false, {}, r.error});
  row.push_back({"spec", false, {}, r.spec});
  row.insert(row.end(), trailing.begin(), trailing.end());
  row.push_back({"time_ms", true, util::Merge::kSum, r.time_ms});
  return row;
}

std::string csv_cell(const Cell& cell) {
  return std::visit(
      [](const auto& v) -> std::string {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>)
          return util::csv_escape(v);
        else if constexpr (std::is_same_v<T, bool>)
          return v ? "1" : "0";
        else if constexpr (std::is_same_v<T, double>)
          return util::format_number_lenient(v);
        else
          return std::to_string(v);
      },
      cell);
}

/// JSON has no Infinity/NaN literals: a non-finite double becomes null.
util::Json json_value(double v) {
  return std::isfinite(v) ? util::Json(v) : util::Json();
}

util::Json json_cell(const Cell& cell) {
  return std::visit(
      [](const auto& v) -> util::Json {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>)
          return json_value(v);
        else
          return util::Json(v);
      },
      cell);
}

/// Numeric value of an aggregated (counter or time) cell.
std::optional<double> cell_number(const Cell& cell) {
  if (const auto* v = std::get_if<std::uint64_t>(&cell))
    return static_cast<double>(*v);
  if (const auto* v = std::get_if<double>(&cell)) return *v;
  return std::nullopt;
}

util::Json string_array(const std::vector<std::string>& list) {
  return util::Json::Array(list.begin(), list.end());
}

util::Json engine_aggregate(const SuiteReport& report,
                            const std::string& engine) {
  const std::vector<Field> schema = fields(SuiteRecord{});
  util::Accumulator makespan;
  std::uint64_t runs = 0, proved = 0, cache_hits = 0;
  std::vector<double> total(schema.size()), max(schema.size());
  for (const auto& r : report.records) {
    if (r.engine != engine || !r.error.empty()) continue;
    ++runs;
    if (r.proved_optimal) ++proved;
    if (r.stats.cache_hit) ++cache_hits;
    makespan.add(r.makespan);
    const std::vector<Field> row = fields(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::optional<double> v = cell_number(row[c].cell);
      if (!row[c].merge || !v) continue;
      total[c] += *v;
      max[c] = std::max(max[c], *v);
    }
  }
  util::Json out = util::Json::Object{
      {"runs", runs},
      {"proved_optimal", proved},
      {"cache_hits", cache_hits},
      {"mean_makespan", json_value(makespan.mean())}};
  for (std::size_t c = 0; c < schema.size(); ++c) {
    if (!schema[c].merge || !cell_number(schema[c].cell)) continue;
    const std::string name = schema[c].name;
    if (*schema[c].merge == util::Merge::kSum)
      out["total_" + name] = json_value(total[c]);
    out["max_" + name] = json_value(max[c]);
  }
  return out;
}

util::Json record_json(const SuiteRecord& r) {
  util::Json out = util::Json::Object{};
  for (const Field& field : fields(r)) out[field.name] = json_cell(field.cell);
  // JSON-only: the per-PPE expansion distribution, stored sorted
  // descending (never in PPE-id order, which is timing-dependent).
  const auto& per_ppe = r.stats.expanded_per_ppe;
  out["expanded_per_ppe"] = util::Json::Array(per_ppe.begin(), per_ppe.end());
  out["ppe_expanded_min"] = per_ppe.empty() ? 0 : per_ppe.back();
  out["ppe_expanded_max"] = per_ppe.empty() ? 0 : per_ppe.front();
  return out;
}

}  // namespace

void write_csv(const SuiteReport& report, std::ostream& out) {
  const auto line = [&out](const std::vector<Field>& row, auto&& text) {
    for (std::size_t c = 0; c < row.size(); ++c)
      out << (c ? "," : "") << text(row[c]);
    out << '\n';
  };
  line(fields(SuiteRecord{}), [](const Field& f) { return f.name; });
  for (const auto& r : report.records)
    line(fields(r), [](const Field& f) { return csv_cell(f.cell); });
}

std::vector<std::string> run_dependent_columns() {
  std::vector<std::string> names;
  for (const Field& field : fields(SuiteRecord{}))
    if (field.run_dependent) names.emplace_back(field.name);
  return names;
}

void write_json(const SuiteReport& report, std::ostream& out) {
  util::Json aggregates = util::Json::Object{};
  for (const auto& engine : report.engines)
    aggregates[engine] = engine_aggregate(report, engine);
  util::Json::Array records;
  records.reserve(report.records.size());
  for (const auto& r : report.records) records.push_back(record_json(r));

  const util::Json doc = util::Json::Object{
      {"suite", util::Json::Object{{"instances", report.instances},
                                   {"jobs", report.jobs},
                                   {"ok", report.ok()},
                                   {"cancelled", report.cancelled},
                                   {"engines", string_array(report.engines)},
                                   {"wall_ms", json_value(report.wall_ms)}}},
      {"aggregates", std::move(aggregates)},
      {"oracle_mismatches", string_array(report.oracle_mismatches)},
      {"validator_failures", string_array(report.validator_failures)},
      {"errors", string_array(report.errors)},
      {"records", std::move(records)}};
  out << doc.dump() << '\n';
}

}  // namespace optsched::workload
