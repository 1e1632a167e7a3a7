// SuiteRunner: sharded fan-out must produce deterministic reports, and the
// differential oracle / ScheduleValidator must actually catch engines that
// lie about optimality or emit infeasible schedules (verified by
// registering deliberately broken engines). The report writers must emit
// CSV and JSON that a strict reader parses back to the same values.
#include "workload/suite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "sched/list_scheduler.hpp"
#include "util/jsonl.hpp"
#include "workload/churn.hpp"
#include "workload/corpus.hpp"

namespace optsched::workload {
namespace {

std::vector<ScenarioSpec> small_corpus() {
  std::istringstream in(R"(
family=random nodes=6 ccr=1 machine=clique:2 seeds=100..105
family=forkjoin width=4 jitter=1 machine=ring:3 comm=hop seeds=1..3
family=gauss dim=3 jitter=1 machine=clique:3@1,2,4 seed=2
)");
  return parse_corpus(in);
}

/// Strip the trailing time_ms column so deterministic content can be
/// compared across runs and thread counts.
/// The CSV minus its trailing zone of run-dependent columns (numeric
/// cells, never quoted, so each one is the text after the last comma).
std::string csv_without_time(const SuiteReport& report) {
  std::ostringstream os;
  write_csv(report, os);
  std::string out;
  std::istringstream lines(os.str());
  for (std::string line; std::getline(lines, line);) {
    for (std::size_t k = run_dependent_columns().size(); k > 0; --k)
      line.erase(line.rfind(','));
    out += line + "\n";
  }
  return out;
}

TEST(SuiteRunner, RunsCorpusCleanAcrossEngines) {
  SuiteConfig config;
  config.engines = {"astar", "ida", "chenyu"};
  config.jobs = 4;
  const SuiteReport report = run_suite(small_corpus(), config);

  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.instances, 10u);
  ASSERT_EQ(report.records.size(), 30u);
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    const SuiteRecord& rec = report.records[i];
    EXPECT_EQ(rec.instance, i / 3);                       // row-major layout
    EXPECT_EQ(rec.engine, config.engines[i % 3]);
    EXPECT_TRUE(rec.proved_optimal) << rec.spec;
    EXPECT_TRUE(rec.valid);
    EXPECT_EQ(rec.termination, "optimal");
    EXPECT_TRUE(rec.error.empty());
    EXPECT_GT(rec.makespan, 0.0);
    EXPECT_GT(rec.nodes, 0u);
  }
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("all engines agree"), std::string::npos);
}

TEST(SuiteRunner, ReportsAreDeterministicAcrossJobCounts) {
  SuiteConfig config;
  config.engines = {"astar", "chenyu"};
  config.jobs = 1;
  const SuiteReport serial = run_suite(small_corpus(), config);
  config.jobs = 8;
  const SuiteReport parallel = run_suite(small_corpus(), config);
  EXPECT_EQ(csv_without_time(serial), csv_without_time(parallel));
}

TEST(SuiteRunner, OracleCatchesAnEngineThatLiesAboutOptimality) {
  // An engine that returns a valid heuristic schedule but *claims* a
  // proved-optimal makespan nobody else can reproduce.
  class Liar : public api::Solver {
   public:
    api::SolveResult solve(const api::SolveRequest& request) const override {
      api::SolveResult result(sched::upper_bound_schedule(
          *request.graph, *request.machine, request.comm));
      result.makespan = result.schedule.makespan() + 1000.0;
      result.proved_optimal = true;
      return result;
    }
  };
  auto& registry = api::SolverRegistry::instance();
  if (!registry.contains("test_liar"))
    registry.add({"test_liar", "claims absurd proved makespans",
                  api::EngineCaps{.optimal = true},
                  {},
                  [] { return std::make_unique<Liar>(); }});

  SuiteConfig config;
  config.engines = {"astar", "test_liar"};
  const SuiteReport report = run_suite(small_corpus(), config);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.oracle_mismatches.size(), report.instances);
  EXPECT_NE(report.oracle_mismatches.front().find("test_liar"),
            std::string::npos);
  EXPECT_TRUE(report.validator_failures.empty());  // schedules were feasible
}

TEST(SuiteRunner, ValidatorCatchesAnEngineEmittingInfeasibleSchedules) {
  // An engine whose schedule ignores all precedence and data delays:
  // every task starts at time 0 on processor 0.
  class Slammer : public api::Solver {
   public:
    api::SolveResult solve(const api::SolveRequest& request) const override {
      sched::Schedule schedule(*request.graph, *request.machine, request.comm);
      for (dag::NodeId n : request.graph->topo_order())
        schedule.place(n, 0, 0.0);
      api::SolveResult result(std::move(schedule));
      result.makespan = result.schedule.makespan();
      return result;
    }
  };
  auto& registry = api::SolverRegistry::instance();
  if (!registry.contains("test_slammer"))
    registry.add({"test_slammer", "stacks every task at t=0",
                  api::EngineCaps{},
                  {},
                  [] { return std::make_unique<Slammer>(); }});

  SuiteConfig config;
  config.engines = {"test_slammer"};
  const SuiteReport report = run_suite(small_corpus(), config);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.validator_failures.empty());
  for (const auto& rec : report.records) EXPECT_FALSE(rec.valid);
}

TEST(SuiteRunner, HonoursPerInstanceBudgets) {
  SuiteConfig config;
  config.engines = {"astar"};
  config.limits.max_expansions = 1;
  std::istringstream in("family=random nodes=12 ccr=1 machine=clique:3\n");
  const SuiteReport report = run_suite(parse_corpus(in), config);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_FALSE(report.records[0].proved_optimal);
  EXPECT_EQ(report.records[0].termination, "expansion-limit");
  // A budget-limited incumbent is still a valid schedule, not an error.
  EXPECT_TRUE(report.records[0].valid);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(SuiteRunner, CancellationStopsTheSuite) {
  SuiteConfig config;
  config.engines = {"astar"};
  config.cancel.cancel();  // cancelled before the pool even starts
  const SuiteReport report = run_suite(small_corpus(), config);
  EXPECT_TRUE(report.cancelled);
  EXPECT_FALSE(report.ok());
  for (const auto& rec : report.records) EXPECT_EQ(rec.error, "not-run");
}

TEST(SuiteRunner, ProgressCallbackSeesEveryRun) {
  SuiteConfig config;
  config.engines = {"astar", "chenyu"};
  config.jobs = 4;
  std::size_t calls = 0;
  config.on_record = [&](const SuiteRecord&) { ++calls; };
  const SuiteReport report = run_suite(small_corpus(), config);
  EXPECT_EQ(calls, report.records.size());
}

TEST(SuiteRunner, RejectsUnknownOrEmptyEngines) {
  SuiteConfig config;
  EXPECT_THROW(run_suite(small_corpus(), config), util::Error);
  config.engines = {"astar", "warp-drive"};
  EXPECT_THROW(run_suite(small_corpus(), config), api::InvalidRequest);
}

TEST(SuiteRunner, WritesWellFormedCsvAndJson) {
  SuiteConfig config;
  config.engines = {"astar"};
  const SuiteReport report = run_suite(small_corpus(), config);

  std::ostringstream csv;
  write_csv(report, csv);
  std::istringstream lines(csv.str());
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header.rfind("instance,family,engine,", 0), 0u);
  EXPECT_NE(header.find(",time_ms"), std::string::npos);
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);) ++rows;
  EXPECT_EQ(rows, report.records.size());
  // The hetero machine spec contains a comma: its CSV cell must be quoted.
  EXPECT_NE(csv.str().find("\"family=gauss"), std::string::npos);

  std::ostringstream json;
  write_json(report, json);
  const util::Json doc = util::Json::parse(json.str());
  const util::Json& suite = doc.at("suite");
  EXPECT_TRUE(suite.at("ok").as_bool());
  EXPECT_FALSE(suite.at("cancelled").as_bool());
  EXPECT_EQ(suite.at("instances").as_number(), 10.0);
  EXPECT_TRUE(doc.at("errors").as_array().empty());
  // The keys bench/run_server.sh reads.
  EXPECT_TRUE(suite.at("wall_ms").is_number());
  const util::Json& astar = doc.at("aggregates").at("astar");
  EXPECT_EQ(astar.at("runs").as_number(), 10.0);
  EXPECT_EQ(astar.at("cache_hits").as_number(), 0.0);
  EXPECT_TRUE(astar.at("total_time_ms").is_number());
  EXPECT_TRUE(astar.at("max_peak_memory_bytes").is_number());
  const auto& records = doc.at("records").as_array();
  ASSERT_EQ(records.size(), report.records.size());
  std::uint64_t total_expanded = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SuiteRecord& rec = report.records[i];
    EXPECT_TRUE(records[i].at("time_ms").is_number());
    EXPECT_EQ(records[i].at("spec").as_string(), rec.spec);
    EXPECT_EQ(records[i].at("makespan").as_number(), rec.makespan);
    EXPECT_EQ(records[i].at("expanded").as_number(),
              static_cast<double>(rec.stats.search.expanded));
    EXPECT_TRUE(records[i].at("proved_optimal").as_bool());
    total_expanded += rec.stats.search.expanded;
  }
  EXPECT_EQ(astar.at("total_expanded").as_number(),
            static_cast<double>(total_expanded));
}

TEST(SuiteRunner, CiStripsExactlyTheRunDependentColumns) {
  // CI's determinism diffs strip the workflow-level RUN_DEPENDENT_COLUMNS
  // list (a YAML double-quoted scalar with `\` line continuations); it
  // must name exactly the run-dependent columns, or a diff either fails
  // on timing or silently skips a semantic column.
  std::ifstream in(std::string(OPTSCHED_TEST_DATA_DIR) +
                   "/../../.github/workflows/ci.yml");
  ASSERT_TRUE(in) << "ci.yml not found";
  const std::string yml((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const std::string key = "RUN_DEPENDENT_COLUMNS: \"";
  const std::size_t begin = yml.find(key);
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = yml.find('"', begin + key.size());
  ASSERT_NE(end, std::string::npos);
  std::string value;
  for (std::size_t i = begin + key.size(); i < end; ++i) {
    if (yml[i] == '\\' && yml[i + 1] == '\n') {
      for (i += 2; yml[i] == ' '; ++i) {}
      --i;
      continue;
    }
    value += yml[i];
  }
  std::vector<std::string> listed;
  std::istringstream names(value);
  for (std::string name; std::getline(names, name, ',');)
    listed.push_back(name);
  EXPECT_EQ(listed, run_dependent_columns());

  // ...and those columns are the CSV's trailing zone, in that order.
  std::ostringstream csv;
  write_csv(SuiteReport{}, csv);
  std::string tail;
  for (const auto& name : run_dependent_columns()) tail += "," + name;
  EXPECT_TRUE(csv.str().ends_with(tail + "\n")) << csv.str();
}

TEST(SuiteRunner, CsvQuotesCellsHoldingSeparatorsQuotesAndNewlines) {
  SuiteReport report;
  report.engines = {"astar"};
  SuiteRecord rec;
  rec.engine = "astar";
  rec.error = "placed (1, 2.5) \"here\"\nand\rthere";
  report.records.push_back(rec);
  std::ostringstream csv;
  write_csv(report, csv);

  // Minimal RFC 4180 reader: a quoted cell may hold , " CR and LF.
  std::vector<std::vector<std::string>> rows(1, std::vector<std::string>(1));
  bool quoted = false;
  const std::string text = csv.str();
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted && c == '"' && i + 1 < text.size() && text[i + 1] == '"') {
      rows.back().back() += '"';
      ++i;
    } else if (c == '"') {
      quoted = !quoted;
    } else if (!quoted && c == ',') {
      rows.back().emplace_back();
    } else if (!quoted && c == '\n') {
      rows.emplace_back(1);
    } else {
      rows.back().back() += c;
    }
  }
  ASSERT_EQ(rows.size(), 3u);  // header, one record, empty tail
  ASSERT_EQ(rows[1].size(), rows[0].size());
  const auto error_column =
      std::find(rows[0].begin(), rows[0].end(), "error") - rows[0].begin();
  EXPECT_EQ(rows[1][error_column], rec.error);
}

TEST(SuiteRunner, JsonStaysParseableWithUnprovedResults) {
  // Heuristic engines report bound_factor = inf; JSON has no Infinity
  // literal, so the writer must emit null instead of the bare token.
  SuiteConfig config;
  config.engines = {"blevel"};
  config.differential_oracle = false;
  const SuiteReport report = run_suite(small_corpus(), config);
  std::ostringstream json;
  write_json(report, json);
  const util::Json doc = util::Json::parse(json.str());
  const auto& records = doc.at("records").as_array();
  ASSERT_EQ(records.size(), report.records.size());
  for (const auto& rec : records) {
    EXPECT_TRUE(rec.at("bound_factor").is_null()) << rec.dump();
    EXPECT_FALSE(rec.at("proved_optimal").as_bool());
  }
}

TEST(ChurnReport, JsonRoundTripsControlCharactersAndExactTimes) {
  ChurnReport report;
  report.engine = "astar";
  ChurnRecord rec;
  rec.error = "a\r\x01" "b";
  rec.warm_time_ms = 1.0 / 3.0;
  rec.cold_time_ms = 2.0 / 3.0;
  report.records.push_back(rec);
  std::ostringstream json;
  write_churn_json(report, json);
  const util::Json doc = util::Json::parse(json.str());
  const util::Json& got = doc.at("records").as_array().at(0);
  EXPECT_EQ(got.at("error").as_string(), rec.error);
  EXPECT_EQ(got.at("warm_time_ms").as_number(), rec.warm_time_ms);

  // The CSV twin writes both times exactly too: they are its last two
  // cells, and parse back to the records' doubles bit for bit.
  std::ostringstream csv;
  write_churn_csv(report, csv);
  std::istringstream lines(csv.str());
  std::string header, row;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, row));
  EXPECT_TRUE(header.ends_with(",warm_time_ms,cold_time_ms")) << header;
  const std::size_t cold_at = row.rfind(',');
  const std::size_t warm_at = row.rfind(',', cold_at - 1);
  EXPECT_EQ(std::stod(row.substr(warm_at + 1, cold_at - warm_at - 1)),
            rec.warm_time_ms);
  EXPECT_EQ(std::stod(row.substr(cold_at + 1)), rec.cold_time_ms);
}

}  // namespace
}  // namespace optsched::workload
