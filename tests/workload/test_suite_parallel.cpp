// The committed differential-oracle corpus for the parallel transports:
// both modes at 1/2/4/8 threads must prove optimality and bit-agree with
// serial A* on every instance of tests/data/corpus_parallel.txt, under
// the suite runner's full oracle + ScheduleValidator regime.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "api/solver.hpp"
#include "workload/corpus.hpp"
#include "workload/suite.hpp"

namespace optsched::workload {
namespace {

std::vector<std::string> parallel_engine_grid() {
  std::vector<std::string> engines{"astar"};
  for (const char* mode : {"ring", "ws"})
    for (const int ppes : {1, 2, 4, 8})
      engines.push_back(std::string("parallel:mode=") + mode +
                        ":ppes=" + std::to_string(ppes));
  return engines;
}

TEST(ParallelSuite, BothModesAgreeWithSerialAcrossCommittedCorpus) {
  const auto corpus =
      load_corpus_file(std::string(OPTSCHED_TEST_DATA_DIR) +
                       "/corpus_parallel.txt");
  ASSERT_GE(corpus.size(), 10u);

  SuiteConfig config;
  config.engines = parallel_engine_grid();
  config.jobs = 2;
  const SuiteReport report = run_suite(corpus, config);
  EXPECT_TRUE(report.ok()) << report.summary();

  for (const auto& rec : report.records) {
    ASSERT_TRUE(rec.error.empty()) << rec.engine << ": " << rec.error;
    EXPECT_TRUE(rec.proved_optimal) << rec.engine << " on " << rec.spec;
    EXPECT_EQ(rec.bound_factor, 1.0) << rec.engine;
    if (rec.engine.rfind("parallel", 0) != 0) continue;
    // Parallel records carry their transport mode and the per-PPE
    // expansion distribution, stored sorted (descending) so reports never
    // depend on thread-arrival order.
    EXPECT_FALSE(rec.stats.parallel_mode.empty()) << rec.engine;
    EXPECT_TRUE(std::is_sorted(rec.stats.expanded_per_ppe.rbegin(),
                               rec.stats.expanded_per_ppe.rend()))
        << rec.engine;
  }
}

TEST(EngineSpec, ParsesNameAndColonSeparatedOptions) {
  const auto [name, opts] = api::parse_engine_spec("parallel:mode=ws:ppes=4");
  EXPECT_EQ(name, "parallel");
  ASSERT_EQ(opts.size(), 2u);
  EXPECT_EQ(opts.at("mode"), "ws");
  EXPECT_EQ(opts.at("ppes"), "4");

  const auto [bare, none] = api::parse_engine_spec("astar");
  EXPECT_EQ(bare, "astar");
  EXPECT_TRUE(none.empty());
}

TEST(EngineSpec, SuiteRejectsUnknownEngineNameUpFront) {
  SuiteConfig config;
  config.engines = {"nosuch:mode=ws"};
  EXPECT_THROW(run_suite({}, config), api::InvalidRequest);
}

TEST(EngineSpec, UndeclaredOptionKeySurfacesAsRecordError) {
  std::istringstream in("family=chain length=4 machine=clique:2 seed=1");
  const auto corpus = parse_corpus(in);
  SuiteConfig config;
  config.engines = {"astar:bogus-key=1"};
  const SuiteReport report = run_suite(corpus, config);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("bogus-key"), std::string::npos);
}

}  // namespace
}  // namespace optsched::workload
