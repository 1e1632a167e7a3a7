// The solver registry: built-in engine inventory, capability flags,
// option-string parsing and validation, structured invalid-argument
// errors, and external engine registration.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "api/registry.hpp"
#include "core/ida_star.hpp"
#include "dag/graph.hpp"
#include "machine/machine.hpp"
#include "sched/list_scheduler.hpp"

namespace optsched::api {
namespace {

SolveRequest figure1_request() {
  static const dag::TaskGraph graph = dag::paper_figure1();
  static const machine::Machine machine = machine::Machine::paper_ring3();
  return SolveRequest(graph, machine);
}

TEST(Registry, ListsAllBuiltinEngines) {
  const auto names = SolverRegistry::instance().names();
  for (const char* expected :
       {"astar", "aeps", "ida", "parallel", "chenyu", "exhaustive", "blevel",
        "hlfet", "mcp", "etf", "portfolio"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) !=
                names.end())
        << "missing engine " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, CapabilityFlags) {
  const auto& r = SolverRegistry::instance();
  EXPECT_TRUE(r.info("astar").caps.optimal);
  EXPECT_TRUE(r.info("astar").caps.anytime);
  EXPECT_FALSE(r.info("astar").caps.parallel);
  EXPECT_FALSE(r.info("aeps").caps.optimal);   // (1+eps) bound, not exact
  EXPECT_TRUE(r.info("aeps").caps.bounded);
  EXPECT_TRUE(r.info("parallel").caps.parallel);
  EXPECT_TRUE(r.info("portfolio").caps.optimal);
  EXPECT_TRUE(r.info("portfolio").caps.parallel);
  EXPECT_FALSE(r.info("exhaustive").caps.anytime);  // ignores limits
  // List heuristics carry no capability flags at all.
  for (const char* h : {"blevel", "hlfet", "mcp", "etf"})
    EXPECT_TRUE(r.info(h).caps.is_heuristic()) << h;
  EXPECT_FALSE(r.info("astar").caps.is_heuristic());
}

TEST(Registry, ParseOptions) {
  EXPECT_TRUE(parse_options("").empty());
  const Options o = parse_options("epsilon=0.2,ppes=8,topology=ring");
  EXPECT_EQ(o.size(), 3u);
  EXPECT_EQ(o.at("epsilon"), "0.2");
  EXPECT_EQ(o.at("ppes"), "8");
  EXPECT_EQ(o.at("topology"), "ring");
  EXPECT_EQ(parse_options("a=1,,b=2,").size(), 2u);  // empties tolerated
  EXPECT_THROW(parse_options("epsilon"), util::Error);
  EXPECT_THROW(parse_options("=0.2"), util::Error);
}

TEST(Registry, UnknownEngineRaisesInvalidRequest) {
  try {
    solve("does-not-exist", figure1_request());
    FAIL() << "expected InvalidRequest";
  } catch (const InvalidRequest& e) {
    EXPECT_NE(std::string(e.what()).find("does-not-exist"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("astar"), std::string::npos)
        << "error should list registered engines";
  }
}

TEST(Registry, UndeclaredOptionRaisesInvalidRequest) {
  SolveRequest request = figure1_request();
  request.options["frobnicate"] = "1";
  try {
    solve("astar", request);
    FAIL() << "expected InvalidRequest";
  } catch (const InvalidRequest& e) {
    EXPECT_NE(std::string(e.what()).find("frobnicate"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("prune"), std::string::npos)
        << "error should list the valid option keys";
  }
  // wire, batch, flush-us and pin are not parallel options, under any
  // mode: the registry rejects them as undeclared.
  for (const auto& [key, value] :
       {std::pair<const char*, const char*>{"wire", "v1"},
        {"batch", "8"},
        {"flush-us", "0"},
        {"pin", "compact"}}) {
    SolveRequest par_request = figure1_request();
    par_request.options["mode"] = "dist";
    par_request.options[key] = value;
    try {
      solve("parallel", par_request);
      FAIL() << "expected InvalidRequest for " << key;
    } catch (const InvalidRequest& e) {
      EXPECT_NE(std::string(e.what()).find("does not accept option '" +
                                           std::string(key) + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Registry, BadOptionValueRaisesInvalidRequest) {
  SolveRequest request = figure1_request();
  request.options["epsilon"] = "banana";
  EXPECT_THROW(solve("aeps", request), InvalidRequest);
  request.options["epsilon"] = "-0.5";
  EXPECT_THROW(solve("aeps", request), InvalidRequest);
  // Negative counts must be rejected up front, never wrapped to a huge
  // unsigned value (ppes=-1 would otherwise try to spawn 2^32-1 threads).
  request.options.clear();
  request.options["ppes"] = "-1";
  EXPECT_THROW(solve("parallel", request), InvalidRequest);
  request.options["ppes"] = "0";
  EXPECT_THROW(solve("parallel", request), InvalidRequest);
  // Worker counts are capped, and a value past 2^32 must not wrap to a
  // small count (4294967297 would otherwise run as 1 PPE). Both are
  // rejected while parsing, before any thread or process starts.
  request.options["ppes"] = "257";
  EXPECT_THROW(solve("parallel", request), InvalidRequest);
  request.options["ppes"] = "4294967297";
  EXPECT_THROW(solve("parallel", request), InvalidRequest);
  request.options.clear();
  request.options["mode"] = "dist";
  request.options["procs"] = "257";
  EXPECT_THROW(solve("parallel", request), InvalidRequest);
}

// The IDA* exact-only constraint surfaces as a structured invalid-argument
// error through the API's validation path: `ida` simply does not declare
// an epsilon option, so the request is rejected before any search runs.
TEST(Registry, IdaRejectsEpsilonThroughValidation) {
  SolveRequest request = figure1_request();
  request.options["epsilon"] = "0.2";
  try {
    solve("ida", request);
    FAIL() << "expected InvalidRequest";
  } catch (const InvalidRequest& e) {
    EXPECT_NE(std::string(e.what()).find("ida"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("epsilon"), std::string::npos);
  }
}

// The core entry point itself must throw (never abort) on the same input,
// so non-API callers get a catchable error too.
TEST(Registry, IdaCoreEntryPointThrowsOnEpsilon) {
  const dag::TaskGraph graph = dag::paper_figure1();
  const machine::Machine machine = machine::Machine::paper_ring3();
  core::SearchConfig config;
  config.epsilon = 0.2;
  EXPECT_THROW(core::ida_star_schedule(graph, machine, config), util::Error);
  config.epsilon = 0.0;
  config.h_weight = 2.0;
  EXPECT_THROW(core::ida_star_schedule(graph, machine, config), util::Error);
}

TEST(Registry, ExternalEngineRegistration) {
  class EchoBLevel : public Solver {
   public:
    SolveResult solve(const SolveRequest& request) const override {
      SolveResult out{sched::upper_bound_schedule(*request.graph,
                                                  *request.machine,
                                                  request.comm)};
      out.makespan = out.schedule.makespan();
      out.reason = core::Termination::kHeuristic;
      out.bound_factor = std::numeric_limits<double>::infinity();
      return out;
    }
  };

  auto& registry = SolverRegistry::instance();
  if (!registry.contains("test-custom")) {
    registry.add({"test-custom",
                  "registration test double",
                  {},
                  {},
                  [] { return std::make_unique<EchoBLevel>(); }});
  }
  const SolveResult result = solve("test-custom", figure1_request());
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_EQ(result.engine, "test-custom");
  sched::validate(result.schedule);

  // Duplicate registration fails loudly.
  EXPECT_THROW(registry.add({"astar", "dup", {}, {}, [] {
                  return std::unique_ptr<Solver>();
                }}),
               util::Error);
}

TEST(Registry, EngineTableMentionsEveryEngine) {
  const std::string plain = format_engine_table(false);
  const std::string md = format_engine_table(true);
  for (const auto& name : SolverRegistry::instance().names()) {
    EXPECT_NE(plain.find(name), std::string::npos) << name;
    EXPECT_NE(md.find("`" + name + "`"), std::string::npos) << name;
  }
  EXPECT_NE(md.find("| --- |"), std::string::npos);
}

TEST(Registry, ResultEngineFieldIsFilled) {
  const SolveResult r = solve("mcp", figure1_request());
  EXPECT_EQ(r.engine, "mcp");
  EXPECT_EQ(r.reason, core::Termination::kHeuristic);
  EXPECT_FALSE(r.proved_optimal);
}

}  // namespace
}  // namespace optsched::api
