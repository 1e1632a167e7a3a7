// Engine differential suite: on every instance, serial A* under each
// admissible heuristic and the parallel engine under both in-process
// transports must agree on a bit-identical optimal makespan. Instances are
// drawn from the workload scenario families across comm modes and machine
// shapes.
//
// The gtest IDs (QueueDifferential.*) are those of the OPEN-structure
// differential this suite grew out of, kept so per-case history carries
// over.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/registry.hpp"
#include "core/astar.hpp"
#include "core/problem.hpp"
#include "workload/scenario.hpp"

namespace optsched {
namespace {

using workload::Instance;
using workload::ScenarioSpec;

class QueueDifferential : public ::testing::TestWithParam<std::string> {};

/// Serial A*: every heuristic proves optimality and so lands on the same
/// makespan, bit for bit.
TEST_P(QueueDifferential, BucketMatchesHeapBitForBit) {
  const Instance instance = ScenarioSpec::parse(GetParam()).materialize();
  const core::SearchProblem problem(instance.graph, instance.machine,
                                    instance.comm);

  std::vector<double> makespans;
  for (const core::HFunction h :
       {core::HFunction::kPaper, core::HFunction::kPath,
        core::HFunction::kComposite}) {
    core::SearchConfig config;
    config.h = h;
    const core::SearchResult r = core::astar_schedule(problem, config);
    EXPECT_TRUE(r.proved_optimal) << GetParam() << " h=" << to_string(h);
    makespans.push_back(r.makespan);
  }
  EXPECT_EQ(makespans[1], makespans[0]) << GetParam() << " h=path";
  EXPECT_EQ(makespans[2], makespans[0]) << GetParam() << " h=composite";
}

/// The parallel engine against serial A*: expansion counts are
/// timing-dependent there (incumbent arrival order), so only the result
/// contract is asserted — a proved-optimal, bit-identical makespan, for
/// both transports.
TEST_P(QueueDifferential, ParallelBucketMatchesHeapMakespan) {
  const Instance instance = ScenarioSpec::parse(GetParam()).materialize();
  const core::SearchResult serial = core::astar_schedule(
      instance.graph, instance.machine, {}, instance.comm);
  ASSERT_TRUE(serial.proved_optimal) << GetParam();

  api::SolveRequest request(instance.graph, instance.machine, instance.comm);
  request.options["ppes"] = "2";
  for (const char* mode : {"ring", "ws"}) {
    request.options["mode"] = mode;
    const api::SolveResult r = api::solve("parallel", request);
    EXPECT_EQ(r.makespan, serial.makespan) << GetParam() << " mode=" << mode;
    EXPECT_TRUE(r.proved_optimal) << GetParam() << " mode=" << mode;
  }
}

/// The scenario families crossed with comm modes and machine shapes,
/// heterogeneous speeds included.
std::vector<std::string> differential_specs() {
  std::vector<std::string> specs;
  const char* machines[] = {
      "machine=clique:2", "machine=clique:3", "machine=ring:3",
      "machine=clique:3@1,2,4",
  };
  const char* comms[] = {"", " comm=hop"};
  const char* shapes[] = {
      "family=random nodes=8 ccr=0.1", "family=random nodes=8 ccr=1",
      "family=random nodes=8 ccr=10",  "family=forkjoin width=4 jitter=1",
      "family=outtree branch=2 depth=3 jitter=1",
      "family=intree branch=2 depth=3 jitter=1",
      "family=diamond half=3 jitter=1", "family=chain length=7 jitter=1",
      "family=gauss dim=3 jitter=1",
      "family=layered layers=3 width=3 jitter=1",
  };
  std::uint64_t seed = 40;
  for (const char* shape : shapes)
    for (const char* machine : machines)
      for (const char* comm : comms)
        specs.push_back(std::string(shape) + " " + machine + comm +
                        " seed=" + std::to_string(++seed));
  return specs;
}

INSTANTIATE_TEST_SUITE_P(Families, QueueDifferential,
                         ::testing::ValuesIn(differential_specs()),
                         [](const auto& info) {
                           return "case" + std::to_string(info.index);
                         });

}  // namespace
}  // namespace optsched
