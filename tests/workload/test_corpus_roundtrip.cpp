// Satellite: corpus round-trip. Every ScenarioSpec must serialize to its
// canonical line, parse back to an equal spec, and rematerialize a
// bit-identical problem (graph costs, names, adjacency; machine adjacency,
// speeds, topology) — across every family, several machines/comm modes,
// and many seeds. This is what makes a committed corpus file a complete,
// trustworthy description of a suite run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "workload/scenario.hpp"

namespace optsched::workload {
namespace {

/// Write a small STG file once for the stg-family cases. ctest runs each
/// case in its own process, all sharing this path, so the file is written
/// under a per-process name and renamed into place: a reader in another
/// process sees either the old complete file or the new one, never a
/// truncated one.
std::string stg_fixture_path() {
  static const std::string path = [] {
    const std::string p = ::testing::TempDir() + "roundtrip_sample.stg";
    const std::string tmp = p + "." + std::to_string(::getpid());
    {
      std::ofstream out(tmp);
      out << "5\n0 0 0\n1 4 1 0\n2 3 1 0\n3 5 2 1 2\n4 0 1 3\n";
    }
    std::rename(tmp.c_str(), p.c_str());
    return p;
  }();
  return path;
}

std::vector<std::string> roundtrip_specs() {
  const char* machines[] = {"clique:2", "ring:3",          "mesh:2x2",
                            "star:3",   "clique:3@1,2,4.5", "hypercube:2"};
  const char* comms[] = {"unit", "hop"};
  std::vector<std::string> bases = {
      "family=random nodes=9 ccr=0.7",
      "family=random nodes=12 ccr=3 meancomp=25 meanchild=2",
      "family=layered layers=3 width=3 jitter=1",
      "family=forkjoin width=5 jitter=1 meancomp=17 meancomm=53",
      "family=outtree branch=3 depth=3 jitter=1",
      "family=intree branch=2 depth=4 jitter=1",
      "family=diamond half=4 jitter=1",
      "family=chain length=9 jitter=1",
      "family=independent count=10 jitter=1",
      "family=gauss dim=4 jitter=1",
      "family=fft points=4 jitter=1",
      "family=stg path=" + stg_fixture_path() + " ccr=1.5",
      // No jitter: costs come from the family template, seed is inert.
      "family=diamond half=3 meancomp=10 meancomm=2.5",
  };
  std::vector<std::string> specs;
  int salt = 0;
  for (const auto& base : bases)
    for (const std::uint64_t seed : {1, 7, 12345}) {
      ++salt;
      specs.push_back(base + " machine=" + machines[salt % 6] +
                      " comm=" + comms[salt % 2] +
                      " seed=" + std::to_string(seed));
    }
  return specs;
}

class CorpusRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusRoundTrip, SerializeParseRegenerateBitIdentical) {
  const ScenarioSpec spec = ScenarioSpec::parse(GetParam());
  const std::string line = spec.to_string();

  // Text round-trip: canonical form is a fixed point.
  const ScenarioSpec reparsed = ScenarioSpec::parse(line);
  EXPECT_EQ(reparsed, spec);
  EXPECT_EQ(reparsed.to_string(), line);

  // Problem round-trip: both specs materialize bit-identical instances.
  const Instance a = spec.materialize();
  const Instance b = reparsed.materialize();
  EXPECT_TRUE(dag::identical_graphs(a.graph, b.graph));
  EXPECT_TRUE(machine::identical_machines(a.machine, b.machine));
  EXPECT_EQ(a.comm, b.comm);

  // And materialization itself is deterministic (no hidden global state).
  const Instance c = spec.materialize();
  EXPECT_TRUE(dag::identical_graphs(a.graph, c.graph));
  EXPECT_TRUE(machine::identical_machines(a.machine, c.machine));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, CorpusRoundTrip,
                         ::testing::ValuesIn(roundtrip_specs()),
                         [](const auto& info) {
                           return "case" + std::to_string(info.index);
                         });

}  // namespace
}  // namespace optsched::workload
