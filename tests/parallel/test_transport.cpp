#include "parallel/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/astar.hpp"
#include "dag/generators.hpp"
#include "parallel/parallel_astar.hpp"
#include "parallel/ws_transport.hpp"
#include "util/rng.hpp"

namespace optsched::par {
namespace {

using machine::Machine;

util::Key128 key_for(std::uint64_t i) {
  return {util::splitmix64(i) | 1, util::splitmix64(i ^ 0xabcdef)};
}

// ---- shard routing -------------------------------------------------------

TEST(ShardedSignatureTable, SameSignatureAlwaysRoutesToSameShard) {
  const ShardedSignatureTable table(16);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const util::Key128 sig = key_for(i);
    const std::uint32_t shard = table.shard_of(sig);
    EXPECT_LT(shard, table.num_shards());
    for (int rep = 0; rep < 3; ++rep) EXPECT_EQ(table.shard_of(sig), shard);
  }
}

TEST(ShardedSignatureTable, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ShardedSignatureTable(1).num_shards(), 1u);
  EXPECT_EQ(ShardedSignatureTable(2).num_shards(), 2u);
  EXPECT_EQ(ShardedSignatureTable(3).num_shards(), 4u);
  EXPECT_EQ(ShardedSignatureTable(16).num_shards(), 16u);
  EXPECT_EQ(ShardedSignatureTable(17).num_shards(), 32u);
}

TEST(ShardedSignatureTable, InsertDetectsDuplicatesExactly) {
  ShardedSignatureTable table(8);
  for (std::uint64_t i = 0; i < 500; ++i)
    EXPECT_TRUE(table.insert(key_for(i)));
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_FALSE(table.insert(key_for(i)));
    EXPECT_TRUE(table.contains(key_for(i)));
  }
  EXPECT_EQ(table.size(), 500u);
  EXPECT_FALSE(table.contains(key_for(9999)));
}

TEST(ShardedSignatureTable, SpreadsKeysAcrossShards) {
  ShardedSignatureTable table(8);
  std::vector<std::size_t> per_shard(table.num_shards(), 0);
  for (std::uint64_t i = 0; i < 4000; ++i)
    ++per_shard[table.shard_of(key_for(i))];
  // Every shard gets a meaningful share (uniform would be 500 each).
  for (const std::size_t n : per_shard) EXPECT_GT(n, 250u);
}

TEST(ShardedSignatureTable, MemoryGrowsWithInsertions) {
  ShardedSignatureTable table(4, /*expected_per_shard=*/16);
  const std::size_t before = table.memory_bytes();
  for (std::uint64_t i = 0; i < 10000; ++i) table.insert(key_for(i));
  EXPECT_GT(table.memory_bytes(), before);
}

// ---- partition strategies ------------------------------------------------

TEST(PartitionStrategy, InterleaveMatchesPaperHandOut) {
  const InterleavePartition p;
  const util::Key128 sig{1, 1};
  // 1st -> PPE 0, 2nd -> PPE q-1, 3rd -> PPE 1, 4th -> PPE q-2, ...
  EXPECT_EQ(p.owner_of(0, sig, 4), 0u);
  EXPECT_EQ(p.owner_of(1, sig, 4), 3u);
  EXPECT_EQ(p.owner_of(2, sig, 4), 1u);
  EXPECT_EQ(p.owner_of(3, sig, 4), 2u);
  // Extras round-robin.
  EXPECT_EQ(p.owner_of(4, sig, 4), 0u);
  EXPECT_EQ(p.owner_of(5, sig, 4), 1u);
}

TEST(PartitionStrategy, HashOwnerIsAPureFunctionOfTheSignature) {
  const HashPartition p;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const util::Key128 sig = key_for(i);
    const std::uint32_t owner = p.owner_of(0, sig, 8);
    EXPECT_LT(owner, 8u);
    EXPECT_EQ(p.owner_of(17, sig, 8), owner);  // rank is irrelevant
  }
}

// ---- steal-batch ordering ------------------------------------------------

/// Minimal PpeHost: a plain sorted frontier of f values, serialization
/// that encodes f only, and an import log — enough to drive the
/// work-stealing donation/steal protocol without a real search.
class FakeHost final : public PpeHost {
 public:
  FakeHost(std::uint32_t id, std::vector<double> frontier)
      : id_(id), frontier_(std::move(frontier)) {
    std::sort(frontier_.begin(), frontier_.end());
  }

  std::uint32_t id() const override { return id_; }
  std::size_t frontier_size() const override { return frontier_.size(); }
  double frontier_min_f() const override {
    return frontier_.empty() ? std::numeric_limits<double>::infinity()
                             : frontier_.front();
  }
  bool dominated() const override { return false; }
  core::StateIndex pop_best() override {
    const auto idx = static_cast<core::StateIndex>(frontier_.front());
    frontier_.erase(frontier_.begin());
    return idx;
  }
  void push_index(core::StateIndex) override {}
  void push_batch(const std::vector<core::StateIndex>& indices) override {
    reclaimed.insert(reclaimed.end(), indices.begin(), indices.end());
  }
  std::vector<core::StateIndex> extract_surplus(std::size_t) override {
    return {};
  }
  std::vector<core::StateIndex> extract_best(std::size_t n) override {
    // Arena index i encodes f = i (states are their own f labels).
    std::vector<core::StateIndex> out;
    while (out.size() < n && !frontier_.empty()) out.push_back(pop_best());
    return out;
  }
  StateMsg serialize(core::StateIndex idx) const override {
    return {{}, static_cast<double>(idx)};
  }
  void import_batch(const std::vector<StateMsg>& msgs) override {
    for (const auto& m : msgs) imported.push_back(m.f);
  }
  std::vector<core::StateIndex> expand_collect(core::StateIndex) override {
    return {};
  }

  std::vector<double> imported;
  std::vector<core::StateIndex> reclaimed;

 private:
  std::uint32_t id_;
  std::vector<double> frontier_;
};

TEST(WorkStealing, StealTakesTheVictimsBestFSuffixInOneBatch) {
  std::atomic<bool> done{false};
  WsTransport transport(/*num_ppes=*/2, /*steal_batch=*/4, /*shards=*/4,
                        done);
  auto owner_link = transport.connect(0);
  auto thief_link = transport.connect(1);

  // Owner holds f = 0..39; after_expand donates its best batch (frontier
  // 40 >= 4 * steal_batch and the deque is empty).
  FakeHost owner(0, [] {
    std::vector<double> f;
    for (int i = 0; i < 40; ++i) f.push_back(i);
    return f;
  }());
  owner_link->after_expand(owner);

  // The thief's empty-frontier dance steals the donated batch.
  FakeHost thief(1, {});
  thief_link->on_empty(thief);

  // Best-f suffix: exactly the owner's 4 best states, best first.
  ASSERT_EQ(thief.imported.size(), 4u);
  EXPECT_EQ(thief.imported, (std::vector<double>{0, 1, 2, 3}));
  EXPECT_FALSE(done.load());

  ParallelStats stats;
  transport.collect(stats);
  EXPECT_EQ(stats.parallel_mode, to_string(TransportMode::kWorkStealing));
  EXPECT_EQ(stats.donations, 1u);
  EXPECT_EQ(stats.steals, 1u);
  EXPECT_EQ(stats.states_transferred, 4u);
}

TEST(WorkStealing, PartialStealKeepsRemainderSortedForNextThief) {
  std::atomic<bool> done{false};
  WsTransport transport(/*num_ppes=*/3, /*steal_batch=*/3, /*shards=*/4,
                        done);
  auto owner_link = transport.connect(0);
  auto t1_link = transport.connect(1);
  auto t2_link = transport.connect(2);

  FakeHost owner(0, [] {
    std::vector<double> f;
    for (int i = 0; i < 24; ++i) f.push_back(i);
    return f;
  }());
  owner_link->after_expand(owner);  // donates f = 0, 1, 2
  owner_link->after_expand(owner);  // deque below batch? no — still 3

  FakeHost t1(1, {}), t2(2, {});
  t1_link->on_empty(t1);
  ASSERT_EQ(t1.imported.size(), 3u);
  EXPECT_EQ(t1.imported, (std::vector<double>{0, 1, 2}));

  // The owner tops the deque back up with its next-best states, and the
  // second thief receives them best-first as well.
  owner_link->after_expand(owner);
  t2_link->on_empty(t2);
  ASSERT_EQ(t2.imported.size(), 3u);
  EXPECT_EQ(t2.imported, (std::vector<double>{3, 4, 5}));
}

TEST(WorkStealing, OwnerReclaimsItsOwnDequeByIndexWithoutReplay) {
  std::atomic<bool> done{false};
  WsTransport transport(/*num_ppes=*/2, /*steal_batch=*/2, /*shards=*/2,
                        done);
  auto owner_link = transport.connect(0);

  FakeHost owner(0, {0, 1, 2, 3, 4, 5, 6, 7});
  owner_link->after_expand(owner);  // donates indices 0, 1
  EXPECT_EQ(owner.frontier_size(), 6u);

  // Frontier drains; the owner's on_empty takes its own donations back as
  // local arena indices (no import/replay). Order is immaterial — the
  // receiver re-heapifies the batch.
  owner_link->on_empty(owner);
  std::sort(owner.reclaimed.begin(), owner.reclaimed.end());
  EXPECT_EQ(owner.reclaimed, (std::vector<core::StateIndex>{0, 1}));
  EXPECT_TRUE(owner.imported.empty());
}

TEST(WorkStealing, QuiescenceRequiresAllIdleAndEmptyDeques) {
  std::atomic<bool> done{false};
  WsTransport transport(/*num_ppes=*/2, /*steal_batch=*/2, /*shards=*/2,
                        done);
  auto a_link = transport.connect(0);
  auto b_link = transport.connect(1);

  FakeHost a(0, {}), b(1, {});
  a_link->on_empty(a);  // a idle; b not yet
  EXPECT_FALSE(done.load());
  b_link->on_empty(b);  // both idle, deques empty -> done
  EXPECT_TRUE(done.load());
}

// ---- work-stealing mode end-to-end ---------------------------------------

class WsSeeds
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {
};

TEST_P(WsSeeds, MatchesSerialOnRandomInstances) {
  const auto [seed, q] = GetParam();
  dag::RandomDagParams p;
  p.num_nodes = 9;
  p.ccr = 1.0;
  p.seed = seed;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(3);
  const core::SearchProblem problem(g, m);

  const auto serial = core::astar_schedule(problem);
  ASSERT_TRUE(serial.proved_optimal);

  ParallelConfig cfg;
  cfg.mode = TransportMode::kWorkStealing;
  cfg.num_ppes = q;
  const auto parallel = parallel_astar_schedule(problem, cfg);
  EXPECT_TRUE(parallel.result.proved_optimal);
  EXPECT_DOUBLE_EQ(parallel.result.makespan, serial.makespan)
      << "seed=" << seed << " q=" << q;
  EXPECT_NO_THROW(sched::validate(parallel.result.schedule));
  EXPECT_EQ(parallel.par_stats.parallel_mode,
            to_string(TransportMode::kWorkStealing));
  EXPECT_EQ(parallel.par_stats.expanded_per_ppe.size(), q);
  EXPECT_GT(parallel.par_stats.shards, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WsSeeds,
    ::testing::Combine(::testing::Values(1u, 3u, 4u, 5u, 6u),
                       ::testing::Values(1u, 2u, 4u, 8u)));

TEST(WorkStealingSearch, EpsilonVariantBoundHolds) {
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    dag::RandomDagParams p;
    p.num_nodes = 9;
    p.ccr = 1.0;
    p.seed = seed;
    const auto g = dag::random_dag(p);
    const auto m = Machine::fully_connected(3);
    const core::SearchProblem problem(g, m);
    const double opt = core::astar_schedule(problem).makespan;

    ParallelConfig cfg;
    cfg.mode = TransportMode::kWorkStealing;
    cfg.num_ppes = 4;
    cfg.search.epsilon = 0.2;
    const auto r = parallel_astar_schedule(problem, cfg);
    EXPECT_LE(r.result.makespan, 1.2 * opt + 1e-9) << seed;
    EXPECT_GE(r.result.makespan, opt - 1e-9) << seed;
    EXPECT_NO_THROW(sched::validate(r.result.schedule));
  }
}

TEST(WorkStealingSearch, GlobalDedupFiltersCrossPpeDuplicates) {
  dag::RandomDagParams p;
  p.num_nodes = 12;
  p.ccr = 1.0;
  p.seed = 11;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(3);
  const core::SearchProblem problem(g, m);
  const auto serial = core::astar_schedule(problem);

  ParallelConfig cfg;
  cfg.mode = TransportMode::kWorkStealing;
  cfg.num_ppes = 4;
  const auto r = parallel_astar_schedule(problem, cfg);
  EXPECT_DOUBLE_EQ(r.result.makespan, serial.makespan);
  // The sharded table makes duplicate detection global: total expansions
  // stay within the seed-expansion overhead of the serial count instead
  // of multiplying with the PPE count.
  EXPECT_LT(r.result.stats.expanded, 2 * serial.stats.expanded + 100);
  EXPECT_GT(r.par_stats.shard_hits, 0u);
  EXPECT_GT(r.par_stats.donations + r.par_stats.steals, 0u);
}

TEST(WorkStealingSearch, HeterogeneousMachine) {
  const auto g = dag::chain(4, 8.0, 1.0);
  const auto m = Machine::fully_connected(2, {1.0, 2.0});
  const core::SearchProblem problem(g, m);
  ParallelConfig cfg;
  cfg.mode = TransportMode::kWorkStealing;
  cfg.num_ppes = 2;
  const auto r = parallel_astar_schedule(problem, cfg);
  EXPECT_DOUBLE_EQ(r.result.makespan, 16.0);
}

TEST(WorkStealingSearch, LimitsHonoured) {
  dag::RandomDagParams p;
  p.num_nodes = 24;
  p.ccr = 1.0;
  p.seed = 7;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(4);
  const core::SearchProblem problem(g, m);

  ParallelConfig cfg;
  cfg.mode = TransportMode::kWorkStealing;
  cfg.num_ppes = 4;
  cfg.search.max_expansions = 200;
  const auto r = parallel_astar_schedule(problem, cfg);
  EXPECT_NO_THROW(sched::validate(r.result.schedule));
  if (!r.result.proved_optimal) {
    EXPECT_EQ(r.result.reason, core::Termination::kExpansionLimit);
  }
}

TEST(WorkStealingSearch, RejectsBadStealBatch) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  const core::SearchProblem problem(g, m);
  ParallelConfig cfg;
  cfg.mode = TransportMode::kWorkStealing;
  cfg.steal_batch = 0;
  EXPECT_THROW(parallel_astar_schedule(problem, cfg), util::Error);
}

TEST(WorkStealingSearch, RejectsAbsurdShardCount) {
  // The table allocates eagerly, before the memory budget applies.
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  const core::SearchProblem problem(g, m);
  ParallelConfig cfg;
  cfg.mode = TransportMode::kWorkStealing;
  cfg.shards = 1u << 20;
  EXPECT_THROW(parallel_astar_schedule(problem, cfg), util::Error);
}

}  // namespace
}  // namespace optsched::par
