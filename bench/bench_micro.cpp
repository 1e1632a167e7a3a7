// Micro-benchmarks (google-benchmark) for the search's hot paths: state
// signatures, the CLOSED flat set, the OPEN heap, context replay +
// expansion, level computation, processor-isomorphism classes, and the
// upper-bound list scheduler. These are the quantities behind the paper's
// core argument that a *computationally cheap* cost function wins.
#include <benchmark/benchmark.h>

#include "core/astar.hpp"
#include "core/expansion.hpp"
#include "core/heuristics.hpp"
#include "core/hotpath.hpp"
#include "core/open_list.hpp"
#include "dag/generators.hpp"
#include "machine/automorphism.hpp"
#include "parallel/wire.hpp"
#include "sched/list_scheduler.hpp"
#include "util/rng.hpp"

namespace {

using namespace optsched;

dag::TaskGraph bench_graph(std::uint32_t v) {
  dag::RandomDagParams p;
  p.num_nodes = v;
  p.ccr = 1.0;
  p.seed = 777;
  return dag::random_dag(p);
}

void BM_SignatureExtend(benchmark::State& state) {
  util::Key128 sig = core::root_signature();
  std::uint32_t i = 0;
  for (auto _ : state) {
    sig = core::extend_signature(sig, i & 63, i & 7,
                                 static_cast<double>(i));
    benchmark::DoNotOptimize(sig);
    ++i;
  }
}
BENCHMARK(BM_SignatureExtend);

void BM_FlatSetInsert(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    util::FlatSet128 set(1 << 16);
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i)
      set.insert({rng() | 1, rng()});
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_FlatSetInsert);

void BM_FlatSetContains(benchmark::State& state) {
  util::FlatSet128 set(1 << 16);
  util::Rng rng(2);
  std::vector<util::Key128> keys;
  for (int i = 0; i < 10000; ++i) {
    keys.push_back({rng() | 1, rng()});
    set.insert(keys.back());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.contains(keys[i % keys.size()]));
    ++i;
  }
}
BENCHMARK(BM_FlatSetContains);

void BM_OpenListPushPop(benchmark::State& state) {
  util::Rng rng(3);
  core::OpenList open;
  for (int i = 0; i < 1000; ++i)
    open.push({static_cast<double>(rng.uniform_u64(0, 1 << 20)), 0.0, 0});
  for (auto _ : state) {
    open.push({static_cast<double>(rng.uniform_u64(0, 1 << 20)), 0.0, 0});
    benchmark::DoNotOptimize(open.pop());
  }
}
BENCHMARK(BM_OpenListPushPop);

// ---- OPEN under an A*-like stream -----------------------------------------
//
// A mixed push/pop/prune stream at a steady frontier size: children are
// pushed above the last popped f (an admissible h makes pops weakly
// monotone), spread over a ~4k slack band, with periodic incumbent pruning.

void BM_OpenHeapPushPop(benchmark::State& state) {
  constexpr std::uint64_t kSlack = 4096;
  const auto frontier = static_cast<std::size_t>(state.range(0));
  core::OpenList open;
  util::Rng rng(41);
  double base = 0.0;
  auto entry = [&] {
    return core::OpenEntry{base + static_cast<double>(
                                      rng.uniform_u64(1, kSlack)),
                           static_cast<double>(rng.uniform_u64(0, 64)), 0};
  };
  for (std::size_t i = 0; i < frontier; ++i) open.push(entry());
  std::size_t tick = 0;
  for (auto _ : state) {
    open.push(entry());
    open.push(entry());
    benchmark::DoNotOptimize(open.pop());
    base = open.pop().f;
    if (++tick % 4096 == 0) {
      // Periodic incumbent improvement: drop the worst tail and refill,
      // as upper-bound pruning does mid-search.
      open.prune_at_least(base + kSlack * 7 / 8);
      while (open.size() < frontier) open.push(entry());
    }
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_OpenHeapPushPop)->Arg(1000)->Arg(100000);

// ---- heuristic evaluation: scalar vs wide --------------------------------
//
// h_path's est_seed pass through the runtime-dispatched kernel vs the
// forced-scalar reference, at a realistic mid-search context. Args are
// {num_nodes, scalar?}.

void BM_HeuristicEval(benchmark::State& state) {
  const auto v = static_cast<std::uint32_t>(state.range(0));
  const auto g = bench_graph(v);
  const auto m = machine::Machine::fully_connected(4);
  const core::SearchProblem problem(g, m);
  core::SearchConfig cfg;
  core::Expander expander(problem, cfg);
  core::StateArena arena;
  util::FlatSet128 seen(1 << 12);

  core::State root;
  root.sig = core::root_signature();
  root.parent = core::kNoParent;
  core::StateIndex cur = arena.add(root);
  for (std::uint32_t d = 0; d < v / 2; ++d) {
    std::vector<core::StateIndex> kids;
    expander.expand(arena, seen, cur, 1e300,
                    [&](core::StateIndex k, const core::State&) {
                      kids.push_back(k);
                    });
    if (kids.empty()) break;
    cur = kids.front();
  }
  core::ExpansionContext ctx(problem);
  ctx.load(arena, cur);
  std::vector<double> scratch(2 * g.num_nodes(), 0.0);

  core::hotpath::force_scalar(state.range(1) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate_h(
        core::HFunction::kPath, problem, ctx.view(), scratch.data()));
  }
  core::hotpath::force_scalar(false);
}
BENCHMARK(BM_HeuristicEval)
    ->ArgNames({"v", "scalar"})
    ->Args({128, 1})
    ->Args({128, 0})
    ->Args({512, 1})
    ->Args({512, 0});

void BM_ComputeLevels(benchmark::State& state) {
  const auto g = bench_graph(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    auto lv = dag::compute_levels(g);
    benchmark::DoNotOptimize(lv.cp_length);
  }
}
BENCHMARK(BM_ComputeLevels)->Arg(32)->Arg(128)->Arg(512);

void BM_ContextLoadAndExpand(benchmark::State& state) {
  // Cost of one expansion at mid-depth with a warm context (move_to is a
  // no-op re-load here) — the paper's per-state cost that its cheap h
  // keeps small. BM_ReplayFull/BM_ReplayDelta below isolate the replay
  // component over a realistic pop sequence.
  const auto v = static_cast<std::uint32_t>(state.range(0));
  const auto g = bench_graph(v);
  const auto m = machine::Machine::fully_connected(4);
  const core::SearchProblem problem(g, m);
  core::SearchConfig cfg;
  core::Expander expander(problem, cfg);
  core::StateArena arena;
  util::FlatSet128 seen(1 << 12);

  core::State root;
  root.sig = core::root_signature();
  root.parent = core::kNoParent;
  core::StateIndex cur = arena.add(root);
  // Descend to half depth.
  for (std::uint32_t d = 0; d < v / 2; ++d) {
    std::vector<core::StateIndex> kids;
    expander.expand(arena, seen, cur, 1e300,
                    [&](core::StateIndex k, const core::State&) {
                      kids.push_back(k);
                    });
    if (kids.empty()) break;
    cur = kids.front();
  }

  for (auto _ : state) {
    state.PauseTiming();
    util::FlatSet128 fresh(1 << 10);
    state.ResumeTiming();
    std::uint64_t children = 0;
    expander.expand(arena, fresh, cur, 1e300,
                    [&](core::StateIndex, const core::State&) { ++children; });
    benchmark::DoNotOptimize(children);
  }
}
BENCHMARK(BM_ContextLoadAndExpand)->Arg(16)->Arg(32)->Arg(64);

// ---- delta replay vs full replay -----------------------------------------
//
// Replays a realistic best-first pop sequence (recorded from a capped A*
// run on a fig6-scale instance) through the expansion context twice: once
// rebuilding from the root per pop (the pre-delta behaviour), once via
// move_to's LCA rewind. The ratio is the core argument for the delta path.

struct ReplayFixture {
  explicit ReplayFixture(std::uint32_t v)
      : graph(bench_graph(v)),
        machine(machine::Machine::fully_connected(4)),
        problem(graph, machine),
        expander(problem, core::SearchConfig{}),
        seen(1 << 14) {
    core::State root;
    root.sig = core::root_signature();
    root.parent = core::kNoParent;
    const auto root_idx = arena.add(root);
    seen.insert(root.sig);

    // Record the pop order of a capped best-first search — the exact
    // sequence of states a real A* run loads the context for.
    core::OpenList open;
    open.push({0.0, 0.0, root_idx});
    while (!open.empty() && pops.size() < 512) {
      const core::OpenEntry e = open.pop();
      if (arena.hot(e.index).depth() == problem.num_nodes()) continue;
      pops.push_back(e.index);
      expander.expand(arena, seen, e.index, 1e300,
                      [&](core::StateIndex k, const core::State& child) {
                        open.push({child.f(), child.g, k});
                      });
    }
  }

  dag::TaskGraph graph;
  machine::Machine machine;
  core::SearchProblem problem;
  core::Expander expander;
  core::StateArena arena;
  util::FlatSet128 seen;
  std::vector<core::StateIndex> pops;
};

void BM_ReplayFull(benchmark::State& state) {
  ReplayFixture fx(static_cast<std::uint32_t>(state.range(0)));
  core::ExpansionContext ctx(fx.problem);
  for (auto _ : state) {
    for (const auto idx : fx.pops) ctx.load(fx.arena, idx);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.pops.size()));
}
BENCHMARK(BM_ReplayFull)->Arg(12)->Arg(16)->Arg(32);

void BM_ReplayDelta(benchmark::State& state) {
  ReplayFixture fx(static_cast<std::uint32_t>(state.range(0)));
  core::ExpansionContext ctx(fx.problem);
  for (auto _ : state) {
    for (const auto idx : fx.pops) ctx.move_to(fx.arena, idx);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.pops.size()));
}
BENCHMARK(BM_ReplayDelta)->Arg(12)->Arg(16)->Arg(32);

// ---- AoS vs SoA arena ----------------------------------------------------
//
// The pop/stale-filter pass touches f, g, parent, and depth of scattered
// states. With the former 56-byte AoS record that drags the 128-bit
// signature and finish time through the cache; the 24-byte hot record
// leaves them in the cold array.

/// The pre-split arena record, reconstructed for comparison.
struct AosState {
  util::Key128 sig;
  double finish, g, h;
  core::StateIndex parent;
  std::uint32_t node, proc, depth;
};

constexpr std::size_t kScanStates = 1 << 16;

std::vector<std::uint32_t> scan_order() {
  // Pseudo-random visit order: frontier pops are scattered, not linear.
  std::vector<std::uint32_t> order(kScanStates);
  util::Rng rng(99);
  for (auto& i : order)
    i = static_cast<std::uint32_t>(rng.uniform_u64(0, kScanStates - 1));
  return order;
}

void BM_ArenaScanAoS(benchmark::State& state) {
  std::vector<AosState> arena(kScanStates);
  util::Rng rng(7);
  for (std::size_t i = 0; i < kScanStates; ++i) {
    arena[i].g = static_cast<double>(rng.uniform_u64(0, 1 << 20));
    arena[i].h = static_cast<double>(rng.uniform_u64(0, 1 << 20));
    arena[i].parent = static_cast<core::StateIndex>(i / 2);
    arena[i].depth = static_cast<std::uint32_t>(i % 64);
  }
  const auto order = scan_order();
  for (auto _ : state) {
    double acc = 0.0;
    std::uint64_t depths = 0;
    for (const auto i : order) {
      acc += arena[i].g + arena[i].h;
      depths += arena[i].depth;
    }
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(depths);
  }
  state.SetItemsProcessed(state.iterations() * kScanStates);
}
BENCHMARK(BM_ArenaScanAoS);

void BM_ArenaScanSoAHot(benchmark::State& state) {
  core::StateArena arena;
  util::Rng rng(7);
  for (std::size_t i = 0; i < kScanStates; ++i) {
    core::State s;
    s.sig = {rng() | 1, rng()};
    s.g = static_cast<double>(rng.uniform_u64(0, 1 << 20));
    s.h = static_cast<double>(rng.uniform_u64(0, 1 << 20));
    s.parent = static_cast<core::StateIndex>(i / 2);
    s.node = static_cast<std::uint32_t>(i % 64);
    s.proc = 0;
    s.depth = static_cast<std::uint32_t>(i % 64);
    arena.add(s);
  }
  const auto order = scan_order();
  for (auto _ : state) {
    double acc = 0.0;
    std::uint64_t depths = 0;
    for (const auto i : order) {
      const core::HotState& s = arena.hot(i);
      acc += s.f;
      depths += s.depth();
    }
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(depths);
  }
  state.SetItemsProcessed(state.iterations() * kScanStates);
}
BENCHMARK(BM_ArenaScanSoAHot);

void BM_IsomorphismClasses(benchmark::State& state) {
  const auto m = machine::Machine::hypercube(4);  // |Aut| = 384
  const machine::AutomorphismGroup group(m);
  std::vector<bool> busy(16, false);
  busy[0] = busy[5] = true;
  std::vector<machine::ProcId> rep;
  for (auto _ : state) {
    group.state_classes(busy, rep);
    benchmark::DoNotOptimize(rep.data());
  }
}
BENCHMARK(BM_IsomorphismClasses);

void BM_UpperBoundListSchedule(benchmark::State& state) {
  const auto g = bench_graph(static_cast<std::uint32_t>(state.range(0)));
  const auto m = machine::Machine::fully_connected(8);
  for (auto _ : state) {
    auto s = sched::upper_bound_schedule(g, m);
    benchmark::DoNotOptimize(s.makespan());
  }
}
BENCHMARK(BM_UpperBoundListSchedule)->Arg(32)->Arg(128);

void BM_FullAStarSmall(benchmark::State& state) {
  // End-to-end optimal search on a small instance (the Table 1 v=10 cell).
  const auto g = bench_graph(10);
  const auto m = machine::Machine::fully_connected(4);
  const core::SearchProblem problem(g, m);
  for (auto _ : state) {
    auto r = core::astar_schedule(problem);
    benchmark::DoNotOptimize(r.makespan);
  }
}
BENCHMARK(BM_FullAStarSmall)->Unit(benchmark::kMillisecond);

// ---- dist wire codec -------------------------------------------------------
//
// Realistic outbox shape: sibling exports sharing a deep prefix and
// diverging in the last assignment — the case the delta encoding is
// designed around. Arg = states per batch (1 / 32 / 256).

std::vector<par::StateMsg> wire_batch_states(std::int64_t count) {
  std::vector<std::pair<dag::NodeId, machine::ProcId>> prefix;
  for (std::uint32_t i = 0; i < 20; ++i)
    prefix.emplace_back(i, i % 4);
  std::vector<par::StateMsg> states;
  for (std::int64_t i = 0; i < count; ++i) {
    par::StateMsg msg;
    msg.assignments = prefix;
    msg.assignments.emplace_back(
        static_cast<dag::NodeId>(20 + i % 8),
        static_cast<machine::ProcId>(i % 4));
    msg.f = 100.25 + static_cast<double>(i);
    states.push_back(std::move(msg));
  }
  return states;
}

void BM_WireEncodeBatch(benchmark::State& state) {
  const auto states = wire_batch_states(state.range(0));
  std::size_t bytes = 0;
  for (auto _ : state) {
    par::wire::BatchEncoder enc;
    enc.reset(1);
    for (const auto& s : states) enc.append(s.assignments, s.f);
    const std::string frame = enc.take_frame();
    bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
  }
  state.counters["frame_bytes"] = static_cast<double>(bytes);
  state.counters["states"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_WireEncodeBatch)->ArgName("states")->Arg(1)->Arg(32)->Arg(256);

void BM_WireDecodeBatch(benchmark::State& state) {
  const auto states = wire_batch_states(state.range(0));
  par::wire::BatchEncoder enc;
  enc.reset(1);
  for (const auto& s : states) enc.append(s.assignments, s.f);
  const std::string frame = enc.take_frame();
  // Payload view, as read_frame hands it to the decoder.
  par::wire::Reader hdr(std::string_view(frame).substr(2));
  const std::uint64_t payload_len = hdr.varint();
  const std::string_view payload =
      std::string_view(frame).substr(frame.size() - payload_len);

  for (auto _ : state) {
    const auto batch = par::wire::decode_batch(payload);
    benchmark::DoNotOptimize(batch.states.data());
  }
}
BENCHMARK(BM_WireDecodeBatch)->ArgName("states")->Arg(1)->Arg(32)->Arg(256);

}  // namespace
