// Daemon end-to-end over a real Unix-domain socket: cache soundness
// (a hit bit-agrees with a cold in-process solve), typed admission
// rejects under queue and memory pressure (never OOM, never a hang),
// malformed-frame survival, clean shutdown, and the suite runner's
// remote hook agreeing with in-process runs.
#include "server/daemon.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "sched/list_scheduler.hpp"
#include "server/client.hpp"
#include "util/jsonl.hpp"
#include "util/socket.hpp"
#include "workload/corpus.hpp"
#include "workload/scenario.hpp"
#include "workload/suite.hpp"

namespace optsched::server {
namespace {

constexpr const char* kSpecA =
    "family=random nodes=6 ccr=1 machine=clique:2 seed=11";
constexpr const char* kSpecB =
    "family=random nodes=6 ccr=1 machine=clique:2 seed=12";
constexpr const char* kSpecC =
    "family=random nodes=6 ccr=1 machine=clique:2 seed=13";

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Fresh socket path per daemon (bound length-checked by UnixListener).
std::string fresh_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/optsched_daemon_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

DaemonConfig base_config() {
  DaemonConfig config;
  config.socket_path = fresh_socket_path();
  config.workers = 2;
  config.queue_cap = 8;
  config.cache_bytes = 1u << 20;
  config.memory_budget = 256u << 20;
  config.default_job_memory = 32u << 20;
  return config;
}

SolveCommand solve_command(const std::string& spec,
                           const std::string& engine = "astar") {
  SolveCommand command;
  command.spec = spec;
  command.engine = engine;
  return command;
}

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ProtocolError& e) {
    return e.code;
  }
  ADD_FAILURE() << "expected a ProtocolError";
  return ErrorCode::kBadRequest;
}

// --- gated engine for deterministic admission-control tests ------------
// Holds every solve until release() so tests can fill the worker pool
// and the queue to exact depths.

std::mutex g_gate_mu;
std::condition_variable g_gate_cv;
bool g_gate_open = true;
int g_gate_running = 0;

class GatedSolver : public api::Solver {
 public:
  api::SolveResult solve(const api::SolveRequest& request) const override {
    {
      std::unique_lock<std::mutex> lock(g_gate_mu);
      ++g_gate_running;
      g_gate_cv.notify_all();
      g_gate_cv.wait(lock, [] { return g_gate_open; });
      --g_gate_running;
    }
    api::SolveResult out{sched::upper_bound_schedule(*request.graph,
                                                     *request.machine,
                                                     request.comm)};
    out.makespan = out.schedule.makespan();
    out.reason = core::Termination::kHeuristic;
    return out;
  }
};

/// RAII: close the gate on construction, open it (and wake everyone) on
/// destruction so a failing test can never hang daemon teardown.
class GateClosed {
 public:
  GateClosed() {
    const std::lock_guard<std::mutex> lock(g_gate_mu);
    g_gate_open = false;
  }
  ~GateClosed() { release(); }
  void release() {
    const std::lock_guard<std::mutex> lock(g_gate_mu);
    g_gate_open = true;
    g_gate_cv.notify_all();
  }
  /// Block until `n` gated solves sit inside the engine.
  void await_running(int n) {
    std::unique_lock<std::mutex> lock(g_gate_mu);
    ASSERT_TRUE(g_gate_cv.wait_for(lock, std::chrono::seconds(10),
                                   [n] { return g_gate_running >= n; }))
        << "gated engine never reached " << n << " concurrent solves";
  }
};

void register_gated_engine() {
  auto& registry = api::SolverRegistry::instance();
  if (!registry.contains("gated")) {
    registry.add({"gated",
                  "admission-control test double (blocks until released)",
                  {},
                  {},
                  [] { return std::make_unique<GatedSolver>(); }});
  }
}

// -----------------------------------------------------------------------

TEST(Daemon, CacheHitBitAgreesWithColdSolve) {
  Daemon daemon(base_config());
  daemon.start();
  Client client(daemon.config().socket_path);

  const SolveReply cold = client.solve_raw(solve_command(kSpecA));
  EXPECT_FALSE(cold.cache_hit);
  const SolveReply warm = client.solve_raw(solve_command(kSpecA));
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.outcome, cold.outcome);  // verbatim replay

  // The soundness oracle: rebuild both and compare against an
  // in-process reference solve, bit for bit.
  const workload::Instance instance =
      workload::ScenarioSpec::parse(kSpecA).materialize();
  const api::SolveResult remote = rebuild_result(instance, warm);
  api::SolveRequest request(instance.graph, instance.machine, instance.comm);
  const api::SolveResult reference = api::solve("astar", request);
  EXPECT_TRUE(bits_equal(remote.makespan, reference.makespan));
  for (dag::NodeId n = 0; n < instance.graph.num_nodes(); ++n) {
    const auto& got = remote.schedule.placement(n);
    const auto& want = reference.schedule.placement(n);
    EXPECT_EQ(got.proc, want.proc) << "node " << n;
    EXPECT_TRUE(bits_equal(got.start, want.start)) << "node " << n;
    EXPECT_TRUE(bits_equal(got.finish, want.finish)) << "node " << n;
  }

  daemon.stop();
  daemon.wait();
}

TEST(Daemon, NoCacheFlagForcesFreshSolves) {
  Daemon daemon(base_config());
  daemon.start();
  Client client(daemon.config().socket_path);

  SolveCommand command = solve_command(kSpecB);
  command.no_cache = true;
  EXPECT_FALSE(client.solve_raw(command).cache_hit);
  EXPECT_FALSE(client.solve_raw(command).cache_hit);  // still cold
  // And no_cache solves do not populate the cache either.
  EXPECT_FALSE(client.solve_raw(solve_command(kSpecB)).cache_hit);

  daemon.stop();
  daemon.wait();
}

TEST(Daemon, EquivalentEngineSpecsShareOneCacheEntry) {
  Daemon daemon(base_config());
  daemon.start();
  Client client(daemon.config().socket_path);

  EXPECT_FALSE(
      client.solve_raw(solve_command(kSpecA, "aeps:epsilon=0.20")).cache_hit);
  // Same engine configuration, different spelling: must hit.
  EXPECT_TRUE(
      client.solve_raw(solve_command(kSpecA, "aeps:epsilon=0.2")).cache_hit);

  daemon.stop();
  daemon.wait();
}

TEST(Daemon, TypedRejectsForBadSpecAndUnknownEngine) {
  Daemon daemon(base_config());
  daemon.start();
  Client client(daemon.config().socket_path);

  EXPECT_EQ(code_of([&] {
              client.solve_raw(solve_command("family=nonsense foo=1"));
            }),
            ErrorCode::kBadSpec);
  EXPECT_EQ(code_of([&] {
              client.solve_raw(solve_command(kSpecA, "no-such-engine"));
            }),
            ErrorCode::kUnknownEngine);
  // The connection survives typed rejects.
  EXPECT_FALSE(client.solve_raw(solve_command(kSpecC)).cache_hit);

  daemon.stop();
  daemon.wait();
}

TEST(Daemon, MalformedFramesGetTypedErrorsAndDaemonSurvives) {
  DaemonConfig config = base_config();
  config.max_frame_bytes = 4096;
  Daemon daemon(std::move(config));
  daemon.start();

  {
    // Raw socket: garbage lines must produce ok=false frames on the
    // same connection, which stays usable afterwards.
    util::UnixStream raw =
        util::UnixStream::connect(daemon.config().socket_path);
    std::string reply;
    for (const char* frame :
         {"not json", "{\"verb\":\"solve\"", "{\"verb\":\"frobnicate\"}",
          "[1,2,3]", "{\"verb\":\"solve\",\"spec\":42}"}) {
      raw.write_line(frame);
      ASSERT_TRUE(raw.read_line(reply)) << "no reply for: " << frame;
      EXPECT_THROW(parse_reply(reply), ProtocolError) << "frame: " << frame;
    }
    // Same connection, now a valid command.
    Command status;
    status.verb = Verb::kStatus;
    raw.write_line(encode_command(status));
    ASSERT_TRUE(raw.read_line(reply));
    EXPECT_NO_THROW(parse_status_reply(reply));
  }

  {
    // An oversized frame kills only the offending connection.
    util::UnixStream raw =
        util::UnixStream::connect(daemon.config().socket_path);
    raw.write_line(std::string(8192, 'x'));
    std::string reply;
    // Best-effort error reply, then EOF; either way no hang.
    while (raw.read_line(reply)) {
    }
  }

  // The daemon itself is alive and solving.
  Client client(daemon.config().socket_path);
  EXPECT_FALSE(client.solve_raw(solve_command(kSpecC)).cache_hit);

  daemon.stop();
  daemon.wait();
}

/// Regression (socket-layer short-write/EINTR sweep): a client that dies
/// mid-frame — partial line written, no newline, abrupt close — must
/// read as EOF on the daemon side, not as a short read retried forever
/// or a crash; and a client that closes before reading its reply must
/// cost the daemon nothing more than an EPIPE on that one connection.
TEST(Daemon, ClientKilledMidFrameDoesNotWedgeTheDaemon) {
  Daemon daemon(base_config());
  daemon.start();

  {
    // Half a solve command, never terminated, then the client vanishes.
    util::UnixStream raw =
        util::UnixStream::connect(daemon.config().socket_path);
    const std::string partial = "{\"verb\":\"solve\",\"spec\":\"family=ra";
    ASSERT_EQ(::write(raw.fd(), partial.data(), partial.size()),
              static_cast<ssize_t>(partial.size()));
  }

  {
    // A complete command whose sender closes without reading the reply:
    // the daemon's reply write hits a dead peer (EPIPE, not SIGPIPE).
    util::UnixStream raw =
        util::UnixStream::connect(daemon.config().socket_path);
    Command command;
    command.verb = Verb::kSolve;
    command.solve = solve_command(kSpecA);
    raw.write_line(encode_command(command));
  }

  // Meanwhile the daemon still serves well-behaved clients, repeatedly.
  Client client(daemon.config().socket_path);
  for (int i = 0; i < 3; ++i)
    EXPECT_NO_THROW(client.solve_raw(solve_command(kSpecB)));

  daemon.stop();
  daemon.wait();
}

TEST(Daemon, QueueCapRejectsOverloadedTyped) {
  register_gated_engine();
  DaemonConfig config = base_config();
  config.workers = 1;
  config.queue_cap = 1;
  Daemon daemon(std::move(config));
  daemon.start();

  GateClosed gate;
  SolveCommand blocked = solve_command(kSpecA, "gated");
  blocked.no_cache = true;

  // First job occupies the single worker...
  std::thread first([&] {
    Client client(daemon.config().socket_path);
    EXPECT_NO_THROW(client.solve_raw(blocked));
  });
  gate.await_running(1);

  // ...second fills the queue (admitted, waiting for the worker)...
  SolveCommand queued = solve_command(kSpecB, "gated");
  queued.no_cache = true;
  std::thread second([&] {
    Client client(daemon.config().socket_path);
    EXPECT_NO_THROW(client.solve_raw(queued));
  });
  {
    Client poll(daemon.config().socket_path);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (poll.status().queue_depth < 1) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "second job never reached the queue";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // ...third must be rejected with the typed overload code, immediately.
  SolveCommand rejected = solve_command(kSpecC, "gated");
  rejected.no_cache = true;
  Client client(daemon.config().socket_path);
  EXPECT_EQ(code_of([&] { client.solve_raw(rejected); }),
            ErrorCode::kOverloaded);
  EXPECT_GE(client.status().rejected, 1u);

  gate.release();
  first.join();
  second.join();
  daemon.stop();
  daemon.wait();
}

TEST(Daemon, MemoryGovernorRejectsTyped) {
  register_gated_engine();
  DaemonConfig config = base_config();
  config.workers = 2;
  config.memory_budget = 64u << 20;
  config.default_job_memory = 24u << 20;
  Daemon daemon(std::move(config));
  daemon.start();

  // A job whose own cap exceeds the whole budget: kMemory, instantly.
  Client client(daemon.config().socket_path);
  SolveCommand greedy = solve_command(kSpecA);
  greedy.no_cache = true;
  greedy.limits.max_memory_bytes = 128u << 20;
  EXPECT_EQ(code_of([&] { client.solve_raw(greedy); }), ErrorCode::kMemory);

  // Jobs that fit alone but not together: the second is refused rather
  // than overcommitting the budget (48 + 48 > 64 MiB).
  GateClosed gate;
  SolveCommand big = solve_command(kSpecB, "gated");
  big.no_cache = true;
  big.limits.max_memory_bytes = 48u << 20;
  std::thread first([&] {
    Client inner(daemon.config().socket_path);
    EXPECT_NO_THROW(inner.solve_raw(big));
  });
  gate.await_running(1);
  SolveCommand second_big = solve_command(kSpecC, "gated");
  second_big.no_cache = true;
  second_big.limits.max_memory_bytes = 48u << 20;
  EXPECT_EQ(code_of([&] { client.solve_raw(second_big); }),
            ErrorCode::kOverloaded);

  gate.release();
  first.join();
  daemon.stop();
  daemon.wait();
}

/// The outcome minus its run-dependent counters (the elapsed time): two
/// cold solves of one spec that both miss the cache agree on the rest.
SolveOutcome semantic_part(SolveOutcome outcome) {
  api::SolveStats::for_each_counter(
      [](const util::CounterInfo& c, auto& v) {
        if (c.cls == util::CounterClass::kRunDependent) v = {};
      },
      outcome.stats);
  return outcome;
}

TEST(Daemon, ConcurrentClientsAllGetConsistentAnswers) {
  DaemonConfig config = base_config();
  config.workers = 4;
  Daemon daemon(std::move(config));
  daemon.start();

  // 4 threads x 8 solves over 4 distinct specs: every reply for a spec
  // must carry the identical outcome (first run caches, rest hit).
  constexpr int kThreads = 4;
  const std::string specs[] = {
      "family=random nodes=6 ccr=1 machine=clique:2 seed=21",
      "family=random nodes=6 ccr=1 machine=clique:2 seed=22",
      "family=random nodes=6 ccr=1 machine=clique:2 seed=23",
      "family=random nodes=6 ccr=1 machine=clique:2 seed=24"};
  std::mutex mu;
  std::map<std::string, SolveOutcome> seen;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      Client client(daemon.config().socket_path);
      for (int i = 0; i < 8; ++i)
        for (const auto& spec : specs) {
          const SolveReply reply = client.solve_raw(solve_command(spec));
          const std::lock_guard<std::mutex> lock(mu);
          const SolveOutcome outcome = semantic_part(reply.outcome);
          const auto [it, inserted] = seen.emplace(spec, outcome);
          if (!inserted && !(it->second == outcome))
            failures.fetch_add(1);
        }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const StatusReply status = Client(daemon.config().socket_path).status();
  EXPECT_GE(status.cache_hits_served, 1u);
  EXPECT_EQ(status.queue_depth, 0u);

  daemon.stop();
  daemon.wait();
}

/// A suite report's JSON records minus the run-dependent columns, one
/// dump() per record.
std::vector<std::string> comparable_records(
    const workload::SuiteReport& report) {
  std::ostringstream json;
  workload::write_json(report, json);
  const util::Json doc = util::Json::parse(json.str());
  std::vector<std::string> out;
  for (const auto& rec : doc.at("records").as_array()) {
    util::Json::Object fields = rec.as_object();
    for (const auto& name : workload::run_dependent_columns())
      fields.erase(name);
    out.push_back(util::Json(std::move(fields)).dump());
  }
  return out;
}

TEST(Daemon, SuiteRemoteSolverMatchesInProcessAndReplaysFromCache) {
  Daemon daemon(base_config());
  daemon.start();
  std::istringstream in(
      "family=random nodes=6 ccr=1 machine=clique:2 seeds=31..34\n"
      "family=forkjoin width=3 jitter=1 machine=ring:3 comm=hop seeds=1..2\n");
  const auto corpus = workload::parse_corpus(in);

  workload::SuiteConfig config;
  config.engines = {"astar", "chenyu", "aeps:epsilon=0.2"};
  config.jobs = 2;
  const workload::SuiteReport local = workload::run_suite(corpus, config);
  config.remote_solve = remote_solver(daemon.config().socket_path, false);
  const workload::SuiteReport cold = workload::run_suite(corpus, config);
  const workload::SuiteReport warm = workload::run_suite(corpus, config);

  ASSERT_TRUE(local.ok()) << local.summary();
  ASSERT_TRUE(cold.ok()) << cold.summary();
  ASSERT_TRUE(warm.ok()) << warm.summary();
  const auto want = comparable_records(local);
  EXPECT_EQ(comparable_records(cold), want);
  EXPECT_EQ(comparable_records(warm), want);
  for (const auto& rec : cold.records) {
    EXPECT_FALSE(rec.stats.cache_hit) << rec.spec << " " << rec.engine;
    EXPECT_GT(rec.stats.cache_lookups, 0u);
  }
  for (const auto& rec : warm.records)
    EXPECT_TRUE(rec.stats.cache_hit) << rec.spec << " " << rec.engine;

  // A remote ws run's search effort follows thread timing, so it is not
  // compared with an in-process run; its transport counters must still
  // arrive whole. These instances' seed frontiers feed both PPEs.
  std::istringstream ws_in(
      "family=forkjoin width=6 jitter=1 machine=clique:3 seeds=1..2\n");
  config.engines = {"parallel:mode=ws:ppes=2"};
  const workload::SuiteReport ws =
      workload::run_suite(workload::parse_corpus(ws_in), config);
  ASSERT_TRUE(ws.ok()) << ws.summary();
  for (const auto& rec : ws.records) {
    const auto& per_ppe = rec.stats.expanded_per_ppe;
    EXPECT_EQ(rec.stats.parallel_mode, "ws") << rec.spec;
    EXPECT_EQ(rec.stats.effective_ppes, 2u) << rec.spec;
    EXPECT_EQ(rec.stats.search.expanded,
              std::accumulate(per_ppe.begin(), per_ppe.end(),
                              std::uint64_t{0}))
        << rec.spec;
  }

  daemon.stop();
  daemon.wait();
}

TEST(Daemon, ShutdownVerbDrainsAndUnbindsTheSocket) {
  Daemon daemon(base_config());
  std::thread runner([&] { daemon.run(); });
  // start() inside run() races with our connect; retry briefly.
  std::unique_ptr<Client> client;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!client) {
    try {
      client = std::make_unique<Client>(daemon.config().socket_path);
    } catch (const util::Error&) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_FALSE(client->solve_raw(solve_command(kSpecA)).cache_hit);
  client->shutdown();  // acknowledged before the daemon drains
  runner.join();       // run() returns: everything torn down

  // The socket is gone: fresh connections must fail.
  EXPECT_THROW(Client{daemon.config().socket_path}, util::Error);
}

}  // namespace
}  // namespace optsched::server
