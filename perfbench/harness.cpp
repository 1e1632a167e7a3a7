// Timing harness of the seeded benchmark (perfbench/run.py).
//
//   perfbench_harness heavy|serve|reference|setup <job.json> <out.jsonl>
//
// run.py generates every input from the workload seed and hands it over in
// the job file as scenario spec lines. The harness materializes them, calls
// into the solver's public layers, times each call from outside, validates
// every returned schedule after the timed region, and writes one JSON
// record per line. Metrics and the verdicts against the reference optima
// are derived by run.py from these records.
//
// Modes:
//   heavy      closed loop, one caller: per solve, build the
//              core::SearchProblem and pass it to the registry through
//              SolveRequest::problem; repeat the corpus (a pass) until the
//              phase deadline.
//   serve      per pass, spawn `optsched_cli serve`, drive it closed-loop
//              through the whole stream from N client connections with
//              server::Client::solve_raw, shut it down and reap it; repeat
//              until the phase deadline.
//
// Each pass is pinned to "cpus_per_pass" CPUs that move on by one CPU per
// pass (pin_pass); heavy passes also keep those CPUs from halting
// (IdleSpinners).
//   setup      only the work a fresh process does before its first solve
//              (registry look-up, materialization); run.py times it.
//   reference  solve each spec once with a serial engine on a few threads
//              (reference optima and expansion counts; no timing).
//
// With "trace": 1 a run is split into an untraced and a traced phase of
// equal length. The traced phase keeps spans (name, start, end, parent,
// solve id) in memory around the layer calls and writes them at the end.
// Spans derived from the program's own counters (engine search time,
// daemon queue wait and solve time) carry "derived": true.

#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/registry.hpp"
#include "core/problem.hpp"
#include "sched/validator.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "util/jsonl.hpp"
#include "workload/scenario.hpp"

extern char** environ;

namespace {

using namespace optsched;
using util::Json;

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

/// Seconds since harness start on the monotonic clock.
double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Pin the calling thread, and the threads and processes it starts from
/// now on, to `width` CPUs of `cpus` starting at the `pass`-th. On a
/// virtual machine each vCPU runs slower or faster for seconds at a time
/// as other guests load the host; moving every pass on by one CPU makes
/// each solve's median over the passes meet several of them, not
/// whichever the scheduler kept it on.
void pin_pass(const std::vector<int>& cpus, std::uint64_t pass,
              std::uint64_t width) {
  if (cpus.empty() || width == 0 || width >= cpus.size()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::uint64_t k = 0; k < width; ++k)
    CPU_SET(cpus[(pass + k) % cpus.size()], &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
}

/// One busy-waiting thread per CPU of a pass, at SCHED_IDLE: it runs only
/// when nothing else on its CPU can, so the CPU never halts during the
/// pass. A thread of the solver woken on a halted vCPU waits until the
/// host schedules that vCPU again, which on a loaded host takes
/// milliseconds; work stealing hands work and locks between its threads
/// thousands of times per solve, so those waits, not the solver, set its
/// time. A spinner gives way at once to any other thread on its CPU.
class IdleSpinners {
 public:
  IdleSpinners(const std::vector<int>& cpus, std::uint64_t pass,
               std::uint64_t width) {
    if (cpus.empty() || width == 0 || width >= cpus.size()) return;
    for (std::uint64_t k = 0; k < width; ++k) {
      const int cpu = cpus[(pass + k) % cpus.size()];
      threads_.emplace_back([this, cpu] {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
        const sched_param param{};
        ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_ = true;
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// JSON-safe number: non-finite values (an unbounded bound_factor) -> null.
Json num(double v) { return std::isfinite(v) ? Json(v) : Json(); }

class Output {
 public:
  explicit Output(const std::string& path) : out_(path) {
    if (!out_) throw util::Error("cannot write " + path);
  }
  void write(const Json& record) {
    const std::lock_guard<std::mutex> lock(mu_);
    out_ << record.dump() << '\n';
  }

 private:
  std::mutex mu_;
  std::ofstream out_;
};

/// In-memory span log of one thread; ids are indices into `spans_`.
class Tracer {
 public:
  Tracer(bool enabled, unsigned tid) : enabled_(enabled), tid_(tid) {}
  bool enabled() const { return enabled_; }

  /// Record a finished span; returns its id (-1 when tracing is off).
  std::int64_t add(const char* name, double start, double end,
                   std::int64_t parent, std::uint64_t solve,
                   bool derived = false) {
    if (!enabled_) return -1;
    spans_.push_back({name, start, end, parent, solve, derived});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  void flush(Output& out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json r = Json::Object{};
      r["kind"] = "span";
      r["tid"] = tid_;
      r["id"] = static_cast<std::uint64_t>(i);
      r["parent"] = s.parent < 0 ? Json() : Json(s.parent);
      r["name"] = s.name;
      r["start"] = s.start;
      r["end"] = s.end;
      r["solve"] = s.solve;
      if (s.derived) r["derived"] = true;
      out.write(r);
    }
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    std::int64_t parent;
    std::uint64_t solve;
    bool derived;
  };
  bool enabled_;
  unsigned tid_;
  std::vector<Span> spans_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw util::Error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> string_list(const Json& array) {
  std::vector<std::string> out;
  for (const Json& v : array.as_array()) out.push_back(v.as_string());
  return out;
}

std::vector<workload::Instance> materialize_all(
    const std::vector<std::string>& specs) {
  std::vector<workload::Instance> out;
  out.reserve(specs.size());
  for (const std::string& s : specs)
    out.push_back(workload::ScenarioSpec::parse(s).materialize());
  return out;
}

/// Sum of resident memory of this process and its direct children (the
/// dist workers), sampled from /proc every 20 ms while alive.
class RssSampler {
 public:
  explicit RssSampler(bool enabled) {
    if (enabled) thread_ = std::thread([this] { loop(); });
  }
  ~RssSampler() { stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  /// Start a window: window_peak_mb() reports the peak sampled since.
  void open_window() { window_ = 0; }
  double window_peak_mb() const {
    return static_cast<double>(window_.load()) / (1 << 20);
  }
  bool enabled() const { return thread_.joinable(); }

  /// Peak sampled bytes, at least this process's own ru_maxrss.
  double peak_mb() const {
    rusage self{};
    ::getrusage(RUSAGE_SELF, &self);
    const double own = static_cast<double>(self.ru_maxrss) * 1024.0;
    return std::max(own, static_cast<double>(peak_.load())) / (1 << 20);
  }

 private:
  static std::uint64_t rss_bytes(const std::string& pid) {
    std::ifstream statm("/proc/" + pid + "/statm");
    std::uint64_t size = 0, resident = 0;
    if (!(statm >> size >> resident)) return 0;
    return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  }
  static long parent_of(const std::string& pid) {
    std::ifstream stat("/proc/" + pid + "/stat");
    std::string line;
    if (!std::getline(stat, line)) return -1;
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) return -1;
    std::istringstream rest(line.substr(close + 1));
    std::string state;
    long ppid = -1;
    rest >> state >> ppid;
    return ppid;
  }
  void loop() {
    const long self = static_cast<long>(::getpid());
    while (!stop_) {
      std::uint64_t total = rss_bytes("self");
      if (DIR* proc = ::opendir("/proc")) {
        while (const dirent* e = ::readdir(proc)) {
          if (e->d_name[0] < '1' || e->d_name[0] > '9') continue;
          if (parent_of(e->d_name) == self) total += rss_bytes(e->d_name);
        }
        ::closedir(proc);
      }
      if (total > peak_.load()) peak_ = total;
      if (total > window_.load()) window_ = total;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> peak_{0};
  std::atomic<std::uint64_t> window_{0};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// heavy
// ---------------------------------------------------------------------------

struct EngineSpec {
  std::string name;
  api::Options options;
  /// Layer that owns the engine's search loop, for the derived span.
  const char* search_span = "core.search";
};

EngineSpec engine_spec(const std::string& text) {
  EngineSpec e;
  std::tie(e.name, e.options) = api::parse_engine_spec(text);
  const auto mode = e.options.find("mode");
  if (mode != e.options.end() && mode->second == "ws") e.search_span = "ws.search";
  if (mode != e.options.end() && mode->second == "dist")
    e.search_span = "dist.search";
  return e;
}

Json solve_stats(const api::SolveStats& st) {
  const core::SearchStats& s = st.search;
  Json r = Json::Object{};
  r["expanded"] = s.expanded;
  r["generated"] = s.generated;
  r["duplicates_dropped"] = s.duplicates_dropped;
  r["pruned_upper_bound"] = s.pruned_upper_bound;
  r["loads_full"] = s.loads_full;
  r["loads_incremental"] = s.loads_incremental;
  r["assignments_replayed"] = s.assignments_replayed;
  r["max_open_size"] = static_cast<std::uint64_t>(s.max_open_size);
  r["peak_memory_bytes"] = static_cast<std::uint64_t>(s.peak_memory_bytes);
  r["search_s"] = s.elapsed_seconds;
  r["steal_attempts"] = st.steal_attempts;
  r["steals"] = st.steals;
  r["states_transferred"] = st.states_transferred;
  r["shard_hits"] = st.shard_hits;
  Json per_ppe = Json::Array{};
  for (const std::uint64_t n : st.expanded_per_ppe) per_ppe.push_back(n);
  r["expanded_per_ppe"] = per_ppe;
  r["states_serialized"] = st.states_serialized;
  r["batches_sent"] = st.batches_sent;
  r["termination_rounds"] = st.termination_rounds;
  r["states_deduped_at_send"] = st.states_deduped_at_send;
  r["bytes_sent"] = st.bytes_sent;
  return r;
}

/// One timed solve: SearchProblem build, then the registry call with the
/// pre-built problem. Validation runs after the timed region.
Json timed_solve(const EngineSpec& engine, const api::SolveLimits& limits,
                 const workload::Instance& inst, Tracer& tracer,
                 std::uint64_t solve_id) {
  Json r = Json::Object{};
  r["kind"] = "solve";
  const double t0 = now_s();
  try {
    const double build0 = now_s();
    const core::SearchProblem problem(inst.graph, inst.machine, inst.comm);
    const double build1 = now_s();
    api::SolveRequest request(inst.graph, inst.machine, inst.comm);
    request.options = engine.options;
    request.limits = limits;
    request.problem = &problem;
    const double api0 = now_s();
    const api::SolveResult result =
        api::SolverRegistry::instance().solve(engine.name, request);
    const double api1 = now_s();
    const double t1 = now_s();

    const std::int64_t root = tracer.add("solve", t0, t1, -1, solve_id);
    tracer.add("core.problem_build", build0, build1, root, solve_id);
    const std::int64_t api_span =
        tracer.add("api.solve", api0, api1, root, solve_id);
    const double search = result.stats.search.elapsed_seconds;
    tracer.add(engine.search_span, std::max(api0, api1 - search), api1,
               api_span, solve_id, /*derived=*/true);

    r["solve_s"] = t1 - t0;
    r["build_s"] = build1 - build0;
    r["api_s"] = api1 - api0;
    r["makespan"] = result.makespan;
    r["proved"] = result.proved_optimal;
    r["bound"] = num(result.bound_factor);
    r["termination"] = core::to_string(result.reason);
    r["stats"] = solve_stats(result.stats);
    const std::vector<sched::Violation> violations =
        sched::ScheduleValidator().check(result.schedule);
    r["valid"] = violations.empty();
    if (!violations.empty()) r["error"] = violations.front().message;
  } catch (const std::exception& e) {
    r["solve_s"] = now_s() - t0;
    r["valid"] = false;
    r["error"] = e.what();
  }
  return r;
}

api::SolveLimits job_limits(const Json& job) {
  api::SolveLimits limits;
  limits.time_budget_ms = job.get_number("budget_ms", 0.0);
  limits.max_memory_bytes = static_cast<std::size_t>(
      job.get_number("memory_mb", 0.0) * 1024 * 1024);
  limits.max_expansions = job.get_u64("max_expansions", 0);
  return limits;
}

int run_heavy(const Json& job, Output& out) {
  const EngineSpec engine = engine_spec(job.at("engine").as_string());
  const api::SolveLimits limits = job_limits(job);
  const std::vector<std::string> specs = string_list(job.at("specs"));
  const double seconds = job.at("seconds").as_number();
  const bool trace = job.get_bool("trace", false);
  RssSampler rss(engine.search_span == std::string("dist.search"));

  // Materialize the corpus several times (the layer's own time; run.py
  // times whole set-up processes for setup_s); the last copy is used.
  std::vector<workload::Instance> instances;
  const std::uint64_t reps = job.get_u64("setup_reps", 1);
  for (std::uint64_t r = 0; r < reps; ++r) {
    const double t0 = now_s();
    instances = materialize_all(specs);
    Json rec = Json::Object{};
    rec["kind"] = "setup";
    rec["materialize_s"] = now_s() - t0;
    out.write(rec);
  }

  const std::vector<int> cpus = allowed_cpus();
  const std::uint64_t width = job.get_u64("cpus_per_pass", 0);
  std::uint64_t solve_id = 0;
  std::vector<Tracer> tracers;
  const int phases = trace ? 2 : 1;
  for (int phase = 0; phase < phases; ++phase) {
    Tracer tracer(phase == 1, 0);
    const double start = now_s();
    const double deadline = start + seconds / phases;
    std::uint64_t pass = 0;
    double last_pass = 0.0;
    // At least one pass; no pass that would end past the deadline.
    while (pass == 0 || now_s() + last_pass < deadline) {
      pin_pass(cpus, pass, width);
      const IdleSpinners spinners(cpus, pass, width);
      const double pass_start = now_s();
      for (std::size_t i = 0; i < instances.size(); ++i) {
        rss.open_window();
        Json rec = timed_solve(engine, limits, instances[i], tracer,
                               solve_id++);
        if (rss.enabled()) rec["rss_mb"] = rss.window_peak_mb();
        rec["phase"] = phase;
        rec["pass"] = pass;
        rec["i"] = static_cast<std::uint64_t>(i);
        out.write(rec);
      }
      last_pass = now_s() - pass_start;
      Json rec = Json::Object{};
      rec["kind"] = "pass";
      rec["phase"] = phase;
      rec["wall_s"] = last_pass;
      out.write(rec);
      ++pass;
    }
    tracers.push_back(std::move(tracer));
  }

  // Process start-up cost of the engine on a trivial instance.
  if (trace && job.has("startup_spec")) {
    const workload::Instance tiny =
        workload::ScenarioSpec::parse(job.at("startup_spec").as_string())
            .materialize();
    Tracer off(false, 0);
    for (std::uint64_t r = 0; r < job.get_u64("startup_reps", 5); ++r) {
      Json rec = timed_solve(engine, limits, tiny, off, solve_id++);
      rec["kind"] = "startup";
      out.write(rec);
    }
  }

  rss.stop();
  for (const Tracer& t : tracers) t.flush(out);
  Json rec = Json::Object{};
  rec["kind"] = "rss";
  rec["peak_mb"] = rss.peak_mb();
  out.write(rec);
  return 0;
}

/// Everything a fresh process does before its first solve: look up the
/// engine in the registry (built on first use) and materialize the corpus.
/// run.py times whole processes of this mode.
int run_setup(const Json& job) {
  const EngineSpec engine = engine_spec(job.at("engine").as_string());
  api::SolverRegistry::instance().info(engine.name);
  return materialize_all(string_list(job.at("specs"))).empty() ? 1 : 0;
}

// ---------------------------------------------------------------------------
// reference
// ---------------------------------------------------------------------------

int run_reference(const Json& job, Output& out) {
  const EngineSpec engine = engine_spec(job.get_string("engine", "astar"));
  const api::SolveLimits limits = job_limits(job);
  const std::vector<std::string> specs = string_list(job.at("specs"));
  const unsigned threads =
      static_cast<unsigned>(std::max<std::uint64_t>(1, job.get_u64("threads", 1)));
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    Tracer off(false, 0);
    for (std::size_t i = next++; i < specs.size(); i = next++) {
      Json rec = Json::Object{};
      try {
        const workload::Instance inst =
            workload::ScenarioSpec::parse(specs[i]).materialize();
        rec = timed_solve(engine, limits, inst, off, i);
      } catch (const std::exception& e) {
        rec["valid"] = false;
        rec["error"] = e.what();
      }
      rec["kind"] = "reference";
      rec["i"] = static_cast<std::uint64_t>(i);
      out.write(rec);
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return 0;
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// A spawned `optsched_cli serve` process.
class Daemon {
 public:
  Daemon(const std::string& cli, const std::string& socket,
         unsigned workers)
      : socket_(socket) {
    ::unlink(socket.c_str());
    const std::string w = std::to_string(workers);
    std::vector<std::string> args = {cli, "serve", "--socket", socket,
                                     "--workers", w};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                       O_WRONLY, 0);
    const int rc = ::posix_spawn(&pid_, cli.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    ::posix_spawn_file_actions_destroy(&actions);
    if (rc != 0)
      throw util::Error("cannot spawn " + cli + ": " + std::strerror(rc));
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      reap();
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Poll until a connection is accepted (or the daemon dies).
  void wait_ready(double timeout_s) {
    const double deadline = now_s() + timeout_s;
    while (true) {
      try {
        util::UnixStream::connect(socket_);
        return;
      } catch (const util::Error&) {
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw util::Error("daemon exited before accepting connections");
      }
      if (now_s() > deadline) throw util::Error("daemon start timed out");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Ask the daemon to drain and exit, then reap it; returns its peak
  /// resident memory in MiB.
  double stop() {
    try {
      server::Client(socket_).shutdown();
    } catch (const std::exception&) {
      ::kill(pid_, SIGTERM);
    }
    return reap();
  }

 private:
  double reap() {
    rusage usage{};
    int status = 0;
    ::wait4(pid_, &status, 0, &usage);
    pid_ = -1;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

  std::string socket_;
  pid_t pid_ = -1;
};

/// What a client thread keeps per request; validated after timing.
struct Reply {
  std::uint64_t k = 0;
  double start = 0.0;
  double end = 0.0;
  bool ok = false;
  std::string error;
  server::SolveReply reply;
};

const char* engine_layer_span(const std::string& engine) {
  if (engine.rfind("aeps", 0) == 0) return "core.aeps_engine";
  if (engine.rfind("chenyu", 0) == 0) return "bnb.chenyu_engine";
  return "core.astar_engine";
}

int run_serve(const Json& job, Output& out) {
  const std::string cli = job.at("cli").as_string();
  const std::string socket = job.at("socket").as_string();
  const unsigned workers = static_cast<unsigned>(job.get_u64("workers", 2));
  const unsigned clients = static_cast<unsigned>(job.get_u64("clients", 2));
  const std::vector<std::string> specs = string_list(job.at("specs"));
  const std::vector<std::string> engines = string_list(job.at("engines"));
  std::vector<std::pair<std::size_t, std::size_t>> stream;
  for (const Json& req : job.at("stream").as_array())
    stream.emplace_back(static_cast<std::size_t>(req.as_array().at(0).as_number()),
                        static_cast<std::size_t>(req.as_array().at(1).as_number()));
  const double seconds = job.at("seconds").as_number();
  const bool trace = job.get_bool("trace", false);
  double daemon_peak_mb = 0.0;

  // Set-up: materialize the stream's instances and start a daemon until
  // it accepts connections, several times.
  std::vector<workload::Instance> instances;
  std::unique_ptr<Daemon> daemon;
  const std::uint64_t reps = std::max<std::uint64_t>(1, job.get_u64("setup_reps", 1));
  for (std::uint64_t r = 0; r < reps; ++r) {
    if (daemon) daemon_peak_mb = std::max(daemon_peak_mb, daemon->stop());
    daemon.reset();
    const double t0 = now_s();
    instances = materialize_all(specs);
    const double t1 = now_s();
    daemon = std::make_unique<Daemon>(cli, socket, workers);
    daemon->wait_ready(30.0);
    const double t2 = now_s();
    Json rec = Json::Object{};
    rec["kind"] = "setup";
    rec["s"] = t2 - t0;
    rec["materialize_s"] = t1 - t0;
    rec["spawn_s"] = t2 - t1;
    out.write(rec);
  }
  daemon_peak_mb = std::max(daemon_peak_mb, daemon->stop());
  daemon.reset();

  // Every pass answers the whole stream on a fresh daemon started on the
  // pass's CPUs, so passes repeat the same work and the cache starts
  // empty each time.
  const std::vector<int> cpus = allowed_cpus();
  const std::uint64_t width = job.get_u64("cpus_per_pass", 0);
  std::vector<Tracer> tracers;
  const int phases = trace ? 2 : 1;
  for (int phase = 0; phase < phases; ++phase) {
    const double deadline = now_s() + seconds / phases;
    std::uint64_t pass = 0;
    double last_pass = 0.0;
    // At least one pass; no pass that would end past the deadline.
    while (pass == 0 || now_s() + last_pass < deadline) {
      pin_pass(cpus, pass, width);
      daemon = std::make_unique<Daemon>(cli, socket, workers);
      daemon->wait_ready(30.0);
      std::vector<std::unique_ptr<server::Client>> conns;
      for (unsigned c = 0; c < clients; ++c)
        conns.push_back(std::make_unique<server::Client>(socket));
      // One span lane per client and pass: span ids are unique per lane.
      std::vector<Tracer> pass_tracers;
      for (unsigned c = 0; c < clients; ++c)
        pass_tracers.emplace_back(phase == 1,
                                  static_cast<unsigned>(pass * clients + c));
      std::vector<std::vector<Reply>> got(clients);
      std::atomic<std::size_t> cursor{0};
      auto client_loop = [&](unsigned c) {
        Tracer& tracer = pass_tracers[c];
        for (std::size_t k = cursor++; k < stream.size(); k = cursor++) {
          Reply rep;
          rep.k = k;
          rep.start = now_s();
          server::SolveCommand command;
          command.spec = specs[stream[k].first];
          command.engine = engines[stream[k].second];
          const double t0 = now_s();
          double t1 = 0.0;
          try {
            server::SolveReply reply = conns[c]->solve_raw(command);
            t1 = now_s();
            rep.reply = std::move(reply);
            rep.ok = true;
          } catch (const server::ProtocolError& e) {
            t1 = now_s();
            rep.error = std::string("reject:") + server::to_string(e.code) +
                        ": " + e.what();
          } catch (const std::exception& e) {
            t1 = now_s();
            rep.error = e.what();
          }
          rep.end = now_s();
          if (tracer.enabled()) {
            const std::uint64_t id = pass * stream.size() + k;
            const std::int64_t root =
                tracer.add("request", rep.start, rep.end, -1, id);
            const std::int64_t raw =
                tracer.add("server.solve_raw", t0, t1, root, id);
            if (rep.ok) {
              const double wait = rep.reply.queue_wait_ms / 1e3;
              const double solve = rep.reply.solve_ms / 1e3;
              tracer.add("server.queue_wait", t0, std::min(t1, t0 + wait),
                         raw, id, true);
              tracer.add(engine_layer_span(command.engine),
                         std::min(t1, t0 + wait),
                         std::min(t1, t0 + wait + solve), raw, id, true);
            }
          }
          got[c].push_back(std::move(rep));
          if (!got[c].back().ok &&
              got[c].back().error.rfind("reject:transport", 0) == 0)
            break;  // connection lost; the remaining requests go unanswered
        }
      };
      const double start = now_s();
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back(client_loop, c);
      for (std::thread& t : threads) t.join();
      last_pass = now_s() - start;
      conns.clear();
      daemon_peak_mb = std::max(daemon_peak_mb, daemon->stop());
      daemon.reset();

      std::uint64_t answered = 0;
      for (const std::vector<Reply>& g : got) answered += g.size();
      Json rec = Json::Object{};
      rec["kind"] = "pass";
      rec["phase"] = phase;
      rec["pass"] = pass;
      rec["wall_s"] = last_pass;
      rec["requests"] = answered;
      out.write(rec);

      // Validate after the timed pass: replay each reply's placements on
      // the locally materialized instance and run the ScheduleValidator.
      for (unsigned c = 0; c < clients; ++c) {
        for (const Reply& rep : got[c]) {
          Json r = Json::Object{};
          r["kind"] = "request";
          r["phase"] = phase;
          r["pass"] = pass;
          r["k"] = rep.k;
          r["start"] = rep.start;
          r["end"] = rep.end;
          r["rtt_s"] = rep.end - rep.start;
          if (rep.ok) {
            const workload::Instance& inst = instances[stream[rep.k].first];
            r["hit"] = rep.reply.cache_hit;
            r["queue_wait_s"] = rep.reply.queue_wait_ms / 1e3;
            r["engine_s"] = rep.reply.solve_ms / 1e3;
            r["cache_bytes"] =
                static_cast<std::uint64_t>(rep.reply.cache_bytes);
            r["makespan"] = rep.reply.outcome.makespan;
            r["termination"] = rep.reply.outcome.termination;
            r["expanded"] = rep.reply.outcome.expanded;
            try {
              const api::SolveResult result =
                  server::rebuild_result(inst, rep.reply);
              const std::vector<sched::Violation> v =
                  sched::ScheduleValidator().check(result.schedule);
              r["valid"] = v.empty();
              if (!v.empty()) r["error"] = v.front().message;
            } catch (const std::exception& e) {
              r["valid"] = false;
              r["error"] = e.what();
            }
          } else {
            r["valid"] = false;
            r["error"] = rep.error;
          }
          out.write(r);
        }
      }
      for (Tracer& t : pass_tracers) tracers.push_back(std::move(t));
      ++pass;
    }
  }

  for (const Tracer& t : tracers) t.flush(out);
  // Peak of the harness plus the largest peak of a daemon (exact, from
  // rusage; an upper bound of their concurrent sum).
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  Json rec = Json::Object{};
  rec["kind"] = "rss";
  rec["peak_mb"] = static_cast<double>(self.ru_maxrss) / 1024.0 + daemon_peak_mb;
  out.write(rec);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "usage: perfbench_harness heavy|serve|reference|setup "
                 "<job.json> <out.jsonl>\n";
    return 2;
  }
  try {
    const std::string mode = argv[1];
    const Json job = Json::parse(read_file(argv[2]));
    if (mode == "setup") return run_setup(job);
    Output out(argv[3]);
    if (mode == "heavy") return run_heavy(job, out);
    if (mode == "serve") return run_serve(job, out);
    if (mode == "reference") return run_reference(job, out);
    std::cerr << "unknown mode '" << mode << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << '\n';
    return 1;
  }
}
