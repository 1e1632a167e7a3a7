#include "server/daemon.hpp"

#include <future>

#include "api/registry.hpp"
#include "util/timer.hpp"
#include "workload/scenario.hpp"

namespace optsched::server {

namespace {

SolveOutcome make_outcome(const std::string& canonical_spec,
                          const std::string& canonical_engine,
                          const api::SolveResult& result) {
  SolveOutcome outcome;
  outcome.spec = canonical_spec;
  outcome.engine_spec = canonical_engine;
  outcome.engine = result.engine;
  outcome.makespan = result.makespan;
  outcome.proved_optimal = result.proved_optimal;
  outcome.bound_factor = result.bound_factor;
  outcome.termination = core::to_string(result.reason);
  outcome.stats = result.stats;
  outcome.expanded = result.stats.search.expanded;
  const auto& schedule = result.schedule;
  const std::size_t nodes = schedule.graph().num_nodes();
  outcome.schedule.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    const auto& placement = schedule.placement(static_cast<dag::NodeId>(n));
    outcome.schedule.push_back(
        {static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(placement.proc),
         placement.start, placement.finish});
  }
  return outcome;
}

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)), cache_(config_.cache_bytes) {
  OPTSCHED_REQUIRE(!config_.socket_path.empty(),
                   "daemon needs a socket path");
  OPTSCHED_REQUIRE(
      config_.memory_budget == 0 ||
          config_.default_job_memory <= config_.memory_budget,
      "default per-job memory cap exceeds the daemon memory budget");
}

Daemon::~Daemon() {
  stop();
  if (started_) wait();
}

void Daemon::start() {
  OPTSCHED_REQUIRE(!started_, "daemon already started");
  listener_ = util::UnixListener::bind(config_.socket_path);
  PoolConfig pool_config;
  pool_config.workers = config_.workers;
  pool_config.queue_cap = config_.queue_cap;
  pool_config.memory_budget = config_.memory_budget;
  pool_ = std::make_unique<WorkerPool>(pool_config);
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

void Daemon::run() {
  start();
  wait();
}

void Daemon::stop() {
  stop_requested_.store(true, std::memory_order_release);
  stop_cv_.notify_all();
}

void Daemon::wait() {
  OPTSCHED_REQUIRE(started_, "daemon not started");
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_cv_.wait(lock, [this] {
      return stop_requested_.load(std::memory_order_acquire);
    });
  }
  // Teardown order: cancel in-flight searches so they return promptly,
  // stop the pool (joins workers, abandons queued jobs with typed
  // replies), then unblock and join every connection reader.
  cancel_.cancel();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (pool_) pool_->stop();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& connection : connections_) connection.stream.shutdown_io();
  }
  for (auto& connection : connections_)
    if (connection.thread.joinable()) connection.thread.join();
  listener_.close();
}

void Daemon::accept_loop() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    std::optional<util::UnixStream> stream;
    try {
      stream = listener_.accept(/*timeout_ms=*/100);
    } catch (const util::Error&) {
      break;  // listener died (e.g. closed during teardown)
    }
    if (!stream) continue;
    const std::lock_guard<std::mutex> lock(mu_);
    // Reap connections whose reader already finished, so a long-lived
    // daemon does not accumulate one entry per historical client.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        if (it->thread.joinable()) it->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    Connection& connection = connections_.emplace_back();
    connection.stream = std::move(*stream);
    connection.thread =
        std::thread([this, &connection] { serve_connection(connection); });
  }
}

void Daemon::serve_connection(Connection& connection) {
  std::string line;
  try {
    while (connection.stream.read_line(line, config_.max_frame_bytes)) {
      std::string reply;
      bool shutdown_after_reply = false;
      try {
        const Command command = parse_command(line);
        switch (command.verb) {
          case Verb::kSolve:
            reply = handle_solve(command.solve);
            break;
          case Verb::kStatus:
            reply = encode_status_reply(status());
            break;
          case Verb::kShutdown:
            reply = encode_ack(Verb::kShutdown);
            shutdown_after_reply = true;
            break;
        }
      } catch (const ProtocolError& e) {
        reply = encode_error(e.code, e.what());
      } catch (const util::Error& e) {
        reply = encode_error(ErrorCode::kBadRequest, e.what());
      }
      connection.stream.write_line(reply);
      if (shutdown_after_reply) {
        stop();
        break;
      }
    }
  } catch (const util::Error& e) {
    // Oversized frame, EOF mid-frame, or socket failure: the stream
    // cannot resynchronize, so send a best-effort typed error and drop
    // the connection. The daemon itself keeps serving.
    try {
      connection.stream.write_line(
          encode_error(ErrorCode::kBadRequest, e.what()));
    } catch (const util::Error&) {
    }
  }
  connection.stream.shutdown_io();
  connection.done.store(true, std::memory_order_release);
}

std::string Daemon::handle_solve(const SolveCommand& command) {
  // Canonicalize both cache-key halves up front: the spec line through
  // a ScenarioSpec round-trip (PR 4's bit-identical rematerialization
  // contract), the engine spec through canonical_engine_spec.
  std::string canonical_spec;
  try {
    canonical_spec =
        workload::ScenarioSpec::parse(command.spec).to_string();
  } catch (const util::Error& e) {
    throw ProtocolError(ErrorCode::kBadSpec, e.what());
  }
  const auto [engine_name, engine_options] =
      api::parse_engine_spec(command.engine);
  if (!api::SolverRegistry::instance().contains(engine_name))
    throw ProtocolError(ErrorCode::kUnknownEngine,
                        "unknown engine '" + engine_name + "'");
  const std::string canonical_engine =
      api::canonical_engine_spec(command.engine);
  const std::string key = ResultCache::key(canonical_spec, canonical_engine);

  if (!command.no_cache) {
    if (auto hit = cache_.lookup(key)) {
      cache_hits_served_.fetch_add(1, std::memory_order_relaxed);
      SolveReply reply;
      reply.outcome = std::move(*hit);
      reply.cache_hit = true;
      const CacheStats cache_stats = cache_.stats();
      reply.cache_lookups = cache_stats.lookups;
      reply.cache_bytes = cache_stats.bytes;
      return encode_solve_reply(reply);
    }
  }

  // Effective per-job limits: the command's values, with the daemon's
  // defaults where unset. The memory cap doubles as the governor
  // reservation, so the admitted sum can never exceed the budget.
  api::SolveLimits limits = command.limits;
  if (limits.time_budget_ms <= 0)
    limits.time_budget_ms = config_.default_budget_ms;
  if (limits.max_memory_bytes == 0)
    limits.max_memory_bytes = config_.default_job_memory;

  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();

  WorkerPool::Job job;
  job.memory_bytes = config_.memory_budget ? limits.max_memory_bytes : 0;
  job.abandon = [promise] {
    promise->set_value(encode_error(ErrorCode::kShuttingDown,
                                    "daemon stopped before the job ran"));
  };
  job.deliver = [promise](std::string reply) {
    promise->set_value(std::move(reply));
  };
  job.run = [this, key, canonical_spec, canonical_engine,
             engine_name = engine_name, engine_options = engine_options,
             limits, no_cache = command.no_cache](
                double queue_wait_ms) -> std::string {
    try {
      const util::Timer timer;
      const workload::Instance instance =
          workload::ScenarioSpec::parse(canonical_spec).materialize();
      api::SolveRequest request(instance.graph, instance.machine,
                                instance.comm);
      request.limits = limits;
      request.cancel = cancel_;
      request.options = engine_options;
      const api::SolveResult result = api::solve(engine_name, request);

      SolveOutcome outcome =
          make_outcome(canonical_spec, canonical_engine, result);
      if (!no_cache && cacheable(engine_name, result))
        cache_.insert(key, outcome);

      SolveReply reply;
      reply.outcome = std::move(outcome);
      reply.cache_hit = false;
      const CacheStats cache_stats = cache_.stats();
      reply.cache_lookups = cache_stats.lookups;
      reply.cache_bytes = cache_stats.bytes;
      reply.queue_wait_ms = queue_wait_ms;
      reply.solve_ms = timer.millis();
      return encode_solve_reply(reply);
    } catch (const std::exception& e) {
      return encode_error(ErrorCode::kSolveFailed, e.what());
    }
  };

  pool_->submit(std::move(job));  // throws typed admission rejections
  return future.get();
}

bool Daemon::cacheable(const std::string& engine_name,
                       const api::SolveResult& result) const {
  // Only outcomes that are pure functions of the cache key may enter
  // the cache: a truncated run (budget/cancel) reflects wall-clock
  // timing, and a parallel engine may return a different (equally
  // optimal) schedule per run. Complete deterministic runs are also
  // limit-invariant — any budget large enough to finish yields the
  // same result — which is why limits stay out of the key.
  switch (result.reason) {
    case core::Termination::kOptimal:
    case core::Termination::kBoundedOptimal:
    case core::Termination::kHeuristic:
      break;
    default:
      return false;
  }
  return !api::SolverRegistry::instance().info(engine_name).caps.parallel;
}

StatusReply Daemon::status() const {
  StatusReply reply;
  const PoolStatus pool_status = pool_->status();
  reply.accepted = pool_status.accepted;
  reply.completed = pool_status.completed;
  reply.rejected = pool_status.rejected;
  reply.cache_hits_served =
      cache_hits_served_.load(std::memory_order_relaxed);
  reply.queue_depth = pool_status.queue_depth;
  reply.queue_cap = config_.queue_cap;
  reply.in_flight = pool_status.in_flight;
  reply.workers = std::max(1u, config_.workers);
  reply.memory_reserved = pool_status.memory_reserved;
  reply.memory_budget = config_.memory_budget;
  reply.cache = cache_.stats();
  return reply;
}

}  // namespace optsched::server
