#include "server/client.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "util/socket.hpp"
#include "util/strings.hpp"

namespace optsched::server {

namespace {

core::Termination termination_from_string(const std::string& text) {
  for (const core::Termination t :
       {core::Termination::kOptimal, core::Termination::kBoundedOptimal,
        core::Termination::kExpansionLimit, core::Termination::kTimeLimit,
        core::Termination::kMemoryLimit, core::Termination::kCancelled,
        core::Termination::kHeuristic})
    if (text == core::to_string(t)) return t;
  throw util::Error("unknown termination '" + text + "' on the wire");
}

}  // namespace

Client::Client(const std::string& socket_path)
    : stream_(util::UnixStream::connect(socket_path)) {}

std::string Client::round_trip(const std::string& frame) {
  try {
    stream_.write_line(frame);
    std::string reply;
    OPTSCHED_REQUIRE(stream_.read_line(reply),
                     "daemon closed the connection without replying");
    return reply;
  } catch (const ProtocolError&) {
    throw;
  } catch (const util::Error& e) {
    throw ProtocolError(ErrorCode::kTransport, e.what());
  }
}

SolveReply Client::solve_raw(const SolveCommand& command) {
  Command wrapped;
  wrapped.verb = Verb::kSolve;
  wrapped.solve = command;
  return parse_solve_reply(round_trip(encode_command(wrapped)));
}

StatusReply Client::status() {
  Command command;
  command.verb = Verb::kStatus;
  return parse_status_reply(round_trip(encode_command(command)));
}

void Client::shutdown() {
  Command command;
  command.verb = Verb::kShutdown;
  parse_reply(round_trip(encode_command(command)));  // throws on !ok
}

api::SolveResult rebuild_result(const workload::Instance& instance,
                                const SolveReply& reply) {
  const SolveOutcome& outcome = reply.outcome;
  OPTSCHED_REQUIRE(
      outcome.schedule.size() == instance.graph.num_nodes(),
      "wire schedule has " + std::to_string(outcome.schedule.size()) +
          " placements for a " +
          std::to_string(instance.graph.num_nodes()) + "-task instance");

  sched::Schedule schedule(instance.graph, instance.machine, instance.comm);
  for (const auto& placement : outcome.schedule) {
    OPTSCHED_REQUIRE(placement.node < instance.graph.num_nodes() &&
                         placement.proc < instance.machine.num_procs(),
                     "wire placement out of range");
    schedule.place(placement.node, placement.proc, placement.start);
    // Transport integrity: place() recomputes finish from the exec-time
    // model; the start time round-tripped exactly, so any difference
    // means the wire outcome and this instance disagree.
    const auto& placed = schedule.placement(placement.node);
    OPTSCHED_REQUIRE(placed.finish == placement.finish,
                     "wire finish time " +
                         util::format_number(placement.finish) +
                         " does not replay (got " +
                         util::format_number(placed.finish) + ") for node " +
                         std::to_string(placement.node));
  }

  api::SolveResult result(std::move(schedule));
  result.makespan = outcome.makespan;
  result.proved_optimal = outcome.proved_optimal;
  result.bound_factor = outcome.bound_factor;
  result.reason = termination_from_string(outcome.termination);
  result.engine = outcome.engine;
  result.stats = outcome.stats;
  static_cast<api::ServeStats&>(result.stats) = reply;
  return result;
}

workload::RemoteSolveFn remote_solver(const std::string& socket_path,
                                      bool no_cache) {
  struct Connections {
    std::mutex mu;
    std::map<std::thread::id, std::unique_ptr<Client>> by_thread;
  };
  auto connections = std::make_shared<Connections>();
  return [socket_path, no_cache, connections](
             const workload::Instance& instance,
             const std::string& engine_spec,
             const api::SolveLimits& limits) {
    Client* client = nullptr;
    {
      const std::lock_guard<std::mutex> lock(connections->mu);
      auto& slot = connections->by_thread[std::this_thread::get_id()];
      if (!slot) slot = std::make_unique<Client>(socket_path);
      client = slot.get();
    }
    SolveCommand command;
    command.spec = instance.name;
    command.engine = engine_spec;
    command.limits = limits;
    command.no_cache = no_cache;
    return rebuild_result(instance, client->solve_raw(command));
  };
}

}  // namespace optsched::server
