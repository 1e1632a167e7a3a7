#include "server/protocol.hpp"

#include <cmath>
#include <limits>

#include "util/counters.hpp"

namespace optsched::server {

namespace {

using util::Json;

/// Wrap every util::Error from Json decoding into a typed kBadRequest —
/// the daemon replies with it and keeps the connection alive.
template <typename Fn>
auto decoding(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const ProtocolError&) {
    throw;  // already typed
  } catch (const util::Error& e) {
    throw ProtocolError(ErrorCode::kBadRequest, e.what());
  }
}

Json limits_to_json(const api::SolveLimits& limits) {
  Json out;
  out["budget_ms"] = limits.time_budget_ms;
  out["max_expansions"] = limits.max_expansions;
  out["max_memory_mb"] =
      static_cast<double>(limits.max_memory_bytes) / (1024.0 * 1024.0);
  return out;
}

api::SolveLimits limits_from_json(const Json& frame) {
  api::SolveLimits limits;
  limits.time_budget_ms = frame.get_number("budget_ms", 0.0);
  limits.max_expansions = frame.get_u64("max_expansions", 0);
  const double mb = frame.get_number("max_memory_mb", 0.0);
  OPTSCHED_REQUIRE(mb >= 0, "max_memory_mb must be >= 0");
  limits.max_memory_bytes =
      static_cast<std::size_t>(mb * 1024.0 * 1024.0);
  return limits;
}

Json outcome_to_json(const SolveOutcome& outcome) {
  Json out;
  out["spec"] = outcome.spec;
  out["engine_spec"] = outcome.engine_spec;
  out["engine"] = outcome.engine;
  out["makespan"] = outcome.makespan;
  out["proved_optimal"] = outcome.proved_optimal;
  // JSON has no inf literal and Json::dump rejects non-finite numbers;
  // "no guarantee" travels as an explicit null (decoded back below).
  if (std::isfinite(outcome.bound_factor))
    out["bound_factor"] = outcome.bound_factor;
  else
    out["bound_factor"] = Json();
  out["termination"] = outcome.termination;
  Json stats{Json::Object{}};
  util::counters_to_json(outcome.stats, stats);
  out["stats"] = std::move(stats);
  Json schedule{Json::Array{}};
  for (const auto& p : outcome.schedule)
    schedule.push_back(Json(Json::Array{Json(p.node), Json(p.proc),
                                        Json(p.start), Json(p.finish)}));
  out["schedule"] = std::move(schedule);
  return out;
}

SolveOutcome outcome_from_json(const Json& frame) {
  SolveOutcome outcome;
  outcome.spec = frame.at("spec").as_string();
  outcome.engine_spec = frame.at("engine_spec").as_string();
  outcome.engine = frame.at("engine").as_string();
  outcome.makespan = frame.at("makespan").as_number();
  outcome.proved_optimal = frame.at("proved_optimal").as_bool();
  // bound_factor is null on the wire when non-finite (JSON has no inf).
  outcome.bound_factor = frame.at("bound_factor").is_null()
                             ? std::numeric_limits<double>::infinity()
                             : frame.at("bound_factor").as_number();
  outcome.termination = frame.at("termination").as_string();
  util::counters_from_json(frame.at("stats"), outcome.stats);
  outcome.expanded = outcome.stats.search.expanded;
  for (const auto& entry : frame.at("schedule").as_array()) {
    const auto& quad = entry.as_array();
    OPTSCHED_REQUIRE(quad.size() == 4,
                     "schedule entries must be [node,proc,start,finish]");
    WirePlacement p;
    const double node = quad[0].as_number();
    const double proc = quad[1].as_number();
    OPTSCHED_REQUIRE(node >= 0 && node == std::floor(node) && proc >= 0 &&
                         proc == std::floor(proc),
                     "schedule node/proc must be non-negative integers");
    p.node = static_cast<std::uint32_t>(node);
    p.proc = static_cast<std::uint32_t>(proc);
    p.start = quad[2].as_number();
    p.finish = quad[3].as_number();
    outcome.schedule.push_back(p);
  }
  return outcome;
}

}  // namespace

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kUnknownVerb: return "unknown-verb";
    case ErrorCode::kBadSpec: return "bad-spec";
    case ErrorCode::kUnknownEngine: return "unknown-engine";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kMemory: return "memory";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kSolveFailed: return "solve-failed";
    case ErrorCode::kTransport: return "transport";
  }
  return "?";
}

ErrorCode error_code_from_string(const std::string& text) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kUnknownVerb, ErrorCode::kBadSpec,
        ErrorCode::kUnknownEngine, ErrorCode::kOverloaded, ErrorCode::kMemory,
        ErrorCode::kShuttingDown, ErrorCode::kSolveFailed,
        ErrorCode::kTransport})
    if (text == to_string(code)) return code;
  throw util::Error("unknown protocol error code '" + text + "'");
}

Command parse_command(const std::string& line) {
  return decoding([&] {
    const Json frame = Json::parse(line);
    OPTSCHED_REQUIRE(frame.is_object(), "command frame must be an object");
    const std::string verb = frame.at("verb").as_string();
    Command command;
    if (verb == "solve") {
      command.verb = Verb::kSolve;
      command.solve.spec = frame.at("spec").as_string();
      command.solve.engine = frame.get_string("engine", "astar");
      command.solve.limits = limits_from_json(frame);
      command.solve.no_cache = frame.get_bool("no_cache", false);
      OPTSCHED_REQUIRE(!command.solve.spec.empty(), "empty scenario spec");
    } else if (verb == "status") {
      command.verb = Verb::kStatus;
    } else if (verb == "shutdown") {
      command.verb = Verb::kShutdown;
    } else {
      throw ProtocolError(ErrorCode::kUnknownVerb,
                          "unknown verb '" + verb + "'");
    }
    return command;
  });
}

std::string encode_command(const Command& command) {
  Json frame;
  switch (command.verb) {
    case Verb::kSolve: {
      frame["verb"] = "solve";
      frame["spec"] = command.solve.spec;
      frame["engine"] = command.solve.engine;
      Json limits = limits_to_json(command.solve.limits);
      for (const auto& [key, value] : limits.as_object()) frame[key] = value;
      frame["no_cache"] = command.solve.no_cache;
      break;
    }
    case Verb::kStatus: frame["verb"] = "status"; break;
    case Verb::kShutdown: frame["verb"] = "shutdown"; break;
  }
  return frame.dump();
}

std::string encode_error(ErrorCode code, const std::string& message) {
  Json frame;
  frame["ok"] = false;
  frame["error"] = to_string(code);
  frame["message"] = message;
  return frame.dump();
}

std::string encode_solve_reply(const SolveReply& reply) {
  Json frame;
  frame["ok"] = true;
  frame["verb"] = "solve";
  util::counters_to_json<api::ServeStats>(reply, frame);
  frame["solve_ms"] = reply.solve_ms;
  frame["result"] = outcome_to_json(reply.outcome);
  return frame.dump();
}

std::string encode_status_reply(const StatusReply& reply) {
  Json frame;
  frame["ok"] = true;
  frame["verb"] = "status";
  util::counters_to_json(reply, frame);
  Json cache{Json::Object{}};
  util::counters_to_json(reply.cache, cache);
  frame["cache"] = std::move(cache);
  return frame.dump();
}

std::string encode_ack(Verb verb) {
  Json frame;
  frame["ok"] = true;
  frame["verb"] = verb == Verb::kShutdown  ? "shutdown"
                  : verb == Verb::kStatus ? "status"
                                          : "solve";
  return frame.dump();
}

util::Json parse_reply(const std::string& line) {
  return decoding([&] {
    const Json frame = Json::parse(line);
    OPTSCHED_REQUIRE(frame.is_object(), "reply frame must be an object");
    if (!frame.at("ok").as_bool()) {
      const std::string code_text = frame.get_string("error", "bad-request");
      throw ProtocolError(error_code_from_string(code_text),
                          "daemon rejected request [" + code_text + "]: " +
                              frame.get_string("message", ""));
    }
    return frame;
  });
}

SolveReply parse_solve_reply(const std::string& line) {
  const Json frame = parse_reply(line);
  return decoding([&] {
    OPTSCHED_REQUIRE(frame.get_string("verb", "") == "solve",
                     "expected a solve reply");
    SolveReply reply;
    util::counters_from_json<api::ServeStats>(frame, reply);
    reply.solve_ms = frame.get_number("solve_ms", 0.0);
    reply.outcome = outcome_from_json(frame.at("result"));
    return reply;
  });
}

StatusReply parse_status_reply(const std::string& line) {
  const Json frame = parse_reply(line);
  return decoding([&] {
    OPTSCHED_REQUIRE(frame.get_string("verb", "") == "status",
                     "expected a status reply");
    StatusReply reply;
    util::counters_from_json(frame, reply);
    if (frame.has("cache"))
      util::counters_from_json(frame.at("cache"), reply.cache);
    return reply;
  });
}

}  // namespace optsched::server
