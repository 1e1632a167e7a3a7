// Client for the resident solver daemon.
//
// Wraps one connected Unix-domain stream with the protocol's
// command/reply cycle. `solve_raw` returns the wire-level SolveReply;
// `rebuild_result` lifts a wire outcome back into a full
// api::SolveResult over a locally materialized Instance, replaying the
// daemon's placements through sched::Schedule::place — start times
// cross the wire in shortest-exact form, so the rebuilt schedule is
// bit-identical to the one the daemon's engine produced (rebuild
// verifies the recomputed finish times against the wire's as a
// transport-integrity check). `remote_solver` packages both as the suite
// runner's remote hook, which is what lets the CLI's `suite
// --via-socket` and `submit` drive the differential oracle and the
// ScheduleValidator against daemon results exactly as against
// in-process ones.
//
// A Client is single-threaded by design (one in-flight command per
// connection); concurrent drivers open one Client per thread, which is
// also how the daemon's worker pool receives concurrent load.
#pragma once

#include <string>

#include "server/protocol.hpp"
#include "util/socket.hpp"
#include "workload/scenario.hpp"
#include "workload/suite.hpp"

namespace optsched::server {

class Client {
 public:
  /// Connect to a listening daemon; throws util::Error when nothing
  /// listens at `path`.
  explicit Client(const std::string& socket_path);

  /// One solve round-trip. Throws ProtocolError carrying the daemon's
  /// typed code (kOverloaded, kMemory, kBadSpec, ...) on a reject and
  /// util::Error on transport failure.
  SolveReply solve_raw(const SolveCommand& command);

  StatusReply status();

  /// Ask the daemon to drain and exit; returns once acknowledged.
  void shutdown();

 private:
  std::string round_trip(const std::string& frame);

  util::UnixStream stream_;
};

/// Rebuild a full SolveResult from a wire outcome on `instance` (which
/// must be the materialization of outcome.spec and must outlive the
/// returned result — the schedule borrows its graph and machine). Every
/// engine counter comes from the outcome, the serving counters from the
/// reply.
/// Throws util::Error when the placements do not replay consistently
/// (finish-time mismatch) — a transport-integrity violation.
api::SolveResult rebuild_result(const workload::Instance& instance,
                                const SolveReply& reply);

/// workload::SuiteConfig::remote_solve hook: each run becomes one
/// SolveCommand (the instance's canonical spec line, the engine spec, the
/// limits and `no_cache`) to the daemon at `socket_path`, and the reply
/// is rebuilt over the local instance. Each calling thread gets its own
/// connection, opened on first use and closed when the last copy of the
/// hook is destroyed.
workload::RemoteSolveFn remote_solver(const std::string& socket_path,
                                      bool no_cache);

}  // namespace optsched::server
