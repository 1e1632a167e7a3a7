// Wire protocol for the resident solver daemon (newline-delimited JSON).
//
// Every frame is one JSON object on one line. Client -> daemon frames
// ("commands") carry a `verb`; daemon -> client frames ("replies") carry
// `ok` plus either the verb's payload or a typed error:
//
//   command  {"verb":"solve","spec":"family=random nodes=8 ... seed=1",
//             "engine":"astar","budget_ms":0,"max_expansions":0,
//             "max_memory_mb":0,"no_cache":false}
//            {"verb":"status"}        {"verb":"shutdown"}
//   reply    {"ok":true,"verb":"solve","cache_hit":true,...,
//             "result":{"spec":...,"engine_spec":...,"makespan":...,
//                       "stats":{"expanded":...,"parallel_mode":"",...},
//                       "schedule":[[node,proc,start,finish],...],...}}
//            {"ok":false,"error":"overloaded","message":"..."}
//
// Doubles cross the wire in shortest-exact form (util::Json dumps via
// util::format_number), so a schedule read back from a frame is
// bit-identical to the one the solver produced — the property the
// cache-soundness oracle (a hit must bit-agree with a cold solve)
// depends on. The result's `stats` object carries every counter of
// api::SolveStats' list (util/counters.hpp), so a remote result reports
// what an in-process one does; the request's serving counters sit at the
// reply's top level. The full grammar is documented in DESIGN.md §7.
//
// Malformed input of any kind — unparsable JSON, a non-object frame, a
// missing or mistyped field, an unknown verb — raises ProtocolError with
// a machine-readable ErrorCode; the daemon turns that into an
// {"ok":false,...} reply and keeps serving (tests/server/test_protocol
// fuzzes this path).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "util/jsonl.hpp"

namespace optsched::server {

/// Typed protocol/admission error codes carried in `error` fields.
enum class ErrorCode {
  kBadRequest,    ///< unparsable frame or missing/mistyped field
  kUnknownVerb,   ///< verb string the daemon does not implement
  kBadSpec,       ///< scenario spec line that fails ScenarioSpec::parse
  kUnknownEngine, ///< engine name absent from the registry
  kOverloaded,    ///< admission control: queue depth cap reached
  kMemory,        ///< admission control: memory governor refused the job
  kShuttingDown,  ///< daemon is draining; job was not run
  kSolveFailed,   ///< engine threw while solving (details in message)
  kTransport,     ///< socket-level failure (client side only)
};

const char* to_string(ErrorCode code);
/// Inverse of to_string; throws util::Error on an unknown code string.
ErrorCode error_code_from_string(const std::string& text);

/// Thrown by protocol decoding and by the client when a reply carries
/// ok=false; `code` preserves the typed reason across the wire.
class ProtocolError : public util::Error {
 public:
  ProtocolError(ErrorCode code, const std::string& what)
      : util::Error(what), code(code) {}

  ErrorCode code;
};

enum class Verb { kSolve, kStatus, kShutdown };

/// Payload of a solve command. Limits are per job; 0 keeps the daemon's
/// configured defaults. `no_cache` forces a fresh search (the
/// cache-soundness oracle uses it to obtain cold reference solves from
/// the same daemon).
struct SolveCommand {
  std::string spec;            ///< scenario spec line (workload grammar)
  std::string engine = "astar";///< engine spec "name[:k=v...]"
  api::SolveLimits limits{};
  bool no_cache = false;
};

struct Command {
  Verb verb = Verb::kStatus;
  SolveCommand solve{};  ///< meaningful only when verb == kSolve
};

/// Parse one command frame; throws ProtocolError (kBadRequest or
/// kUnknownVerb).
Command parse_command(const std::string& line);
std::string encode_command(const Command& command);

/// One task placement on the wire. `finish` is redundant with
/// (start, proc, task cost) — it is transmitted anyway so the client can
/// verify the rebuilt schedule against the daemon's placements exactly.
struct WirePlacement {
  std::uint32_t node = 0;
  std::uint32_t proc = 0;
  double start = 0.0;
  double finish = 0.0;

  friend bool operator==(const WirePlacement&, const WirePlacement&) =
      default;
};

/// The cacheable payload of one solve: everything the daemon returns
/// about a result, with no per-request fields — a cache hit replays
/// this verbatim.
struct SolveOutcome {
  std::string spec;         ///< canonical scenario line
  std::string engine_spec;  ///< canonical engine spec (cache-key half)
  std::string engine;       ///< engine that produced the schedule
  double makespan = 0.0;
  bool proved_optimal = false;
  double bound_factor = 1.0;
  std::string termination;  ///< core::to_string(Termination)
  /// The engine's counters, whole (api::SolveStats' list crosses as the
  /// `stats` object); the inherited serving counters stay 0 here — they
  /// describe a request, and travel on SolveReply.
  api::SolveStats stats;
  /// stats.search.expanded, kept as the reply's headline counter.
  std::uint64_t expanded = 0;
  std::vector<WirePlacement> schedule;  ///< sorted by node id

  friend bool operator==(const SolveOutcome&, const SolveOutcome&) = default;
};

/// Result-cache counters reported by status frames and the byte-budget
/// governor (server/result_cache.hpp).
struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;        ///< resident, always <= byte_budget
  std::size_t byte_budget = 0;

  /// The counter list (util/counters.hpp).
  template <class V, class... S>
  static void for_each_counter(V&& v, S&... s) {
    using namespace util::counter_rows;
    v(C{"lookups", kSum, kRun}, s.lookups...);
    v(C{"hits", kSum, kRun}, s.hits...);
    v(C{"insertions", kSum, kRun}, s.insertions...);
    v(C{"evictions", kSum, kRun}, s.evictions...);
    v(C{"entries", kMax, kRun}, s.entries...);
    v(C{"bytes", kMax, kRun}, s.bytes...);
    v(C{"byte_budget", kMax, kRun}, s.byte_budget...);
  }
};

/// Reply to a solve command: the (possibly cached) outcome plus this
/// request's serving counters (api::ServeStats: cache_hit,
/// cache_lookups, cache_bytes, queue_wait_ms).
struct SolveReply : api::ServeStats {
  SolveOutcome outcome;
  double solve_ms = 0.0;  ///< engine wall time (0 for hits)
};

/// Reply to a status command.
struct StatusReply {
  std::uint64_t accepted = 0;   ///< solve jobs admitted to the pool
  std::uint64_t completed = 0;  ///< jobs finished (ok or solve-failed)
  std::uint64_t rejected = 0;   ///< typed admission rejections
  std::uint64_t cache_hits_served = 0;
  std::size_t queue_depth = 0;  ///< jobs admitted but not yet started
  std::size_t queue_cap = 0;
  std::size_t in_flight = 0;    ///< jobs currently on a worker
  unsigned workers = 0;
  std::size_t memory_reserved = 0;  ///< sum of admitted per-job caps
  std::size_t memory_budget = 0;
  CacheStats cache{};  ///< the `cache` object

  /// The counter list (util/counters.hpp), `cache` aside.
  template <class V, class... S>
  static void for_each_counter(V&& v, S&... s) {
    using namespace util::counter_rows;
    v(C{"accepted", kSum, kRun}, s.accepted...);
    v(C{"completed", kSum, kRun}, s.completed...);
    v(C{"rejected", kSum, kRun}, s.rejected...);
    v(C{"cache_hits_served", kSum, kRun}, s.cache_hits_served...);
    v(C{"queue_depth", kMax, kRun}, s.queue_depth...);
    v(C{"queue_cap", kMax, kRun}, s.queue_cap...);
    v(C{"in_flight", kMax, kRun}, s.in_flight...);
    v(C{"workers", kMax, kRun}, s.workers...);
    v(C{"memory_reserved", kMax, kRun}, s.memory_reserved...);
    v(C{"memory_budget", kMax, kRun}, s.memory_budget...);
  }
};

std::string encode_error(ErrorCode code, const std::string& message);
std::string encode_solve_reply(const SolveReply& reply);
std::string encode_status_reply(const StatusReply& reply);
/// Bare {"ok":true,"verb":...} acknowledgment (shutdown).
std::string encode_ack(Verb verb);

/// Parse any reply frame; throws ProtocolError re-materializing the
/// typed error when the frame carries ok=false, and kBadRequest when the
/// frame itself is malformed. Returns the parsed object for the typed
/// readers below.
util::Json parse_reply(const std::string& line);
SolveReply parse_solve_reply(const std::string& line);
StatusReply parse_status_reply(const std::string& line);

}  // namespace optsched::server
