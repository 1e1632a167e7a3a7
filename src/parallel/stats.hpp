// Transport-level counters of one parallel run, kept apart from the
// transport interface so api/solver.hpp can extend them without pulling
// in the search-worker plumbing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/counters.hpp"

namespace optsched::par {

/// Transport-level counters for one run, reported through
/// api::SolveStats (which extends this struct). Ring runs leave the
/// steal/shard counters 0 and vice versa; serial engines leave them all
/// empty or 0.
struct ParallelStats {
  /// Transport that ran: "ring", "ws" or "dist" (to_string of
  /// TransportMode); empty for serial engines.
  std::string parallel_mode;
  // Ring-mailbox scheme.
  std::uint64_t messages_sent = 0;
  std::uint64_t states_transferred = 0;  ///< shipped over mailboxes or stolen
  std::uint64_t comm_rounds = 0;
  // Work-stealing scheme.
  std::uint64_t steal_attempts = 0;  ///< sweeps that looked for a victim
  std::uint64_t steals = 0;          ///< batches actually taken
  std::uint64_t donations = 0;       ///< publishes into the owner's deque
  // Hash-sharded duplicate detection.
  std::uint32_t shards = 0;      ///< shard count of the global table
  /// Duplicate generations filtered by the shared table. Counts *every*
  /// duplicate (the ws mode has no separate local set), so it upper-
  /// bounds the cross-PPE share — the part the ring's local SEEN misses.
  std::uint64_t shard_hits = 0;
  /// Per-PPE expansion counts. Thread-timing dependent; consumers emit it
  /// sorted or aggregated (min/max/total) so reports diff deterministically
  /// modulo load balance, not PPE numbering.
  std::vector<std::uint64_t> expanded_per_ppe;
  /// PPEs that actually ran after the initial-frontier feedability clamp
  /// (ws mode on tiny instances).
  std::uint32_t effective_ppes = 0;
  // Distributed (multi-process) scheme — 0 for the in-process modes.
  std::uint64_t states_serialized = 0;   ///< states encoded into wire batches
  std::uint64_t batches_sent = 0;        ///< batch frames shipped worker->worker
  std::uint64_t termination_rounds = 0;  ///< quiescence-condition evaluations
  /// Remote-owned children suppressed by the send-side duplicate filter
  /// (wire.hpp SendFilter) before serialization.
  std::uint64_t states_deduped_at_send = 0;
  /// Gathered socket writes on the worker side; states_serialized /
  /// batches_sent is the mean batch size, batches_sent / flushes the
  /// mean frames-per-syscall.
  std::uint64_t flushes = 0;
  /// Bytes written to dist sockets across all processes (workers + the
  /// coordinator's relay writers).
  std::uint64_t bytes_sent = 0;

  friend bool operator==(const ParallelStats&, const ParallelStats&) = default;

  /// The counter list (util/counters.hpp). The dist wire counters are
  /// run-dependent: batching follows socket timing.
  template <class V, class... S>
  static void for_each_counter(V&& v, S&... s) {
    using namespace util::counter_rows;
    v(C{"parallel_mode", kMax}, s.parallel_mode...);
    v(C{"messages_sent", kSum}, s.messages_sent...);
    v(C{"states_transferred", kSum}, s.states_transferred...);
    v(C{"comm_rounds", kSum}, s.comm_rounds...);
    v(C{"steal_attempts", kSum}, s.steal_attempts...);
    v(C{"steals", kSum}, s.steals...);
    v(C{"donations", kSum}, s.donations...);
    v(C{"shards", kMax}, s.shards...);
    v(C{"shard_hits", kSum}, s.shard_hits...);
    v(C{"expanded_per_ppe", kSum}, s.expanded_per_ppe...);
    v(C{"effective_ppes", kMax}, s.effective_ppes...);
    v(C{"states_serialized", kSum, kRun}, s.states_serialized...);
    v(C{"batches_sent", kSum, kRun}, s.batches_sent...);
    v(C{"termination_rounds", kSum, kRun}, s.termination_rounds...);
    v(C{"states_deduped_at_send", kSum, kRun}, s.states_deduped_at_send...);
    v(C{"flushes", kSum, kRun}, s.flushes...);
    v(C{"bytes_sent", kSum, kRun}, s.bytes_sent...);
  }
};

}  // namespace optsched::par
