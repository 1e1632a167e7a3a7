// Coordinator and worker of the distributed HDA* harness — see
// dist_transport.hpp for the architecture and dist_protocol.hpp for the
// wire format.
//
// Concurrency layout, coordinator side: one reader thread and one writer
// thread per worker plus the main event loop. Readers block in
// read_line() and convert every frame (or EOF, or a socket error) into a
// typed event on one queue; writers drain a per-worker outgoing deque so
// the event loop never blocks on a full socket buffer while relaying a
// batch (two workers flooding each other through a single-threaded relay
// would deadlock). The event loop owns all search logic — incumbent,
// budgets, termination — so none of it needs locks.
//
// Worker side is single-threaded: drain frames (non-blocking), expand
// the best local state, ship remote-owned children in batches, repeat;
// park in poll() when the frontier is empty or dominated.
//
// Wire path: the hot frames travel in the binary framing of
// parallel/wire.hpp — delta-encoded batches the coordinator relays
// verbatim (it reads only the destination varint), binary status/bound,
// a per-destination send-side duplicate filter, a size/age outbox flush,
// gathered writev-style socket writes, and exponential idle-status
// backoff. See DESIGN.md §11.
#include "parallel/dist_transport.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/expansion.hpp"
#include "core/heuristics.hpp"
#include "core/open_list.hpp"
#include "core/signature.hpp"
#include "parallel/dist_protocol.hpp"
#include "parallel/wire.hpp"
#include "util/assert.hpp"
#include "util/flat_set.hpp"
#include "util/jsonl.hpp"
#include "util/socket.hpp"
#include "util/timer.hpp"

extern char** environ;

namespace optsched::par {

namespace {

using core::Expander;
using core::kNoParent;
using core::OpenEntry;
using core::OpenList;
using core::SearchProblem;
using core::State;
using core::StateArena;
using core::StateIndex;
using dag::NodeId;
using machine::ProcId;
using util::Json;
using util::UnixStream;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Worker/fd handshake variable; see spawn_worker() and the constructor
/// hook at the bottom.
constexpr const char* kWorkerEnv = "OPTSCHED_DIST_WORKER";

/// Frame cap for dist sockets. Init frames carry the whole instance and
/// batch frames carry steal_batch assignment sequences — far below this,
/// but well above the 1 MiB daemon default.
constexpr std::size_t kFrameCap = std::size_t{1} << 26;

/// Expansions between unsolicited status frames (liveness + budget
/// feedback; the Mattern counters ride along).
constexpr std::uint32_t kStatusPeriod = 128;

/// Idle-status exponential backoff: first repeat idle status
/// waits this long, doubling up to the cap. The cap stays far below the
/// worker's 100 ms park timeout so the final status of a search is
/// never delayed meaningfully, while a worker being flooded with
/// duplicate imports collapses thousands of rcvd-only statuses into a
/// handful.
constexpr std::uint64_t kIdleBackoffStartUs = 500;
constexpr std::uint64_t kIdleBackoffCapUs = 8000;

/// Outbox flush: a destination's outbox ships once it holds this many
/// states, and every nonempty outbox ships once its oldest pending state
/// is this old, so a neighbour starved for work is fed promptly.
constexpr std::uint32_t kFlushStates = 256;
constexpr std::int64_t kFlushAgeUs = 2000;

/// Same signature-hash ownership the ws mode uses for seed partitioning:
/// a pure function of the signature, so every process agrees on who owns
/// a state without communicating.
std::uint32_t owner_of_sig(const util::Key128& sig, std::uint32_t q) {
  return HashPartition{}.owner_of(0, sig, q);
}

std::uint64_t get_u64(const Json& j, const char* key) {
  j.at(key);  // required field: throw on absence rather than defaulting
  return j.get_u64(key, 0);
}

// ---- worker --------------------------------------------------------------

/// One worker process: owns its signature shard, expands from a plain
/// 4-ary heap.
class DistWorker {
 public:
  DistWorker(int fd, std::uint32_t rank) : stream_(fd), rank_(rank) {}

  int run() {
    try {
      Json hello;
      hello["t"] = "hello";
      hello["v"] = kWireVersion;
      hello["rank"] = rank_;
      send_json(hello);

      std::string line;
      if (!stream_.read_line(line, kFrameCap)) return 1;  // coordinator gone
      handle_init(Json::parse(line));

      // Fault-injection hook for the dist fault-matrix tests: a worker
      // whose rank matches dies without a word, exactly like a crash.
      if (const char* die = std::getenv("OPTSCHED_DIST_TEST_DIE"))
        if (static_cast<std::uint32_t>(std::atoi(die)) == rank_)
          ::raise(SIGKILL);

      main_loop();
      send_bye();
      return 0;
    } catch (const std::exception& e) {
      try {
        Json err;
        err["t"] = "err";
        err["msg"] = std::string(e.what());
        stream_.write_line(err.dump());
      } catch (...) {
      }
      return 1;
    }
  }

 private:
  /// Duplicate-detection probe handed to the Expander: remote-owned
  /// children always count as fresh (their owner dedups at import);
  /// locally-owned children go through the worker's own SEEN set.
  struct ShardSeen {
    DistWorker* w;
    bool insert(const util::Key128& k) {
      if (owner_of_sig(k, w->procs_) != w->rank_) return true;
      return w->seen_.insert(k);
    }
  };

  void handle_init(const Json& j) {
    OPTSCHED_REQUIRE(j.at("t").as_string() == "init", "expected init frame");
    OPTSCHED_REQUIRE(j.at("v").as_number() == kWireVersion,
                     "wire version mismatch between coordinator and worker");
    graph_ = graph_from_json(j.at("graph"));
    machine_.emplace(machine_from_json(j.at("machine")));
    const auto comm = static_cast<std::uint32_t>(j.at("comm").as_number());
    OPTSCHED_REQUIRE(comm <= 1, "unknown comm mode code");
    config_ = search_config_from_json(j.at("cfg"));
    procs_ = static_cast<std::uint32_t>(j.at("procs").as_number());
    OPTSCHED_REQUIRE(rank_ < procs_, "worker rank out of range");
    mem_cap_ = static_cast<std::size_t>(get_u64(j, "mem_bytes"));

    problem_.emplace(graph_, *machine_,
                     static_cast<machine::CommMode>(comm));
    expander_.emplace(*problem_, config_);
    import_ctx_.emplace(*problem_);
    import_scratch_.assign(2 * std::size_t{problem_->num_nodes()}, 0.0);
    import_finish_.assign(problem_->num_nodes(), 0.0);
    import_proc_of_.assign(problem_->num_nodes(), machine::kInvalidProc);
    import_proc_ready_.assign(problem_->num_procs(), 0.0);

    incumbent_ = problem_->upper_bound();
    if (!j.at("seed_bound").is_null())
      incumbent_ = std::min(incumbent_, j.at("seed_bound").as_number());

    enc_.assign(procs_, {});
    for (std::uint32_t k = 0; k < procs_; ++k) enc_[k].reset(k);
    send_filter_.assign(procs_, wire::SendFilter(std::size_t{1} << 14));
    arena_.reserve(std::size_t{1} << 12);
    seen_ = util::FlatSet128(std::size_t{1} << 10);

    // Only the root's owner seeds it; everyone else starts idle and gets
    // fed through imports. (With the hash partition the root lands on an
    // arbitrary rank — there is no coordinator-side seed expansion.)
    const util::Key128 root_sig = core::root_signature();
    if (owner_of_sig(root_sig, procs_) == rank_) {
      State root;
      root.sig = root_sig;
      root.parent = kNoParent;
      const StateIndex idx = arena_.add(root);
      seen_.insert(root_sig);
      open_.push({arena_.hot(idx).f, 0.0, idx});
    }
  }

  void main_loop() {
    std::uint32_t since_status = 0;
    while (!stop_) {
      drain_frames();
      if (stop_) break;
      if (halted_) {  // memory cap tripped: only answer frames
        wait_for_frame(100);
        continue;
      }
      // Age-based flush: pending exports never sit longer than
      // kFlushAgeUs, even when no outbox reaches the size threshold.
      if (pending_states_ > 0 &&
          clock_.micros() - pending_since_ >= kFlushAgeUs) {
        flush_all();  // one synchronized cut: cheaper than per-owner
        pump_writes();  // staggering, which costs a gather write each
      }
      // Fast-drop a fully dominated frontier (heap top is min f).
      if (!open_.empty() && open_.top().f >= incumbent_ - 1e-9) open_.clear();
      if (open_.empty()) {
        flush_all();  // everything ships before the idle report — a
                      // quiescent stop must never strand outbox states
        int park_ms = 100;
        const bool owed =
            last_status_idle_ != 1 || last_status_rcvd_ != rcvd_batches_;
        if (owed) {
          // Exponential backoff on repeat idle statuses: the first
          // report after going idle is immediate; a flood of duplicate
          // imports only bumps rcvd, and those reports coalesce under a
          // growing delay.
          const auto waited =
              static_cast<std::uint64_t>(idle_backoff_.micros());
          if (waited >= idle_backoff_us_) {
            send_status(/*idle=*/true);
            idle_backoff_us_ =
                idle_backoff_us_ == 0
                    ? kIdleBackoffStartUs
                    : std::min(idle_backoff_us_ * 2, kIdleBackoffCapUs);
            idle_backoff_.reset();
          } else {
            // Wake in time to send the delayed report even if no frame
            // arrives — termination must not wait out the full park.
            park_ms = static_cast<int>((idle_backoff_us_ - waited) / 1000 + 1);
          }
        }
        pump_writes();
        wait_for_frame(park_ms);
        continue;
      }
      const OpenEntry e = open_.pop();
      if (e.f >= incumbent_ - 1e-9) continue;  // stale
      idle_backoff_us_ = 0;  // real work: next idle report is immediate
      expand(e.index);
      pump_writes();
      if (++since_status >= kStatusPeriod) {
        send_status(/*idle=*/false);
        since_status = 0;
        check_memory();
        pump_writes();
      }
    }
  }

  void expand(StateIndex idx) {
    ShardSeen seen{this};
    const double bound = config_.prune.strict_upper_bound
                             ? problem_->upper_bound()
                             : incumbent_;
    expander_->expand(arena_, seen, idx, bound,
                      [&](StateIndex child_idx, const State& child) {
                        accept_child(child_idx, child);
                      });
  }

  void accept_child(StateIndex idx, const State& child) {
    if (child.depth == problem_->num_nodes()) {
      offer_goal(child.g, assignment_sequence(idx));
      return;
    }
    const std::uint32_t owner = owner_of_sig(child.sig, procs_);
    if (owner == rank_) {
      open_.push({child.f(), child.g, idx});
      return;
    }
    // Send-side duplicate filter: a signature already shipped to this
    // owner is not re-serialized — the owner's SEEN check would drop it
    // anyway, so suppressing the resend only saves wire traffic
    // (DESIGN.md §11.3).
    if (!send_filter_[owner].fresh(child.sig)) {
      ++deduped_;
      return;
    }
    // Remote-owned: serialize and batch. The local arena copy stays
    // behind as an unreferenced chain — cheaper than compacting, and it
    // is charged against this worker's memory share.
    if (pending_states_ == 0) pending_since_ = clock_.micros();
    enc_[owner].append(assignment_sequence(idx), child.f());
    ++pending_states_;
    ++serialized_;
    if (enc_[owner].count() >= kFlushStates) flush(owner);
  }

  void offer_goal(double len,
                  std::vector<std::pair<NodeId, ProcId>> seq) {
    if (len >= incumbent_ - 1e-9) return;
    incumbent_ = len;  // a complete schedule is always a sound bound
    Json goal;
    goal["t"] = "goal";
    goal["len"] = len;
    goal["a"] = assignments_to_json(seq);
    send_json(goal);
  }

  std::vector<std::pair<NodeId, ProcId>> assignment_sequence(
      StateIndex idx) const {
    std::vector<std::pair<NodeId, ProcId>> seq;
    for (StateIndex i = idx; i != kNoParent; i = arena_.hot(i).parent) {
      if (arena_.hot(i).is_root()) break;
      seq.emplace_back(arena_.hot(i).node(), arena_.hot(i).proc());
    }
    std::reverse(seq.begin(), seq.end());
    return seq;
  }

  /// Append framed bytes to the outgoing gather queue (shipped by the
  /// next pump_writes()).
  void queue_frame(std::string bytes) {
    bytes_out_ += bytes.size();
    pending_writes_.push_back(std::move(bytes));
  }

  /// One JSON frame, shipped immediately (after anything already queued,
  /// preserving FIFO order on the stream).
  void send_json(const Json& j) {
    std::string line = j.dump();
    line += '\n';
    queue_frame(std::move(line));
    pump_writes();
  }

  /// Gathered write of every queued frame — many frames, one syscall.
  void pump_writes() {
    if (pending_writes_.empty()) return;
    stream_.write_gather(pending_writes_);
    pending_writes_.clear();
    ++flushes_;
  }

  void flush(std::uint32_t owner) {
    auto& enc = enc_[owner];
    if (enc.empty()) return;
    pending_states_ -= enc.count();
    queue_frame(enc.take_frame());
  }

  void flush_all() {
    for (std::uint32_t k = 0; k < procs_; ++k) flush(k);
  }

  void send_status(bool idle) {
    // Idle statuses are only worth a frame when something changed since
    // the last one — otherwise an idle worker would flood the
    // coordinator from its poll loop.
    if (idle && last_status_idle_ == 1 && last_status_rcvd_ == rcvd_batches_)
      return;
    max_open_ = std::max(max_open_, open_.size());
    wire::StatusMsg s;
    s.idle = idle;
    s.rcvd = rcvd_batches_;
    s.exp = expander_->stats().expanded;
    s.open = open_.size();
    s.min_f = open_.empty() ? kInf : open_.top().f;
    queue_frame(wire::encode_status(s));
    last_status_idle_ = idle ? 1 : 0;
    last_status_rcvd_ = rcvd_batches_;
  }

  void send_bye() {
    core::SearchStats search;
    util::merge_counters(search, expander_->stats());
    search.max_open_size = std::max(max_open_, open_.size());
    search.peak_memory_bytes = memory_now();
    search.arena_hot_bytes = arena_.hot_memory_bytes();
    search.arena_cold_bytes = arena_.cold_memory_bytes();
    ParallelStats par;
    par.expanded_per_ppe = {search.expanded};
    par.states_serialized = serialized_;
    par.states_deduped_at_send = deduped_;
    par.flushes = flushes_;
    par.bytes_sent = bytes_out_;
    Json bye;
    bye["t"] = "bye";
    util::counters_to_json(search, bye);
    util::counters_to_json(par, bye);
    send_json(bye);
  }

  std::size_t memory_now() const {
    std::size_t filters = 0;
    for (const auto& f : send_filter_) filters += f.memory_bytes();
    return arena_.memory_bytes() + open_.memory_bytes() +
           seen_.memory_bytes() + filters;
  }

  void check_memory() {
    if (halted_ || mem_cap_ == 0 || memory_now() <= mem_cap_) return;
    flush_all();  // ship pending work before going dark
    Json limit;
    limit["t"] = "limit";
    limit["reason"] = 4;  // memory
    send_json(limit);
    halted_ = true;
  }

  /// Process every frame already buffered or readable without blocking.
  void drain_frames() {
    for (;;) {
      if (!wire::has_buffered_frame(stream_)) {
        pollfd pfd{stream_.fd(), POLLIN, 0};
        int rc;
        while ((rc = ::poll(&pfd, 1, 0)) < 0 && errno == EINTR) {
        }
        if (rc <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0)
          return;
      }
      wire::Frame fr;
      OPTSCHED_REQUIRE(wire::read_frame(stream_, fr, kFrameCap),
                       "coordinator closed the socket");
      handle_frame(fr);
      if (stop_) return;
    }
  }

  /// Park until the socket becomes readable (or `timeout_ms` elapses,
  /// so a lost wakeup can never wedge the worker).
  void wait_for_frame(int timeout_ms) {
    if (wire::has_buffered_frame(stream_)) return;
    pollfd pfd{stream_.fd(), POLLIN, 0};
    int rc;
    while ((rc = ::poll(&pfd, 1, timeout_ms)) < 0 && errno == EINTR) {
    }
  }

  void handle_frame(const wire::Frame& fr) {
    if (fr.type == wire::FrameType::kBatch) {
      auto batch = wire::decode_batch(fr.payload());
      OPTSCHED_REQUIRE(batch.to == rank_, "batch relayed to the wrong worker");
      for (const auto& m : batch.states) import_msg(m);
      ++rcvd_batches_;
      return;
    }
    if (fr.type == wire::FrameType::kBound) {
      incumbent_ = std::min(incumbent_, wire::decode_bound(fr.payload()));
      return;
    }
    OPTSCHED_REQUIRE(fr.type == wire::FrameType::kJson,
                     "unexpected binary frame type for a worker");
    const Json j = Json::parse(fr.raw);
    const std::string& t = j.at("t").as_string();
    OPTSCHED_REQUIRE(t == "stop", "unexpected frame type for a worker: " + t);
    stop_ = true;
  }

  /// Rebuild a transferred state in the local arena — the same replay as
  /// the in-process import (parallel_astar.cpp), plus owner-side
  /// duplicate detection: a state already seen rolls the arena back to
  /// its pre-import size, so rejected imports cost no memory.
  void import_msg(const StateMsg& msg) {
    const auto& graph = problem_->graph();
    const auto& machine = *machine_;

    // Phase 1: replay the machine simulation into flat scratch arrays
    // only — signature and g fall out of it. The arena is not touched
    // until the state is known to be fresh, so a duplicate (or a stray
    // goal) costs the simulation and a hash probe, never arena growth,
    // rollback, or context invalidation. On the bench corpus a large
    // share of imports are duplicates; this keeps them off the arena
    // entirely.
    auto& finish = import_finish_;
    auto& proc_of = import_proc_of_;
    auto& proc_ready = import_proc_ready_;
    std::fill(finish.begin(), finish.end(), 0.0);
    std::fill(proc_of.begin(), proc_of.end(), machine::kInvalidProc);
    std::fill(proc_ready.begin(), proc_ready.end(), 0.0);

    util::Key128 sig = core::root_signature();
    double g = 0.0;
    for (const auto& [node, proc] : msg.assignments) {
      double dat = 0.0;
      for (const auto& [par, cost] : graph.parents(node))
        dat = std::max(dat, finish[par] + machine.comm_delay(
                                              cost, proc_of[par], proc,
                                              problem_->comm()));
      const double st = std::max(proc_ready[proc], dat);
      const double ft = st + machine.exec_time(graph.weight(node), proc);
      finish[node] = ft;
      proc_of[node] = proc;
      proc_ready[proc] = ft;
      g = std::max(g, ft);
      sig = core::extend_signature(sig, node, proc, ft);
    }

    if (msg.assignments.size() == problem_->num_nodes()) {
      offer_goal(g, msg.assignments);  // goals ride goal frames, but
      return;                          // tolerate one in a batch
    }
    OPTSCHED_ASSERT(owner_of_sig(sig, procs_) == rank_);
    if (!seen_.insert(sig)) return;

    // Phase 2 (fresh states only): materialize the parent chain in the
    // arena from the already-computed finish times.
    State root;
    root.sig = core::root_signature();
    root.parent = kNoParent;
    StateIndex parent = arena_.add(root);
    util::Key128 chain_sig = core::root_signature();
    double chain_g = 0.0;
    std::uint32_t depth = 0;
    for (const auto& [node, proc] : msg.assignments) {
      const double ft = finish[node];
      chain_g = std::max(chain_g, ft);
      chain_sig = core::extend_signature(chain_sig, node, proc, ft);
      ++depth;

      State s;
      s.sig = chain_sig;
      s.finish = ft;
      s.g = chain_g;
      s.h = 0.0;  // interior-chain h is never read; the final h is below
      s.parent = parent;
      s.node = node;
      s.proc = proc;
      s.depth = depth;
      parent = arena_.add(s);
    }

    import_ctx_->move_to(arena_, parent);
    const double h = core::evaluate_h(config_.h, *problem_,
                                      import_ctx_->view(),
                                      import_scratch_.data()) *
                     config_.h_weight;
    arena_.patch_h(parent, h);
    OPTSCHED_ASSERT(std::abs((g + h) - msg.f) < 1e-6);
    open_.push({g + h, g, parent});
  }

  UnixStream stream_;
  std::uint32_t rank_ = 0;
  std::uint32_t procs_ = 1;
  std::size_t mem_cap_ = 0;  ///< 0 = unlimited

  dag::TaskGraph graph_;
  std::optional<machine::Machine> machine_;
  std::optional<SearchProblem> problem_;
  core::SearchConfig config_;
  std::optional<Expander> expander_;
  std::optional<core::ExpansionContext> import_ctx_;
  std::vector<double> import_scratch_;
  std::vector<double> import_finish_;
  std::vector<ProcId> import_proc_of_;
  std::vector<double> import_proc_ready_;

  StateArena arena_;
  OpenList open_;
  util::FlatSet128 seen_{16};
  std::vector<wire::BatchEncoder> enc_;        ///< per-owner pending states
  std::vector<wire::SendFilter> send_filter_;  ///< per-owner shipped sigs
  std::vector<std::string> pending_writes_;    ///< frames awaiting one writev
  std::uint64_t pending_states_ = 0;  ///< states across all outboxes
  util::Timer clock_;                 ///< worker-lifetime monotonic clock
  std::int64_t pending_since_ = 0;    ///< stamp when pending went 0 -> 1

  double incumbent_ = kInf;
  bool stop_ = false;
  bool halted_ = false;  ///< memory cap tripped; awaiting stop

  std::uint64_t rcvd_batches_ = 0;
  std::uint64_t serialized_ = 0;
  std::uint64_t deduped_ = 0;
  std::uint64_t flushes_ = 0;   ///< gathered write syscalls (pump_writes)
  std::uint64_t bytes_out_ = 0;
  std::uint64_t idle_backoff_us_ = 0;  ///< 0 = report immediately
  util::Timer idle_backoff_;
  std::size_t max_open_ = 0;
  int last_status_idle_ = -1;
  std::uint64_t last_status_rcvd_ = 0;
};

// ---- coordinator ---------------------------------------------------------

struct Event {
  enum Kind { kFrame, kEof, kFail };
  Kind kind;
  std::uint32_t rank;
  wire::Frame frame;  ///< kFrame: binary frame, or JSON (parsed in `json`)
  Json json;          ///< kFrame with frame.type == kJson
  std::string error;  ///< kFail

  /// Value-initialized first: gcc 12 reports the brace-built temporary's
  /// frame string as maybe-uninitialized.
  static Event make(Kind kind, std::uint32_t rank, std::string error = {}) {
    Event ev{};
    ev.kind = kind;
    ev.rank = rank;
    ev.error = std::move(error);
    return ev;
  }
};

struct WorkerHandle {
  pid_t pid = -1;
  UnixStream stream;
  std::thread reader;
  std::thread writer;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::string> outq;  ///< pre-framed bytes (binary or line+'\n')
  bool closing = false;

  /// Bytes shipped by the writer thread; written only there, read after
  /// the join in cleanup().
  std::uint64_t bytes_written = 0;

  std::uint64_t expanded = 0;  ///< latest status
  double min_f = kInf;         ///< latest status (kInf when idle/empty)
  bool got_bye = false;
  Json bye;
};

class DistCoordinator {
 public:
  DistCoordinator(const SearchProblem& problem, const ParallelConfig& config)
      : problem_(problem),
        config_(config),
        procs_(config.num_ppes),
        term_(config.num_ppes) {}

  ~DistCoordinator() { cleanup(); }

  ParallelResult run() {
    incumbent_len_ = std::min(problem_.upper_bound(),
                              config_.seed_upper_bound);
    spawn_all();
    for (std::uint32_t k = 0; k < procs_; ++k) enqueue(k, init_frame(k));

    const int stop_code = event_loop();
    Json stop;
    stop["t"] = "stop";
    stop["reason"] = stop_code;
    broadcast(json_line(stop));
    collect_byes();
    cleanup();
    return assemble(stop_code);
  }

 private:
  static std::string json_line(const Json& j) {
    std::string line = j.dump();
    line += '\n';
    return line;
  }
  // ---- process + thread management ---------------------------------------

  void spawn_all() {
    for (std::uint32_t k = 0; k < procs_; ++k) {
      int sv[2];
      OPTSCHED_REQUIRE(
          ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
          std::string("socketpair failed: ") + std::strerror(errno));
      // Parent end must not leak into later children; child end must
      // survive the exec.
      ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);

      // Everything the child touches before exec is built here: the
      // spawn may run while other threads (suite jobs) hold the
      // allocator lock, so the child must stay async-signal-safe.
      // posix_spawn (vfork semantics on glibc) over a hand-rolled
      // fork+exec: the coordinator's address space — large after a long
      // suite run — is never duplicated, which on a single-core host is
      // a measurable slice of the per-worker startup serialization.
      const std::string var = std::string(kWorkerEnv) + "=" +
                              std::to_string(sv[1]) + "," +
                              std::to_string(k);
      std::vector<char*> envp;
      for (char** e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, kWorkerEnv, std::strlen(kWorkerEnv)) != 0)
          envp.push_back(*e);
      envp.push_back(const_cast<char*>(var.c_str()));
      envp.push_back(nullptr);
      char* argv[] = {const_cast<char*>("optsched-dist-worker"), nullptr};

      pid_t pid = -1;
      const int rc = ::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                                   argv, envp.data());
      ::close(sv[1]);
      if (rc != 0) {
        ::close(sv[0]);
        OPTSCHED_REQUIRE(false,
                         std::string("posix_spawn failed: ") +
                             std::strerror(rc));
      }
      auto w = std::make_unique<WorkerHandle>();
      w->pid = pid;
      w->stream = UnixStream(sv[0]);
      workers_.push_back(std::move(w));
    }
    for (std::uint32_t k = 0; k < procs_; ++k) {
      workers_[k]->reader = std::thread([this, k] { reader_main(k); });
      workers_[k]->writer = std::thread([this, k] { writer_main(k); });
    }
  }

  void reader_main(std::uint32_t rank) {
    try {
      wire::Frame fr;
      while (wire::read_frame(workers_[rank]->stream, fr, kFrameCap)) {
        Event ev = Event::make(Event::kFrame, rank);
        if (fr.type == wire::FrameType::kJson) ev.json = Json::parse(fr.raw);
        ev.frame = std::move(fr);
        push_event(std::move(ev));
      }
      push_event(Event::make(Event::kEof, rank));
    } catch (const std::exception& e) {
      push_event(Event::make(Event::kFail, rank, e.what()));
    }
  }

  void writer_main(std::uint32_t rank) {
    WorkerHandle& w = *workers_[rank];
    std::vector<std::string> frames;
    try {
      for (;;) {
        frames.clear();
        {
          std::unique_lock<std::mutex> lock(w.mu);
          w.cv.wait(lock, [&] { return w.closing || !w.outq.empty(); });
          if (w.outq.empty()) return;  // closing, fully drained
          // Drain the whole queue: everything pending goes out in one
          // gathered write instead of one syscall per frame.
          while (!w.outq.empty()) {
            frames.push_back(std::move(w.outq.front()));
            w.outq.pop_front();
          }
        }
        w.stream.write_gather(frames);
        for (const auto& f : frames) w.bytes_written += f.size();
      }
    } catch (const std::exception& e) {
      // The reader's EOF/Fail event carries the failure; a send error
      // here is only reported if the reader somehow stays healthy.
      push_event(Event::make(Event::kFail, rank, e.what()));
    }
  }

  /// Queue pre-framed bytes (a binary frame, or a JSON line with its
  /// '\n') for worker `rank`.
  void enqueue(std::uint32_t rank, std::string frame) {
    WorkerHandle& w = *workers_[rank];
    {
      const std::lock_guard<std::mutex> lock(w.mu);
      w.outq.push_back(std::move(frame));
    }
    w.cv.notify_one();
    ++messages_sent_;
  }

  void broadcast(const std::string& frame) {
    for (std::uint32_t k = 0; k < procs_; ++k) enqueue(k, frame);
  }

  void push_event(Event ev) {
    {
      const std::lock_guard<std::mutex> lock(ev_mu_);
      events_.push_back(std::move(ev));
    }
    ev_cv_.notify_one();
  }

  std::optional<Event> wait_event(int timeout_ms) {
    std::unique_lock<std::mutex> lock(ev_mu_);
    if (!ev_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                         [&] { return !events_.empty(); }))
      return std::nullopt;
    Event ev = std::move(events_.front());
    events_.pop_front();
    return ev;
  }

  /// Idempotent teardown: close writer queues, kill and reap every
  /// worker, join the per-worker threads. SIGKILL is safe in every path —
  /// a well-terminated worker already _exit()ed and the signal lands on
  /// a zombie; a wedged or flooding worker is exactly what the kill is
  /// for (it also unblocks a writer stuck on a full socket buffer).
  void cleanup() {
    if (cleaned_) return;
    cleaned_ = true;
    for (auto& w : workers_) {
      {
        const std::lock_guard<std::mutex> lock(w->mu);
        w->closing = true;
      }
      w->cv.notify_all();
      if (w->pid > 0) ::kill(w->pid, SIGKILL);
    }
    for (auto& w : workers_) {
      if (w->stream.valid()) w->stream.shutdown_io();
      if (w->writer.joinable()) w->writer.join();
      if (w->reader.joinable()) w->reader.join();
      if (w->pid > 0) {
        int status = 0;
        ::waitpid(w->pid, &status, 0);
        w->pid = -1;
      }
    }
  }

  // ---- protocol ----------------------------------------------------------

  std::string init_frame(std::uint32_t rank) const {
    Json init;
    init["t"] = "init";
    init["v"] = kWireVersion;
    init["graph"] = graph_to_json(problem_.graph());
    init["machine"] = machine_to_json(problem_.machine());
    init["comm"] = static_cast<int>(problem_.comm());
    init["cfg"] = search_config_to_json(config_.search);
    init["procs"] = procs_;
    init["rank"] = rank;
    init["seed_bound"] = config_.seed_upper_bound < kInf
                             ? Json(config_.seed_upper_bound)
                             : Json();
    const std::size_t cap = config_.search.max_memory_bytes;
    init["mem_bytes"] = static_cast<std::uint64_t>(
        cap ? std::max<std::size_t>(1, cap / procs_) : 0);
    return json_line(init);
  }

  [[noreturn]] void fail(std::uint32_t rank, const std::string& why) {
    cleanup();
    OPTSCHED_REQUIRE(false, "dist worker " + std::to_string(rank) +
                                " failed mid-search: " + why);
    std::abort();  // unreachable (OPTSCHED_REQUIRE throws)
  }

  /// Returns the stop reason: 0 quiescent (proof complete), 1 expansion
  /// budget, 2 time budget, 3 cancelled, 4 memory cap.
  int event_loop() {
    const auto& search = config_.search;
    for (;;) {
      if (search.time_budget_ms &&
          timer_.seconds() * 1000.0 >=
              static_cast<double>(search.time_budget_ms))
        return 2;
      if (search.controls.cancel.cancelled()) return 3;

      const auto ev = wait_event(25);
      if (!ev) continue;
      if (ev->kind == Event::kEof) fail(ev->rank, "socket closed");
      if (ev->kind == Event::kFail) fail(ev->rank, ev->error);

      // Binary hot frames. A batch is relayed *verbatim* — the
      // coordinator reads only the destination and count varints at the
      // head of the payload, never the states.
      if (ev->frame.type == wire::FrameType::kBatch) {
        const auto payload = ev->frame.payload();
        const std::uint32_t to = wire::batch_dest(payload);
        OPTSCHED_REQUIRE(to < procs_, "batch routed to unknown worker");
        states_relayed_ += wire::batch_count(payload);
        ++batches_relayed_;
        // Enqueue-count *before* the frame can reach the worker: the
        // soundness order DistTermination documents.
        term_.on_enqueue(to);
        enqueue(to, std::move(ev->frame.raw));
        continue;
      }
      if (ev->frame.type == wire::FrameType::kStatus) {
        const wire::StatusMsg s = wire::decode_status(ev->frame.payload());
        WorkerHandle& w = *workers_[ev->rank];
        w.expanded = s.exp;
        w.min_f = s.min_f;
        const bool changed = term_.on_status(ev->rank, s.idle, s.rcvd);
        maybe_progress();
        if (search.max_expansions && total_expanded() >= search.max_expansions)
          return 1;
        // Quiescence is re-evaluated only when the detector's state
        // changed (satellite of the status-backoff work): an unchanged
        // status cannot change the verdict, and quiescent() itself
        // caches on a dirty flag as a second guard.
        if (changed && s.idle && term_.quiescent()) return 0;
        continue;
      }
      OPTSCHED_REQUIRE(ev->frame.type == wire::FrameType::kJson,
                       "unexpected binary frame type for the coordinator");
      const Json& j = ev->json;
      const std::string& t = j.at("t").as_string();
      if (t == "hello") {
        OPTSCHED_REQUIRE(j.at("v").as_number() == kWireVersion,
                         "wire version mismatch");
        OPTSCHED_REQUIRE(
            static_cast<std::uint32_t>(j.at("rank").as_number()) == ev->rank,
            "worker rank mismatch");
      } else if (t == "goal") {
        const double len = j.at("len").as_number();
        if (len < incumbent_len_ - 1e-9) {
          incumbent_len_ = len;
          incumbent_seq_ = assignments_from_json(j.at("a"));
          broadcast(wire::encode_bound(len));
        }
      } else if (t == "limit") {
        return static_cast<int>(j.at("reason").as_number());
      } else if (t == "err") {
        fail(ev->rank, j.at("msg").as_string());
      } else {
        fail(ev->rank, "unexpected frame type: " + t);
      }
    }
  }

  /// After the stop broadcast every worker answers with one bye frame and
  /// exits. Late goals still tighten the incumbent (a goal frame may race
  /// the stop); late batches are dropped — sound, because a quiescent
  /// stop guarantees none are in flight and aborted stops carry no proof.
  void collect_byes() {
    std::uint32_t byes = 0;
    util::Timer grace;
    while (byes < procs_) {
      OPTSCHED_REQUIRE(grace.seconds() < 30.0,
                       "dist worker ignored stop for 30s");
      const auto ev = wait_event(50);
      if (!ev) continue;
      if (ev->kind == Event::kEof || ev->kind == Event::kFail) {
        if (!workers_[ev->rank]->got_bye)
          fail(ev->rank, ev->kind == Event::kEof ? "died before bye"
                                                 : ev->error);
        continue;  // EOF after bye: normal worker exit
      }
      // Binary batches/statuses racing the stop: dropped (sound — a
      // quiescent stop guarantees none are in flight, and aborted stops
      // carry no proof).
      if (ev->frame.type != wire::FrameType::kJson) continue;
      const Json& j = ev->json;
      const std::string& t = j.at("t").as_string();
      if (t == "bye") {
        workers_[ev->rank]->bye = j;
        workers_[ev->rank]->got_bye = true;
        ++byes;
      } else if (t == "goal") {
        const double len = j.at("len").as_number();
        if (len < incumbent_len_ - 1e-9) {
          incumbent_len_ = len;
          incumbent_seq_ = assignments_from_json(j.at("a"));
        }
      } else if (t == "err") {
        fail(ev->rank, j.at("msg").as_string());
      }  // batches/statuses racing the stop: dropped
    }
  }

  std::uint64_t total_expanded() const {
    std::uint64_t total = 0;
    for (const auto& w : workers_) total += w->expanded;
    return total;
  }

  void maybe_progress() {
    const auto& controls = config_.search.controls;
    if (!controls.progress) return;
    const std::uint64_t expanded = total_expanded();
    if (!progress_gate_.open(expanded)) return;
    double lb = kInf;
    for (const auto& w : workers_) lb = std::min(lb, w->min_f);
    controls.progress({expanded, lb == kInf ? 0.0 : lb,
                       incumbent_len_, timer_.seconds()});
  }

  // ---- result assembly ---------------------------------------------------

  ParallelResult assemble(int stop_code) {
    ParallelResult out{
        core::SearchResult{sched::Schedule(problem_.graph(),
                                           problem_.machine(),
                                           problem_.comm()),
                           0.0, false, 1.0, core::Termination::kOptimal, {}},
        {}};
    if (incumbent_seq_.empty()) {
      // No goal beat the seeded bound; return its backing schedule.
      if (config_.seed_schedule &&
          config_.seed_schedule->makespan() <= problem_.upper_bound())
        out.result.schedule = *config_.seed_schedule;
      else
        out.result.schedule = problem_.upper_bound_schedule();
    } else {
      for (const auto& [n, p] : incumbent_seq_) out.result.schedule.append(n, p);
    }
    sched::validate(out.result.schedule);
    out.result.makespan = out.result.schedule.makespan();

    switch (stop_code) {
      case 1: out.result.reason = core::Termination::kExpansionLimit; break;
      case 2: out.result.reason = core::Termination::kTimeLimit; break;
      case 3: out.result.reason = core::Termination::kCancelled; break;
      case 4: out.result.reason = core::Termination::kMemoryLimit; break;
      default:
        // Quiescent under the sound rule; dist is exact-only, so the
        // incumbent is optimal.
        out.result.proved_optimal = true;
        out.result.bound_factor = 1.0;
        out.result.reason = core::Termination::kOptimal;
        break;
    }

    for (const auto& w : workers_) {
      if (!w->got_bye) continue;  // unreachable: collect_byes throws first
      core::SearchStats search;
      ParallelStats par;
      util::counters_from_json(w->bye, search);
      util::counters_from_json(w->bye, par);
      util::merge_counters(out.result.stats, search);
      util::merge_counters(out.par_stats, par);
    }
    // Coordinator-side relay bytes (writer threads are joined by now).
    for (const auto& w : workers_) out.par_stats.bytes_sent += w->bytes_written;
    out.result.stats.elapsed_seconds = timer_.seconds();

    out.par_stats.parallel_mode = to_string(TransportMode::kDistributed);
    out.par_stats.messages_sent = messages_sent_;
    out.par_stats.states_transferred = states_relayed_;
    out.par_stats.batches_sent = batches_relayed_;
    out.par_stats.termination_rounds = term_.rounds();
    out.par_stats.effective_ppes = procs_;
    return out;
  }

  const SearchProblem& problem_;
  const ParallelConfig& config_;
  std::uint32_t procs_;
  DistTermination term_;
  util::Timer timer_;
  core::ProgressGate progress_gate_{config_.search.controls};

  std::vector<std::unique_ptr<WorkerHandle>> workers_;
  std::mutex ev_mu_;
  std::condition_variable ev_cv_;
  std::deque<Event> events_;
  bool cleaned_ = false;

  double incumbent_len_ = kInf;
  std::vector<std::pair<NodeId, ProcId>> incumbent_seq_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t states_relayed_ = 0;
  std::uint64_t batches_relayed_ = 0;
};

/// Worker-process entry: the coordinator execs the current binary with
/// OPTSCHED_DIST_WORKER=<fd>,<rank> in the environment, and this hook —
/// which runs in *every* process linking the parallel layer, before
/// main() — diverts such a process into the worker loop and exits. The
/// variable is unset first so nothing a worker spawns re-enters.
__attribute__((constructor)) void dist_worker_entry() {
  const char* spec = std::getenv(kWorkerEnv);
  if (spec == nullptr) return;
  int fd = -1;
  unsigned rank = 0;
  if (std::sscanf(spec, "%d,%u", &fd, &rank) != 2 || fd < 0) std::_Exit(125);
  ::unsetenv(kWorkerEnv);
  int code = 1;
  try {
    DistWorker worker(fd, rank);
    code = worker.run();
  } catch (...) {
  }
  std::_Exit(code);
}

}  // namespace

ParallelResult dist_astar_schedule(const SearchProblem& problem,
                                   const ParallelConfig& config) {
  OPTSCHED_REQUIRE(config.search.epsilon == 0.0 &&
                       config.search.h_weight == 1.0,
                   "mode=dist supports exact search only "
                   "(epsilon = 0, h_weight = 1)");
  OPTSCHED_REQUIRE(!config.naive_termination,
                   "mode=dist always uses sound termination");
  DistCoordinator coordinator(problem, config);
  return coordinator.run();
}

}  // namespace optsched::par
