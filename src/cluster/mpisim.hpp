// An in-process message-passing substrate with MPI-shaped semantics.
//
// The paper's distributed finder is written against MPI (§4.3). No MPI
// implementation is assumed here; ranks are threads of one process and
// messages are moved queues, but the programming model is the same:
// explicit ranks, tagged messages, blocking receives, FIFO ordering per
// (source, destination) channel, no shared state between ranks other than
// what is messaged. The master/worker protocol (master_worker.cpp) uses
// only this interface, so porting it to real MPI is mechanical.
//
// Unlike the paper's reliable Myrinet, this substrate models failure:
//   * A seeded FaultPlan (cluster/fault.hpp) injects message drops, bounded
//     delays, duplicate deliveries and rank crashes at deterministic op
//     counts, preserving FIFO order within each (source, destination)
//     channel (a delayed message holds the channel's later messages behind
//     it until release).
//   * Channels close: when a rank's body exits — normally, by error, or by
//     a scheduled crash — run_ranks closes it, and a receive that can never
//     be satisfied (peer closed, nothing queued or held) throws
//     ChannelClosed instead of blocking forever. This is the fix for the
//     recv-after-peer-exit deadlock: any peer death is observable.
//   * recv_any_for bounds a receive by a timeout, the primitive under the
//     master's heartbeats and retry/reassignment logic.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/fault.hpp"

namespace repro::cluster {

/// A tagged message with a flat i32 payload (scores, splits, row data).
struct Message {
  int tag = 0;
  std::vector<std::int32_t> data;
};

/// Thrown by a receive that can never complete: the awaited peer (or, for
/// recv_any, every peer) has closed and nothing deliverable remains.
struct ChannelClosed : std::runtime_error {
  explicit ChannelClosed(int rank_)
      : std::runtime_error("channel closed: rank " + std::to_string(rank_) +
                           " exited with no deliverable message"),
        rank(rank_) {}
  int rank;
};

/// Thrown inside a rank's own Comm call when its FaultPlan crash op count
/// is reached. run_ranks treats it as a *scheduled* death (the rank closes
/// and the run continues), never as a test failure.
struct RankCrashed : std::runtime_error {
  explicit RankCrashed(int rank_)
      : std::runtime_error("rank " + std::to_string(rank_) +
                           " crashed (scheduled fault)"),
        rank(rank_) {}
  int rank;
};

/// A communicator over `size` ranks. All methods are thread-safe; each rank
/// must only be driven by its own thread (as with MPI processes).
class Comm {
 public:
  explicit Comm(int size);
  Comm(int size, FaultPlan plan);

  [[nodiscard]] int size() const { return static_cast<int>(boxes_.size()); }

  /// Asynchronous send (buffered, never blocks). Under a fault plan the
  /// message may be dropped, delayed or duplicated; sends to a closed rank
  /// are silently discarded (the peer can no longer receive).
  void send(int from, int to, Message msg);

  /// Blocking receive of the next message from a specific source
  /// (FIFO within the (from, to) channel). Throws ChannelClosed if `from`
  /// closes with no deliverable message on the channel.
  Message recv(int to, int from);

  /// Blocking receive of the next message from `from` with tag `tag`,
  /// leaving other messages queued (like a tag-filtered MPI_Recv).
  /// Throws ChannelClosed if `from` closes with no matching message left.
  Message recv_tagged(int to, int from, int tag);

  /// Blocking receive from any source; returns (source, message).
  /// Messages from different sources may interleave in any order, but each
  /// (source, destination) channel stays FIFO — like MPI_ANY_SOURCE.
  /// Throws ChannelClosed when every other rank has closed and nothing
  /// deliverable remains.
  std::pair<int, Message> recv_any(int to);

  /// recv_any bounded by a timeout: nullopt when nothing arrived in time.
  /// The timeout primitive behind master heartbeats and fetch retries.
  std::optional<std::pair<int, Message>> recv_any_for(
      int to, std::chrono::milliseconds timeout);

  /// Nonblocking probe: true when recv_any(to) would not block.
  bool iprobe(int to);

  /// Sends `msg` from `from` to every other rank (MPI_Bcast-shaped).
  void broadcast(int from, const Message& msg);

  /// Collective barrier: every rank must call it; returns when all have.
  /// Implemented purely with messages (gather at rank 0, then release) on a
  /// reserved tag, so it composes with pending application traffic.
  void barrier(int rank);

  /// Marks a rank as exited: its mailbox stops accepting sends and blocked
  /// receives on it become ChannelClosed. Idempotent; run_ranks calls this
  /// for every rank body on exit (normal, error, or crash).
  void close(int rank);

  /// True when `rank` has closed (exited or crashed).
  [[nodiscard]] bool closed(int rank) const;

  /// Ranks not yet closed.
  [[nodiscard]] int alive_ranks() const;

  /// Injection counts from the fault plan so far (all zero when fault-free).
  [[nodiscard]] FaultStats fault_stats() const;

  /// True when this communicator was built with a non-empty fault plan.
  [[nodiscard]] bool fault_active() const { return fault_; }

  /// Total messages and payload words transferred (for bench reporting).
  /// Counts send *attempts*: dropped and discarded-to-closed messages were
  /// paid for by the sender even though nobody received them.
  [[nodiscard]] std::uint64_t messages_sent() const;
  [[nodiscard]] std::uint64_t words_sent() const;

  /// Per-sender breakdown of the same totals (rank 0 is the master, so
  /// these separate master->worker control traffic from worker->master row
  /// deposits and replica replies).
  [[nodiscard]] std::uint64_t messages_sent_from(int rank) const;
  [[nodiscard]] std::uint64_t words_sent_from(int rank) const;

  /// Tag reserved for barrier traffic; applications must not use it.
  static constexpr int kBarrierTag = -1001;

 private:
  struct Held {
    Message msg;
    std::uint64_t release_tick = 0;
  };

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::pair<int, Message>> queue;
    /// Per-source hold queues for delayed messages; a message is released
    /// only after its own tick AND every predecessor on its channel, so
    /// per-channel FIFO survives injection.
    std::vector<std::deque<Held>> held;
  };

  struct alignas(64) RankCounters {  // cache-line padded: ranks send often
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> words{0};
  };

  static constexpr auto kForever = std::chrono::steady_clock::time_point::max();

  /// The one receive loop: waits on `to`'s mailbox for the first queued
  /// message `wanted` accepts and returns it with its source; throws
  /// ChannelClosed(gone_rank) once `gone(box)` says none can arrive, and
  /// returns nullopt at `deadline`.
  template <class Wanted, class Gone>
  std::optional<std::pair<int, Message>> receive(
      int to, Wanted wanted, Gone gone, int gone_rank,
      std::chrono::steady_clock::time_point deadline);
  Message recv_from(int to, int from, std::optional<int> tag);
  std::optional<std::pair<int, Message>> recv_any_until(
      int to, std::chrono::steady_clock::time_point deadline);
  void init_plan();
  /// Scheduled-crash bookkeeping: called on the rank's own thread; throws
  /// RankCrashed when the plan's op count for this rank is reached.
  void note_op(int rank);
  /// Moves every due held message into the delivery queue (caller holds the
  /// mailbox mutex). Returns true when anything was released.
  bool flush_held(Mailbox& box);
  /// The fault event scheduled for this channel op, if any.
  [[nodiscard]] const FaultEvent* event_for(int from, int to,
                                            std::uint64_t op) const;

  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> words_{0};
  std::vector<RankCounters> per_rank_;

  FaultPlan plan_;
  bool fault_ = false;
  bool has_delays_ = false;
  std::vector<std::atomic<bool>> closed_;  // never resized after construction
  std::atomic<int> closed_count_{0};
  std::atomic<std::uint64_t> tick_{0};  // net time: sends + wait polls
  std::vector<std::uint64_t> channel_sends_;  // per (from*size+to); sender-owned
  std::vector<std::uint64_t> rank_ops_;       // per rank; own-thread only
  std::vector<std::uint64_t> crash_at_;       // op count per rank (max = never)
  // (from*size+to) -> op -> event, resolved at construction.
  std::vector<std::vector<std::pair<std::uint64_t, const FaultEvent*>>> by_channel_;
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> crashes_{0};
};

/// Spawns `size` rank threads running body(rank) against a shared Comm and
/// joins them; every rank is closed when its body exits, so surviving ranks
/// observe ChannelClosed instead of deadlocking on a dead peer. A
/// RankCrashed escape is a *scheduled* fault-plan death and is swallowed;
/// the first other exception thrown by any rank is rethrown.
void run_ranks(Comm& comm, const std::function<void(int)>& body);

}  // namespace repro::cluster
