#include "cluster/mpisim.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "util/check.hpp"

namespace repro::cluster {
namespace {

/// Poll quantum for waits that must make progress without a notify: held
/// (delayed) messages are released on tick advancement, and ticks advance
/// on sends and on these polls, so a delayed message is never stranded.
constexpr auto kTickQuantum = std::chrono::milliseconds(1);

}  // namespace

Comm::Comm(int size) : Comm(size, FaultPlan{}) {}

Comm::Comm(int size, FaultPlan plan)
    : per_rank_(static_cast<std::size_t>(size)),
      plan_(std::move(plan)),
      closed_(static_cast<std::size_t>(size)) {
  REPRO_CHECK(size >= 1);
  boxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
    boxes_.back()->held.resize(static_cast<std::size_t>(size));
  }
  init_plan();
}

void Comm::init_plan() {
  const auto n = static_cast<std::size_t>(size());
  channel_sends_.assign(n * n, 0);
  rank_ops_.assign(n, 0);
  crash_at_.assign(n, std::numeric_limits<std::uint64_t>::max());
  by_channel_.assign(n * n, {});
  fault_ = !plan_.empty();
  has_delays_ = plan_.has_delays();
  for (const FaultEvent& ev : plan_.events) {
    REPRO_CHECK(ev.from >= 0 && ev.from < size());
    if (ev.kind == FaultKind::kCrash) {
      auto& at = crash_at_[static_cast<std::size_t>(ev.from)];
      at = std::min(at, std::max<std::uint64_t>(ev.op, 1));
      continue;
    }
    REPRO_CHECK(ev.to >= 0 && ev.to < size());
    by_channel_[static_cast<std::size_t>(ev.from) * n +
                static_cast<std::size_t>(ev.to)]
        .emplace_back(ev.op, &ev);
  }
  for (auto& channel : by_channel_)
    std::sort(channel.begin(), channel.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
}

const FaultEvent* Comm::event_for(int from, int to, std::uint64_t op) const {
  const auto& channel =
      by_channel_[static_cast<std::size_t>(from) * static_cast<std::size_t>(size()) +
                  static_cast<std::size_t>(to)];
  const auto it = std::lower_bound(
      channel.begin(), channel.end(), op,
      [](const auto& entry, std::uint64_t key) { return entry.first < key; });
  if (it != channel.end() && it->first == op) return it->second;
  return nullptr;
}

void Comm::note_op(int rank) {
  if (!fault_) return;
  auto& ops = rank_ops_[static_cast<std::size_t>(rank)];
  ++ops;  // own-thread only: each rank is driven by a single thread
  if (ops >= crash_at_[static_cast<std::size_t>(rank)]) {
    crashes_.fetch_add(1, std::memory_order_relaxed);
    crash_at_[static_cast<std::size_t>(rank)] =
        std::numeric_limits<std::uint64_t>::max();  // count the crash once
    throw RankCrashed(rank);
  }
}

bool Comm::flush_held(Mailbox& box) {
  bool released = false;
  const std::uint64_t now = tick_.load(std::memory_order_relaxed);
  for (std::size_t from = 0; from < box.held.size(); ++from) {
    auto& channel = box.held[from];
    while (!channel.empty() && channel.front().release_tick <= now) {
      box.queue.emplace_back(static_cast<int>(from),
                             std::move(channel.front().msg));
      channel.pop_front();
      released = true;
    }
  }
  return released;
}

void Comm::send(int from, int to, Message msg) {
  REPRO_CHECK(from >= 0 && from < size() && to >= 0 && to < size());
  note_op(from);
  messages_.fetch_add(1, std::memory_order_relaxed);
  words_.fetch_add(msg.data.size() + 1, std::memory_order_relaxed);
  RankCounters& rc = per_rank_[static_cast<std::size_t>(from)];
  rc.messages.fetch_add(1, std::memory_order_relaxed);
  rc.words.fetch_add(msg.data.size() + 1, std::memory_order_relaxed);
  tick_.fetch_add(1, std::memory_order_relaxed);
  if (closed_[static_cast<std::size_t>(to)].load(std::memory_order_acquire))
    return;  // the peer exited; the message vanishes on the wire
  Mailbox& box = *boxes_[static_cast<std::size_t>(to)];
  {
    std::lock_guard lock(box.mutex);
    const FaultEvent* ev = nullptr;
    if (fault_) {
      const std::size_t channel = static_cast<std::size_t>(from) *
                                      static_cast<std::size_t>(size()) +
                                  static_cast<std::size_t>(to);
      ev = event_for(from, to, channel_sends_[channel]);
      ++channel_sends_[channel];
    }
    auto& held = box.held[static_cast<std::size_t>(from)];
    const auto deliver = [&](Message m) {
      // FIFO per channel: while earlier messages are held, later ones must
      // queue behind them (release_tick 0 = releasable immediately after).
      if (!held.empty())
        held.push_back({std::move(m), 0});
      else
        box.queue.emplace_back(from, std::move(m));
    };
    if (ev == nullptr) {
      deliver(std::move(msg));
    } else {
      switch (ev->kind) {
        case FaultKind::kDrop:
          drops_.fetch_add(1, std::memory_order_relaxed);
          break;
        case FaultKind::kDuplicate: {
          duplicates_.fetch_add(1, std::memory_order_relaxed);
          Message copy = msg;
          deliver(std::move(copy));
          deliver(std::move(msg));
          break;
        }
        case FaultKind::kDelay:
          delays_.fetch_add(1, std::memory_order_relaxed);
          held.push_back(
              {std::move(msg),
               tick_.load(std::memory_order_relaxed) + std::max<std::uint64_t>(
                                                           ev->ticks, 1)});
          break;
        case FaultKind::kCrash:
          break;  // unreachable: crash events never map to channels
      }
    }
    flush_held(box);
  }
  box.cv.notify_all();
}

template <class Wanted, class Gone>
std::optional<std::pair<int, Message>> Comm::receive(
    int to, Wanted wanted, Gone gone, int gone_rank,
    std::chrono::steady_clock::time_point deadline) {
  REPRO_CHECK(to >= 0 && to < size());
  Mailbox& box = *boxes_[static_cast<std::size_t>(to)];
  std::unique_lock lock(box.mutex);
  for (;;) {
    flush_held(box);
    const auto it = std::find_if(box.queue.begin(), box.queue.end(), wanted);
    if (it != box.queue.end()) {
      note_op(to);
      auto got = std::move(*it);
      box.queue.erase(it);
      return got;
    }
    if (gone(box)) throw ChannelClosed(gone_rank);
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    if (has_delays_) {
      box.cv.wait_for(lock, std::min<std::chrono::steady_clock::duration>(
                                kTickQuantum, deadline - now));
      tick_.fetch_add(1, std::memory_order_relaxed);
    } else if (deadline == kForever) {
      box.cv.wait(lock);
    } else {
      box.cv.wait_until(lock, deadline);
    }
  }
}

Message Comm::recv(int to, int from) {
  return recv_from(to, from, std::nullopt);
}

Message Comm::recv_tagged(int to, int from, int tag) {
  return recv_from(to, from, tag);
}

Message Comm::recv_from(int to, int from, std::optional<int> tag) {
  REPRO_CHECK(from >= 0 && from < size());
  const auto wanted = [from, tag](const std::pair<int, Message>& q) {
    return q.first == from && (!tag || q.second.tag == *tag);
  };
  // The channel is gone once its sender closed and nothing it sent is held.
  const auto gone = [this, from](const Mailbox& box) {
    return closed_[static_cast<std::size_t>(from)].load(
               std::memory_order_acquire) &&
           box.held[static_cast<std::size_t>(from)].empty();
  };
  return receive(to, wanted, gone, from, kForever)->second;
}

void Comm::broadcast(int from, const Message& msg) {
  for (int to = 0; to < size(); ++to)
    if (to != from) send(from, to, msg);
}

void Comm::barrier(int rank) {
  if (size() == 1) return;
  if (rank == 0) {
    for (int w = 1; w < size(); ++w) recv_tagged(0, w, kBarrierTag);
    for (int w = 1; w < size(); ++w) send(0, w, {kBarrierTag, {}});
  } else {
    send(rank, 0, {kBarrierTag, {}});
    recv_tagged(rank, 0, kBarrierTag);
  }
}

std::pair<int, Message> Comm::recv_any(int to) {
  return *recv_any_until(to, kForever);
}

std::optional<std::pair<int, Message>> Comm::recv_any_for(
    int to, std::chrono::milliseconds timeout) {
  return recv_any_until(to, std::chrono::steady_clock::now() + timeout);
}

std::optional<std::pair<int, Message>> Comm::recv_any_until(
    int to, std::chrono::steady_clock::time_point deadline) {
  // Every peer is gone once all have closed and nothing they sent is held.
  const auto gone = [this, to](const Mailbox& box) {
    bool any_held = false;
    for (const auto& channel : box.held) any_held |= !channel.empty();
    return !any_held && closed_count_.load(std::memory_order_acquire) >=
                            size() - (closed(to) ? 0 : 1);
  };
  return receive(
      to, [](const std::pair<int, Message>&) { return true; }, gone, to,
      deadline);
}

bool Comm::iprobe(int to) {
  REPRO_CHECK(to >= 0 && to < size());
  Mailbox& box = *boxes_[static_cast<std::size_t>(to)];
  std::lock_guard lock(box.mutex);
  flush_held(box);
  return !box.queue.empty();
}

void Comm::close(int rank) {
  REPRO_CHECK(rank >= 0 && rank < size());
  if (closed_[static_cast<std::size_t>(rank)].exchange(
          true, std::memory_order_acq_rel))
    return;  // idempotent
  closed_count_.fetch_add(1, std::memory_order_acq_rel);
  // Wake every blocked receive so it can re-evaluate its closed condition.
  for (auto& box : boxes_) {
    { std::lock_guard lock(box->mutex); }
    box->cv.notify_all();
  }
}

bool Comm::closed(int rank) const {
  REPRO_CHECK(rank >= 0 && rank < size());
  return closed_[static_cast<std::size_t>(rank)].load(std::memory_order_acquire);
}

int Comm::alive_ranks() const {
  return size() - closed_count_.load(std::memory_order_acquire);
}

FaultStats Comm::fault_stats() const {
  FaultStats stats;
  stats.drops = drops_.load(std::memory_order_relaxed);
  stats.delays = delays_.load(std::memory_order_relaxed);
  stats.duplicates = duplicates_.load(std::memory_order_relaxed);
  stats.crashes = crashes_.load(std::memory_order_relaxed);
  return stats;
}

std::uint64_t Comm::messages_sent() const {
  return messages_.load(std::memory_order_relaxed);
}

std::uint64_t Comm::words_sent() const {
  return words_.load(std::memory_order_relaxed);
}

std::uint64_t Comm::messages_sent_from(int rank) const {
  REPRO_CHECK(rank >= 0 && rank < size());
  return per_rank_[static_cast<std::size_t>(rank)].messages.load(
      std::memory_order_relaxed);
}

std::uint64_t Comm::words_sent_from(int rank) const {
  REPRO_CHECK(rank >= 0 && rank < size());
  return per_rank_[static_cast<std::size_t>(rank)].words.load(
      std::memory_order_relaxed);
}

void run_ranks(Comm& comm, const std::function<void(int)>& body) {
  std::mutex error_mutex;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(comm.size()));
  for (int rank = 0; rank < comm.size(); ++rank) {
    threads.emplace_back([&, rank] {
      try {
        body(rank);
      } catch (const RankCrashed&) {
        // A scheduled fault-plan death: the rank simply stops; survivors
        // observe its closed channel and recover.
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      comm.close(rank);
    });
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace repro::cluster
