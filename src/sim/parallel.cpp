#include "sim/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace vp::sim {

ParallelSimulator::ParallelSimulator(ParallelOptions options)
    : options_(options) {
  if (options_.shards < 1) options_.shards = 1;
  int threads = options_.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  threads_ = std::min(threads, options_.shards);

  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Simulator>();
    shard->engine_ = this;
    shard->shard_id_ = i;
    shards_.push_back(std::move(shard));
  }
  const size_t rows =
      (shards_.size() + 1) * shards_.size();  // +1: external source row
  mail_.resize(rows);
  mail_seq_.assign(rows, 0);

  if (threads_ > 1) {
    workers_.reserve(static_cast<size_t>(threads_));
    for (int i = 0; i < threads_; ++i) {
      workers_.emplace_back([this] { WorkerMain(); });
    }
  }
}

ParallelSimulator::~ParallelSimulator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ParallelSimulator::Post(int dst_shard, TimePoint when, Task task) {
  assert(dst_shard >= 0 && dst_shard < shards());
  int src = shards();  // external row: quiesced callers
  if (const Simulator* running = detail::tl_running_shard) {
    src = running->shard_id_;
  }
  // Conservative contract: a message posted during a segment may not
  // be due before the segment ends — the sender must add at least the
  // lookahead window to its own virtual time.
  assert(when >= (in_epoch() ? epoch_end_ : fence_) &&
         "cross-shard post inside the lookahead window");
  auto& row = mail_[RowIndex(src, dst_shard)];
  row.push_back(Mail{when, mail_seq_[RowIndex(src, dst_shard)]++,
                     std::move(task)});
}

uint64_t ParallelSimulator::AtBarrier(TimePoint when, Task task) {
  assert(!in_epoch());
  if (when < fence_) when = fence_;
  const uint64_t id = next_barrier_id_++;
  barrier_tasks_.push_back(BarrierTask{when, id, std::move(task)});
  return id;
}

bool ParallelSimulator::CancelBarrier(uint64_t id) {
  assert(!in_epoch());
  for (auto it = barrier_tasks_.begin(); it != barrier_tasks_.end(); ++it) {
    if (it->id == id) {
      barrier_tasks_.erase(it);
      return true;
    }
  }
  return false;
}

void ParallelSimulator::DrainMailboxes() {
  // Deterministic delivery: per destination, merge all source rows
  // sorted by (time, src_shard, seq). Insertion assigns the
  // destination shard's own seq numbers in that order, so downstream
  // tie-breaking is independent of which thread produced the message.
  std::vector<std::pair<int, Mail>> inbox;  // (src_row, mail)
  for (int dst = 0; dst < shards(); ++dst) {
    inbox.clear();
    for (int src = 0; src <= shards(); ++src) {
      auto& row = mail_[RowIndex(src, dst)];
      for (auto& m : row) inbox.emplace_back(src, std::move(m));
      row.clear();
    }
    if (inbox.empty()) continue;
    std::sort(inbox.begin(), inbox.end(),
              [](const auto& a, const auto& b) {
                if (a.second.when != b.second.when)
                  return a.second.when < b.second.when;
                if (a.first != b.first) return a.first < b.first;
                return a.second.seq < b.second.seq;
              });
    Simulator& s = shard(dst);
    for (auto& e : inbox) {
      s.At(e.second.when, std::move(e.second.task));
    }
  }
}

void ParallelSimulator::RunBarrierTasksDue() {
  // Run tasks with when ≤ fence in (when, id) order; a task may
  // register new tasks (controller ticks re-arm themselves), which are
  // picked up if also due. O(n²) over a handful of control tasks.
  for (;;) {
    size_t best = barrier_tasks_.size();
    for (size_t i = 0; i < barrier_tasks_.size(); ++i) {
      const auto& t = barrier_tasks_[i];
      if (t.when > fence_) continue;
      if (best == barrier_tasks_.size() ||
          t.when < barrier_tasks_[best].when ||
          (t.when == barrier_tasks_[best].when &&
           t.id < barrier_tasks_[best].id)) {
        best = i;
      }
    }
    if (best == barrier_tasks_.size()) return;
    Task task = std::move(barrier_tasks_[best].task);
    barrier_tasks_.erase(barrier_tasks_.begin() +
                         static_cast<ptrdiff_t>(best));
    task();
    // A barrier task may post across shards; deliver before the next
    // segment (or the next due task) can observe the shard heaps.
    DrainMailboxes();
  }
}

bool ParallelSimulator::EarliestShardEvent(TimePoint* when) {
  bool found = false;
  for (auto& s : shards_) {
    TimePoint t;
    if (s->shard_.PeekNextTime(&t)) {
      if (!found || t < *when) *when = t;
      found = true;
    }
  }
  return found;
}

bool ParallelSimulator::NextBarrierTime(TimePoint* when) const {
  bool found = false;
  for (const auto& t : barrier_tasks_) {
    if (!found || t.when < *when) *when = t.when;
    found = true;
  }
  return found;
}

void ParallelSimulator::ExecuteSegment(TimePoint seg_end) {
  ++segments_;
  if (threads_ == 1) {
    // Degenerate case: run shards in order on the calling thread. The
    // affinity machinery is exercised identically so asserts stay
    // honest.
    in_epoch_.store(true, std::memory_order_relaxed);
    epoch_end_ = seg_end;
    for (auto& s : shards_) {
      detail::tl_running_shard = s.get();
      s->shard_.RunUntil(seg_end);
      detail::tl_running_shard = nullptr;
    }
    in_epoch_.store(false, std::memory_order_relaxed);
    return;
  }
  in_epoch_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch_end_ = seg_end;
    next_shard_ = 0;
    shards_remaining_ = shards();
    ++epoch_gen_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return shards_remaining_ == 0; });
  }
  in_epoch_.store(false, std::memory_order_relaxed);
}

void ParallelSimulator::WorkerMain() {
  uint64_t seen_gen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock,
                  [&] { return shutdown_ || epoch_gen_ != seen_gen; });
    if (shutdown_) return;
    seen_gen = epoch_gen_;
    const TimePoint seg_end = epoch_end_;
    // Claim shards under the lock, with a generation check on every
    // claim: a worker that was descheduled between reading the epoch
    // and claiming could otherwise outlive its epoch (the other
    // workers finish all shards, the coordinator starts the next
    // epoch) and grab a shard of the NEW epoch with the OLD segment
    // end — racing the coordinator's mailbox drain and leaving events
    // unexecuted. Claims are a few lock acquisitions per epoch; the
    // segment itself runs lock-free.
    while (epoch_gen_ == seen_gen && next_shard_ < shards()) {
      const int i = next_shard_++;
      lock.unlock();
      Simulator* s = shards_[static_cast<size_t>(i)].get();
      detail::tl_running_shard = s;
      s->shard_.RunUntil(seg_end);
      detail::tl_running_shard = nullptr;
      lock.lock();
      if (--shards_remaining_ == 0) done_cv_.notify_one();
    }
  }
}

void ParallelSimulator::RunUntil(TimePoint until) {
  assert(!in_epoch());
  for (;;) {
    DrainMailboxes();
    RunBarrierTasksDue();
    TimePoint next_event;
    const bool has_event = EarliestShardEvent(&next_event);
    // Every shard clock sits at or past the fence between segments, so
    // no pending event can be due before it.
    assert(!has_event || next_event >= fence_);
    TimePoint next_barrier;
    const bool has_barrier = NextBarrierTime(&next_barrier);

    if (fence_ >= until) {
      // Late cross-shard arrivals landing exactly at `until` still
      // belong to this run (RunUntil is inclusive).
      if (has_event && next_event <= until) {
        ExecuteSegment(until);
        continue;
      }
      break;
    }
    TimePoint seg = until;
    if (has_barrier && next_barrier < seg) seg = next_barrier;
    if (has_event) {
      const TimePoint cap = next_event + options_.lookahead;
      if (cap < seg) seg = cap;
    } else if (!has_barrier) {
      // Nothing pending anywhere: jump straight to the horizon.
      fence_ = until;
      continue;
    }
    ExecuteSegment(seg);
    fence_ = seg;
  }
  if (fence_ < until) fence_ = until;
  for (auto& s : shards_) s->shard_.AdvanceTo(until);
}

void ParallelSimulator::RunUntilIdle() {
  assert(!in_epoch());
  for (;;) {
    DrainMailboxes();
    RunBarrierTasksDue();
    TimePoint next_event;
    const bool has_event = EarliestShardEvent(&next_event);
    assert(!has_event || next_event >= fence_);  // as in RunUntil
    TimePoint next_barrier;
    const bool has_barrier = NextBarrierTime(&next_barrier);
    if (!has_event && !has_barrier) return;
    TimePoint seg;
    if (has_event) {
      seg = next_event + options_.lookahead;
      if (has_barrier && next_barrier < seg) seg = next_barrier;
    } else {
      seg = next_barrier;
    }
    ExecuteSegment(seg);
    fence_ = seg;
  }
}

uint64_t ParallelSimulator::executed_events() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->executed_events();
  return total;
}

size_t ParallelSimulator::pending_events() const {
  size_t total = 0;
  for (const auto& s : shards_) total += s->pending_events();
  for (const auto& row : mail_) total += row.size();
  return total;
}

SimAllocStats ParallelSimulator::alloc_stats() const {
  SimAllocStats total;
  for (const auto& s : shards_) {
    const SimAllocStats& a = s->alloc_stats();
    total.node_allocs += a.node_allocs;
    total.pool_reuses += a.pool_reuses;
    total.heap_compactions += a.heap_compactions;
  }
  return total;
}

}  // namespace vp::sim
