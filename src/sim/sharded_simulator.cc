#include "sim/sharded_simulator.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace slate {

ShardedSimulator::ShardedSimulator(std::size_t lp_count, SimTime lookahead,
                                   std::size_t workers)
    : lookahead_(lookahead),
      workers_(std::max<std::size_t>(1, std::min(workers, lp_count))) {
  if (lp_count == 0) {
    throw std::invalid_argument("ShardedSimulator: lp_count == 0");
  }
  if (lp_count > 1 && !(lookahead > 0.0)) {
    throw std::invalid_argument("ShardedSimulator: lookahead must be > 0");
  }
  lps_.reserve(lp_count);
  for (std::size_t i = 0; i < lp_count; ++i) {
    lps_.push_back(std::make_unique<Simulator>());
  }
  outboxes_.resize(lp_count);
  if (workers_ > 1) {
    threads_.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (!threads_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
}

void ShardedSimulator::send(std::size_t from, std::size_t to, SimTime when,
                            InlineCallback fn) {
  assert(from < lps_.size() && to < lps_.size());
  Outbox& box = outboxes_[from];
  box.messages.push_back(Message{when, static_cast<std::uint32_t>(from),
                                 static_cast<std::uint32_t>(to),
                                 box.next_seq++, std::move(fn)});
}

void ShardedSimulator::worker_loop(std::size_t worker_index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    SimTime w_end;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
      w_end = window_end_;
    }
    std::exception_ptr error;
    try {
      // Static LP-to-worker assignment: partition i always runs on worker
      // i % W, so per-LP state never migrates between threads mid-run.
      for (std::size_t i = worker_index; i < lps_.size(); i += workers_) {
        lps_[i]->run_until(w_end);
      }
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (error && !worker_error_) worker_error_ = error;
      ++done_;
    }
    done_cv_.notify_one();
  }
}

void ShardedSimulator::run_window(SimTime w_end) {
  if (threads_.empty()) {
    for (auto& lp : lps_) lp->run_until(w_end);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    window_end_ = w_end;
    done_ = 0;
    ++epoch_;
  }
  work_cv_.notify_all();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return done_ == workers_; });
    if (worker_error_) {
      error = worker_error_;
      worker_error_ = nullptr;
    }
  }
  if (error) std::rethrow_exception(error);
}

void ShardedSimulator::drain_outboxes(SimTime w_end) {
  drain_scratch_.clear();
  for (Outbox& box : outboxes_) {
    for (Message& m : box.messages) drain_scratch_.push_back(std::move(m));
    box.messages.clear();
  }
  if (drain_scratch_.empty()) return;
  // (when, from, seq) is a strict total order — (from, seq) is unique — so
  // the receiving simulators number these events identically on every run.
  std::sort(drain_scratch_.begin(), drain_scratch_.end(),
            [](const Message& a, const Message& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.from != b.from) return a.from < b.from;
              return a.seq < b.seq;
            });
  for (Message& m : drain_scratch_) {
    // The latency floor makes `when >= w_end` in the fault-free case; a
    // fault arm that scales latencies below the floor is clamped here so
    // causality (and determinism) survive, at the cost of delivering those
    // messages at the boundary. The clamps are counted, not hidden.
    if (m.when < w_end) ++causality_clamps_;
    lps_[m.to]->schedule_at(std::max(m.when, w_end), std::move(m.fn));
  }
  drain_scratch_.clear();
}

std::uint64_t ShardedSimulator::run_until(SimTime t_end) {
  const std::uint64_t before = events_executed();
  while (now_ < t_end) {
    const SimTime w_end = std::min(
        {now_ + lookahead_, global_.peek_next_time(), t_end});
    run_window(w_end);
    drain_outboxes(w_end);
    if (barrier_hook_) barrier_hook_();
    global_.run_until(w_end);
    now_ = w_end;
  }
  return events_executed() - before;
}

std::uint64_t ShardedSimulator::events_executed() const noexcept {
  std::uint64_t total = global_.events_executed();
  for (const auto& lp : lps_) total += lp->events_executed();
  return total;
}

}  // namespace slate
