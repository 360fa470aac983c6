// Conservative parallel discrete-event coordinator.
//
// Partitions a simulation into N logical processes (LPs), each a private
// Simulator, plus one global LP for control-plane machinery that must observe
// every partition (controllers, fault transitions, warmup boundaries). The
// physical topology guarantees a latency floor between partitions, so every
// LP can execute all events in the window [t, t + lookahead) without seeing a
// message from a peer — classic conservative synchronization, with a barrier
// at each window boundary instead of null messages.
//
// Determinism contract: cross-LP sends are buffered in per-source outboxes,
// stamped (delivery time, source LP, per-source sequence), and drained at the
// barrier in that total order, so the receiving simulator assigns event
// sequence numbers identically regardless of worker count or OS scheduling.
// Window boundaries depend only on the lookahead and the global LP's event
// times — never on thread timing — so a run with W workers is byte-identical
// to the same run with 1.
//
// Global-LP events always fire exactly at a window boundary: the window end
// is clipped to the global LP's next event time, so when the coordinator
// drains the global LP every partition clock equals the global clock and the
// control plane sees a consistent world, exactly as in a serial run.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <thread>
#include <vector>

#include "sim/simulator.h"

namespace slate {

class ShardedSimulator {
 public:
  // `lp_count` partitions; `lookahead` is the guaranteed minimum cross-LP
  // message latency (> 0 unless lp_count == 1); `workers` caps the thread
  // count (clamped to lp_count; 1 runs everything inline on the caller).
  ShardedSimulator(std::size_t lp_count, SimTime lookahead,
                   std::size_t workers);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] std::size_t lp_count() const noexcept { return lps_.size(); }
  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }
  [[nodiscard]] SimTime lookahead() const noexcept { return lookahead_; }
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  [[nodiscard]] Simulator& lp(std::size_t i) noexcept { return *lps_[i]; }
  [[nodiscard]] Simulator& global() noexcept { return global_; }

  // Buffers `fn` for delivery into LP `to` at simulated time `when`
  // (clamped to the current window's end, which the latency floor makes a
  // no-op in the fault-free case). Must be called from code executing on LP
  // `from` — the outbox is single-writer. `from` may equal `to` only for
  // self-sends that intentionally defer to the next window.
  void send(std::size_t from, std::size_t to, SimTime when, InlineCallback fn);

  // Runs once per window at the barrier, after cross-LP messages are
  // delivered and before the global LP executes — the one safe place to
  // aggregate per-LP state into shared snapshots.
  void set_barrier_hook(std::function<void()> hook) {
    barrier_hook_ = std::move(hook);
  }

  // Advances every LP (and the global LP) to `t_end`. Returns the number of
  // events executed across all partitions during this call.
  std::uint64_t run_until(SimTime t_end);

  // Lifetime events executed across all LPs plus the global LP.
  [[nodiscard]] std::uint64_t events_executed() const noexcept;

  // Messages whose `when` fell under the end of the window they were sent
  // in, and which were therefore delivered at that window end (see send()).
  [[nodiscard]] std::uint64_t causality_clamps() const noexcept {
    return causality_clamps_;
  }

 private:
  struct Message {
    SimTime when;
    std::uint32_t from;
    std::uint32_t to;
    std::uint64_t seq;
    InlineCallback fn;
  };
  // Single-writer: only the worker executing LP `from` appends; the
  // coordinator drains at the barrier.
  struct Outbox {
    std::vector<Message> messages;
    std::uint64_t next_seq = 0;
  };

  void run_window(SimTime w_end);
  void drain_outboxes(SimTime w_end);
  void worker_loop(std::size_t worker_index);

  std::vector<std::unique_ptr<Simulator>> lps_;
  Simulator global_;
  std::vector<Outbox> outboxes_;
  std::vector<Message> drain_scratch_;
  std::function<void()> barrier_hook_;
  SimTime lookahead_;
  SimTime now_ = 0.0;
  std::size_t workers_;
  std::uint64_t causality_clamps_ = 0;

  // Generation-counted barrier. The coordinator bumps `epoch_` to release
  // workers into a window; workers bump `done_` as they finish. The mutex +
  // condvars also carry the happens-before edges that make the outbox and
  // per-LP state handoffs race-free.
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  std::size_t done_ = 0;
  SimTime window_end_ = 0.0;
  bool shutdown_ = false;
  std::exception_ptr worker_error_;
};

}  // namespace slate
