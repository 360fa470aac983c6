// Outside-in instrumentation for the benchmark runner.
//
// probe.cc defines __wrap_ entry points for the layer functions listed in
// CMakeLists.txt; the linker routes every call to those functions through
// them, so stages that run inside GlobalController::on_reports are timed
// without touching the library. Three records come out of a pass:
//   - one PeriodRecord per on_reports call, always, which the end-to-end
//     control latency is taken from (CPU time of the calling thread), and
//     the rule sets pushed while rule capture is on;
//   - spans, only while tracing is on, kept in memory with their parent;
//   - counters (exact-solve pivots and warm groups; heap allocations while
//     counting is on).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "routing/weighted_rules.h"

namespace slatebench {

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  const char* name = "";
  std::int64_t start_ns = 0;  // since the process epoch
  std::int64_t end_ns = 0;
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

struct PeriodRecord {
  double host_s = 0.0;  // CPU seconds the calling thread spent in the call
  bool solved = false;  // ran the solver (SolveTelemetry::solves moved)
  // How much slower than the reference speed the machine ran (see
  // calibrate.h); set by the runner, 0 until then.
  double slowdown = 0.0;
};

struct ExactSolveStats {
  std::uint64_t calls = 0;
  std::uint64_t pivots = 0;
  std::uint64_t solve_groups = 0;
  std::uint64_t warm_groups = 0;
};

struct AllocCount {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

// Spans and allocation counting are off until switched on.
void set_tracing(bool on);
void set_alloc_counting(bool on);
[[nodiscard]] AllocCount alloc_count();

// Nanoseconds since the process epoch (wall clock; span timestamps).
[[nodiscard]] std::int64_t now_ns();

// CPU nanoseconds the calling thread has used. Host-time metrics use this
// rather than the wall clock: it leaves out time the thread spends
// descheduled, which on a shared machine varies from minute to minute.
[[nodiscard]] std::int64_t cpu_ns();

// RAII span; records only while tracing is on. A span opened on a thread
// with no open span takes the most recent span opened on the main thread as
// parent, so control-plane work run by a worker still nests under its pass.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  const char* name_;
  std::int64_t start_ns_ = 0;
};

// Rule sets pushed by on_reports, with the simulated time of the push, in
// call order. Kept only while rule capture is on (simulator workloads use it
// to price the plan in force after the run).
struct PushedRules {
  double now = 0.0;
  std::shared_ptr<const slate::RoutingRuleSet> rules;
};
void set_rule_capture(bool on);

// Drain what the probes recorded since the last call.
[[nodiscard]] std::vector<SpanRecord> take_spans();
[[nodiscard]] std::vector<PeriodRecord> take_periods();
[[nodiscard]] std::vector<PushedRules> take_pushed_rules();
[[nodiscard]] ExactSolveStats take_exact_stats();

}  // namespace slatebench
