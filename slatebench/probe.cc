// Probes around layer entry points (see probe.h) and the counting
// allocator.
//
// CMakeLists.txt passes the linker --wrap=X for every __wrap_X defined
// below, so calls to the mangled symbol X land here, and __real_X names the
// library's own definition. A member function is declared here as a free function taking
// the object pointer first: under the Itanium C++ ABI that is the same
// calling convention, including the hidden return-slot pointer, which comes
// before `this`.
#include "probe.h"

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <new>
#include <thread>
#include <utility>

#include "contingency/headroom_planner.h"
#include "core/global_controller.h"
#include "core/model_fitter.h"
#include "forecast/demand_forecaster.h"
#include "guard/report_validator.h"
#include "guard/rule_rollout.h"
#include "guard/solver_guard.h"

namespace slatebench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

std::atomic<bool> g_tracing{false};
std::atomic<bool> g_capture_rules{false};
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

std::atomic<std::uint32_t> g_next_span{1};
// Innermost open span of the thread that switched tracing on.
std::atomic<std::uint32_t> g_ambient{0};
std::atomic<std::thread::id> g_main_thread;
thread_local std::vector<std::uint32_t> t_open;

std::mutex g_mu;  // guards everything below
std::vector<SpanRecord> g_spans;
std::vector<PeriodRecord> g_periods;
std::vector<PushedRules> g_pushed;
ExactSolveStats g_exact;

void count_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

}  // namespace

void set_tracing(bool on) {
  g_main_thread.store(std::this_thread::get_id(), std::memory_order_relaxed);
  g_tracing.store(on, std::memory_order_relaxed);
}
void set_rule_capture(bool on) {
  g_capture_rules.store(on, std::memory_order_relaxed);
}
void set_alloc_counting(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}
AllocCount alloc_count() {
  return {g_alloc_count.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Span::Span(const char* name) : name_(name) {
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  parent_ = !t_open.empty() ? t_open.back()
                            : g_ambient.load(std::memory_order_relaxed);
  t_open.push_back(id_);
  if (std::this_thread::get_id() ==
      g_main_thread.load(std::memory_order_relaxed)) {
    g_ambient.store(id_, std::memory_order_relaxed);
  }
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_open.pop_back();
  if (std::this_thread::get_id() ==
      g_main_thread.load(std::memory_order_relaxed)) {
    g_ambient.store(t_open.empty() ? 0 : t_open.back(),
                    std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back({id_, parent_, name_, start_ns_, end});
}

std::vector<SpanRecord> take_spans() {
  std::lock_guard<std::mutex> lock(g_mu);
  return std::exchange(g_spans, {});
}
std::vector<PeriodRecord> take_periods() {
  std::lock_guard<std::mutex> lock(g_mu);
  return std::exchange(g_periods, {});
}
std::vector<PushedRules> take_pushed_rules() {
  std::lock_guard<std::mutex> lock(g_mu);
  return std::exchange(g_pushed, {});
}
ExactSolveStats take_exact_stats() {
  std::lock_guard<std::mutex> lock(g_mu);
  return std::exchange(g_exact, {});
}

}  // namespace slatebench

// --- Link-time wraps ---------------------------------------------------------

using namespace slate;
using slatebench::Span;

#define SLATEBENCH_WRAP(ret, sym, ...)                     \
  ret __real_##sym(__VA_ARGS__) __asm__("__real_" #sym); \
  ret __wrap_##sym(__VA_ARGS__) __asm__("__wrap_" #sym);

using Rules = std::shared_ptr<const RoutingRuleSet>;
using Live = const std::vector<unsigned>*;

SLATEBENCH_WRAP(Rules,
                _ZN5slate16GlobalController10on_reportsERKSt6vectorINS_13ClusterReportESaIS2_EEd,
                GlobalController*, const std::vector<ClusterReport>&, double)
Rules __wrap__ZN5slate16GlobalController10on_reportsERKSt6vectorINS_13ClusterReportESaIS2_EEd(
    GlobalController* self, const std::vector<ClusterReport>& reports,
    double now) {
  Rules rules;
  const std::uint64_t solves = self->solve_telemetry().solves;
  const std::int64_t t0 = slatebench::cpu_ns();
  {
    Span span("on_reports");
    rules =
        __real__ZN5slate16GlobalController10on_reportsERKSt6vectorINS_13ClusterReportESaIS2_EEd(
            self, reports, now);
  }
  const std::int64_t t1 = slatebench::cpu_ns();
  slatebench::PeriodRecord rec;
  rec.host_s = static_cast<double>(t1 - t0) * 1e-9;
  rec.solved = self->solve_telemetry().solves > solves;
  std::lock_guard<std::mutex> lock(slatebench::g_mu);
  slatebench::g_periods.push_back(rec);
  if (rules != nullptr &&
      slatebench::g_capture_rules.load(std::memory_order_relaxed)) {
    slatebench::g_pushed.push_back({now, rules});
  }
  return rules;
}

SLATEBENCH_WRAP(bool, _ZN5slate15ReportValidator5admitERNS_13ClusterReportE,
                ReportValidator*, ClusterReport&)
bool __wrap__ZN5slate15ReportValidator5admitERNS_13ClusterReportE(
    ReportValidator* self, ClusterReport& report) {
  Span span("guard.admit");
  return __real__ZN5slate15ReportValidator5admitERNS_13ClusterReportE(self,
                                                                      report);
}

SLATEBENCH_WRAP(
    FitReport,
    _ZNK5slate11ModelFitter3fitERKNS_11SampleStoreERKNS_10DeploymentERNS_12LatencyModelE,
    const ModelFitter*, const SampleStore&, const Deployment&, LatencyModel&)
FitReport
__wrap__ZNK5slate11ModelFitter3fitERKNS_11SampleStoreERKNS_10DeploymentERNS_12LatencyModelE(
    const ModelFitter* self, const SampleStore& store,
    const Deployment& deployment, LatencyModel& model) {
  Span span("core.fit");
  return __real__ZNK5slate11ModelFitter3fitERKNS_11SampleStoreERKNS_10DeploymentERNS_12LatencyModelE(
      self, store, deployment, model);
}

SLATEBENCH_WRAP(void, _ZN5slate16DemandForecaster4stepERKNS_10FlatMatrixIdEE,
                DemandForecaster*, const FlatMatrix<double>&)
void __wrap__ZN5slate16DemandForecaster4stepERKNS_10FlatMatrixIdEE(
    DemandForecaster* self, const FlatMatrix<double>& measured) {
  Span span("forecast.step");
  __real__ZN5slate16DemandForecaster4stepERKNS_10FlatMatrixIdEE(self,
                                                                 measured);
}

SLATEBENCH_WRAP(
    SolverGuard::Outcome,
    _ZN5slate11SolverGuard5solveERKNS_14RouteOptimizerERKNS_18FastRouteOptimizerERKNS_19RipupRouteOptimizerEbRKNS_12LatencyModelERKNS_10FlatMatrixIdEEPKSt6vectorIjSaIjEEPNS_14OptimizerCacheEbb,
    SolverGuard*, const RouteOptimizer&, const FastRouteOptimizer&,
    const RipupRouteOptimizer&, bool, const LatencyModel&,
    const FlatMatrix<double>&, Live, OptimizerCache*, bool, bool)
SolverGuard::Outcome
__wrap__ZN5slate11SolverGuard5solveERKNS_14RouteOptimizerERKNS_18FastRouteOptimizerERKNS_19RipupRouteOptimizerEbRKNS_12LatencyModelERKNS_10FlatMatrixIdEEPKSt6vectorIjSaIjEEPNS_14OptimizerCacheEbb(
    SolverGuard* self, const RouteOptimizer& primary,
    const FastRouteOptimizer& fast, const RipupRouteOptimizer& ripup,
    bool primary_is_fast, const LatencyModel& model,
    const FlatMatrix<double>& demand, Live live, OptimizerCache* cache,
    bool solver_down, bool have_last_good) {
  Span span("guard.ladder");
  return __real__ZN5slate11SolverGuard5solveERKNS_14RouteOptimizerERKNS_18FastRouteOptimizerERKNS_19RipupRouteOptimizerEbRKNS_12LatencyModelERKNS_10FlatMatrixIdEEPKSt6vectorIjSaIjEEPNS_14OptimizerCacheEbb(
      self, primary, fast, ripup, primary_is_fast, model, demand, live, cache,
      solver_down, have_last_good);
}

SLATEBENCH_WRAP(
    OptimizerResult,
    _ZNK5slate14RouteOptimizer8optimizeERKNS_12LatencyModelERKNS_10FlatMatrixIdEEPKSt6vectorIjSaIjEEPNS_14OptimizerCacheE,
    const RouteOptimizer*, const LatencyModel&, const FlatMatrix<double>&,
    Live, OptimizerCache*)
OptimizerResult
__wrap__ZNK5slate14RouteOptimizer8optimizeERKNS_12LatencyModelERKNS_10FlatMatrixIdEEPKSt6vectorIjSaIjEEPNS_14OptimizerCacheE(
    const RouteOptimizer* self, const LatencyModel& model,
    const FlatMatrix<double>& demand, Live live, OptimizerCache* cache) {
  OptimizerResult result;
  {
    Span span("core.solve_exact");
    result =
        __real__ZNK5slate14RouteOptimizer8optimizeERKNS_12LatencyModelERKNS_10FlatMatrixIdEEPKSt6vectorIjSaIjEEPNS_14OptimizerCacheE(
            self, model, demand, live, cache);
  }
  std::lock_guard<std::mutex> lock(slatebench::g_mu);
  slatebench::g_exact.calls += 1;
  slatebench::g_exact.pivots += result.simplex_stats.iterations;
  slatebench::g_exact.solve_groups += result.solve_groups;
  slatebench::g_exact.warm_groups += result.warm_groups;
  return result;
}

SLATEBENCH_WRAP(
    OptimizerResult,
    _ZNK5slate18FastRouteOptimizer8optimizeERKNS_12LatencyModelERKNS_10FlatMatrixIdEEPKSt6vectorIjSaIjEE,
    const FastRouteOptimizer*, const LatencyModel&, const FlatMatrix<double>&,
    Live)
OptimizerResult
__wrap__ZNK5slate18FastRouteOptimizer8optimizeERKNS_12LatencyModelERKNS_10FlatMatrixIdEEPKSt6vectorIjSaIjEE(
    const FastRouteOptimizer* self, const LatencyModel& model,
    const FlatMatrix<double>& demand, Live live) {
  Span span("core.solve_fast");
  return __real__ZNK5slate18FastRouteOptimizer8optimizeERKNS_12LatencyModelERKNS_10FlatMatrixIdEEPKSt6vectorIjSaIjEE(
      self, model, demand, live);
}

SLATEBENCH_WRAP(
    OptimizerResult,
    _ZNK5slate19RipupRouteOptimizer8optimizeERKNS_12LatencyModelERKNS_10FlatMatrixIdEEPKSt6vectorIjSaIjEE,
    const RipupRouteOptimizer*, const LatencyModel&,
    const FlatMatrix<double>&, Live)
OptimizerResult
__wrap__ZNK5slate19RipupRouteOptimizer8optimizeERKNS_12LatencyModelERKNS_10FlatMatrixIdEEPKSt6vectorIjSaIjEE(
    const RipupRouteOptimizer* self, const LatencyModel& model,
    const FlatMatrix<double>& demand, Live live) {
  Span span("core.solve_ripup");
  return __real__ZNK5slate19RipupRouteOptimizer8optimizeERKNS_12LatencyModelERKNS_10FlatMatrixIdEEPKSt6vectorIjSaIjEE(
      self, model, demand, live);
}

SLATEBENCH_WRAP(
    double,
    _ZNK5slate15HeadroomPlanner17worst_case_marginERKNS_12LatencyModelERKNS_10FlatMatrixIdEERKNS_14RoutingRuleSetEPKSt6vectorIjSaIjEEPNS_8StrongIdINS_10ClusterTagEEE,
    const HeadroomPlanner*, const LatencyModel&, const FlatMatrix<double>&,
    const RoutingRuleSet&, Live, ClusterId*)
double
__wrap__ZNK5slate15HeadroomPlanner17worst_case_marginERKNS_12LatencyModelERKNS_10FlatMatrixIdEERKNS_14RoutingRuleSetEPKSt6vectorIjSaIjEEPNS_8StrongIdINS_10ClusterTagEEE(
    const HeadroomPlanner* self, const LatencyModel& model,
    const FlatMatrix<double>& demand, const RoutingRuleSet& rules, Live live,
    ClusterId* worst) {
  Span span("contingency.headroom");
  return __real__ZNK5slate15HeadroomPlanner17worst_case_marginERKNS_12LatencyModelERKNS_10FlatMatrixIdEERKNS_14RoutingRuleSetEPKSt6vectorIjSaIjEEPNS_8StrongIdINS_10ClusterTagEEE(
      self, model, demand, rules, live, worst);
}

SLATEBENCH_WRAP(RolloutDecision, _ZN5slate11RuleRollout7observeEddm,
                RuleRollout*, double, double, std::uint64_t)
RolloutDecision __wrap__ZN5slate11RuleRollout7observeEddm(
    RuleRollout* self, double goodput_rps, double p99, std::uint64_t samples) {
  Span span("guard.rollout");
  return __real__ZN5slate11RuleRollout7observeEddm(self, goodput_rps, p99,
                                                   samples);
}

SLATEBENCH_WRAP(RolloutDecision,
                _ZN5slate11RuleRollout5applyESt10shared_ptrIKNS_14RoutingRuleSetEE,
                RuleRollout*, Rules)
RolloutDecision
__wrap__ZN5slate11RuleRollout5applyESt10shared_ptrIKNS_14RoutingRuleSetEE(
    RuleRollout* self, Rules target) {
  Span span("guard.rollout");
  return __real__ZN5slate11RuleRollout5applyESt10shared_ptrIKNS_14RoutingRuleSetEE(
      self, std::move(target));
}

// --- Counting allocator ------------------------------------------------------
//
// Replaces the global operator new/delete for this binary. Counting is
// gated by a flag so untimed-for-allocation passes pay one relaxed load.

void* operator new(std::size_t size) {
  slatebench::count_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  slatebench::count_alloc(size);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
