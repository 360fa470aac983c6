// SLATE benchmark runner: one workload, one seed, one process.
//
//   slatebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <file.jsonl>]
//
// Repeats passes of the workload (world build, engine or controller
// construction, run) until --seconds have elapsed, checks every pass's
// outputs, and only then prints one JSON line: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. In a traced run every
// other pass records spans and counts heap allocations; the untraced passes
// in between give the tracing overhead. Host times are CPU time of the
// thread doing the work (see cpu_ns in probe.h); only sim.worker_speedup
// compares wall-clock run times. A failed check prints the reasons to
// stderr, a result with no metrics, and exits 1.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "calibrate.h"
#include "core/latency_model.h"
#include "core/plan_eval.h"
#include "core/routing_rules.h"
#include "probe.h"
#include "runtime/simulation.h"
#include "workloads.h"

namespace slatebench {
namespace {

using namespace slate;

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

// Linear-interpolated quantile of `v` (copied: sorts).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The simulated (deterministic per seed) end-to-end figures of one pass.
struct Outcome {
  double goodput_rps = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double cost_usd_per_kreq = 0.0;
  double success_share = 0.0;
  double plan_cost = 0.0;
  std::uint64_t events = 0;
  std::uint64_t pushes = 0;

  bool operator==(const Outcome&) const = default;
};

// One pass: its host times (thread CPU seconds, plus the wall-clock run
// time), simulated outcome, probe records and per-layer counters. Host
// times are as measured; end-to-end metrics divide them by the slowdown.
struct Pass {
  bool traced = false;
  double build_s = 0.0;
  double ctor_s = 0.0;
  double run_s = 0.0;
  double run_wall_s = 0.0;  // simulator passes only
  // Reference kernel time around the pass / kReferenceSeconds.
  double slowdown = 0.0;
  // run_s at the reference speed; control-30x200 scales each period on its
  // own, simulator passes take run_s / slowdown.
  double scaled_run_s = 0.0;
  Outcome out;
  std::vector<PeriodRecord> periods;
  std::vector<SpanRecord> spans;
  ExactSolveStats exact;
  AllocCount allocs;
  std::map<std::string, double> layer;  // per-layer counters
};

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

// Mean evaluate_plan_cost over the measured control periods, pricing the
// rule set in force at each period on the demand offered then, with the
// application's true service times.
double price_sim_plans(const Scenario& s, const RunConfig& cfg,
                       const std::vector<PushedRules>& pushed) {
  const std::size_t K = s.app->class_count();
  const std::size_t C = s.topology->cluster_count();
  const LatencyModel truth = LatencyModel::from_application(*s.app, C);
  FlatMatrix<double> demand(K, C, 0.0);
  double cost = 0.0;
  std::size_t periods = 0;
  std::size_t next = 0;
  const RoutingRuleSet* in_force = nullptr;
  for (double t = cfg.warmup; t < cfg.duration; t += cfg.control_period) {
    while (next < pushed.size() && pushed[next].now <= t) {
      in_force = pushed[next++].rules.get();
    }
    if (in_force == nullptr) continue;
    for (std::size_t k = 0; k < K; ++k) {
      for (std::size_t c = 0; c < C; ++c) {
        demand(k, c) = s.demand.rate_at(ClassId{k}, ClusterId{c}, t);
      }
    }
    cost += evaluate_plan_cost(*s.app, *s.deployment, *s.topology, truth,
                               demand, *in_force);
    ++periods;
  }
  return periods > 0 ? cost / static_cast<double>(periods) : 0.0;
}

double remote_share(const ExperimentResult& r) {
  double remote = 0.0, total = 0.0;
  for (const auto& per_class : r.flows) {
    for (const auto& m : per_class) {
      for (std::size_t i = 0; i < m.rows(); ++i) {
        for (std::size_t j = 0; j < m.cols(); ++j) {
          const auto x = static_cast<double>(m(i, j));
          total += x;
          if (i != j) remote += x;
        }
      }
    }
  }
  return total > 0.0 ? remote / total : 0.0;
}

Pass run_sim_pass(const SimInputs& in, std::size_t workers, bool traced,
                  Checks& checks) {
  set_tracing(traced);
  Pass p;
  p.traced = traced;
  std::optional<Span> pass_span(std::in_place, "pass");
  const std::int64_t t0 = cpu_ns();
  Scenario s;
  {
    Span span("scenario_build");
    s = build_sim_scenario(in);
  }
  const RunConfig cfg = sim_config(in, workers);
  const std::int64_t t1 = cpu_ns();
  std::optional<Simulation> sim;
  {
    Span span("sim_ctor");
    sim.emplace(s, cfg);
  }
  const std::int64_t t2 = cpu_ns();
  set_rule_capture(true);
  const AllocCount a0 = alloc_count();
  set_alloc_counting(traced);
  const std::int64_t w2 = now_ns();
  ExperimentResult r;
  {
    Span span("sim_run");
    r = sim->run();
  }
  const std::int64_t w3 = now_ns();
  set_alloc_counting(false);
  const std::int64_t t3 = cpu_ns();
  const AllocCount a1 = alloc_count();
  set_rule_capture(false);
  pass_span.reset();
  set_tracing(false);

  p.build_s = seconds_between(t0, t1);
  p.ctor_s = seconds_between(t1, t2);
  p.run_s = seconds_between(t2, t3);
  p.run_wall_s = seconds_between(w2, w3);
  p.allocs = {a1.count - a0.count, a1.bytes - a0.bytes};
  p.periods = take_periods();
  p.spans = take_spans();
  p.exact = take_exact_stats();
  const std::vector<PushedRules> pushed = take_pushed_rules();

  const std::string tag = std::string(to_string(in.workload)) + ": ";
  checks.expect(r.jobs_submitted == r.jobs_served + r.jobs_cancelled +
                                        r.jobs_evicted + r.jobs_in_flight_at_end,
                tag + "station conservation violated");
  if (cfg.admission.enabled) {
    checks.expect(r.generated == r.admission_admitted + r.admission_rejected,
                  tag + "door conservation violated");
  }
  checks.expect(r.completed > 0, tag + "no request completed");
  checks.expect(!pushed.empty(), tag + "controller never pushed rules");

  Outcome& o = p.out;
  o.goodput_rps = r.goodput_rps();
  o.latency_p50_ms = r.p50() * 1e3;
  o.latency_p99_ms = r.p99() * 1e3;
  o.cost_usd_per_kreq =
      r.completed > 0
          ? r.total_cost_dollars() / static_cast<double>(r.completed) * 1e3
          : 0.0;
  o.success_share = 1.0 - r.error_rate();
  o.plan_cost = price_sim_plans(s, cfg, pushed);
  o.events = r.sim_events;
  o.pushes = pushed.size();

  const double gen = std::max<double>(1.0, static_cast<double>(r.generated));
  double util_sum = 0.0, util_max = 0.0, util_n = 0.0;
  for (double u : r.station_utilization) {
    if (u < 0.0) continue;
    util_sum += u;
    util_max = std::max(util_max, u);
    util_n += 1.0;
  }
  const double lookahead = sim->lookahead_seconds();
  auto& L = p.layer;
  L["sim.events"] = static_cast<double>(r.sim_events);
  L["sim.islands"] = static_cast<double>(sim->island_count());
  L["sim.lookahead_ms"] = std::isfinite(lookahead) ? lookahead * 1e3 : 0.0;
  L["runtime.allocs"] = static_cast<double>(p.allocs.count);
  L["runtime.alloc_bytes"] = static_cast<double>(p.allocs.bytes);
  L["runtime.requests"] = gen;
  L["core.rounds"] = static_cast<double>(r.controller_rounds);
  L["core.solves"] = static_cast<double>(r.solver_solves);
  L["core.resolve_skips"] = static_cast<double>(r.solver_resolve_skips);
  L["core.solve_s"] = r.solver_total_seconds;
  L["core.rung_exact_cold"] = static_cast<double>(r.solver_exact_cold);
  L["core.rung_exact_warm"] = static_cast<double>(r.solver_exact_warm);
  L["core.rung_fast"] = static_cast<double>(r.solver_arm_fast);
  L["core.rung_ripup"] = static_cast<double>(r.solver_arm_ripup);
  L["core.rung_split"] = static_cast<double>(r.solver_arm_split);
  L["core.rung_hold"] = static_cast<double>(r.solver_arm_hold);
  L["core.rule_delta_mean"] = r.mean_rule_delta();
  L["guard.fields_rejected"] = static_cast<double>(r.guard_fields_rejected);
  L["guard.spikes_clamped"] = static_cast<double>(r.guard_spikes_clamped);
  L["guard.rollbacks"] = static_cast<double>(r.rollout_rollbacks);
  L["guard.damped_pushes"] = static_cast<double>(r.rollout_damped_pushes);
  L["forecast.smape"] = r.forecast_mean_smape;
  L["forecast.confidence"] = r.forecast_mean_confidence;
  L["contingency.evals"] = static_cast<double>(r.contingency_evals);
  L["contingency.resolves"] = static_cast<double>(r.contingency_resolves);
  L["contingency.margin_worst"] = r.contingency_margin_worst;
  L["bilevel.plans_pushed"] = static_cast<double>(r.bilevel_plans_pushed);
  L["bilevel.capacity_overrides"] =
      static_cast<double>(r.bilevel_capacity_overrides);
  L["cluster.scale_ups"] = static_cast<double>(r.autoscaler_scale_ups);
  L["cluster.scale_downs"] = static_cast<double>(r.autoscaler_scale_downs);
  L["cluster.server_s"] = r.server_seconds;
  L["cluster.util_mean"] = util_n > 0.0 ? util_sum / util_n : 0.0;
  L["cluster.util_max"] = util_max;
  L["admission.rejected_share"] =
      static_cast<double>(r.admission_rejected) / gen;
  L["overload.shed"] = static_cast<double>(r.total_shed());
  L["overload.deadline_cancels"] =
      static_cast<double>(r.deadline_cancellations);
  L["overload.wasted_server_s"] = r.wasted_server_seconds;
  double completed_all = 0.0;
  for (std::uint64_t n : r.completed_series) completed_all += static_cast<double>(n);
  L["fault.useful_ratio"] =
      completed_all / (gen + static_cast<double>(r.call_retries));
  L["fault.retries_per_req"] = static_cast<double>(r.call_retries) / gen;
  L["fault.timeouts"] = static_cast<double>(r.call_timeouts);
  L["fault.rejections"] = static_cast<double>(r.call_rejections);
  L["fault.budget_denials"] = static_cast<double>(r.retry_budget_denials);
  L["routing.remote_share"] = remote_share(r);
  L["net.egress_bytes_per_req"] = r.egress_bytes_per_request();
  return p;
}

constexpr int kControlSetups = 9;

Pass run_control_pass(const ControlInputs& in, bool traced, Checks& checks) {
  set_tracing(traced);
  Pass p;
  p.traced = traced;
  std::optional<Span> pass_span(std::in_place, "pass");
  // Set-up takes milliseconds against a pass of seconds, and a run has only
  // two or three passes, so each pass sets up several times and keeps the
  // median; the world and controller built last are the ones run. Each
  // set-up starts from a trimmed heap: otherwise the first pass's set-ups
  // fault in fresh pages and later ones reuse what the run before freed
  // (20 ms against 3 ms of controller construction), and with two passes
  // that decides the median.
  Scenario s;
  std::optional<GlobalController> ctl;
  std::vector<double> build_s, ctor_s;
  for (int i = 0; i < kControlSetups; ++i) {
    ctl.reset();
    malloc_trim(0);
    const std::int64_t t0 = cpu_ns();
    {
      Span span("scenario_build");
      s = build_control_scenario();
    }
    const std::int64_t t1 = cpu_ns();
    {
      Span span("controller_ctor");
      ctl.emplace(*s.app, *s.deployment, *s.topology, control_options());
    }
    build_s.push_back(seconds_between(t0, t1));
    ctor_s.push_back(seconds_between(t1, cpu_ns()));
  }

  const std::size_t K = s.app->class_count();
  const std::size_t C = s.topology->cluster_count();
  const LatencyModel truth = LatencyModel::from_application(*s.app, C);
  std::shared_ptr<const RoutingRuleSet> in_force;
  std::vector<double> latency_ms;
  double demand_served = 0.0, demand_total = 0.0, egress = 0.0, cost = 0.0;
  double delta_sum = 0.0;
  std::size_t priced = 0;
  // A pass runs for seconds, long enough for the machine's speed to change
  // within it, so the reference kernel is timed between every two periods.
  std::vector<double> kernel_s{time_reference_kernel()};
  const AllocCount a0 = alloc_count();
  for (std::size_t t = 0; t < in.reports.size(); ++t) {
    set_alloc_counting(traced);
    auto rules = ctl->on_reports(in.reports[t],
                                 static_cast<double>(t + 1) * kControlPeriodS);
    set_alloc_counting(false);
    kernel_s.push_back(time_reference_kernel());
    if (rules != nullptr) {
      checks.expect(ctl->last_result().ok() && rules->size() > 0,
                    "control-30x200: pushed a plan that is not ok or empty");
      ++p.out.pushes;
      if (in_force != nullptr) delta_sum += rule_set_distance(*in_force, *rules);
      in_force = std::move(rules);
    }
    double total = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      for (std::size_t c = 0; c < C; ++c) total += in.demand[t](k, c);
    }
    demand_total += total;
    if (in_force == nullptr) continue;
    const double c1 = evaluate_plan_cost(*s.app, *s.deployment, *s.topology,
                                         truth, in.demand[t], *in_force);
    const double c0 = evaluate_plan_cost(*s.app, *s.deployment, *s.topology,
                                         truth, in.demand[t], *in_force,
                                         nullptr, 0.0);
    demand_served += total;
    egress += c1 - c0;
    cost += c1;
    latency_ms.push_back(c0 / total * 1e3);
    ++priced;
  }
  const AllocCount a1 = alloc_count();
  pass_span.reset();
  set_tracing(false);

  p.build_s = median(build_s);
  p.ctor_s = median(ctor_s);
  p.periods = take_periods();
  for (std::size_t t = 0; t < p.periods.size() && t + 1 < kernel_s.size(); ++t) {
    PeriodRecord& rec = p.periods[t];
    rec.slowdown = (kernel_s[t] + kernel_s[t + 1]) / (2.0 * kReferenceSeconds);
    p.run_s += rec.host_s;
    p.scaled_run_s += rec.host_s / rec.slowdown;
  }
  p.spans = take_spans();
  p.exact = take_exact_stats();
  p.allocs = {a1.count - a0.count, a1.bytes - a0.bytes};

  checks.expect(p.periods.size() == in.reports.size(),
                "control-30x200: on_reports call count mismatch");
  checks.expect(priced > 0, "control-30x200: no plan was ever in force");

  const double periods = static_cast<double>(in.reports.size());
  const SolveTelemetry& tel = ctl->solve_telemetry();
  Outcome& o = p.out;
  o.goodput_rps = demand_served / periods;
  o.latency_p50_ms = quantile(latency_ms, 0.5);
  o.latency_p99_ms = quantile(latency_ms, 0.99);
  o.cost_usd_per_kreq = demand_served > 0.0 ? egress / demand_served * 1e3 : 0.0;
  o.success_share = 1.0 - static_cast<double>(ctl->solver_holds()) / periods;
  o.plan_cost = priced > 0 ? cost / static_cast<double>(priced) : 0.0;

  auto& L = p.layer;
  L["runtime.allocs"] = static_cast<double>(p.allocs.count);
  L["runtime.alloc_bytes"] = static_cast<double>(p.allocs.bytes);
  L["runtime.requests"] = periods;
  L["core.rounds"] = static_cast<double>(ctl->rounds());
  L["core.solves"] = static_cast<double>(tel.solves);
  L["core.resolve_skips"] = static_cast<double>(ctl->resolve_skips());
  L["core.solve_s"] = tel.total_seconds;
  L["core.rung_exact_cold"] = static_cast<double>(tel.exact_cold);
  L["core.rung_exact_warm"] = static_cast<double>(tel.exact_warm);
  L["core.rung_fast"] = static_cast<double>(tel.fast);
  L["core.rung_ripup"] = static_cast<double>(tel.ripup);
  L["core.rung_split"] = static_cast<double>(tel.split);
  L["core.rung_hold"] = static_cast<double>(tel.hold);
  L["core.rule_delta_mean"] = delta_sum / periods;
  if (const ReportValidator* v = ctl->validator()) {
    L["guard.fields_rejected"] = static_cast<double>(v->fields_rejected());
    L["guard.spikes_clamped"] = static_cast<double>(v->spikes_clamped());
  }
  if (const RuleRollout* ro = ctl->rollout()) {
    L["guard.rollbacks"] = static_cast<double>(ro->rollbacks());
    L["guard.damped_pushes"] = static_cast<double>(ro->damped_pushes());
  }
  if (const DemandForecaster* f = ctl->forecaster()) {
    L["forecast.smape"] = f->mean_smape();
    L["forecast.confidence"] = f->mean_confidence();
  }
  L["contingency.evals"] = static_cast<double>(ctl->contingency_evals());
  L["contingency.resolves"] = static_cast<double>(ctl->contingency_resolves());
  L["contingency.margin_worst"] = ctl->contingency_margin_worst();
  return p;
}

// Runs `pass` between two timings of the reference kernel (two runs each)
// and records how much slower than the reference speed the machine ran.
template <typename F>
Pass timed_pass(F&& pass) {
  auto kernel = [] {
    return time_reference_kernel() + time_reference_kernel();
  };
  const double before = kernel();
  Pass p = pass();
  p.slowdown = (before + kernel()) / (4.0 * kReferenceSeconds);
  if (p.scaled_run_s == 0.0) p.scaled_run_s = p.run_s / p.slowdown;
  for (PeriodRecord& rec : p.periods) {
    if (rec.slowdown == 0.0) rec.slowdown = p.slowdown;
  }
  return p;
}

// Fills caches and lets lazy set-up finish before the first timed pass:
// a short run of the same world, recorded nowhere.
void warm_up(Workload w, const SimInputs* sim_in, const ControlInputs* ctl_in) {
  (void)time_reference_kernel();
  if (w == Workload::kControl) {
    const Scenario s = build_control_scenario();
    GlobalController ctl(*s.app, *s.deployment, *s.topology, control_options());
    for (std::size_t t = 0; t < 10; ++t) {
      (void)ctl.on_reports(ctl_in->reports[t],
                           static_cast<double>(t + 1) * kControlPeriodS);
    }
  } else {
    const Scenario s = build_sim_scenario(*sim_in);
    RunConfig cfg = sim_config(*sim_in, 1);
    cfg.duration = cfg.warmup + 2.0;
    (void)run_experiment(s, cfg);
  }
  (void)take_periods();
  (void)take_spans();
  (void)take_exact_stats();
}

// --- Metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Per-period host ms spent in each probed stage of the traced passes, and
// the share of on_reports time its direct children account for.
struct StageTimes {
  std::map<std::string, double> ms_per_period;
  double coverage = 0.0;
};

StageTimes stage_times(const std::vector<const Pass*>& traced) {
  StageTimes st;
  double on_reports_s = 0.0, children_s = 0.0, periods = 0.0;
  for (const Pass* p : traced) {
    std::map<std::uint32_t, const SpanRecord*> by_id;
    for (const SpanRecord& s : p->spans) by_id[s.id] = &s;
    for (const SpanRecord& s : p->spans) {
      const std::string name = s.name;
      if (name == "on_reports") {
        on_reports_s += s.seconds();
        periods += 1.0;
        continue;
      }
      st.ms_per_period[name] += s.seconds() * 1e3;
      const auto parent = by_id.find(s.parent);
      if (parent != by_id.end() &&
          std::strcmp(parent->second->name, "on_reports") == 0) {
        children_s += s.seconds();
      }
    }
  }
  for (auto& [name, ms] : st.ms_per_period) ms /= std::max(periods, 1.0);
  st.coverage = on_reports_s > 0.0 ? children_s / on_reports_s : 0.0;
  return st;
}

// Control latency counts the periods that ran the solver. Skip and hold
// periods cost well under a millisecond and form a second mode whose share
// sits near the p50 or p90 rank on some workloads, which would make those
// quantiles flip between modes from seed to seed.
std::vector<Metric> end_to_end(const std::vector<Pass>& passes,
                               double sim_seconds_per_pass) {
  std::vector<double> setup, run, control_ms;
  for (const Pass& p : passes) {
    setup.push_back((p.build_s + p.ctor_s) / p.slowdown);
    run.push_back(p.scaled_run_s);
    for (const PeriodRecord& rec : p.periods) {
      if (rec.solved) {
        control_ms.push_back(rec.host_s * 1e3 / rec.slowdown);
      }
    }
  }
  const Outcome& o = passes.front().out;
  return {
      {"setup_s", median(setup), "s"},
      {"host_s_per_sim_s", median(run) / sim_seconds_per_pass, "s/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"control_ms_p50", quantile(control_ms, 0.5), "ms"},
      {"control_ms_p90", quantile(control_ms, 0.9), "ms"},
      {"goodput_rps", o.goodput_rps, "1/s"},
      {"latency_p50_ms", o.latency_p50_ms, "ms"},
      {"latency_p99_ms", o.latency_p99_ms, "ms"},
      {"cost_usd_per_kreq", o.cost_usd_per_kreq, "USD/kreq"},
      {"success_share", o.success_share, "share"},
      {"plan_cost", o.plan_cost, "cost"},
  };
}

std::vector<Metric> per_layer(const std::vector<Pass>& passes,
                              double worker_speedup) {
  std::vector<const Pass*> traced;
  std::vector<double> build, ctor, run_traced, slowdown;
  std::vector<double> scaled_traced, scaled_plain;
  for (const Pass& p : passes) {
    slowdown.push_back(p.slowdown);
    if (p.traced) {
      traced.push_back(&p);
      build.push_back(p.build_s);
      ctor.push_back(p.ctor_s);
      run_traced.push_back(p.run_s);
      scaled_traced.push_back(p.scaled_run_s);
    } else {
      scaled_plain.push_back(p.scaled_run_s);
    }
  }
  const Pass& t = *traced.front();
  auto layer = [&](const char* name) {
    const auto it = t.layer.find(name);
    return it != t.layer.end() ? it->second : 0.0;
  };
  const StageTimes st = stage_times(traced);
  auto stage = [&](const char* name) {
    const auto it = st.ms_per_period.find(name);
    return it != st.ms_per_period.end() ? it->second : 0.0;
  };
  const double run_s = median(run_traced);
  std::vector<double> solve_s;
  for (const Pass* p : traced) solve_s.push_back(p->layer.at("core.solve_s"));
  const double requests = layer("runtime.requests");
  const double events = layer("sim.events");
  const double rounds = layer("core.rounds");
  const ExactSolveStats& ex = t.exact;
  return {
      {"runtime.scenario_build_s", median(build), "s"},
      {"runtime.sim_ctor_s", median(ctor), "s"},
      {"runtime.run_s", run_s, "s"},
      {"runtime.slowdown", median(slowdown), "ratio"},
      {"runtime.allocs_per_req", layer("runtime.allocs") / requests, "count"},
      {"runtime.alloc_bytes_per_req", layer("runtime.alloc_bytes") / requests, "B"},
      {"sim.events", events, "count"},
      {"sim.events_per_host_s", events / run_s, "1/s"},
      {"sim.allocs_per_event",
       events > 0.0 ? layer("runtime.allocs") / events : 0.0, "count"},
      {"sim.islands", layer("sim.islands"), "count"},
      {"sim.lookahead_ms", layer("sim.lookahead_ms"), "ms"},
      {"sim.worker_speedup", worker_speedup, "ratio"},
      {"core.rounds", rounds, "count"},
      {"core.solves", layer("core.solves"), "count"},
      {"core.resolve_skips", layer("core.resolve_skips"), "count"},
      {"core.solve_ratio", rounds > 0.0 ? layer("core.solves") / rounds : 0.0,
       "ratio"},
      {"core.solve_s", median(solve_s), "s"},
      {"core.solve_share", median(solve_s) / run_s, "ratio"},
      {"core.rung_exact_cold", layer("core.rung_exact_cold"), "count"},
      {"core.rung_exact_warm", layer("core.rung_exact_warm"), "count"},
      {"core.rung_fast", layer("core.rung_fast"), "count"},
      {"core.rung_ripup", layer("core.rung_ripup"), "count"},
      {"core.rung_split", layer("core.rung_split"), "count"},
      {"core.rung_hold", layer("core.rung_hold"), "count"},
      {"core.fit_ms", stage("core.fit"), "ms"},
      {"core.solve_exact_ms", stage("core.solve_exact"), "ms"},
      {"core.solve_fast_ms", stage("core.solve_fast"), "ms"},
      {"core.solve_ripup_ms", stage("core.solve_ripup"), "ms"},
      {"core.warm_group_share",
       ex.solve_groups > 0 ? static_cast<double>(ex.warm_groups) /
                                 static_cast<double>(ex.solve_groups)
                           : 0.0,
       "ratio"},
      {"core.rule_delta_mean", layer("core.rule_delta_mean"), "L1"},
      {"lp.pivots_per_solve",
       ex.calls > 0 ? static_cast<double>(ex.pivots) /
                          static_cast<double>(ex.calls)
                    : 0.0,
       "count"},
      {"guard.validate_ms", stage("guard.admit"), "ms"},
      {"guard.rollout_ms", stage("guard.rollout"), "ms"},
      {"guard.fields_rejected", layer("guard.fields_rejected"), "count"},
      {"guard.spikes_clamped", layer("guard.spikes_clamped"), "count"},
      {"guard.rollbacks", layer("guard.rollbacks"), "count"},
      {"guard.damped_pushes", layer("guard.damped_pushes"), "count"},
      {"forecast.step_ms", stage("forecast.step"), "ms"},
      {"forecast.smape", layer("forecast.smape"), "ratio"},
      {"forecast.confidence", layer("forecast.confidence"), "ratio"},
      {"contingency.headroom_ms", stage("contingency.headroom"), "ms"},
      {"contingency.evals", layer("contingency.evals"), "count"},
      {"contingency.resolves", layer("contingency.resolves"), "count"},
      {"contingency.margin_worst", layer("contingency.margin_worst"), "ratio"},
      {"bilevel.plans_pushed", layer("bilevel.plans_pushed"), "count"},
      {"bilevel.capacity_overrides", layer("bilevel.capacity_overrides"), "count"},
      {"cluster.scale_ups", layer("cluster.scale_ups"), "count"},
      {"cluster.scale_downs", layer("cluster.scale_downs"), "count"},
      {"cluster.server_s", layer("cluster.server_s"), "s"},
      {"cluster.util_mean", layer("cluster.util_mean"), "ratio"},
      {"cluster.util_max", layer("cluster.util_max"), "ratio"},
      {"admission.rejected_share", layer("admission.rejected_share"), "ratio"},
      {"overload.shed", layer("overload.shed"), "count"},
      {"overload.deadline_cancels", layer("overload.deadline_cancels"), "count"},
      {"overload.wasted_server_s", layer("overload.wasted_server_s"), "s"},
      {"fault.useful_ratio", layer("fault.useful_ratio"), "ratio"},
      {"fault.retries_per_req", layer("fault.retries_per_req"), "count"},
      {"fault.timeouts", layer("fault.timeouts"), "count"},
      {"fault.rejections", layer("fault.rejections"), "count"},
      {"fault.budget_denials", layer("fault.budget_denials"), "count"},
      {"routing.remote_share", layer("routing.remote_share"), "ratio"},
      {"net.egress_bytes_per_req", layer("net.egress_bytes_per_req"), "B"},
      {"trace.overhead_share",
       median(scaled_traced) / median(scaled_plain) - 1.0, "ratio"},
      {"trace.coverage", st.coverage, "ratio"},
  };
}

void write_spans(const std::string& path, const std::vector<Pass>& passes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "slatebench: cannot write %s\n", path.c_str());
    return;
  }
  for (const Pass& p : passes) {
    for (const SpanRecord& s : p.spans) {
      std::fprintf(f,
                   "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld}\n",
                   s.id, s.parent, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  std::fclose(f);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Args {
  Workload workload = Workload::kSocialSteady;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      if (!parse_workload(val, &a->workload)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else if (key == "--trace-out") {
      a->trace_out = val;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

int run(const Args& args) {
  Checks checks;
  std::vector<Pass> passes;
  const bool control = args.workload == Workload::kControl;
  double sim_seconds = 0.0;
  double worker_speedup = 1.0;

  // Inputs are generated from the seed before any timing.
  std::optional<SimInputs> sim_in;
  std::optional<ControlInputs> ctl_in;
  if (control) {
    ctl_in.emplace(make_control_inputs(build_control_scenario(), args.seed));
    sim_seconds = static_cast<double>(kControlPeriods) * kControlPeriodS;
  } else {
    sim_in.emplace(make_sim_inputs(args.workload, args.seed));
    sim_seconds = sim_config(*sim_in, 1).duration;
  }

  warm_up(args.workload, sim_in ? &*sim_in : nullptr,
          ctl_in ? &*ctl_in : nullptr);
  const std::int64_t start = now_ns();
  for (std::size_t i = 0;; ++i) {
    // Traced runs alternate: untraced, traced, untraced, ...
    const bool traced = args.trace && i % 2 == 1;
    passes.push_back(timed_pass([&] {
      return control ? run_control_pass(*ctl_in, traced, checks)
                     : run_sim_pass(*sim_in, 1, traced, checks);
    }));
    const Pass& p = passes.back();
    checks.expect(std::any_of(p.periods.begin(), p.periods.end(),
                              [](const PeriodRecord& r) { return r.solved; }),
                  "a pass never ran the solver");
    std::fprintf(stderr,
                 "slatebench: pass %zu%s build %.4f s ctor %.4f s run %.4f s "
                 "(wall %.4f s, scaled %.4f s) slowdown %.3f periods %zu\n",
                 i, traced ? " (traced)" : "", p.build_s, p.ctor_s, p.run_s,
                 p.run_wall_s, p.scaled_run_s, p.slowdown, p.periods.size());
    if (passes.size() >= 2 && seconds_between(start, now_ns()) >= args.seconds) {
      break;
    }
  }

  std::size_t failed_passes = 0;
  for (const Pass& p : passes) {
    if (!(p.out == passes.front().out)) ++failed_passes;
  }
  checks.expect(failed_passes == 0,
                "simulated metrics differ across passes of one seed");

  const std::size_t extra = speedup_workers(args.workload);
  if (args.trace && extra > 1) {
    // Shard-count invariance, and what the extra workers buy.
    const Pass many = timed_pass(
        [&] { return run_sim_pass(*sim_in, extra, false, checks); });
    checks.expect(many.out == passes.front().out,
                  "multi-worker pass differs from the 1-worker passes");
    std::vector<double> one;
    for (const Pass& p : passes) {
      if (!p.traced) one.push_back(p.run_wall_s / p.slowdown);
    }
    worker_speedup = median(one) / (many.run_wall_s / many.slowdown);
  }

  if (!checks.ok()) {
    for (const std::string& f : checks.failures()) {
      std::fprintf(stderr, "slatebench: check failed: %s\n", f.c_str());
    }
    print_result(false, passes.size(), std::max<std::size_t>(failed_passes, 1), {});
    return 1;
  }

  if (args.trace && !args.trace_out.empty()) write_spans(args.trace_out, passes);
  print_result(true, passes.size(), 0,
               args.trace ? per_layer(passes, worker_speedup)
                          : end_to_end(passes, sim_seconds));
  return 0;
}

}  // namespace
}  // namespace slatebench

int main(int argc, char** argv) {
  slatebench::Args args;
  if (!slatebench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: slatebench --workload "
                 "<social-steady|social-diurnal|synth-outage|control-30x200> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  try {
    return slatebench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slatebench: %s\n", e.what());
    return 1;
  }
}
