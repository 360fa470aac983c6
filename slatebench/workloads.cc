#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "app/builders.h"
#include "core/latency_model.h"
#include "net/gcp_topology.h"
#include "runtime/scenarios.h"
#include "topogen/topogen.h"
#include "workload/generators.h"

namespace slatebench {

using namespace slate;

namespace {

// The 30x200 world: topogen seed 11 gives 30 latency islands (every
// cluster pair is at least rtt_floor apart).
constexpr const char* kSynthSpec = "clusters=30,services=200,seed=11";

// Demand multipliers are drawn uniformly from [1 - kJitter, 1 + kJitter].
constexpr double kJitter = 0.02;

std::vector<double> draw_jitter(std::uint64_t seed, std::size_t cells) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  std::uniform_real_distribution<double> u(1.0 - kJitter, 1.0 + kJitter);
  std::vector<double> out(cells);
  for (double& x : out) x = u(rng);
  return out;
}

// Social-network rates: {read-timeline, write-post, view-profile} RPS.
constexpr double kSteadyHot[3] = {700.0, 140.0, 220.0};  // us-west1-or
constexpr double kSteadyCold[3] = {80.0, 20.0, 40.0};    // other regions
constexpr double kDiurnalBase[3] = {220.0, 44.0, 75.0};
constexpr double kDiurnalSwing = 0.8;    // amplitude as a share of base
constexpr double kDiurnalPeriodS = 20.0;  // one compressed day
constexpr const char* kSocialClasses[3] = {"read-timeline", "write-post",
                                           "view-profile"};

// Simulated lengths.
constexpr double kSocialDurationS = 60.0;
constexpr double kSocialWarmupS = 10.0;
constexpr double kSynthDurationS = 20.0;
constexpr double kSynthWarmupS = 2.0;
// Outage window of synth-outage: 30% of the run.
constexpr double kOutageStartS = 7.0;
constexpr double kOutageLengthS = 6.0;

Scenario social_world() {
  return make_uniform_scenario("social-network", make_social_network_app(),
                               make_gcp_topology(), 2);
}

// Cluster with the most offered load at t=0 (before jitter, so every seed
// loses the same cluster).
ClusterId busiest_cluster(const Scenario& s) {
  std::vector<double> load(s.topology->cluster_count(), 0.0);
  for (const auto& stream : s.demand.streams()) {
    load[stream.cluster.index()] += s.demand.rate_at(stream.cls, stream.cluster, 0.0);
  }
  return ClusterId{static_cast<std::size_t>(
      std::max_element(load.begin(), load.end()) - load.begin())};
}

// Per-(class, service) expected executions per request of the class.
FlatMatrix<double> visits_per_request(const Application& app) {
  FlatMatrix<double> v(app.class_count(), app.service_count(), 0.0);
  for (std::size_t k = 0; k < app.class_count(); ++k) {
    const CallGraph& g = app.traffic_class(ClassId{k}).graph;
    std::vector<double> execs(g.node_count(), 0.0);
    for (std::size_t n = 0; n < g.node_count(); ++n) {
      const CallNode& node = g.node(n);
      execs[n] = n == 0 ? 1.0 : execs[node.parent] * node.multiplicity;
      v(k, node.service.index()) += execs[n];
    }
  }
  return v;
}

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kSocialSteady, Workload::kSocialDiurnal,
                     Workload::kSynthOutage, Workload::kControl}) {
    if (name == to_string(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kSocialSteady: return "social-steady";
    case Workload::kSocialDiurnal: return "social-diurnal";
    case Workload::kSynthOutage: return "synth-outage";
    case Workload::kControl: return "control-30x200";
  }
  return "?";
}

std::size_t speedup_workers(Workload w) {
  return w == Workload::kSynthOutage ? 2 : 1;
}

SimInputs make_sim_inputs(Workload w, std::uint64_t seed) {
  SimInputs in;
  in.workload = w;
  in.seed = seed;
  std::size_t cells = 0;
  if (w == Workload::kSynthOutage) {
    cells = make_synth_scenario(parse_topogen_spec(kSynthSpec)).demand.streams().size();
  } else {
    cells = 3 * 4 * 2;  // classes x regions x {base, amplitude}
  }
  in.jitter = draw_jitter(seed, cells);
  return in;
}

Scenario build_sim_scenario(const SimInputs& in) {
  if (in.workload == Workload::kSynthOutage) {
    Scenario s = make_synth_scenario(parse_topogen_spec(kSynthSpec));
    const ClusterId down = busiest_cluster(s);
    DemandSchedule jittered;
    const auto& streams = s.demand.streams();
    for (std::size_t i = 0; i < streams.size(); ++i) {
      for (const RateStep& step : streams[i].steps) {
        jittered.add_step(streams[i].cls, streams[i].cluster, step.start_time,
                          step.rps * in.jitter[i]);
      }
    }
    s.demand = std::move(jittered);
    s.faults.cluster_outage(down, kOutageStartS, kOutageLengthS);
    return s;
  }

  Scenario s = social_world();
  const Application& app = *s.app;
  for (std::size_t k = 0; k < 3; ++k) {
    const ClassId cls = app.find_class(kSocialClasses[k]);
    for (std::size_t c = 0; c < 4; ++c) {
      const double j_base = in.jitter[(k * 4 + c) * 2];
      const double j_amp = in.jitter[(k * 4 + c) * 2 + 1];
      if (in.workload == Workload::kSocialSteady) {
        s.demand.set_rate(cls, ClusterId{c},
                          (c == 0 ? kSteadyHot[k] : kSteadyCold[k]) * j_base);
      } else {
        // Follow-the-sun: each region peaks a quarter-day after the one
        // west of it, so OR and IOW (and UT and SC) are in anti-phase.
        DiurnalSpec d;
        d.base = kDiurnalBase[k] * j_base;
        d.amplitude = d.base * kDiurnalSwing * j_amp;
        d.period = kDiurnalPeriodS;
        d.phase = kDiurnalPeriodS * static_cast<double>(c) / 4.0;
        d.end = kSocialDurationS + kDiurnalPeriodS;
        d.step = 0.5;
        add_diurnal(s.demand, cls, ClusterId{c}, d);
      }
    }
  }
  // Prices servers for the cost metric; the LP ignores the price unless
  // bilevel co-design arms its server-cost term.
  s.topology->set_uniform_server_price(0.10);
  return s;
}

RunConfig sim_config(const SimInputs& in, std::size_t workers) {
  RunConfig c;
  c.policy = PolicyKind::kSlate;
  c.seed = in.seed;
  c.shards = workers;
  c.control_period = 1.0;
  // Whole-run completion counts, for fault.useful_ratio (bookkeeping only).
  c.timeseries_bucket = 1.0;
  switch (in.workload) {
    case Workload::kSocialSteady:
      c.duration = kSocialDurationS;
      c.warmup = kSocialWarmupS;
      // A floor above the hot cells' Poisson swing (see resolve_floor_rps):
      // steady demand then solves once, at the controller's cold start,
      // instead of on noise blips whose count varies from seed to seed.
      c.slate.resolve_tolerance = 0.15;
      c.slate.resolve_floor_rps = 512.0;
      break;
    case Workload::kSocialDiurnal:
      c.duration = kSocialDurationS;
      c.warmup = kSocialWarmupS;
      c.slate.forecast.kind = ForecastKind::kHoltWinters;
      c.slate.forecast.season =
          static_cast<std::size_t>(kDiurnalPeriodS / c.control_period);
      // Guard stack on, without wall-budget enforcement: plans must not
      // depend on host speed.
      c.slate.guard.admission.enabled = true;
      c.slate.guard.solver.enabled = true;
      c.slate.guard.solver.enforce_budget = false;
      c.slate.guard.rollout.enabled = true;
      c.slate.guard.rollout.canary_periods = 1;
      c.autoscaler_enabled = true;
      c.autoscaler.evaluation_period = 2.0;
      c.autoscaler.provision_delay = 5.0;
      c.autoscaler.cooldown = 10.0;
      c.autoscaler.min_servers = 2;  // scale above the provisioned floor
      c.bilevel.enabled = true;
      break;
    case Workload::kSynthOutage:
      c.duration = kSynthDurationS;
      c.warmup = kSynthWarmupS;
      c.slate.resolve_tolerance = 0.15;
      c.slate.resolve_floor_rps = 128.0;
      c.failure.enabled = true;
      c.failure.call_timeout = 0.5;
      c.failure.max_retries = 2;
      c.overload.queue.max_queue = 128;
      c.overload.queue.codel_target = 0.05;
      c.overload.deadline.enabled = true;
      c.overload.deadline.default_deadline = 1.0;
      c.overload.breaker.enabled = true;
      c.admission.enabled = true;
      c.admission.default_rate = 400.0;
      c.admission.default_slo = 0.5;
      c.admission.target_attainment = 0.95;
      c.slate.contingency.enabled = true;
      break;
    case Workload::kControl:
      break;
  }
  return c;
}

Scenario build_control_scenario() {
  return make_synth_scenario(parse_topogen_spec(kSynthSpec));
}

GlobalControllerOptions control_options() {
  GlobalControllerOptions o;
  o.resolve_tolerance = 0.15;
  o.resolve_floor_rps = 48.0;
  o.guard.admission.enabled = true;
  o.guard.solver.enabled = true;
  o.guard.solver.enforce_budget = false;
  o.guard.rollout.enabled = true;
  o.guard.rollout.canary_periods = 1;
  o.forecast.kind = ForecastKind::kHoltWinters;
  o.forecast.season = 12;
  o.contingency.enabled = true;
  return o;
}

ControlInputs make_control_inputs(const Scenario& scenario, std::uint64_t seed) {
  const Application& app = *scenario.app;
  const Deployment& dep = *scenario.deployment;
  const std::size_t K = app.class_count();
  const std::size_t S = app.service_count();
  const std::size_t C = scenario.topology->cluster_count();
  const LatencyModel truth = LatencyModel::from_application(app, C);
  const FlatMatrix<double> visits = visits_per_request(app);

  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 29);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  // Demand walk: multiplicative drift every period, a step shift of a few
  // clusters every kShiftEvery periods, and Poisson-scale noise on what the
  // reports observe. The step schedule (which clusters, up or down) is the
  // same for every seed, so seeds vary the noise, not the amount of
  // control work.
  constexpr double kDrift = 0.02;
  constexpr std::size_t kShiftEvery = 8;
  constexpr std::size_t kShiftClusters = 4;
  constexpr double kShift = 1.2;
  FlatMatrix<double> d(K, C, 0.0);
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t c = 0; c < C; ++c) {
      d(k, c) = scenario.demand.rate_at(ClassId{k}, ClusterId{c}, 0.0) *
                (1.0 - kJitter + 2.0 * kJitter * unit(rng));
    }
  }
  const FlatMatrix<double> base = d;

  ControlInputs in;
  for (std::size_t p = 0; p < kControlPeriods; ++p) {
    for (std::size_t k = 0; k < K; ++k) {
      for (std::size_t c = 0; c < C; ++c) {
        // Drift, pulled back toward the base so demand stays bounded.
        const double pull = 0.1 * std::log(base(k, c) / std::max(d(k, c), 1e-9));
        d(k, c) *= std::exp(kDrift * normal(rng) + pull);
      }
    }
    if (p > 0 && p % kShiftEvery == 0) {
      const std::size_t step = p / kShiftEvery;
      const double f = step % 2 == 1 ? kShift : 1.0 / kShift;
      for (std::size_t i = 0; i < kShiftClusters; ++i) {
        const std::size_t c = ((step * kShiftClusters + i) * 7) % C;
        for (std::size_t k = 0; k < K; ++k) d(k, c) *= f;
      }
    }
    in.demand.push_back(d);

    const double t0 = static_cast<double>(p) * kControlPeriodS;
    const double t1 = t0 + kControlPeriodS;
    std::vector<ClusterReport> batch;
    batch.reserve(C);
    for (std::size_t c = 0; c < C; ++c) {
      ClusterReport r;
      r.cluster = ClusterId{c};
      r.period_start = t0;
      r.period_end = t1;
      r.ingress_rps.resize(K);
      r.e2e.resize(K);
      for (std::size_t k = 0; k < K; ++k) {
        const double x = d(k, c);
        r.ingress_rps[k] = std::max(0.0, x + std::sqrt(x) * normal(rng));
        const auto n = static_cast<std::uint64_t>(r.ingress_rps[k] * kControlPeriodS);
        r.e2e[k].count = n;
        r.e2e[k].mean_latency = 0.05 * (1.0 + 0.05 * normal(rng));
        r.e2e[k].p99_latency = 3.0 * r.e2e[k].mean_latency;
      }
      // Stations serve the cluster's own ingress (local execution), as an
      // M/M/c-like queue at the true service time.
      for (std::size_t s = 0; s < S; ++s) {
        const ServiceId svc{s};
        if (!dep.is_deployed(svc, ClusterId{c})) continue;
        const unsigned servers = dep.servers(svc, ClusterId{c});
        double busy = 0.0;
        for (std::size_t k = 0; k < K; ++k) {
          busy += r.ingress_rps[k] * visits(k, s) *
                  truth.service_time(svc, ClassId{k}, ClusterId{c});
        }
        const double util = std::min(busy / servers, 0.95);
        r.station_metrics.push_back(
            {svc, servers, util, util * util / (1.0 - util)});
        for (std::size_t k = 0; k < K; ++k) {
          const double rate = r.ingress_rps[k] * visits(k, s);
          if (rate <= 0.0) continue;
          const double st = truth.service_time(svc, ClassId{k}, ClusterId{c});
          ServiceClassMetrics m;
          m.service = svc;
          m.cls = ClassId{k};
          m.completed = static_cast<std::uint64_t>(rate * kControlPeriodS);
          m.started = m.completed;
          m.completion_rps = rate;
          m.mean_service_time = st;
          m.mean_latency = st / (1.0 - util);
          m.max_latency = 4.0 * m.mean_latency;
          r.request_metrics.push_back(m);
        }
      }
      batch.push_back(std::move(r));
    }
    in.reports.push_back(std::move(batch));
  }
  return in;
}

}  // namespace slatebench
