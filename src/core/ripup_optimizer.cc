#include "core/ripup_optimizer.h"

#include <algorithm>

#include "core/plan_model.h"

namespace slate {

RipupRouteOptimizer::RipupRouteOptimizer(const Application& app,
                                         const Deployment& deployment,
                                         const Topology& topology,
                                         RipupOptions options,
                                         const OptimizerOptions& plan)
    : app_(&app),
      deployment_(&deployment),
      topology_(&topology),
      plan_(plan),
      options_(options) {
  validate_plan_model(app, deployment, topology, plan_);
}

OptimizerResult RipupRouteOptimizer::optimize(
    const LatencyModel& model, const FlatMatrix<double>& demand,
    const std::vector<unsigned>* live_servers) const {
  const std::size_t C = deployment_->cluster_count();
  const std::size_t K = app_->class_count();
  const std::size_t S = app_->service_count();
  const double cap = plan_.max_utilization;
  // Weights are fractional in the plan (so the load-shedding sweep can
  // split), but the negotiation rounds only ever write 0/1. Routes start
  // local where deployed, else nearest (the data plane's own fallback), so
  // round 0 prices reflect the do-nothing plan.
  WeightPlan d(*app_, *deployment_, *topology_, plan_, model, demand,
               live_servers);
  std::vector<double> history(S * C, 0.0);  // s * C + c

  // Negotiated price of serving class k's node n at cluster j: base cost
  // (compute time + queue slope at the capped utilization) inflated by
  // present congestion, plus the station's accumulated history.
  auto station_price = [&](std::size_t k, ServiceId svc, std::size_t j) {
    const double over = std::max(0.0, d.utilization[svc.index() * C + j] - cap);
    return d.marginal_cost(k, svc, j) * (1.0 + options_.present_weight * over) +
           history[svc.index() * C + j];
  };
  // The first destination a knob routes to, C when it routes nowhere.
  auto current_of = [&](const std::vector<double>& w, std::size_t i) {
    for (std::size_t j = 0; j < C; ++j) {
      if (w[i * C + j] > 0.0) return j;
    }
    return C;
  };

  // --- Negotiation rounds --------------------------------------------------
  d.forward();
  double best_objective = d.objective();
  auto best_weights = d.weights;
  std::size_t rounds = 0;
  bool settled = false;

  for (; rounds < options_.max_rounds; ++rounds) {
    // Rip up and reroute every knob at current prices. Utilization is
    // updated incrementally so later knobs in the same round see the moves
    // of earlier ones — that ordering is what lets one of two contending
    // classes yield within a single round.
    bool changed = false;
    for (std::size_t k = 0; k < K; ++k) {
      const CallGraph& graph = app_->traffic_class(ClassId{k}).graph;
      for (std::size_t n = 1; n < graph.node_count(); ++n) {
        const std::size_t p = graph.node(n).parent;
        const ServiceId svc = graph.node(n).service;
        for (std::size_t i = 0; i < C; ++i) {
          const double out = d.arrivals[k][p][i] * graph.node(n).multiplicity;
          if (out <= 0.0) continue;
          auto& w = d.weights[k][n];
          const std::size_t current = current_of(w, i);
          // Rip up: remove this knob's load from its station so its own
          // congestion does not bias the re-route.
          if (current != C) d.add_load(k, svc, current, -out);
          std::size_t best_j = C;
          double best_price = 0.0;
          for (std::size_t j = 0; j < C; ++j) {
            if (w[i * C + j] < 0.0) continue;
            double price = station_price(k, svc, j);
            if (i != j) price += d.edge_cost(graph, n, i, j);
            if (best_j == C || price < best_price) {
              best_price = price;
              best_j = j;
            }
          }
          if (best_j == C) best_j = current;  // cannot happen post-validate
          if (best_j != current) {
            changed = true;
            if (current != C) w[i * C + current] = 0.0;
            w[i * C + best_j] = 1.0;
          }
          d.add_load(k, svc, best_j, out);
        }
      }
    }

    // Re-derive arrivals (downstream edges shift with upstream reroutes) and
    // score the round against the best seen.
    d.forward();
    const double now = d.objective();
    if (now < best_objective) {
      best_objective = now;
      best_weights = d.weights;
    }
    if (!changed) {
      settled = true;
      break;
    }

    // Bump history for stations still over the cap: persistent contention
    // gets durably expensive, which is what breaks reroute oscillations.
    for (std::size_t s = 0; s < S * C; ++s) {
      const double over = d.utilization[s] - cap;
      if (over > 0.0) history[s] += options_.history_increment * over / cap;
    }
  }

  // --- Load-shedding split sweep -------------------------------------------
  // All-or-nothing routing can leave a station over the cap when no single
  // destination fits the whole flow. One fractional sweep: shift the excess
  // share of each knob feeding an over-cap station onto its cheapest
  // under-cap alternative.
  d.weights = best_weights;
  d.forward();
  for (std::size_t k = 0; k < K; ++k) {
    const CallGraph& graph = app_->traffic_class(ClassId{k}).graph;
    for (std::size_t n = 1; n < graph.node_count(); ++n) {
      const std::size_t p = graph.node(n).parent;
      const ServiceId svc = graph.node(n).service;
      for (std::size_t i = 0; i < C; ++i) {
        const double out = d.arrivals[k][p][i] * graph.node(n).multiplicity;
        if (out <= 0.0) continue;
        const auto& w = d.weights[k][n];
        const std::size_t current = current_of(w, i);
        if (current == C) continue;
        const double over = d.utilization[svc.index() * C + current] - cap;
        if (over <= 0.0) continue;
        // Cheapest alternative with headroom.
        std::size_t alt = C;
        double alt_price = 0.0;
        for (std::size_t j = 0; j < C; ++j) {
          if (j == current || w[i * C + j] < 0.0) continue;
          if (d.utilization[svc.index() * C + j] >= cap) continue;
          double price = station_price(k, svc, j);
          if (i != j) price += d.edge_cost(graph, n, i, j);
          if (alt == C || price < alt_price) {
            alt_price = price;
            alt = j;
          }
        }
        if (alt == C) continue;  // global overload: nothing has headroom
        // This knob's share of the station's utilization, and the fraction
        // of it that must move to bring the station back to the cap.
        const double knob_u =
            out * w[i * C + current] *
            model.service_time(svc, ClassId{k}, ClusterId{current}) /
            d.servers[svc.index() * C + current];
        if (knob_u <= 0.0) continue;
        const double frac = std::min(1.0, over / knob_u) * w[i * C + current];
        d.shift(k, graph, n, i, out, current, alt, frac);
      }
    }
  }
  d.forward();
  const double shed_objective = d.objective();
  if (shed_objective < best_objective) {
    best_objective = shed_objective;
    best_weights = d.weights;
  } else {
    d.weights = best_weights;
    d.forward();
  }

  // --- Fractional polish ----------------------------------------------------
  // Negotiation finds the right coarse structure, but stations are sized for
  // fractional spreading and 0/1 assignment concentrates whole flows; the
  // residual gap vs the exact LP grows with cluster count. Bounded
  // marginal-cost descent from the negotiated plan recovers the splits. The
  // marginal price here is the clean base + edge cost — no present-weight
  // inflation or history, those are negotiation devices.
  double prev_objective = best_objective;
  double step = options_.polish_step;
  for (std::size_t sweep = 0; sweep < options_.polish_sweeps; ++sweep) {
    d.descent_sweep(1e-12, [&](double w) { return step * w; });
    d.forward();
    const double now = d.objective();
    if (now < best_objective) {
      best_objective = now;
      best_weights = d.weights;
    }
    if (now >= prev_objective * (1.0 - options_.polish_tolerance)) {
      // Stalled or overshot: back off the step and restart from the best
      // plan rather than abandoning the phase on one bad sweep.
      step *= 0.5;
      if (step < options_.polish_step / 16.0) break;
      d.weights = best_weights;
      d.forward();
      prev_objective = best_objective;
    } else {
      prev_objective = now;
    }
  }
  d.weights = best_weights;
  d.forward();

  OptimizerResult result = d.package();
  result.status = settled ? LpStatus::kOptimal : LpStatus::kIterationLimit;
  result.objective = best_objective;
  result.simplex_stats.iterations = rounds;
  return result;
}

}  // namespace slate
