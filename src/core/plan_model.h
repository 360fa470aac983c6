// The plan-cost model every route planner shares (paper §3.3, DESIGN.md §4).
//
// The global controller minimizes one objective: latency-seconds per second
// (compute, queueing, network RTT per crossing) plus cost_weight x egress
// dollars per second, with stations planned at or below max_utilization
// (both OptimizerOptions fields). The exact LP (optimizer.h), the descent
// and rip-up heuristics, the plan evaluator (plan_eval.h), the N-1 headroom
// check and the solver guard's capacity split all take that model's shared
// decisions from here:
//
//   * the per-call edge cost: RTT both ways plus cost_weight x egress $;
//   * front-door anycast of demand entering a cluster without the entry;
//   * station server counts, the live override winning where reported;
//   * the local-else-nearest home cluster of a call with no rule.
//
// WeightPlan is the heuristics' shared state in rule space; each heuristic
// keeps only its own search loop over it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/optimizer.h"
#include "lp/piecewise.h"

namespace slate {

// Throws std::invalid_argument unless `options` can price a plan
// (max_utilization in (0,1); server_price_target in (0,1) when server
// pricing is armed) and `deployment` spans `topology`'s clusters. Also runs
// the application's and deployment's own validation.
void validate_plan_model(const Application& app, const Deployment& deployment,
                         const Topology& topology,
                         const OptimizerOptions& options);

// One call of `node` crossing from cluster i to cluster j: the round-trip
// network latency and the egress dollars of its request and response.
struct EdgeTerms {
  double rtt = 0.0;
  double dollars = 0.0;
};

inline EdgeTerms edge_terms(const Topology& topology, const CallNode& node,
                            ClusterId i, ClusterId j) {
  return {topology.one_way_latency(i, j) + topology.one_way_latency(j, i),
          (static_cast<double>(node.request_bytes) *
               topology.egress_price_per_gb(i, j) +
           static_cast<double>(node.response_bytes) *
               topology.egress_price_per_gb(j, i)) /
              kBytesPerGb};
}

// Objective seconds one crossing call adds to the plan.
inline double edge_cost(const Topology& topology, const CallNode& node,
                        ClusterId i, ClusterId j, double cost_weight) {
  const EdgeTerms e = edge_terms(topology, node, i, j);
  return e.rtt + cost_weight * e.dollars;
}

// The live server count reported for `station` (service * cluster_count +
// cluster), or 0 when none is: no vector, an index past its end, or 0.
inline unsigned live_servers_at(const std::vector<unsigned>* live_servers,
                                std::size_t station) {
  return live_servers != nullptr && station < live_servers->size()
             ? (*live_servers)[station]
             : 0;
}

// Servers at station (s, c): the live count where one is reported, else
// the deployment's.
inline unsigned station_server_count(const Deployment& deployment,
                                     const std::vector<unsigned>* live_servers,
                                     ServiceId s, ClusterId c) {
  const unsigned live = live_servers_at(
      live_servers, s.index() * deployment.cluster_count() + c.index());
  return live > 0 ? live : deployment.servers(s, c);
}

// station_server_count of every station, indexed service * cluster_count +
// cluster; 0 where the service is not deployed.
std::vector<double> station_servers(const Application& app,
                                    const Deployment& deployment,
                                    const std::vector<unsigned>* live_servers);

// Front-door anycast: the classes x clusters demand each entry cluster
// serves. Demand entering a cluster that lacks the class's entry service
// moves to the nearest cluster that has it. With `failed` set, that cluster
// counts as holding no service, and demand left with no entry cluster is
// lost. Throws std::invalid_argument on a demand matrix of the wrong shape.
FlatMatrix<double> front_door_demand(const Application& app,
                                     const Deployment& deployment,
                                     const Topology& topology,
                                     const FlatMatrix<double>& demand,
                                     ClusterId failed = ClusterId{});

// Where a call from `from` to `service` lands without a rule: locally when
// the service is deployed there, else at the nearest of `candidates` (the
// data plane's own fallback).
inline ClusterId home_cluster(const Deployment& deployment,
                              const Topology& topology, ServiceId service,
                              ClusterId from,
                              const std::vector<ClusterId>& candidates) {
  return deployment.is_deployed(service, from)
             ? from
             : topology.nearest(from, candidates);
}

// A heuristic's working plan in rule space. weights[k][n][i * C + j] is the
// share of class-k calls of node n from cluster i served in cluster j (-1
// where j cannot serve them; rows exist for n >= 1 only), starting at the
// home cluster. arrivals and utilization are what the weights imply after
// forward(). FastRouteOptimizer descends on it; RipupRouteOptimizer
// negotiates, sheds and polishes on it.
struct WeightPlan {
  WeightPlan(const Application& app, const Deployment& deployment,
             const Topology& topology, const OptimizerOptions& options,
             const LatencyModel& model, const FlatMatrix<double>& demand,
             const std::vector<unsigned>* live_servers);

  // Recomputes arrivals and utilizations from the weights.
  void forward();

  // Exact objective at the current weights: compute + queueing + network +
  // weighted egress (latency-seconds per second).
  [[nodiscard]] double objective() const;

  [[nodiscard]] double edge_cost(const CallGraph& graph, std::size_t n,
                                 std::size_t i, std::size_t j) const {
    return slate::edge_cost(topology, graph.node(n), ClusterId{i},
                            ClusterId{j}, options.cost_weight);
  }

  // Marginal cost of one more class-k call at station (svc, j): its compute
  // time there plus the queue-cost slope at the capped utilization.
  [[nodiscard]] double marginal_cost(std::size_t k, ServiceId svc,
                                     std::size_t j) const {
    const double st = model.service_time(svc, ClassId{k}, ClusterId{j});
    const double u =
        std::min(utilization[svc.index() * C + j], options.max_utilization);
    return st * (1.0 + queue_cost_derivative(u));
  }

  // Adds `rate` class-k calls per second (negative removes) to (svc, j).
  void add_load(std::size_t k, ServiceId svc, std::size_t j, double rate) {
    utilization[svc.index() * C + j] +=
        rate * model.service_time(svc, ClassId{k}, ClusterId{j}) /
        servers[svc.index() * C + j];
  }

  // Moves `delta` of knob (k, n, i)'s weight from `from` to `to`, carrying
  // its share of the knob's `out` calls per second along.
  void shift(std::size_t k, const CallGraph& graph, std::size_t n,
             std::size_t i, double out, std::size_t from, std::size_t to,
             double delta) {
    std::vector<double>& w = weights[k][n];
    w[i * C + from] -= delta;
    w[i * C + to] += delta;
    const ServiceId svc = graph.node(n).service;
    add_load(k, svc, from, -(out * delta));
    add_load(k, svc, to, out * delta);
  }

  // One marginal-cost descent sweep: every knob with flow moves
  // step_of(weight there) from its costliest destination holding more than
  // `used_above` of its weight to its cheapest, by marginal plus edge cost.
  // Utilizations follow each move, so later knobs see earlier ones.
  template <class StepOf>
  void descent_sweep(double used_above, StepOf step_of);

  // Rules, station plans, overload flag and predicted metrics of the
  // current weights (run forward() first). Status, objective and iteration
  // count are the caller's.
  [[nodiscard]] OptimizerResult package() const;

  const Application& app;
  const Deployment& deployment;
  const Topology& topology;
  const OptimizerOptions& options;
  const LatencyModel& model;
  std::size_t C, K, S;
  FlatMatrix<double> eff_demand;  // K x C, after front-door anycast
  std::vector<double> servers;    // s * C + c
  std::vector<std::vector<std::vector<double>>> weights;   // [k][n][i * C + j]
  std::vector<std::vector<std::vector<double>>> arrivals;  // [k][n][c]
  std::vector<double> utilization;                         // s * C + c
};

template <class StepOf>
void WeightPlan::descent_sweep(double used_above, StepOf step_of) {
  for (std::size_t k = 0; k < K; ++k) {
    const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
    for (std::size_t n = 1; n < graph.node_count(); ++n) {
      const std::size_t p = graph.node(n).parent;
      const ServiceId svc = graph.node(n).service;
      for (std::size_t i = 0; i < C; ++i) {
        const double out = arrivals[k][p][i] * graph.node(n).multiplicity;
        if (out <= 0.0) continue;
        const std::vector<double>& w = weights[k][n];
        double cheapest_cost = 0.0, costliest_cost = 0.0;
        std::size_t cheapest = C, costliest = C;
        for (std::size_t j = 0; j < C; ++j) {
          if (w[i * C + j] < 0.0) continue;
          double cost = marginal_cost(k, svc, j);
          if (i != j) cost += edge_cost(graph, n, i, j);
          if (cheapest == C || cost < cheapest_cost) {
            cheapest_cost = cost;
            cheapest = j;
          }
          if (w[i * C + j] > used_above &&
              (costliest == C || cost > costliest_cost)) {
            costliest_cost = cost;
            costliest = j;
          }
        }
        if (cheapest == C || costliest == C || cheapest == costliest) continue;
        if (costliest_cost - cheapest_cost <= 1e-12) continue;
        shift(k, graph, n, i, out, costliest, cheapest,
              step_of(w[i * C + costliest]));
      }
    }
  }
}

}  // namespace slate
