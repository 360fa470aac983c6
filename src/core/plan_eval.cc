#include "core/plan_eval.h"

#include <algorithm>

#include "core/plan_model.h"
#include "lp/piecewise.h"

namespace slate {

double evaluate_plan_cost(const Application& app, const Deployment& deployment,
                          const Topology& topology, const LatencyModel& model,
                          const FlatMatrix<double>& demand,
                          const RoutingRuleSet& rules,
                          const std::vector<unsigned>* live_servers,
                          double cost_weight) {
  const std::size_t C = deployment.cluster_count();
  const std::size_t K = app.class_count();
  const std::size_t S = app.service_count();
  const FlatMatrix<double> eff_demand =
      front_door_demand(app, deployment, topology, demand);
  const std::vector<double> servers =
      station_servers(app, deployment, live_servers);

  std::vector<double> utilization(S * C, 0.0);
  double network_cost = 0.0;

  for (std::size_t k = 0; k < K; ++k) {
    const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
    const std::size_t N = graph.node_count();
    std::vector<std::vector<double>> arrivals(N, std::vector<double>(C, 0.0));
    for (std::size_t c = 0; c < C; ++c) arrivals[0][c] = eff_demand(k, c);

    for (std::size_t n = 0; n < N; ++n) {
      if (n > 0) {
        const std::size_t p = graph.node(n).parent;
        const double mult = graph.node(n).multiplicity;
        const ServiceId svc = graph.node(n).service;
        const auto candidates = deployment.clusters_for(svc);
        for (std::size_t i = 0; i < C; ++i) {
          const double out = arrivals[p][i] * mult;
          if (out <= 0.0) continue;
          const RouteWeights* rule = rules.find(ClassId{k}, n, ClusterId{i});
          if (rule != nullptr && !rule->empty()) {
            for (std::size_t wi = 0; wi < rule->clusters.size(); ++wi) {
              const double w = rule->weights[wi];
              if (w <= 0.0) continue;
              const ClusterId j = rule->clusters[wi];
              arrivals[n][j.index()] += out * w;
              if (j.index() != i) {
                network_cost += out * w *
                                edge_cost(topology, graph.node(n), ClusterId{i},
                                          j, cost_weight);
              }
            }
          } else {
            // No rule: the data plane serves locally or at the nearest
            // deployment.
            const ClusterId j =
                home_cluster(deployment, topology, svc, ClusterId{i}, candidates);
            arrivals[n][j.index()] += out;
            if (j.index() != i) {
              network_cost += out * edge_cost(topology, graph.node(n),
                                              ClusterId{i}, j, cost_weight);
            }
          }
        }
      }
      const ServiceId svc = graph.node(n).service;
      for (std::size_t c = 0; c < C; ++c) {
        if (arrivals[n][c] <= 0.0) continue;
        utilization[svc.index() * C + c] +=
            arrivals[n][c] * model.service_time(svc, ClassId{k}, ClusterId{c}) /
            servers[svc.index() * C + c];
      }
    }
  }

  double station_cost = 0.0;
  for (std::size_t s = 0; s < S * C; ++s) {
    const double u = utilization[s];
    if (u <= 0.0) continue;
    station_cost += servers[s] * (u + queue_cost(std::min(u, 0.999)));
  }
  return station_cost + network_cost;
}

}  // namespace slate
