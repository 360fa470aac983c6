#include "contingency/headroom_planner.h"

#include <algorithm>

#include "core/plan_model.h"

namespace slate {

HeadroomPlanner::HeadroomPlanner(const Application& app,
                                 const Deployment& deployment,
                                 const Topology& topology)
    : app_(&app), deployment_(&deployment), topology_(&topology) {}

double HeadroomPlanner::failure_max_utilization(
    const LatencyModel& model, const FlatMatrix<double>& demand,
    const RoutingRuleSet& rules, const std::vector<unsigned>* live_servers,
    ClusterId failed) const {
  const std::size_t C = deployment_->cluster_count();
  const std::size_t K = app_->class_count();
  const std::size_t S = app_->service_count();
  const std::size_t f = failed.index();
  // Root arrivals: front-door anycast over alive entry clusters. Demand
  // with no alive entry left is lost, not rerouted.
  const FlatMatrix<double> eff_demand =
      front_door_demand(*app_, *deployment_, *topology_, demand, failed);

  auto alive_subset = [&](const std::vector<ClusterId>& clusters) {
    std::vector<ClusterId> alive;
    alive.reserve(clusters.size());
    for (ClusterId c : clusters) {
      if (c.index() != f) alive.push_back(c);
    }
    return alive;
  };

  std::vector<double> utilization(S * C, 0.0);

  for (std::size_t k = 0; k < K; ++k) {
    const CallGraph& graph = app_->traffic_class(ClassId{k}).graph;
    const std::size_t N = graph.node_count();
    std::vector<std::vector<double>> arrivals(N, std::vector<double>(C, 0.0));
    for (std::size_t c = 0; c < C; ++c) arrivals[0][c] = eff_demand(k, c);

    for (std::size_t n = 0; n < N; ++n) {
      if (n > 0) {
        const std::size_t p = graph.node(n).parent;
        const double mult = graph.node(n).multiplicity;
        const ServiceId svc = graph.node(n).service;
        const auto alive = alive_subset(deployment_->clusters_for(svc));
        for (std::size_t i = 0; i < C; ++i) {
          const double out = arrivals[p][i] * mult;
          if (out <= 0.0) continue;
          // arrivals at the failed cluster are zero by construction, so
          // i != f here and every source cluster is alive.
          if (alive.empty()) continue;  // last candidate died: flow is lost
          const ClusterId nearest_alive = topology_->nearest(ClusterId{i}, alive);
          const RouteWeights* rule = rules.find(ClassId{k}, n, ClusterId{i});
          if (rule != nullptr && !rule->empty()) {
            for (std::size_t wi = 0; wi < rule->clusters.size(); ++wi) {
              const double w = rule->weights[wi];
              if (w <= 0.0) continue;
              const std::size_t j = rule->clusters[wi].index();
              // Weight on the failed cluster lands on the nearest alive
              // candidate, exactly like the data plane's forced re-pick.
              arrivals[n][j == f ? nearest_alive.index() : j] += out * w;
            }
          } else {
            const ClusterId j =
                (i != f && deployment_->is_deployed(svc, ClusterId{i}))
                    ? ClusterId{i}
                    : nearest_alive;
            arrivals[n][j.index()] += out;
          }
        }
      }
      const ServiceId svc = graph.node(n).service;
      for (std::size_t c = 0; c < C; ++c) {
        if (arrivals[n][c] <= 0.0 || c == f) continue;
        utilization[svc.index() * C + c] +=
            arrivals[n][c] *
            model.service_time(svc, ClassId{k}, ClusterId{c}) /
            static_cast<double>(station_server_count(
                *deployment_, live_servers, svc, ClusterId{c}));
      }
    }
  }

  double max_util = 0.0;
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t c = 0; c < C; ++c) {
      if (c == f) continue;
      max_util = std::max(max_util, utilization[s * C + c]);
    }
  }
  return max_util;
}

double HeadroomPlanner::worst_case_margin(
    const LatencyModel& model, const FlatMatrix<double>& demand,
    const RoutingRuleSet& rules, const std::vector<unsigned>* live_servers,
    ClusterId* worst) const {
  const std::size_t C = deployment_->cluster_count();
  double margin = 0.0;
  for (std::size_t f = 0; f < C; ++f) {
    const double u = failure_max_utilization(model, demand, rules,
                                             live_servers, ClusterId{f});
    if (u > margin) {
      margin = u;
      if (worst != nullptr) *worst = ClusterId{f};
    }
  }
  return margin;
}

}  // namespace slate
