#include "core/plan_model.h"

#include <stdexcept>

namespace slate {

void validate_plan_model(const Application& app, const Deployment& deployment,
                         const Topology& topology,
                         const OptimizerOptions& options) {
  if (deployment.cluster_count() != topology.cluster_count()) {
    throw std::invalid_argument(
        "route planner: deployment/topology cluster count mismatch");
  }
  if (!(options.max_utilization > 0.0 && options.max_utilization < 1.0)) {
    throw std::invalid_argument(
        "route planner: max_utilization must be in (0,1)");
  }
  if (options.server_cost_weight > 0.0 &&
      !(options.server_price_target > 0.0 &&
        options.server_price_target < 1.0)) {
    throw std::invalid_argument(
        "route planner: server_price_target must be in (0,1)");
  }
  app.validate();
  deployment.validate();
}

std::vector<double> station_servers(const Application& app,
                                    const Deployment& deployment,
                                    const std::vector<unsigned>* live_servers) {
  const std::size_t C = deployment.cluster_count();
  std::vector<double> servers(app.service_count() * C, 0.0);
  for (std::size_t s = 0; s < app.service_count(); ++s) {
    for (std::size_t c = 0; c < C; ++c) {
      if (!deployment.is_deployed(ServiceId{s}, ClusterId{c})) continue;
      servers[s * C + c] = static_cast<double>(station_server_count(
          deployment, live_servers, ServiceId{s}, ClusterId{c}));
    }
  }
  return servers;
}

FlatMatrix<double> front_door_demand(const Application& app,
                                     const Deployment& deployment,
                                     const Topology& topology,
                                     const FlatMatrix<double>& demand,
                                     ClusterId failed) {
  const std::size_t K = app.class_count();
  const std::size_t C = deployment.cluster_count();
  if (demand.rows() != K || demand.cols() != C) {
    throw std::invalid_argument("route planner: demand matrix shape mismatch");
  }
  FlatMatrix<double> eff(K, C, 0.0);
  for (std::size_t k = 0; k < K; ++k) {
    const ServiceId entry = app.entry_service(ClassId{k});
    std::vector<ClusterId> entries = deployment.clusters_for(entry);
    std::erase(entries, failed);
    for (std::size_t c = 0; c < C; ++c) {
      const double d = demand(k, c);
      if (d <= 0.0) continue;
      if (ClusterId{c} != failed && deployment.is_deployed(entry, ClusterId{c})) {
        eff(k, c) += d;
      } else if (!entries.empty()) {
        eff(k, topology.nearest(ClusterId{c}, entries).index()) += d;
      }
    }
  }
  return eff;
}

WeightPlan::WeightPlan(const Application& app_in, const Deployment& deployment_in,
                       const Topology& topology_in,
                       const OptimizerOptions& options_in,
                       const LatencyModel& model_in,
                       const FlatMatrix<double>& demand,
                       const std::vector<unsigned>* live_servers)
    : app(app_in),
      deployment(deployment_in),
      topology(topology_in),
      options(options_in),
      model(model_in),
      C(deployment_in.cluster_count()),
      K(app_in.class_count()),
      S(app_in.service_count()),
      eff_demand(front_door_demand(app_in, deployment_in, topology_in, demand)),
      servers(station_servers(app_in, deployment_in, live_servers)),
      weights(K),
      arrivals(K),
      utilization(S * C, 0.0) {
  for (std::size_t k = 0; k < K; ++k) {
    const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
    const std::size_t N = graph.node_count();
    weights[k].assign(N, {});
    arrivals[k].assign(N, std::vector<double>(C, 0.0));
    for (std::size_t n = 1; n < N; ++n) {
      weights[k][n].assign(C * C, -1.0);
      const ServiceId svc = graph.node(n).service;
      const ServiceId parent_svc = graph.node(graph.node(n).parent).service;
      const auto candidates = deployment.clusters_for(svc);
      for (std::size_t i = 0; i < C; ++i) {
        if (!deployment.is_deployed(parent_svc, ClusterId{i})) continue;
        for (ClusterId j : candidates) weights[k][n][i * C + j.index()] = 0.0;
        const ClusterId home =
            home_cluster(deployment, topology, svc, ClusterId{i}, candidates);
        weights[k][n][i * C + home.index()] = 1.0;
      }
    }
  }
}

void WeightPlan::forward() {
  for (auto& u : utilization) u = 0.0;
  for (std::size_t k = 0; k < K; ++k) {
    const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
    for (std::size_t n = 0; n < graph.node_count(); ++n) {
      auto& a = arrivals[k][n];
      std::fill(a.begin(), a.end(), 0.0);
      if (n == 0) {
        for (std::size_t c = 0; c < C; ++c) a[c] = eff_demand(k, c);
      } else {
        const std::size_t p = graph.node(n).parent;
        const double mult = graph.node(n).multiplicity;
        for (std::size_t i = 0; i < C; ++i) {
          const double out = arrivals[k][p][i] * mult;
          if (out <= 0.0) continue;
          for (std::size_t j = 0; j < C; ++j) {
            const double w = weights[k][n][i * C + j];
            if (w > 0.0) a[j] += out * w;
          }
        }
      }
      const ServiceId svc = graph.node(n).service;
      for (std::size_t c = 0; c < C; ++c) {
        if (a[c] > 0.0) add_load(k, svc, c, a[c]);
      }
    }
  }
}

double WeightPlan::objective() const {
  double total = 0.0;
  for (std::size_t s = 0; s < S * C; ++s) {
    const double u = utilization[s];
    if (u <= 0.0) continue;
    total += servers[s] * (u + queue_cost(std::min(u, 0.999)));
  }
  for (std::size_t k = 0; k < K; ++k) {
    const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
    for (std::size_t n = 1; n < graph.node_count(); ++n) {
      const std::size_t p = graph.node(n).parent;
      const double mult = graph.node(n).multiplicity;
      for (std::size_t i = 0; i < C; ++i) {
        const double out = arrivals[k][p][i] * mult;
        if (out <= 0.0) continue;
        for (std::size_t j = 0; j < C; ++j) {
          if (i == j) continue;
          const double w = weights[k][n][i * C + j];
          if (w > 0.0) total += out * w * edge_cost(graph, n, i, j);
        }
      }
    }
  }
  return total;
}

OptimizerResult WeightPlan::package() const {
  OptimizerResult result;
  auto rules = std::make_shared<RoutingRuleSet>();
  for (std::size_t k = 0; k < K; ++k) {
    const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
    for (std::size_t n = 1; n < graph.node_count(); ++n) {
      const ServiceId parent_svc = graph.node(graph.node(n).parent).service;
      for (std::size_t i = 0; i < C; ++i) {
        if (!deployment.is_deployed(parent_svc, ClusterId{i})) continue;
        RouteWeights rule;
        for (std::size_t j = 0; j < C; ++j) {
          const double w = weights[k][n][i * C + j];
          if (w < 0.0) continue;
          rule.clusters.push_back(ClusterId{j});
          rule.weights.push_back(std::max(w, 0.0));
        }
        rule.normalize();
        rules->set_rule(ClassId{k}, n, ClusterId{i}, std::move(rule));
      }
    }
  }
  rules->validate();
  result.rules = std::move(rules);

  double total_demand = 0.0;
  for (double dem : eff_demand.data()) total_demand += dem;
  double latency = 0.0, egress = 0.0;
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t c = 0; c < C; ++c) {
      const double u = utilization[s * C + c];
      if (servers[s * C + c] <= 0.0) continue;
      result.station_plans.push_back(
          StationPlan{ServiceId{s}, ClusterId{c}, u, std::max(0.0, u - 1.0)});
      if (u > options.max_utilization + 1e-9) result.overloaded = true;
      latency += servers[s * C + c] * (u + queue_cost(std::min(u, 0.999)));
    }
  }
  for (std::size_t k = 0; k < K; ++k) {
    const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
    for (std::size_t n = 1; n < graph.node_count(); ++n) {
      const std::size_t p = graph.node(n).parent;
      const double mult = graph.node(n).multiplicity;
      for (std::size_t i = 0; i < C; ++i) {
        const double out = arrivals[k][p][i] * mult;
        if (out <= 0.0) continue;
        for (std::size_t j = 0; j < C; ++j) {
          if (i == j) continue;
          const double w = weights[k][n][i * C + j];
          if (w <= 0.0) continue;
          const EdgeTerms e =
              edge_terms(topology, graph.node(n), ClusterId{i}, ClusterId{j});
          latency += out * w * e.rtt;
          egress += out * w * e.dollars;
        }
      }
    }
  }
  result.predicted_mean_latency =
      total_demand > 0.0 ? latency / total_demand : 0.0;
  result.predicted_egress_dollars_per_sec = egress;
  return result;
}

}  // namespace slate
