// Tests for the global routing optimizer — the paper's four questions:
// how much to offload, to which cluster, where in the topology, and which
// traffic classes (§3, §4).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "app/builders.h"
#include "contingency/headroom_planner.h"
#include "core/fast_optimizer.h"
#include "core/optimizer.h"
#include "core/plan_eval.h"
#include "core/ripup_optimizer.h"
#include "net/gcp_topology.h"
#include "runtime/scenarios.h"
#include "topogen/topogen.h"
#include "util/rng.h"

namespace slate {
namespace {

FlatMatrix<double> demand_for(const Scenario& scenario) {
  FlatMatrix<double> d(scenario.app->class_count(),
                       scenario.topology->cluster_count(), 0.0);
  for (const auto& stream : scenario.demand.streams()) {
    d(stream.cls.index(), stream.cluster.index()) =
        scenario.demand.rate_at(stream.cls, stream.cluster, 0.0);
  }
  return d;
}

OptimizerResult optimize_scenario(const Scenario& scenario,
                                  OptimizerOptions options = {}) {
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology, options);
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  return optimizer.optimize(model, demand_for(scenario));
}

// Share of node-n class-k traffic from cluster `from` routed to `to`.
double rule_weight(const OptimizerResult& result, ClassId k, std::size_t node,
                   ClusterId from, ClusterId to) {
  const RouteWeights* rule = result.rules->find(k, node, from);
  return rule == nullptr ? 0.0 : rule->weight_for(to);
}

// --- Basic sanity ------------------------------------------------------------

TEST(Optimizer, UnderloadedStaysFullyLocal) {
  TwoClusterChainParams params;
  params.west_rps = 200.0;  // far below the ~475 capacity
  params.east_rps = 100.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.overloaded);
  const ClassId k{0};
  for (std::size_t node = 1; node <= 3; ++node) {
    EXPECT_NEAR(rule_weight(result, k, node, ClusterId{0}, ClusterId{0}), 1.0,
                1e-6)
        << "node " << node;
    EXPECT_NEAR(rule_weight(result, k, node, ClusterId{1}, ClusterId{1}), 1.0,
                1e-6);
  }
}

TEST(Optimizer, WeightsFormDistributions) {
  TwoClusterChainParams params;
  params.west_rps = 800.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  result.rules->for_each([](ClassId, std::size_t, ClusterId,
                            const RouteWeights& w) {
    double total = 0.0;
    for (double weight : w.weights) {
      EXPECT_GE(weight, -1e-9);
      total += weight;
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  });
}

TEST(Optimizer, OverloadedWestOffloads) {
  TwoClusterChainParams params;
  params.west_rps = 800.0;  // west alone can serve ~475
  params.east_rps = 100.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  // Some west traffic must cross at the first routable hop.
  const double local = rule_weight(result, ClassId{0}, 1, ClusterId{0}, ClusterId{0});
  EXPECT_LT(local, 0.9);
  EXPECT_GT(local, 0.2);  // but not everything: offload only what helps
  // East traffic stays home: east is underloaded.
  EXPECT_NEAR(rule_weight(result, ClassId{0}, 1, ClusterId{1}, ClusterId{1}), 1.0,
              1e-6);
}

TEST(Optimizer, RespectsMaxUtilization) {
  TwoClusterChainParams params;
  params.west_rps = 800.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  OptimizerOptions options;
  options.max_utilization = 0.9;
  const OptimizerResult result = optimize_scenario(scenario, options);
  ASSERT_TRUE(result.ok());
  for (const auto& plan : result.station_plans) {
    EXPECT_LE(plan.utilization, 0.9 + 1e-6)
        << "service " << plan.service << " cluster " << plan.cluster;
  }
}

TEST(Optimizer, GlobalOverloadSetsFlagInsteadOfFailing) {
  TwoClusterChainParams params;
  params.west_rps = 3000.0;  // beyond combined capacity (~1425)
  params.east_rps = 500.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());  // soft overflow keeps the LP feasible
  EXPECT_TRUE(result.overloaded);
}

TEST(Optimizer, NeverRoutesToUndeployedCluster) {
  AnomalyParams params;
  const Scenario scenario = make_anomaly_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  // DB (node 2) exists only in East (cluster 1): no rule may weight West.
  result.rules->for_each([&](ClassId, std::size_t node, ClusterId,
                             const RouteWeights& w) {
    if (node == 2) {
      EXPECT_DOUBLE_EQ(w.weight_for(ClusterId{0}), 0.0);
    }
  });
}

// --- The four §3 questions -----------------------------------------------------

// Q1 "how much": higher network latency means keeping more local (Fig. 4).
TEST(Optimizer, OffloadShrinksWithNetworkLatency) {
  double previous_local = -1.0;
  for (double rtt : {5e-3, 25e-3, 50e-3}) {
    TwoClusterChainParams params;
    params.rtt = rtt;
    params.west_rps = 700.0;
    const Scenario scenario = make_two_cluster_chain_scenario(params);
    const OptimizerResult result = optimize_scenario(scenario);
    ASSERT_TRUE(result.ok());
    const double local =
        rule_weight(result, ClassId{0}, 1, ClusterId{0}, ClusterId{0});
    EXPECT_GE(local, previous_local - 1e-6) << "rtt " << rtt;
    previous_local = local;
  }
}

// Q2 "which cluster": greedy floods UT; the optimizer also uses SC (Fig. 5b).
TEST(Optimizer, UsesDistantClusterWhenNearestIsTight) {
  GcpChainParams params;
  params.rps[0] = 800.0;  // OR overloaded
  params.rps[1] = 100.0;  // UT light
  params.rps[2] = 800.0;  // IOW overloaded
  params.rps[3] = 100.0;  // SC light
  params.servers[0] = 1;
  params.servers[1] = 1;
  params.servers[2] = 1;
  params.servers[3] = 1;
  const Scenario scenario = make_gcp_chain_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  // Combined overload (1600 into ~475/cluster) forces spreading: SC must
  // receive a nontrivial share of some overloaded cluster's traffic.
  const ClassId k{0};
  double to_sc = 0.0;
  for (std::size_t node = 1; node <= 3; ++node) {
    to_sc += rule_weight(result, k, node, ClusterId{0}, ClusterId{3});
    to_sc += rule_weight(result, k, node, ClusterId{2}, ClusterId{3});
  }
  EXPECT_GT(to_sc, 0.05);
  // And UT must not be planned past the utilization cap.
  for (const auto& plan : result.station_plans) {
    if (plan.cluster == ClusterId{1}) {
      EXPECT_LE(plan.utilization, 0.95 + 1e-6);
    }
  }
}

// Q3 "where in the topology": with partial replication and a 10x response
// blow-up deeper in the tree, the cheap cut is FR -> MP, not MP -> DB
// (Fig. 5c). A cost-aware optimizer must route West's MP calls to East.
TEST(Optimizer, CutsEarlyToAvoidExpensiveEdge) {
  AnomalyParams params;
  params.west_rps = 200.0;
  const Scenario scenario = make_anomaly_scenario(params);
  OptimizerOptions options;
  options.cost_weight = 100.0;  // administrator values egress cost
  const OptimizerResult result = optimize_scenario(scenario, options);
  ASSERT_TRUE(result.ok());
  // West FR should send its MP calls (node 1) to East...
  EXPECT_GT(rule_weight(result, ClassId{0}, 1, ClusterId{0}, ClusterId{1}), 0.9);
  // ...so MP -> DB (node 2) stays local in East.
  EXPECT_GT(rule_weight(result, ClassId{0}, 2, ClusterId{1}, ClusterId{1}), 0.99);
}

// Q4 "which classes": the expensive class is offloaded preferentially
// (Fig. 5d).
TEST(Optimizer, OffloadsExpensiveClassFirst) {
  TwoClassParams params;
  params.west_light_rps = 400.0;
  params.west_heavy_rps = 80.0;  // work: 0.4 + 0.8 -> overload
  const Scenario scenario = make_two_class_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  const ClassId light = scenario.app->find_class("L");
  const ClassId heavy = scenario.app->find_class("H");
  const double light_remote =
      1.0 - rule_weight(result, light, 1, ClusterId{0}, ClusterId{0});
  const double heavy_remote =
      1.0 - rule_weight(result, heavy, 1, ClusterId{0}, ClusterId{0});
  // The heavy class crosses at a higher rate than the light class: moving
  // one H frees 10x the capacity of moving one L at the same network price.
  EXPECT_GT(heavy_remote, light_remote + 0.2);
}

// --- Cost/latency trade-off ------------------------------------------------------

TEST(Optimizer, CostWeightKeepsTrafficLocal) {
  // §4.1: "if an administrator values cost over latency, an optimal request
  // routing system should reflect it by keeping more traffic local".
  TwoClusterChainParams params;
  params.west_rps = 650.0;  // moderately overloaded
  const Scenario scenario = make_two_cluster_chain_scenario(params);

  OptimizerOptions cheap;
  cheap.cost_weight = 0.0;
  const OptimizerResult latency_only = optimize_scenario(scenario, cheap);

  OptimizerOptions costly;
  costly.cost_weight = 1e7;  // egress dollars dominate
  const OptimizerResult cost_averse = optimize_scenario(scenario, costly);

  ASSERT_TRUE(latency_only.ok() && cost_averse.ok());
  EXPECT_LE(cost_averse.predicted_egress_dollars_per_sec,
            latency_only.predicted_egress_dollars_per_sec + 1e-12);
  const double local_latency_only =
      rule_weight(latency_only, ClassId{0}, 1, ClusterId{0}, ClusterId{0});
  const double local_cost_averse =
      rule_weight(cost_averse, ClassId{0}, 1, ClusterId{0}, ClusterId{0});
  EXPECT_GE(local_cost_averse, local_latency_only - 1e-6);
}

// --- Structural / conservation properties ------------------------------------------

class OptimizerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerPropertyTest, PlansAreConsistent) {
  Rng rng(500 + static_cast<std::uint64_t>(GetParam()));
  TwoClusterChainParams params;
  params.west_rps = rng.uniform(100.0, 900.0);
  params.east_rps = rng.uniform(50.0, 400.0);
  params.rtt = rng.uniform(5e-3, 60e-3);
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());

  // Every rule is a probability distribution over deployed clusters.
  result.rules->for_each([&](ClassId, std::size_t, ClusterId,
                             const RouteWeights& w) {
    double total = 0.0;
    for (double weight : w.weights) total += weight;
    EXPECT_NEAR(total, 1.0, 1e-6);
  });

  // Total planned work equals total offered work (no traffic lost): the sum
  // of station utilization * servers * (1/service_time) over the chain's
  // stations must equal demand at each chain stage.
  const double total_demand = params.west_rps + params.east_rps;
  const ServiceId svc1 = scenario.app->find_service("svc-1");
  double planned_rps = 0.0;
  for (const auto& plan : result.station_plans) {
    if (plan.service == svc1) {
      const double mu =
          scenario.deployment->servers(plan.service, plan.cluster) /
          scenario.app->traffic_class(ClassId{0}).graph.node(1).compute_time_mean;
      planned_rps += plan.utilization * mu;
    }
  }
  EXPECT_NEAR(planned_rps, total_demand, total_demand * 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerPropertyTest, ::testing::Range(0, 15));

// --- Integer (all-or-nothing) mode ---------------------------------------------------

TEST(Optimizer, IntegerModeGivesPointMassRules) {
  TwoClusterChainParams params;
  params.west_rps = 400.0;
  params.east_rps = 100.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  OptimizerOptions options;
  options.integer_routes = true;
  const OptimizerResult result = optimize_scenario(scenario, options);
  ASSERT_TRUE(result.ok());
  result.rules->for_each([](ClassId, std::size_t, ClusterId,
                            const RouteWeights& w) {
    for (double weight : w.weights) {
      EXPECT_TRUE(weight < 1e-6 || weight > 1.0 - 1e-6)
          << "fractional weight " << weight << " in integer mode";
    }
  });
}

TEST(Optimizer, DemandAtClusterWithoutEntryReassigned) {
  TwoClusterChainParams params;
  params.west_rps = 300.0;
  params.east_rps = 100.0;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  const ServiceId ingress = scenario.app->find_service("ingress");
  scenario.deployment->undeploy(ingress, ClusterId{0});

  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  // West's 300 RPS is planned as if entering East; the East ingress station
  // carries the whole 400 RPS.
  for (const auto& plan : result.station_plans) {
    if (plan.service == ingress) {
      EXPECT_EQ(plan.cluster, ClusterId{1});
    }
  }
}

TEST(Optimizer, MultiplicityScalesPlannedLoad) {
  Application app;
  const ServiceId front = app.add_service("front");
  const ServiceId backend = app.add_service("backend");
  TrafficClassSpec spec;
  spec.name = "multi";
  const std::size_t root = spec.graph.set_root(front, 1e-3, 128, 128);
  spec.graph.add_call(root, backend, 1e-3, 128, 128, /*multiplicity=*/3.0);
  app.add_class(std::move(spec));
  Scenario scenario = make_uniform_scenario(
      "multi", std::move(app), make_two_cluster_topology(10e-3), 2);
  scenario.demand.set_rate(ClassId{0}, ClusterId{0}, 100.0);

  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  // backend work = 300 calls/s * 1ms / 2 servers = 0.15 total utilization
  // across clusters (front adds 100 * 1ms / 2 = 0.05).
  double backend_util = 0.0;
  for (const auto& plan : result.station_plans) {
    if (plan.service == backend) backend_util += plan.utilization;
  }
  EXPECT_NEAR(backend_util, 0.15, 1e-6);
}

TEST(Optimizer, LiveServerOverrideChangesPlan) {
  TwoClusterChainParams params;
  params.west_rps = 600.0;
  params.east_rps = 100.0;
  params.west_servers = 2;  // static deployment says 2
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology);
  const LatencyModel model = LatencyModel::from_application(*scenario.app, 2);
  FlatMatrix<double> demand(1, 2, 0.0);
  demand(0, 0) = 600.0;
  demand(0, 1) = 100.0;

  const OptimizerResult with_static = optimizer.optimize(model, demand);
  ASSERT_TRUE(with_static.ok());
  // West (2 servers = 1000 RPS capacity, u = 0.6) serves mostly locally
  // (a small offload is optimal: it relieves all three chain stations for
  // one crossing).
  const RouteWeights* rule = with_static.rules->find(ClassId{0}, 1, ClusterId{0});
  ASSERT_NE(rule, nullptr);
  const double static_local = rule->weight_for(ClusterId{0});
  EXPECT_GT(static_local, 0.8);

  // Live feedback: West's svc-1 lost a replica (autoscale-down / failure).
  std::vector<unsigned> live(scenario.app->service_count() * 2, 0);
  live[scenario.app->find_service("svc-1").index() * 2 + 0] = 1;
  const OptimizerResult with_live = optimizer.optimize(model, demand, &live);
  ASSERT_TRUE(with_live.ok());
  const RouteWeights* live_rule =
      with_live.rules->find(ClassId{0}, 1, ClusterId{0});
  ASSERT_NE(live_rule, nullptr);
  // 600 RPS on one 500-RPS server violates the utilization cap: the plan
  // must offload much more than with the stale 2-server view.
  EXPECT_LT(live_rule->weight_for(ClusterId{0}), 0.8);
  EXPECT_LT(live_rule->weight_for(ClusterId{0}), static_local - 0.1);
}

TEST(Optimizer, PredictedEgressMatchesHandComputation) {
  // One-hop app, all traffic forced cross-cluster (service only remote):
  // egress $/s must equal rate * (req * p + resp * p) / GiB exactly.
  Application app;
  const ServiceId front = app.add_service("front");
  const ServiceId backend = app.add_service("backend");
  TrafficClassSpec spec;
  spec.name = "k";
  const std::size_t root = spec.graph.set_root(front, 1e-3, 0, 0);
  spec.graph.add_call(root, backend, 1e-3, 1000, 9000);
  app.add_class(std::move(spec));

  Topology topo = make_two_cluster_topology(20e-3, 0.10);
  Scenario scenario;
  scenario.app = std::make_unique<Application>(std::move(app));
  scenario.topology = std::make_unique<Topology>(std::move(topo));
  scenario.deployment = std::make_unique<Deployment>(*scenario.app, 2);
  scenario.deployment->deploy(front, ClusterId{0}, 1, 1000.0);
  scenario.deployment->deploy(front, ClusterId{1}, 1, 1000.0);
  scenario.deployment->deploy(backend, ClusterId{1}, 1, 1000.0);  // East only
  scenario.demand.set_rate(ClassId{0}, ClusterId{0}, 100.0);

  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  const double expected =
      100.0 * (1000.0 + 9000.0) * 0.10 / (1024.0 * 1024.0 * 1024.0);
  EXPECT_NEAR(result.predicted_egress_dollars_per_sec, expected,
              expected * 1e-6);
}

TEST(Optimizer, PredictedLatencyIncludesRttOncePerCrossing) {
  // Same forced-remote app with negligible compute: predicted mean latency
  // ~= compute + rtt (request there + response back).
  Application app;
  const ServiceId front = app.add_service("front");
  const ServiceId backend = app.add_service("backend");
  TrafficClassSpec spec;
  spec.name = "k";
  const std::size_t root = spec.graph.set_root(front, 0.1e-3, 0, 0);
  spec.graph.add_call(root, backend, 0.1e-3, 64, 64);
  app.add_class(std::move(spec));

  Scenario scenario;
  scenario.app = std::make_unique<Application>(std::move(app));
  scenario.topology =
      std::make_unique<Topology>(make_two_cluster_topology(40e-3, 0.0));
  scenario.deployment = std::make_unique<Deployment>(*scenario.app, 2);
  scenario.deployment->deploy(front, ClusterId{0}, 4, 4000.0);
  scenario.deployment->deploy(backend, ClusterId{1}, 4, 4000.0);
  scenario.demand.set_rate(ClassId{0}, ClusterId{0}, 100.0);

  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  // 0.2ms compute + tiny queueing + 40ms RTT.
  EXPECT_NEAR(result.predicted_mean_latency, 40.3e-3, 0.5e-3);
}

// --- Misc -------------------------------------------------------------------------

TEST(Optimizer, ReportsProblemSize) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.variables, 0);
  EXPECT_GT(result.constraints, 0);
  EXPECT_GT(result.simplex_stats.iterations, 0u);
  EXPECT_GT(result.predicted_mean_latency, 0.0);
}

TEST(Optimizer, DemandShapeMismatchThrows) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology);
  const LatencyModel model =
      LatencyModel::from_application(*scenario.app, 2);
  FlatMatrix<double> wrong(3, 3, 0.0);
  EXPECT_THROW(optimizer.optimize(model, wrong), std::invalid_argument);
}

TEST(Optimizer, BadOptionsThrow) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  OptimizerOptions options;
  options.max_utilization = 1.5;
  EXPECT_THROW(RouteOptimizer(*scenario.app, *scenario.deployment,
                              *scenario.topology, options),
               std::invalid_argument);
}

// --- Warm start & per-class decomposition ------------------------------------

Scenario synth_world(double shared_fraction = 0.25) {
  TopoGenOptions options;
  options.seed = 9;
  options.clusters = 6;
  options.services = 20;
  options.classes = 4;
  options.total_rps = 500.0;
  options.shared_fraction = shared_fraction;
  return make_synth_scenario(options);
}

void expect_identical_rules(const OptimizerResult& a,
                            const OptimizerResult& b) {
  std::size_t rules = 0;
  a.rules->for_each([&](ClassId k, std::size_t node, ClusterId origin,
                        const RouteWeights& w) {
    ++rules;
    const RouteWeights* other = b.rules->find(k, node, origin);
    ASSERT_NE(other, nullptr);
    ASSERT_EQ(other->clusters.size(), w.clusters.size());
    for (std::size_t d = 0; d < w.clusters.size(); ++d) {
      EXPECT_EQ(other->clusters[d].index(), w.clusters[d].index());
      EXPECT_EQ(other->weights[d], w.weights[d]);  // bit-for-bit
    }
  });
  EXPECT_GT(rules, 0u);
}

TEST(OptimizerWarmStart, UnchangedDemandIsBitForBit) {
  const Scenario scenario = synth_world();
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology);
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  const FlatMatrix<double> demand = demand_for(scenario);

  OptimizerCache cache;
  const OptimizerResult cold =
      optimizer.optimize(model, demand, nullptr, &cache);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.warm_started);

  const OptimizerResult warm =
      optimizer.optimize(model, demand, nullptr, &cache);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(cache.memo_hits, 1u);
  EXPECT_EQ(warm.objective, cold.objective);  // bit-for-bit, not NEAR
  expect_identical_rules(cold, warm);
}

TEST(OptimizerWarmStart, PerturbedDemandMatchesColdSolve) {
  const Scenario scenario = synth_world();
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology);
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  const FlatMatrix<double> demand = demand_for(scenario);

  OptimizerCache cache;
  ASSERT_TRUE(optimizer.optimize(model, demand, nullptr, &cache).ok());

  for (const double scale : {1.02, 0.97, 1.10}) {
    FlatMatrix<double> perturbed = demand;
    for (std::size_t k = 0; k < perturbed.rows(); ++k) {
      for (std::size_t c = 0; c < perturbed.cols(); ++c) {
        perturbed(k, c) *= scale;
      }
    }
    const OptimizerResult warm =
        optimizer.optimize(model, perturbed, nullptr, &cache);
    const OptimizerResult cold = optimizer.optimize(model, perturbed);
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(cold.ok());
    // Both are optimal solutions of the same LP: objectives agree to
    // rounding even when the vertex reached differs.
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-6 * std::max(1.0, std::fabs(cold.objective)))
        << "scale " << scale;
  }
}

TEST(OptimizerWarmStart, MilpModeIgnoresCacheSafely) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  OptimizerOptions options;
  options.integer_routes = true;
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology, options);
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  const FlatMatrix<double> demand = demand_for(scenario);
  OptimizerCache cache;
  const OptimizerResult a = optimizer.optimize(model, demand, nullptr, &cache);
  const OptimizerResult b = optimizer.optimize(model, demand, nullptr, &cache);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // The memo still short-circuits identical input; bases stay untouched.
  EXPECT_EQ(b.objective, a.objective);
}

// FNV-1a over the bit pattern of every rule weight, visited in (class,
// node, origin) order, so any change in any plan bit changes the digest.
std::uint64_t rule_digest(const OptimizerResult& result, const Scenario& s) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (std::size_t k = 0; k < s.app->class_count(); ++k) {
    const std::size_t nodes = s.app->traffic_class(ClassId{k}).graph.node_count();
    for (std::size_t n = 1; n < nodes; ++n) {
      for (std::size_t i = 0; i < s.topology->cluster_count(); ++i) {
        const RouteWeights* w = result.rules->find(ClassId{k}, n, ClusterId{i});
        if (w == nullptr) continue;
        for (std::size_t d = 0; d < w->clusters.size(); ++d) {
          std::uint64_t bits = 0;
          std::memcpy(&bits, &w->weights[d], sizeof bits);
          mix(w->clusters[d].index());
          mix(bits);
        }
      }
    }
  }
  return h;
}

TEST(OptimizerWarmStart, PlansAndPivotsPinnedAcrossPerturbations) {
  // One cache driven through a cold solve and six seeded demand walks on a
  // 10-cluster / 50-service world. Every step after the first resumes every
  // group from its previous basis, repairing it by dual simplex where the
  // walk left it infeasible; no group falls back to a cold solve. Every rule
  // weight bit and the pivot, warm-group and dual-pivot counts of each
  // solve are pinned, so any kernel change that alters a pivot or a plan bit
  // fails.
  TopoGenOptions options;
  options.seed = 5;
  options.clusters = 10;
  options.services = 50;
  options.classes = 4;
  options.total_rps = 1500.0;
  const Scenario scenario = make_synth_scenario(options);
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology);
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  FlatMatrix<double> demand(scenario.app->class_count(),
                            scenario.topology->cluster_count(), 0.0);
  for (const auto& stream : scenario.demand.streams()) {
    demand(stream.cls.index(), stream.cluster.index()) +=
        scenario.demand.rate_at(stream.cls, stream.cluster, 0.0);
  }

  struct Pin {
    std::uint64_t digest;
    std::uint64_t iterations;
    std::size_t warm_groups;
    std::uint64_t dual_pivots;
  };
  const Pin expected[] = {
      {0x7aadec7dd0709feull, 868, 0, 0},  {0xa5fc1d1694978610ull, 3, 3, 0},
      {0xbb4f3c46b791c23full, 5, 3, 2},   {0xf016a9ca60a63498ull, 3, 3, 0},
      {0xdec6d5582fc4c6b7ull, 5, 3, 2},   {0x2ecfa5705b970f78ull, 5, 3, 2},
      {0x559e20f654027a22ull, 5, 3, 2},
  };
  OptimizerCache cache;
  Rng rng(13);
  for (std::size_t step = 0; step < std::size(expected); ++step) {
    if (step > 0) {
      for (std::size_t k = 0; k < demand.rows(); ++k) {
        for (std::size_t c = 0; c < demand.cols(); ++c) {
          demand(k, c) *= rng.uniform(0.98, 1.02);
        }
      }
    }
    const OptimizerResult result =
        optimizer.optimize(model, demand, nullptr, &cache);
    ASSERT_TRUE(result.ok()) << "step " << step;
    EXPECT_EQ(rule_digest(result, scenario), expected[step].digest)
        << "step " << step << std::hex << " digest 0x"
        << rule_digest(result, scenario);
    EXPECT_EQ(result.simplex_stats.iterations, expected[step].iterations)
        << "step " << step;
    EXPECT_EQ(result.warm_groups, expected[step].warm_groups) << "step " << step;
    EXPECT_EQ(result.simplex_stats.dual_pivots, expected[step].dual_pivots)
        << "step " << step;
    // After the first solve every group resumes from its basis, paying
    // crash pivots and never falling back to a cold solve.
    EXPECT_EQ(result.simplex_stats.warm_failed, 0u) << "step " << step;
    EXPECT_EQ(result.warm_groups, step == 0 ? 0 : result.solve_groups)
        << "step " << step;
    EXPECT_EQ(result.simplex_stats.crash_pivots > 0, step > 0) << "step " << step;
    // The warm plan is optimal for this period's LP.
    const OptimizerResult cold = optimizer.optimize(model, demand);
    ASSERT_TRUE(cold.ok()) << "step " << step;
    EXPECT_NEAR(result.objective, cold.objective,
                1e-6 * std::fabs(cold.objective))
        << "step " << step;
  }
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

TEST(PlanCostModel, PlannerOutputsPinned) {
  // Every planner that prices a plan — the exact LP, the descent and rip-up
  // heuristics, the plan evaluator and the N-1 headroom check — on the
  // 10-cluster / 50-service world, once with the deployment's server counts
  // and once with a live-server override. The rule digests, the reported
  // objective and predicted metric bits, the evaluated plan costs and the
  // worst single-failure margin are pinned, so moving their shared cost
  // model (edge cost, front-door anycast, live-server override) may not
  // change one bit of any of them.
  TopoGenOptions options;
  options.seed = 5;
  options.clusters = 10;
  options.services = 50;
  options.classes = 4;
  options.total_rps = 1500.0;
  const Scenario scenario = make_synth_scenario(options);
  const std::size_t S = scenario.app->service_count();
  const std::size_t C = scenario.topology->cluster_count();
  const Application& app = *scenario.app;
  const Deployment& deployment = *scenario.deployment;
  const Topology& topology = *scenario.topology;
  const LatencyModel model = LatencyModel::from_application(app, C);
  FlatMatrix<double> demand(app.class_count(), C, 0.0);
  for (const auto& stream : scenario.demand.streams()) {
    demand(stream.cls.index(), stream.cluster.index()) +=
        scenario.demand.rate_at(stream.cls, stream.cluster, 0.0);
  }
  std::vector<unsigned> live(S * C, 0);
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t c = 0; c < C; ++c) {
      const unsigned base = deployment.servers(ServiceId{s}, ClusterId{c});
      if (base > 1 && (s + c) % 3 == 0) live[s * C + c] = base - 1;
      if (base > 0 && (s + c) % 5 == 0) live[s * C + c] = base + 2;
    }
  }

  const RouteOptimizer exact(app, deployment, topology);
  const FastRouteOptimizer fast(app, deployment, topology);
  const RipupRouteOptimizer ripup(app, deployment, topology);
  const HeadroomPlanner headroom(app, deployment, topology);

  struct Pin {
    std::uint64_t digest;
    std::uint64_t objective;
    std::uint64_t mean_latency;
    std::uint64_t egress;
    std::uint64_t plan_cost;          // evaluate_plan_cost, cost weight 1
    std::uint64_t plan_cost_weighted;  // evaluate_plan_cost, cost weight 300
    std::uint64_t margin;
    std::size_t worst;
  };
  // [live override][exact, fast, ripup]
  const Pin expected[2][3] = {
      {
          {0x7aadec7dd0709feull, 0x40aa49c275012975ull, 0x3ffa6562494133e2ull,
           0x3f755024453e5d9dull, 0x40a3554426abca2aull, 0x40a35860b9f76625ull,
           0x3ffa6c10c35498b9ull, 0},
          {0xb2d6e4e5f4b93713ull, 0x40a3673b91bbf261ull, 0x3ffa7dea2c8ef03full,
           0x3f76a76b962ec127ull, 0x40a3673bd89023bbull, 0x40a36a8a89e530cfull,
           0x3ff6af7843b2dc31ull, 4},
          {0x800b3ae34ff01339ull, 0x40a374e142106a08ull, 0x3ffa908badb4b22cull,
           0x3f77a2b48c17a4b3ull, 0x40a374e142106a05ull, 0x40a37854a32c5df9ull,
           0x3ff566c0d5fb9c2full, 0},
      },
      {
          {0xf0f0893f2db91f37ull, 0x40aa44817b1c8932ull, 0x3ffa5da3dff8e812ull,
           0x3f76ce50bebed81full, 0x40a34f986054e5d9ull, 0x40a352ecbf5ebef6ull,
           0x40097d409983e8aeull, 5},
          {0x29ff9b28cb708aaull, 0x40a3688a8b5ef1ffull, 0x3ffa7fb30c917c5cull,
           0x3f773d531b237dd8ull, 0x40a3688a8b5ef1fdull, 0x40a36bef1f61084bull,
           0x40098498d9094748ull, 5},
          {0xcdfe7b8168914515ull, 0x40a3740e91ad8231ull, 0x3ffa8f6c0392c2dcull,
           0x3f77a87c23c5eb9dull, 0x40a3740e91ad8235ull, 0x40a37782cacd3b3bull,
           0x40090497c3eb8ac1ull, 5},
      },
  };
  const char* const arm_names[] = {"exact", "fast", "ripup"};
  for (int with_live = 0; with_live < 2; ++with_live) {
    const std::vector<unsigned>* servers = with_live != 0 ? &live : nullptr;
    const OptimizerResult results[] = {
        exact.optimize(model, demand, servers),
        fast.optimize(model, demand, servers),
        ripup.optimize(model, demand, servers),
    };
    for (int arm = 0; arm < 3; ++arm) {
      const OptimizerResult& r = results[arm];
      ASSERT_NE(r.rules, nullptr);
      ClusterId worst{0};
      const double margin = headroom.worst_case_margin(model, demand, *r.rules,
                                                       servers, &worst);
      const Pin got{
          rule_digest(r, scenario),
          double_bits(r.objective),
          double_bits(r.predicted_mean_latency),
          double_bits(r.predicted_egress_dollars_per_sec),
          double_bits(evaluate_plan_cost(app, deployment, topology, model,
                                         demand, *r.rules, servers)),
          double_bits(evaluate_plan_cost(app, deployment, topology, model,
                                         demand, *r.rules, servers, 300.0)),
          double_bits(margin),
          worst.index(),
      };
      const Pin& want = expected[with_live][arm];
      const std::string where = std::string(arm_names[arm]) +
                                (with_live != 0 ? " live" : " static");
      std::ostringstream actual;
      actual << std::hex << "{0x" << got.digest << "ull, 0x" << got.objective
             << "ull, 0x" << got.mean_latency << "ull, 0x" << got.egress
             << "ull, 0x" << got.plan_cost << "ull, 0x"
             << got.plan_cost_weighted << "ull, 0x" << got.margin << "ull, "
             << std::dec << got.worst << "}";
      EXPECT_EQ(got.digest, want.digest) << where << " " << actual.str();
      EXPECT_EQ(got.objective, want.objective) << where << " " << actual.str();
      EXPECT_EQ(got.mean_latency, want.mean_latency) << where;
      EXPECT_EQ(got.egress, want.egress) << where;
      EXPECT_EQ(got.plan_cost, want.plan_cost) << where;
      EXPECT_EQ(got.plan_cost_weighted, want.plan_cost_weighted) << where;
      EXPECT_EQ(got.margin, want.margin) << where;
      EXPECT_EQ(got.worst, want.worst) << where;
    }
  }
}

TEST(OptimizerWarmStart, ServiceTimeAndCapacityChangesRepairWithoutFallback) {
  // Between periods the fitted service times and the live server counts
  // move as well as demand, so the old basis's reduced costs go negative
  // and the dual repair has to shift costs before it can run.
  const Scenario scenario = synth_world();
  const std::size_t S = scenario.app->service_count();
  const std::size_t C = scenario.topology->cluster_count();
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology);
  LatencyModel model = LatencyModel::from_application(*scenario.app, C);
  FlatMatrix<double> demand = demand_for(scenario);
  std::vector<unsigned> live(S * C, 0);

  OptimizerCache cache;
  ASSERT_TRUE(optimizer.optimize(model, demand, &live, &cache).ok());
  Rng rng(29);
  std::uint64_t cost_shifts = 0;
  for (int period = 1; period <= 6; ++period) {
    for (std::size_t s = 0; s < S; ++s) {
      for (std::size_t k = 0; k < scenario.app->class_count(); ++k) {
        for (std::size_t c = 0; c < C; ++c) {
          const ServiceId svc{s};
          const double t = model.service_time(svc, ClassId{k}, ClusterId{c});
          model.set_service_time(svc, ClassId{k}, ClusterId{c},
                                 t * rng.uniform(0.9, 1.1));
        }
      }
      for (std::size_t c = 0; c < C; ++c) {
        const unsigned base = scenario.deployment->servers(ServiceId{s}, ClusterId{c});
        if (base > 0) live[s * C + c] = base + static_cast<unsigned>(rng.uniform_u64(2));
      }
    }
    for (std::size_t k = 0; k < demand.rows(); ++k) {
      for (std::size_t c = 0; c < demand.cols(); ++c) {
        demand(k, c) *= rng.uniform(0.9, 1.1);
      }
    }
    const OptimizerResult warm =
        optimizer.optimize(model, demand, &live, &cache);
    const OptimizerResult cold = optimizer.optimize(model, demand, &live);
    ASSERT_TRUE(warm.ok()) << "period " << period;
    ASSERT_TRUE(cold.ok()) << "period " << period;
    EXPECT_EQ(warm.simplex_stats.warm_failed, 0u) << "period " << period;
    EXPECT_EQ(warm.warm_groups, warm.solve_groups) << "period " << period;
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-6 * std::fabs(cold.objective))
        << "period " << period;
    cost_shifts += warm.simplex_stats.cost_shifts;
  }
  EXPECT_GT(cost_shifts, 0u);
}

TEST(OptimizerWarmStart, BenchmarkScalePlansAndPivotsPinned) {
  // The benchmark's 30-cluster / 200-service world with 12 classes, split
  // into class groups as the global controller splits it. One cold solve,
  // then periods that walk demand by ±2%, move the fitted service times by
  // ±10% and change the live server counts; the last two change constraint
  // coefficients under the crash pivots that reinstall each group's basis.
  // Every rule weight bit and the pivot, crash, dual and warm-group counts
  // of every period are pinned, so a kernel change that alters one pivot
  // or one plan bit at this scale fails.
  TopoGenOptions options = parse_topogen_spec("clusters=30,services=200,seed=11");
  options.classes = 12;
  const Scenario scenario = make_synth_scenario(options);
  const std::size_t S = scenario.app->service_count();
  const std::size_t C = scenario.topology->cluster_count();
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology);
  LatencyModel model = LatencyModel::from_application(*scenario.app, C);
  FlatMatrix<double> demand(scenario.app->class_count(), C, 0.0);
  for (const auto& stream : scenario.demand.streams()) {
    demand(stream.cls.index(), stream.cluster.index()) +=
        scenario.demand.rate_at(stream.cls, stream.cluster, 0.0);
  }
  std::vector<unsigned> live(S * C, 0);

  enum class Move { kCold, kDemand, kServiceTime, kLiveServers };
  struct Pin {
    Move move;
    std::uint64_t digest;
    std::uint64_t iterations;
    std::uint64_t crash_pivots;
    std::uint64_t dual_pivots;
    std::size_t warm_groups;
  };
  const Pin expected[] = {
      {Move::kCold, 0x28dfd3ce3f5ddeb5ull, 2152, 0, 0, 0},
      {Move::kDemand, 0xc661fe52892fb8b2ull, 11, 984, 1, 10},
      {Move::kDemand, 0xca80e296ca645308ull, 13, 984, 3, 10},
      {Move::kServiceTime, 0x366b5bb2aac23e53ull, 53, 984, 17, 10},
      {Move::kDemand, 0x7ed3fce79fb29ull, 12, 981, 2, 10},
      {Move::kLiveServers, 0xa04c41b4abe4e739ull, 208, 981, 198, 10},
      {Move::kDemand, 0xce239f28b6882f92ull, 11, 987, 1, 10},
      {Move::kServiceTime, 0xf52d5396e3e7f14full, 49, 987, 14, 10},
      {Move::kLiveServers, 0xff07367bb3ad50d6ull, 230, 987, 220, 10},
  };
  OptimizerCache cache;
  Rng rng(17);
  for (std::size_t step = 0; step < std::size(expected); ++step) {
    switch (expected[step].move) {
      case Move::kCold:
        break;
      case Move::kDemand:
        for (std::size_t k = 0; k < demand.rows(); ++k) {
          for (std::size_t c = 0; c < C; ++c) {
            demand(k, c) *= rng.uniform(0.98, 1.02);
          }
        }
        break;
      case Move::kServiceTime:
        for (std::size_t s = 0; s < S; ++s) {
          for (std::size_t k = 0; k < scenario.app->class_count(); ++k) {
            for (std::size_t c = 0; c < C; ++c) {
              const ServiceId svc{s};
              const double t = model.service_time(svc, ClassId{k}, ClusterId{c});
              model.set_service_time(svc, ClassId{k}, ClusterId{c},
                                     t * rng.uniform(0.9, 1.1));
            }
          }
        }
        break;
      case Move::kLiveServers:
        for (std::size_t s = 0; s < S; ++s) {
          for (std::size_t c = 0; c < C; ++c) {
            const unsigned base =
                scenario.deployment->servers(ServiceId{s}, ClusterId{c});
            if (base > 1) {
              live[s * C + c] = base - 1 + static_cast<unsigned>(rng.uniform_u64(3));
            }
          }
        }
        break;
    }
    const OptimizerResult result =
        optimizer.optimize(model, demand, &live, &cache);
    ASSERT_TRUE(result.ok()) << "step " << step;
    const SimplexStats& stats = result.simplex_stats;
    EXPECT_EQ(rule_digest(result, scenario), expected[step].digest)
        << "step " << step << std::hex << " digest 0x"
        << rule_digest(result, scenario);
    EXPECT_EQ(stats.iterations, expected[step].iterations) << "step " << step;
    EXPECT_EQ(stats.crash_pivots, expected[step].crash_pivots) << "step " << step;
    EXPECT_EQ(stats.dual_pivots, expected[step].dual_pivots) << "step " << step;
    EXPECT_EQ(result.warm_groups, expected[step].warm_groups) << "step " << step;
    EXPECT_GT(result.solve_groups, 1u) << "step " << step;
  }
}

TEST(OptimizerDecompose, DisjointClassesMatchWholeProblem) {
  // shared_fraction=0 makes every class's service set private, so the
  // partition splits into one group per class. The decomposed solve must
  // land on the same optimum as the whole-problem LP.
  const Scenario scenario = synth_world(0.0);
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  const FlatMatrix<double> demand = demand_for(scenario);

  OptimizerOptions on;
  on.decompose = true;
  OptimizerOptions off;
  off.decompose = false;
  RouteOptimizer decomposed(*scenario.app, *scenario.deployment,
                            *scenario.topology, on);
  RouteOptimizer whole(*scenario.app, *scenario.deployment,
                       *scenario.topology, off);
  const OptimizerResult a = decomposed.optimize(model, demand);
  const OptimizerResult b = whole.optimize(model, demand);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a.solve_groups, 1u);
  EXPECT_EQ(b.solve_groups, 1u);
  EXPECT_NEAR(a.objective, b.objective,
              1e-6 * std::max(1.0, std::fabs(b.objective)));
  EXPECT_EQ(a.station_plans.size(), b.station_plans.size());
}

TEST(OptimizerDecompose, SharedServicesCoupleClasses) {
  // With a shared pool, classes touching the same service must solve in one
  // group — splitting them would let two classes each claim the full
  // capacity of the shared station.
  const Scenario scenario = synth_world(0.5);
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology);
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  const OptimizerResult result =
      optimizer.optimize(model, demand_for(scenario));
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.solve_groups, scenario.app->class_count());
}

}  // namespace
}  // namespace slate
