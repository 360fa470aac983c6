// Heuristic route optimizer: projected marginal-cost descent.
//
// Paper §5 ("Scalability & Fast reaction"): the exact formulation grows with
// clusters x services x classes, and large deployments need solve times in
// seconds or less. This optimizer trades exactness for speed: it works
// directly in rule space (the per-(class, edge, origin) weight vectors),
// repeatedly shifting a small weight step from the currently most expensive
// destination to the cheapest by exact marginal cost, re-evaluating the true
// (non-PWL) objective each sweep and backing off when a sweep does not
// improve it. The objective is convex in the flows, so descent converges;
// because each sweep costs O(classes * edges * clusters^2) with no LP at
// all, it is orders of magnitude faster than the simplex on large instances
// (bench/ablation_fast_optimizer measures the speed/quality frontier).
//
// The result type and the plan-cost model (core/plan_model.h: the cost
// weight, the utilization cap, edge costs, anycast and live servers) are
// shared with RouteOptimizer, so GlobalController can use either
// interchangeably.
#pragma once

#include "core/optimizer.h"

namespace slate {

struct FastOptimizerOptions {
  // Maximum descent sweeps over all (class, edge, origin) knobs.
  std::size_t max_sweeps = 120;
  // Fraction of a knob's weight moved per shift.
  double step = 0.10;
  // Stop when a sweep improves the objective by less than this fraction.
  double relative_tolerance = 1e-4;
};

class FastRouteOptimizer {
 public:
  // `plan` supplies the objective's cost weight and utilization cap, as for
  // RouteOptimizer; its LP-only fields are ignored.
  FastRouteOptimizer(const Application& app, const Deployment& deployment,
                     const Topology& topology, FastOptimizerOptions options = {},
                     const OptimizerOptions& plan = {});

  // Same contract as RouteOptimizer::optimize. `status` is kOptimal when
  // descent converged (it cannot prove optimality; the name keeps the
  // result type uniform), kIterationLimit when max_sweeps was exhausted
  // while still improving.
  OptimizerResult optimize(const LatencyModel& model,
                           const FlatMatrix<double>& demand,
                           const std::vector<unsigned>* live_servers = nullptr) const;

  [[nodiscard]] const FastOptimizerOptions& options() const noexcept {
    return options_;
  }

 private:
  const Application* app_;
  const Deployment* deployment_;
  const Topology* topology_;
  OptimizerOptions plan_;
  FastOptimizerOptions options_;
};

}  // namespace slate
