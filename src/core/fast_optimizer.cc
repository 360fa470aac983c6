#include "core/fast_optimizer.h"

#include <algorithm>
#include <cmath>

#include "core/plan_model.h"

namespace slate {

FastRouteOptimizer::FastRouteOptimizer(const Application& app,
                                       const Deployment& deployment,
                                       const Topology& topology,
                                       FastOptimizerOptions options,
                                       const OptimizerOptions& plan)
    : app_(&app),
      deployment_(&deployment),
      topology_(&topology),
      plan_(plan),
      options_(options) {
  validate_plan_model(app, deployment, topology, plan_);
}

OptimizerResult FastRouteOptimizer::optimize(
    const LatencyModel& model, const FlatMatrix<double>& demand,
    const std::vector<unsigned>* live_servers) const {
  WeightPlan plan(*app_, *deployment_, *topology_, plan_, model, demand,
                  live_servers);

  plan.forward();
  double best = plan.objective();
  double step = options_.step;
  std::size_t sweeps = 0;
  bool converged = false;

  for (; sweeps < options_.max_sweeps; ++sweeps) {
    // One sweep: for every knob, move `step` of weight from the costliest
    // used destination to the cheapest one.
    plan.descent_sweep(0.0, [&](double w) { return std::min(step, w); });
    plan.forward();
    const double now = plan.objective();
    if (now > best - std::abs(best) * options_.relative_tolerance) {
      if (now > best) {
        // Overshot: halve the step and keep going from the better point.
        step *= 0.5;
        if (step < 1e-3) {
          converged = true;
          break;
        }
      } else {
        converged = true;
        best = now;
        break;
      }
    }
    best = std::min(best, now);
  }

  OptimizerResult result = plan.package();
  result.status = converged ? LpStatus::kOptimal : LpStatus::kIterationLimit;
  result.objective = best;
  result.simplex_stats.iterations = sweeps;
  return result;
}

}  // namespace slate
