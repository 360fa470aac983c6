// Negotiated-congestion rip-up-and-reroute heuristic (PathFinder-style).
//
// A third optimizer arm between the exact LP and pure descent, built for
// planet-scale instances where even one descent sweep over every
// (class, edge, origin, destination) pair is affordable but the LP is not.
// Borrowed from VLSI global routing: start every call edge on its cheapest
// uncongested-looking destination, then iterate rounds of
//
//   1. price each station by base cost x (1 + present_weight * overuse)
//      + accumulated history cost,
//   2. rip up and reroute every (class, edge, origin) knob to the cheapest
//      destination at current prices (all-or-nothing, so rounds are fast),
//   3. bump the history cost of every station still over the utilization
//      cap, so chronically contended stations become expensive even when
//      momentarily uncrowded.
//
// History is what distinguishes negotiation from greedy rerouting: two
// classes oscillating over a shared station see its price ratchet up until
// one of them durably yields. After the rounds, a single load-shedding sweep
// fractionally splits knobs whose chosen station still exceeds the cap, and
// a bounded fractional-polish phase (marginal-cost descent from the
// negotiated plan) recovers the splits that 0/1 routing cannot express —
// without it the gap vs the exact LP grows with cluster count, because
// stations are sized for fractional spreading and all-or-nothing assignment
// concentrates whole flows. The best plan by exact objective across all
// phases is returned, so extra rounds never make the answer worse.
//
// Same result contract and plan-cost model (core/plan_model.h) as
// RouteOptimizer / FastRouteOptimizer; the solver guard selects this arm
// when the exact solve blows its wall budget.
#pragma once

#include "core/optimizer.h"

namespace slate {

struct RipupOptions {
  // Rip-up/reroute rounds. Each is O(classes * edges * clusters^2).
  std::size_t max_rounds = 16;
  // History added to a station per round spent over the cap, scaled by its
  // relative overuse.
  double history_increment = 0.5;
  // Present-congestion multiplier: a station at u = cap + x prices its base
  // cost up by (1 + present_weight * x).
  double present_weight = 8.0;
  // Fractional-polish descent sweeps after negotiation (0 disables). Each
  // sweep shifts `polish_step` of a knob's weight from its most expensive
  // destination to its cheapest by true marginal cost; the phase stops early
  // once a sweep improves the objective by less than `polish_tolerance`.
  std::size_t polish_sweeps = 48;
  double polish_step = 0.25;
  double polish_tolerance = 1e-4;
};

class RipupRouteOptimizer {
 public:
  // `plan` supplies the objective's cost weight and utilization cap, as for
  // RouteOptimizer; its LP-only fields are ignored.
  RipupRouteOptimizer(const Application& app, const Deployment& deployment,
                      const Topology& topology, RipupOptions options = {},
                      const OptimizerOptions& plan = {});

  // Same contract as RouteOptimizer::optimize. Always returns a complete,
  // conservation-clean rule set; `status` is kOptimal when a round made no
  // change (negotiation settled), kIterationLimit when max_rounds ran out
  // (the best-seen plan is still returned).
  OptimizerResult optimize(const LatencyModel& model,
                           const FlatMatrix<double>& demand,
                           const std::vector<unsigned>* live_servers = nullptr) const;

  [[nodiscard]] const RipupOptions& options() const noexcept { return options_; }

 private:
  const Application* app_;
  const Deployment* deployment_;
  const Topology* topology_;
  OptimizerOptions plan_;
  RipupOptions options_;
};

}  // namespace slate
