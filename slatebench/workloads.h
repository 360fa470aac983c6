// The benchmark's four workloads: how each world, run configuration and
// input stream is generated from the workload seed. NOTES.md gives the
// reasons for each choice.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/global_controller.h"
#include "runtime/experiment.h"
#include "telemetry/cluster_report.h"
#include "util/matrix.h"

namespace slatebench {

enum class Workload { kSocialSteady, kSocialDiurnal, kSynthOutage, kControl };

// Parses a workload name; returns false for an unknown one.
bool parse_workload(const std::string& name, Workload* out);
const char* to_string(Workload w);

// Inputs of a simulator workload, drawn from the seed before any pass:
// per-cell demand multipliers and the engine seed. A pass rebuilds the
// world from these, so that scenario construction is timed every pass.
struct SimInputs {
  Workload workload = Workload::kSocialSteady;
  std::uint64_t seed = 1;
  std::vector<double> jitter;  // one multiplier per demand cell
};
SimInputs make_sim_inputs(Workload w, std::uint64_t seed);
// Builds the scenario for `in` (the timed "scenario build").
slate::Scenario build_sim_scenario(const SimInputs& in);
// Run configuration for `in`; `workers` caps the sharded engine's threads.
slate::RunConfig sim_config(const SimInputs& in, std::size_t workers);
// Timed passes run the sharded engine on one worker. A traced run adds one
// pass on this many workers (none when 1), which gives sim.worker_speedup
// and must reproduce the simulated metrics exactly.
std::size_t speedup_workers(Workload w);

// control-30x200: the 30x200 world, the controller options, and one
// ClusterReport batch per control period together with the demand that
// truly entered each cluster in that period.
struct ControlInputs {
  std::vector<std::vector<slate::ClusterReport>> reports;  // per period
  std::vector<slate::FlatMatrix<double>> demand;           // per period
};
constexpr std::size_t kControlPeriods = 200;
constexpr double kControlPeriodS = 1.0;
slate::Scenario build_control_scenario();
slate::GlobalControllerOptions control_options();
// Generates the report stream on `scenario` (built once, untimed).
ControlInputs make_control_inputs(const slate::Scenario& scenario,
                                  std::uint64_t seed);

}  // namespace slatebench
