// Linear/mixed-integer program model builder.
//
// The global controller's routing optimization (DESIGN.md §4) is expressed
// against this interface and solved by the bundled two-phase simplex
// (lp/simplex.h) plus branch & bound (lp/branch_and_bound.h). The builder is
// deliberately solver-agnostic: variables with bounds, linear constraints,
// and a linear objective, with an integrality flag per variable.
#pragma once

#include <limits>
#include <vector>

namespace slate {

inline constexpr double kLpInfinity = std::numeric_limits<double>::infinity();

enum class Relation { kLessEqual, kGreaterEqual, kEqual };

enum class ObjectiveSense { kMinimize, kMaximize };

struct LinearTerm {
  int var = -1;
  double coeff = 0.0;
};

class LpModel {
 public:
  // Adds a variable with bounds [lower, upper] and objective coefficient
  // `objective`. Returns its index. `lower` may be -inf, `upper` +inf.
  int add_variable(double lower, double upper, double objective);

  // Marks a variable as integral (for the MILP solver; the LP relaxation
  // ignores the flag).
  void set_integer(int var, bool integer = true);

  void set_objective_sense(ObjectiveSense sense) noexcept { sense_ = sense; }

  // Adds `terms` (rel) `rhs`. Terms with duplicate variables are summed.
  // Returns the constraint index.
  int add_constraint(std::vector<LinearTerm> terms, Relation rel, double rhs);

  [[nodiscard]] int variable_count() const noexcept {
    return static_cast<int>(lower_.size());
  }
  [[nodiscard]] int constraint_count() const noexcept {
    return static_cast<int>(rows_.size());
  }

  [[nodiscard]] double lower_bound(int var) const { return lower_.at(var); }
  [[nodiscard]] double upper_bound(int var) const { return upper_.at(var); }
  [[nodiscard]] double objective_coefficient(int var) const { return objective_.at(var); }
  [[nodiscard]] bool is_integer(int var) const { return integer_.at(var) != 0; }
  [[nodiscard]] ObjectiveSense objective_sense() const noexcept { return sense_; }

  struct Row {
    std::vector<LinearTerm> terms;
    Relation rel = Relation::kLessEqual;
    double rhs = 0.0;
  };
  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }

  // Tightens a variable's bounds (used by branch & bound). Throws if the
  // new bounds are inverted.
  void set_bounds(int var, double lower, double upper);

  // Evaluates the objective at a point.
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  // True if `x` satisfies all constraints and bounds within `tol`.
  [[nodiscard]] bool is_feasible(const std::vector<double>& x,
                                 double tol = 1e-6) const;

 private:
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> objective_;
  std::vector<char> integer_;
  std::vector<Row> rows_;
  ObjectiveSense sense_ = ObjectiveSense::kMinimize;
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  // one per model variable

  [[nodiscard]] bool ok() const noexcept { return status == LpStatus::kOptimal; }
};

const char* to_string(LpStatus status) noexcept;

}  // namespace slate
