#include "lp/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace slate {

int LpModel::add_variable(double lower, double upper, double objective) {
  if (lower > upper) {
    throw std::invalid_argument("LpModel: inverted variable bounds");
  }
  lower_.push_back(lower);
  upper_.push_back(upper);
  objective_.push_back(objective);
  integer_.push_back(0);
  return static_cast<int>(lower_.size()) - 1;
}

void LpModel::set_integer(int var, bool integer) {
  integer_.at(var) = integer ? 1 : 0;
}

int LpModel::add_constraint(std::vector<LinearTerm> terms, Relation rel,
                            double rhs) {
  // Merge duplicate variables and drop zero coefficients so the simplex
  // sees a clean row.
  std::sort(terms.begin(), terms.end(),
            [](const LinearTerm& a, const LinearTerm& b) { return a.var < b.var; });
  std::vector<LinearTerm> merged;
  merged.reserve(terms.size());
  for (const auto& t : terms) {
    if (t.var < 0 || t.var >= variable_count()) {
      throw std::out_of_range("LpModel: constraint references unknown variable");
    }
    if (!merged.empty() && merged.back().var == t.var) {
      merged.back().coeff += t.coeff;
    } else {
      merged.push_back(t);
    }
  }
  std::erase_if(merged, [](const LinearTerm& t) { return t.coeff == 0.0; });
  rows_.push_back(Row{std::move(merged), rel, rhs});
  return static_cast<int>(rows_.size()) - 1;
}

void LpModel::set_bounds(int var, double lower, double upper) {
  if (lower > upper) {
    throw std::invalid_argument("LpModel: inverted variable bounds");
  }
  lower_.at(var) = lower;
  upper_.at(var) = upper;
}

double LpModel::objective_value(const std::vector<double>& x) const {
  double v = 0.0;
  for (int i = 0; i < variable_count(); ++i) {
    v += objective_[i] * x.at(i);
  }
  return v;
}

bool LpModel::is_feasible(const std::vector<double>& x, double tol) const {
  if (static_cast<int>(x.size()) != variable_count()) return false;
  for (int i = 0; i < variable_count(); ++i) {
    if (x[i] < lower_[i] - tol || x[i] > upper_[i] + tol) return false;
  }
  for (const auto& row : rows_) {
    double lhs = 0.0;
    for (const auto& t : row.terms) lhs += t.coeff * x[t.var];
    switch (row.rel) {
      case Relation::kLessEqual:
        if (lhs > row.rhs + tol) return false;
        break;
      case Relation::kGreaterEqual:
        if (lhs < row.rhs - tol) return false;
        break;
      case Relation::kEqual:
        if (std::abs(lhs - row.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

const char* to_string(LpStatus status) noexcept {
  switch (status) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration-limit";
  }
  return "?";
}

}  // namespace slate
