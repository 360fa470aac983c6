#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace slate {
namespace {

// One structural column of the transformed problem, mapping back to a model
// variable: model_x = sign * column_value + offset (summed over columns that
// share the model variable, for free-variable splits).
struct ColumnMap {
  int model_var = -1;
  double sign = 1.0;
};

// The model rewritten into "all variables >= 0, rhs >= 0" form. Constraint
// coefficients stay in the model's sparse rows; this records how they map
// into the tableau. Tableau rows are the model's rows in order, then one
// `x <= bound` row per structural column with a finite upper bound.
struct Transformed {
  std::vector<double> rhs;     // per tableau row, normalized to >= 0
  std::vector<Relation> rel;   // per tableau row, after normalization
  std::vector<char> negated;   // per tableau row: coefficients sign-flipped
  std::vector<int> bound_col;  // structural column of each upper-bound row
  std::vector<int> first_col;   // per model variable
  std::vector<int> second_col;  // per model variable; -1 unless split free
  // Phase-2 objective over structural columns (minimization) + constant.
  std::vector<double> cost;
  double cost_constant = 0.0;
  std::vector<ColumnMap> columns;
  std::vector<double> offsets;  // per model variable
  bool flip_objective = false;  // true when the model maximizes
};

Transformed transform(const LpModel& model) {
  Transformed t;
  const int n = model.variable_count();
  t.offsets.assign(n, 0.0);
  t.flip_objective = model.objective_sense() == ObjectiveSense::kMaximize;

  // Column plan per model variable.
  t.first_col.assign(n, -1);
  t.second_col.assign(n, -1);
  std::vector<double> extra_upper;  // finite upper bound rows, per column
  for (int j = 0; j < n; ++j) {
    const double lo = model.lower_bound(j);
    const double hi = model.upper_bound(j);
    t.first_col[j] = static_cast<int>(t.columns.size());
    if (lo == -kLpInfinity && hi == kLpInfinity) {
      t.columns.push_back({j, 1.0});
      extra_upper.push_back(kLpInfinity);
      t.second_col[j] = static_cast<int>(t.columns.size());
      t.columns.push_back({j, -1.0});
      extra_upper.push_back(kLpInfinity);
    } else if (lo == -kLpInfinity) {
      // x = hi - x^, x^ >= 0.
      t.columns.push_back({j, -1.0});
      extra_upper.push_back(kLpInfinity);
      t.offsets[j] = hi;
    } else {
      // x = lo + x^, x^ in [0, hi - lo].
      t.columns.push_back({j, 1.0});
      extra_upper.push_back(hi == kLpInfinity ? kLpInfinity : hi - lo);
      t.offsets[j] = lo;
    }
  }
  const int cols = static_cast<int>(t.columns.size());

  // Objective over columns.
  t.cost.assign(cols, 0.0);
  for (int j = 0; j < n; ++j) {
    double c = model.objective_coefficient(j);
    if (t.flip_objective) c = -c;
    t.cost_constant += c * t.offsets[j];
    t.cost[t.first_col[j]] += c * t.columns[t.first_col[j]].sign;
    if (t.second_col[j] >= 0) {
      t.cost[t.second_col[j]] += c * t.columns[t.second_col[j]].sign;
    }
  }

  auto add_row = [&](Relation rel, double rhs) {
    const bool negate = rhs < 0.0;
    if (negate) {
      rhs = -rhs;
      rel = rel == Relation::kLessEqual    ? Relation::kGreaterEqual
            : rel == Relation::kGreaterEqual ? Relation::kLessEqual
                                             : Relation::kEqual;
    }
    t.rhs.push_back(rhs);
    t.rel.push_back(rel);
    t.negated.push_back(negate ? 1 : 0);
  };
  for (const auto& row : model.rows()) {
    double rhs = row.rhs;
    for (const auto& term : row.terms) rhs -= term.coeff * t.offsets[term.var];
    add_row(row.rel, rhs);
  }
  for (int c = 0; c < cols; ++c) {
    if (extra_upper[c] != kLpInfinity) {
      t.bound_col.push_back(c);
      add_row(Relation::kLessEqual, extra_upper[c]);
    }
  }
  return t;
}

// Fingerprint of the transformed layout (row/column counts and the relation
// of every row). A basis is only reusable against the same layout — the
// same tableau geometry and slack/artificial assignment. Coefficients and
// rhs are deliberately excluded: they change every control period.
std::uint64_t layout_signature(const Transformed& t) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(t.rhs.size());
  mix(t.columns.size());
  for (const Relation r : t.rel) mix(static_cast<std::uint64_t>(r) + 17);
  return h;
}

// Row-major tableau in one buffer (row i at a_[i * stride_], rhs last) with
// explicit basis bookkeeping. `model` and `t` must outlive it.
class Tableau {
 public:
  Tableau(const LpModel& model, const Transformed& t,
          const SimplexOptions& options)
      : model_(model),
        t_(t),
        options_(options),
        structural_cols_(static_cast<int>(t.columns.size())),
        m_(static_cast<int>(t.rhs.size())) {
    // Column layout: [structural | slack/surplus | artificial], then rhs.
    int slack_count = 0;
    int artificial_count = 0;
    for (const Relation r : t.rel) {
      if (r != Relation::kEqual) ++slack_count;
      if (r != Relation::kLessEqual) ++artificial_count;
    }
    total_cols_ = structural_cols_ + slack_count + artificial_count;
    first_artificial_ = structural_cols_ + slack_count;
    stride_ = static_cast<std::size_t>(total_cols_) + 1;
    reset();
  }

  // (Re)fills the buffer with the starting tableau: each model row's sparse
  // terms scattered into its columns, slacks and artificials forming the
  // initial basis. A failed warm start calls this to cold-solve in place.
  void reset() {
    a_.assign(static_cast<std::size_t>(m_) * stride_, 0.0);
    // pivot() maintains the objective row unconditionally; warm-start
    // reconstruction pivots before any build_objective call, so the row
    // must exist (as zeros) from the start.
    obj_.assign(stride_, 0.0);
    basis_.assign(m_, -1);
    artificials_disabled_ = false;

    const std::vector<LpModel::Row>& rows = model_.rows();
    int next_slack = structural_cols_;
    int next_artificial = first_artificial_;
    for (int i = 0; i < m_; ++i) {
      double* row = row_at(i);
      const bool neg = t_.negated[i] != 0;
      if (i < static_cast<int>(rows.size())) {
        for (const LinearTerm& term : rows[i].terms) {
          for (const int c : {t_.first_col[term.var], t_.second_col[term.var]}) {
            if (c < 0) continue;
            const double v = term.coeff * t_.columns[c].sign;
            row[c] = neg ? -v : v;
          }
        }
      } else {
        row[t_.bound_col[i - rows.size()]] = neg ? -1.0 : 1.0;
      }
      row[total_cols_] = t_.rhs[i];
      switch (t_.rel[i]) {
        case Relation::kLessEqual:
          row[next_slack] = 1.0;
          basis_[i] = next_slack++;
          break;
        case Relation::kGreaterEqual:
          row[next_slack] = -1.0;
          ++next_slack;
          row[next_artificial] = 1.0;
          basis_[i] = next_artificial++;
          break;
        case Relation::kEqual:
          row[next_artificial] = 1.0;
          basis_[i] = next_artificial++;
          break;
      }
    }
  }

  // Runs phase 1 + phase 2. Returns the status; on kOptimal, `solution`
  // holds structural column values.
  LpStatus solve(const std::vector<double>& cost, std::vector<double>& solution,
                 double& objective, SimplexStats* stats) {
    if (first_artificial_ < total_cols_) {
      // Phase 1: minimize the sum of artificial variables.
      std::vector<double> phase1(total_cols_, 0.0);
      for (int c = first_artificial_; c < total_cols_; ++c) phase1[c] = 1.0;
      build_objective(phase1);
      const LpStatus s1 = iterate(stats);
      if (s1 != LpStatus::kOptimal) return s1;
      if (objective_value() > 1e-7) return LpStatus::kInfeasible;
      purge_artificials();
    }
    return solve_phase2(cost, solution, objective, stats);
  }

  // Phase 2 only — valid from a feasible basis (after phase 1, or after a
  // successful try_warm).
  LpStatus solve_phase2(const std::vector<double>& cost,
                        std::vector<double>& solution, double& objective,
                        SimplexStats* stats) {
    build_objective(cost);
    const LpStatus s2 = iterate(stats);
    if (s2 != LpStatus::kOptimal) return s2;

    solution.assign(structural_cols_, 0.0);
    for (int i = 0; i < m_; ++i) {
      if (basis_[i] >= 0 && basis_[i] < structural_cols_) {
        solution[basis_[i]] = row_at(i)[total_cols_];
      }
    }
    objective = objective_value();
    return LpStatus::kOptimal;
  }

  // Installs `target` (a previous solve's basis) by crash pivots, skipping
  // phase 1 entirely, and repairs it into a primal-feasible basis by dual
  // simplex when the rhs has moved since the basis was cut. Returns false —
  // leaving the tableau unusable until reset() — when the basis does not fit
  // this tableau, an artificial stays basic above zero, the dual finds a
  // row that proves the LP infeasible, or the iteration limit is hit.
  bool try_warm(const std::vector<int>& target, const std::vector<double>& cost,
                SimplexStats* stats) {
    if (static_cast<int>(target.size()) != m_) return false;
    std::vector<char> in_target(total_cols_, 0);
    for (const int c : target) {
      if (c < 0 || c >= total_cols_ || in_target[c] != 0) return false;
      in_target[c] = 1;
    }
    std::vector<char> is_basic(total_cols_, 0);
    for (const int c : basis_) is_basic[c] = 1;
    for (int r = 0; r < m_; ++r) {
      const int c = target[r];
      if (is_basic[c] != 0) continue;  // initial slack that stays basic
      // Bring column c into the basis against a row whose current basic
      // column is not wanted, preferring the largest pivot for stability.
      int pivot_row = -1;
      double best = 1e-7;
      for (int i = 0; i < m_; ++i) {
        if (in_target[basis_[i]] != 0) continue;
        const double a = std::abs(row_at(i)[c]);
        if (a > best) {
          best = a;
          pivot_row = i;
        }
      }
      if (pivot_row < 0) return false;  // numerically dependent: cold-solve
      is_basic[basis_[pivot_row]] = 0;
      pivot(pivot_row, c);
      if (stats != nullptr) ++stats->crash_pivots;
      is_basic[c] = 1;
    }
    artificials_disabled_ = true;
    if (!dual_repair(cost, stats)) return false;
    // Primal feasibility at the repaired basis: rounding dust below zero is
    // clamped, and no artificial may stay basic above noise level.
    for (int i = 0; i < m_; ++i) {
      double& rhs = row_at(i)[total_cols_];
      if (rhs < 0.0) rhs = 0.0;
      if (basis_[i] >= first_artificial_ && rhs > 1e-7) return false;
    }
    return true;
  }

  [[nodiscard]] const std::vector<int>& basis() const noexcept {
    return basis_;
  }

 private:
  [[nodiscard]] double* row_at(int i) noexcept {
    return a_.data() + static_cast<std::size_t>(i) * stride_;
  }

  // Rebuilds the reduced-cost row for the given column costs (columns past
  // the end of `cost` cost zero), pricing out the current basis.
  void build_objective(const std::vector<double>& cost) {
    std::fill(obj_.begin(), obj_.end(), 0.0);
    std::copy(cost.begin(), cost.end(), obj_.begin());
    for (int i = 0; i < m_; ++i) {
      const auto b = static_cast<std::size_t>(basis_[i]);
      const double cb = b < cost.size() ? cost[b] : 0.0;
      if (cb == 0.0) continue;
      const double* row = row_at(i);
      for (int c = 0; c <= total_cols_; ++c) obj_[c] -= cb * row[c];
    }
  }

  [[nodiscard]] double objective_value() const { return -obj_[total_cols_]; }

  // Dual simplex from the crashed basis until no rhs is below -1e-7. The
  // reduced costs are those of `cost`, with negative ones clamped to zero
  // (cost shifting) so the basis starts dual feasible; phase 2 then prices
  // the true costs again, so the shift never reaches the answer. Returns
  // false on a row with no entering column (the LP is infeasible) or at the
  // iteration limit.
  bool dual_repair(const std::vector<double>& cost, SimplexStats* stats) {
    const auto most_negative_row = [&](bool bland) {
      int row = -1;
      double worst = -1e-7;
      for (int i = 0; i < m_; ++i) {
        const double rhs = row_at(i)[total_cols_];
        if (rhs >= -1e-7) continue;
        if (bland ? row < 0 || basis_[i] < basis_[row] : rhs < worst) {
          worst = rhs;
          row = i;
        }
      }
      return row;
    };
    if (most_negative_row(false) < 0) return true;

    const double tol = options_.tolerance;
    build_objective(cost);
    bool shifted = false;
    for (int c = 0; c < first_artificial_; ++c) {
      if (obj_[c] < 0.0) {
        shifted = shifted || obj_[c] < -tol;
        obj_[c] = 0.0;
      }
    }
    if (shifted && stats != nullptr) ++stats->cost_shifts;

    for (std::uint64_t iter = 0; iter < options_.max_iterations; ++iter) {
      const int leaving = most_negative_row(iter >= options_.bland_after);
      if (leaving < 0) return true;
      const double* row = row_at(leaving);
      int entering = -1;
      double best_ratio = kLpInfinity;
      for (int c = 0; c < first_artificial_; ++c) {
        if (row[c] < -tol) {
          const double ratio = obj_[c] / -row[c];
          if (ratio < best_ratio) {
            best_ratio = ratio;
            entering = c;
          }
        }
      }
      if (entering < 0) return false;
      pivot(leaving, entering);
      if (stats != nullptr) {
        ++stats->iterations;
        ++stats->dual_pivots;
      }
    }
    return false;
  }

  // After phase 1: pivot lingering artificials out of the basis or drop
  // their (redundant) rows, then forbid artificial columns.
  void purge_artificials() {
    for (int i = 0; i < m_; ++i) {
      if (basis_[i] < first_artificial_) continue;
      // Find any usable non-artificial pivot in this row.
      double* row = row_at(i);
      int pivot_col = -1;
      for (int c = 0; c < first_artificial_; ++c) {
        if (std::abs(row[c]) > 1e-9) {
          pivot_col = c;
          break;
        }
      }
      if (pivot_col >= 0) {
        pivot(i, pivot_col);
      } else {
        // Redundant row: zero it so it can never constrain anything. The
        // artificial stays basic at value 0 in a dead row.
        std::fill(row, row + stride_, 0.0);
      }
    }
    artificials_disabled_ = true;
  }

  LpStatus iterate(SimplexStats* stats) {
    const double tol = options_.tolerance;
    for (std::uint64_t iter = 0; iter < options_.max_iterations; ++iter) {
      if (stats != nullptr) ++stats->iterations;
      const bool bland = iter >= options_.bland_after;

      // Entering column.
      int entering = -1;
      double best = -tol;
      const int scan_limit =
          artificials_disabled_ ? first_artificial_ : total_cols_;
      for (int c = 0; c < scan_limit; ++c) {
        const double rc = obj_[c];
        if (rc < -tol) {
          if (bland) {
            entering = c;
            break;
          }
          if (rc < best) {
            best = rc;
            entering = c;
          }
        }
      }
      if (entering < 0) return LpStatus::kOptimal;

      // Ratio test.
      int leaving = -1;
      double best_ratio = kLpInfinity;
      for (int i = 0; i < m_; ++i) {
        const double* row = row_at(i);
        const double a = row[entering];
        if (a > tol) {
          const double ratio = row[total_cols_] / a;
          if (ratio < best_ratio - tol ||
              (ratio < best_ratio + tol && leaving >= 0 &&
               basis_[i] < basis_[leaving])) {
            best_ratio = ratio;
            leaving = i;
          }
        }
      }
      if (leaving < 0) return LpStatus::kUnbounded;
      pivot(leaving, entering);
    }
    return LpStatus::kIterationLimit;
  }

  // Gauss-Jordan pivot touching only the pivot row's nonzero columns: a
  // zero there leaves every other row's entry in that column unchanged, so
  // skipping it reproduces the dense update bit for bit. Artificial columns
  // drop out once disabled — nothing reads them after that.
  void pivot(int row, int col) {
    double* prow = row_at(row);
    const double p = prow[col];
    const int live_end = artificials_disabled_ ? first_artificial_ : total_cols_;
    nonzeros_.clear();
    for (int c = 0; c <= total_cols_; ++c) {
      if ((c >= live_end && c < total_cols_) || prow[c] == 0.0) continue;
      prow[c] /= p;
      if (prow[c] != 0.0) nonzeros_.push_back(c);
    }
    prow[col] = 1.0;  // kill rounding residue on the pivot itself
    auto eliminate = [&](double* r) {
      const double factor = r[col];
      if (factor == 0.0) return;
      for (const int c : nonzeros_) r[c] -= factor * prow[c];
      r[col] = 0.0;
    };
    for (int i = 0; i < m_; ++i) {
      if (i != row) eliminate(row_at(i));
    }
    eliminate(obj_.data());
    basis_[row] = col;
  }

  const LpModel& model_;
  const Transformed& t_;
  SimplexOptions options_;
  int structural_cols_;
  int m_;
  int total_cols_ = 0;
  int first_artificial_ = 0;
  std::size_t stride_ = 1;
  bool artificials_disabled_ = false;
  std::vector<double> a_;
  std::vector<double> obj_;
  std::vector<int> basis_;
  std::vector<int> nonzeros_;  // pivot(): columns where the pivot row is nonzero
};

}  // namespace

LpSolution solve_lp(const LpModel& model, const SimplexOptions& options,
                    SimplexStats* stats, SimplexBasis* warm) {
  LpSolution result;
  const Transformed t = transform(model);
  const std::uint64_t signature = layout_signature(t);

  std::vector<double> columns;
  double objective = 0.0;
  Tableau tableau(model, t, options);
  const bool try_basis =
      warm != nullptr && warm->valid() && warm->signature == signature;
  if (try_basis && tableau.try_warm(warm->basis, t.cost, stats) &&
      tableau.solve_phase2(t.cost, columns, objective, stats) ==
          LpStatus::kOptimal) {
    if (stats != nullptr) stats->warm_started = true;
  } else {
    if (try_basis) {
      // A reconstruction that went sideways must not degrade the answer,
      // only the speed: start over from the slack/artificial basis.
      if (stats != nullptr) ++stats->warm_failed;
      tableau.reset();
    }
    result.status = tableau.solve(t.cost, columns, objective, stats);
    if (result.status != LpStatus::kOptimal) return result;
  }
  result.status = LpStatus::kOptimal;
  if (warm != nullptr) {
    warm->signature = signature;
    warm->basis = tableau.basis();
  }

  // Map structural columns back to model variables.
  result.values.assign(model.variable_count(), 0.0);
  for (std::size_t c = 0; c < t.columns.size(); ++c) {
    result.values[t.columns[c].model_var] += t.columns[c].sign * columns[c];
  }
  for (int j = 0; j < model.variable_count(); ++j) {
    result.values[j] += t.offsets[j];
  }
  const double min_objective = objective + t.cost_constant;
  result.objective = t.flip_objective ? -min_objective : min_objective;
  return result;
}

}  // namespace slate
