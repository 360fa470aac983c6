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

// What both tableau stores share: the basis, the dense reduced-cost row (its
// last slot holds minus the objective value), Dantzig pricing with a switch
// to Bland's rule, the ratio test and phase 2. Column indices are those of
// the dense layout [structural | slack/surplus | artificial]. `Store` owns
// the coefficients and the rhs and supplies rhs(i); for_row(i, f(c, v)) over
// the row's stored entries; for_column(c, f(i, v)) over the rows holding
// column c, in ascending row order (the ratio test's tie-break depends on
// it); and pivot(row, col), which also updates obj_.
template <class Store>
class Simplex {
 public:
  // Phase 2 only — valid from a feasible basis. On kOptimal, `solution`
  // holds structural column values.
  LpStatus solve_phase2(const std::vector<double>& cost,
                        std::vector<double>& solution, double& objective,
                        SimplexStats* stats) {
    build_objective(cost);
    const LpStatus s2 = iterate(stats);
    if (s2 != LpStatus::kOptimal) return s2;

    solution.assign(structural_cols_, 0.0);
    for (int i = 0; i < m_; ++i) {
      if (basis_[i] >= 0 && basis_[i] < structural_cols_) {
        solution[basis_[i]] = store().rhs(i);
      }
    }
    objective = objective_value();
    return LpStatus::kOptimal;
  }

  [[nodiscard]] const std::vector<int>& basis() const noexcept {
    return basis_;
  }

 protected:
  // Sizes the layout for `t`. Pricing covers artificial columns only when
  // the store keeps them.
  void layout(const Transformed& t, const SimplexOptions& options,
              bool store_artificials) {
    options_ = options;
    structural_cols_ = static_cast<int>(t.columns.size());
    m_ = static_cast<int>(t.rhs.size());
    int slack_count = 0;
    int artificial_count = 0;
    for (const Relation r : t.rel) {
      if (r != Relation::kEqual) ++slack_count;
      if (r != Relation::kLessEqual) ++artificial_count;
    }
    total_cols_ = structural_cols_ + slack_count + artificial_count;
    first_artificial_ = structural_cols_ + slack_count;
    price_end_ = store_artificials ? total_cols_ : first_artificial_;
    // pivot() maintains the objective row unconditionally; warm-start
    // reconstruction pivots before any build_objective call, so the row
    // must exist (as zeros) from the start.
    obj_.assign(static_cast<std::size_t>(price_end_) + 1, 0.0);
    basis_.assign(m_, -1);
  }

  // Visits the starting tableau: emit(i, c, v) for each structural and
  // slack/surplus coefficient of row i, with basis_[i] set to the row's
  // slack or artificial column (the artificial's unit coefficient is left
  // to stores that keep artificial columns).
  template <class Emit>
  void starting_rows(const LpModel& model, const Transformed& t, Emit emit) {
    const std::vector<LpModel::Row>& rows = model.rows();
    int next_slack = structural_cols_;
    int next_artificial = first_artificial_;
    for (int i = 0; i < m_; ++i) {
      const bool neg = t.negated[i] != 0;
      if (i < static_cast<int>(rows.size())) {
        for (const LinearTerm& term : rows[i].terms) {
          for (const int c : {t.first_col[term.var], t.second_col[term.var]}) {
            if (c < 0) continue;
            const double v = term.coeff * t.columns[c].sign;
            emit(i, c, neg ? -v : v);
          }
        }
      } else {
        emit(i, t.bound_col[i - rows.size()], neg ? -1.0 : 1.0);
      }
      switch (t.rel[i]) {
        case Relation::kLessEqual:
          emit(i, next_slack, 1.0);
          basis_[i] = next_slack++;
          break;
        case Relation::kGreaterEqual:
          emit(i, next_slack++, -1.0);
          basis_[i] = next_artificial++;
          break;
        case Relation::kEqual:
          basis_[i] = next_artificial++;
          break;
      }
    }
  }

  // Rebuilds the reduced-cost row for the given column costs (columns past
  // the end of `cost` cost zero), pricing out the current basis.
  void build_objective(const std::vector<double>& cost) {
    std::fill(obj_.begin(), obj_.end(), 0.0);
    std::copy(cost.begin(), cost.end(), obj_.begin());
    double& value = obj_.back();
    for (int i = 0; i < m_; ++i) {
      const auto b = static_cast<std::size_t>(basis_[i]);
      const double cb = b < cost.size() ? cost[b] : 0.0;
      if (cb == 0.0) continue;
      store().for_row(i, [&](int c, double v) { obj_[c] -= cb * v; });
      value -= cb * store().rhs(i);
    }
  }

  [[nodiscard]] double objective_value() const { return -obj_.back(); }

  LpStatus iterate(SimplexStats* stats) {
    const double tol = options_.tolerance;
    for (std::uint64_t iter = 0; iter < options_.max_iterations; ++iter) {
      if (stats != nullptr) ++stats->iterations;
      const bool bland = iter >= options_.bland_after;

      // Entering column.
      int entering = -1;
      double best = -tol;
      for (int c = 0; c < price_end_; ++c) {
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
      store().for_column(entering, [&](int i, double a) {
        if (a > tol) {
          const double ratio = store().rhs(i) / a;
          if (ratio < best_ratio - tol ||
              (ratio < best_ratio + tol && leaving >= 0 &&
               basis_[i] < basis_[leaving])) {
            best_ratio = ratio;
            leaving = i;
          }
        }
      });
      if (leaving < 0) return LpStatus::kUnbounded;
      store().pivot(leaving, entering);
    }
    return LpStatus::kIterationLimit;
  }

  Store& store() noexcept { return static_cast<Store&>(*this); }

  SimplexOptions options_;
  int structural_cols_ = 0;
  int m_ = 0;
  int total_cols_ = 0;
  int first_artificial_ = 0;
  int price_end_ = 0;  // pricing and pivots cover columns [0, price_end_)
  std::vector<double> obj_;
  std::vector<int> basis_;
};

// The cold path: a row-major tableau in one buffer (row i at a_[i * stride_],
// rhs last) built per solve, with artificial columns for phase 1. A cold
// pivot changes ~150 rows at ~60 columns each on the benchmark's largest
// group, which a flat buffer serves faster than row lists.
class DenseTableau : public Simplex<DenseTableau> {
 public:
  DenseTableau(const LpModel& model, const Transformed& t,
               const SimplexOptions& options) {
    layout(t, options, /*store_artificials=*/true);
    stride_ = static_cast<std::size_t>(total_cols_) + 1;
    a_.assign(static_cast<std::size_t>(m_) * stride_, 0.0);
    starting_rows(model, t, [&](int i, int c, double v) { row_at(i)[c] = v; });
    for (int i = 0; i < m_; ++i) {
      double* row = row_at(i);
      if (basis_[i] >= first_artificial_) row[basis_[i]] = 1.0;
      row[total_cols_] = t.rhs[i];
    }
  }

  // Runs phase 1 + phase 2.
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

 private:
  friend class Simplex<DenseTableau>;

  [[nodiscard]] double* row_at(int i) noexcept {
    return a_.data() + static_cast<std::size_t>(i) * stride_;
  }
  [[nodiscard]] double rhs(int i) noexcept { return row_at(i)[total_cols_]; }
  template <class F>
  void for_row(int i, F f) {
    const double* row = row_at(i);
    for (int c = 0; c < total_cols_; ++c) f(c, row[c]);
  }
  template <class F>
  void for_column(int c, F f) {
    for (int i = 0; i < m_; ++i) f(i, row_at(i)[c]);
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
    price_end_ = first_artificial_;
  }

  // Gauss-Jordan pivot touching only the pivot row's nonzero columns: a
  // zero there leaves every other row's entry in that column unchanged, so
  // skipping it reproduces the dense update bit for bit. Artificial columns
  // drop out once disabled — nothing reads them after that.
  void pivot(int row, int col) {
    double* prow = row_at(row);
    const double p = prow[col];
    const int live_end = price_end_;
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

  std::size_t stride_ = 1;
  std::vector<double> a_;
  std::vector<int> nonzeros_;  // pivot(): columns where the pivot row is nonzero
};

// The warm path: rows as (column, value) lists without artificial columns
// (nothing reads them once a basis is installed), a row list per column so
// a pivot visits only the rows it changes, and a dense rhs. A warm pivot
// row holds ~9 nonzeros and ~7 other rows share its column, so this is
// O(nnz) work where the dense store scans every row. One instance per
// thread is reloaded by every warm solve, so the lists keep their capacity.
//
// It reproduces the dense kernel bit for bit: the same arithmetic runs on
// every stored entry, a missing entry is the dense store's zero (0.0 minus
// the update is what the dense store computes there), and every scan that
// picks a row or column breaks ties towards the lowest index, as the dense
// store's ascending scans do.
class SparseTableau : public Simplex<SparseTableau> {
 public:
  void load(const LpModel& model, const Transformed& t,
            const SimplexOptions& options) {
    layout(t, options, /*store_artificials=*/false);
    const auto cols = static_cast<std::size_t>(first_artificial_);
    if (rows_.size() < static_cast<std::size_t>(m_)) rows_.resize(m_);
    if (col_rows_.size() < cols) col_rows_.resize(cols);
    for (int i = 0; i < m_; ++i) rows_[i].clear();
    for (std::size_t c = 0; c < cols; ++c) col_rows_[c].clear();
    if (pivot_value_.size() < cols) {
      pivot_value_.resize(cols);
      in_pivot_.resize(cols, 0);
      touched_.resize(cols, 0);
    }
    rhs_ = t.rhs;
    starting_rows(model, t, [&](int i, int c, double v) {
      rows_[i].push_back({c, v});
      col_rows_[c].push_back(i);
    });
  }

  // Installs `target` (a previous solve's basis) by crash pivots, skipping
  // phase 1 entirely, and repairs it into a primal-feasible basis by dual
  // simplex when the rhs has moved since the basis was cut. Returns false
  // when the basis does not fit this tableau, an artificial stays basic
  // above zero, the dual finds a row that proves the LP infeasible, or the
  // iteration limit is hit; the caller then cold-solves on a dense tableau.
  bool try_warm(const std::vector<int>& target, const std::vector<double>& cost,
                SimplexStats* stats) {
    if (static_cast<int>(target.size()) != m_) return false;
    in_target_.assign(total_cols_, 0);
    for (const int c : target) {
      if (c < 0 || c >= total_cols_ || in_target_[c] != 0) return false;
      in_target_[c] = 1;
    }
    is_basic_.assign(total_cols_, 0);
    for (const int c : basis_) is_basic_[c] = 1;
    for (int r = 0; r < m_; ++r) {
      // Every artificial starts basic, so c is a stored column past here.
      const int c = target[r];
      if (is_basic_[c] != 0) continue;  // initial slack that stays basic
      // Bring column c into the basis against a row whose current basic
      // column is not wanted, preferring the largest pivot for stability.
      int pivot_row = -1;
      double best = 1e-7;
      for (const int i : col_rows_[c]) {
        if (in_target_[basis_[i]] != 0) continue;
        const double a = std::abs(entry(i, c));
        if (a > best || (a == best && i < pivot_row)) {
          best = a;
          pivot_row = i;
        }
      }
      if (pivot_row < 0) return false;  // numerically dependent: cold-solve
      is_basic_[basis_[pivot_row]] = 0;
      pivot(pivot_row, c);
      if (stats != nullptr) ++stats->crash_pivots;
      is_basic_[c] = 1;
    }
    if (!dual_repair(cost, stats)) return false;
    // Primal feasibility at the repaired basis: rounding dust below zero is
    // clamped, and no artificial may stay basic above noise level.
    for (int i = 0; i < m_; ++i) {
      double& rhs = rhs_[i];
      if (rhs < 0.0) rhs = 0.0;
      if (basis_[i] >= first_artificial_ && rhs > 1e-7) return false;
    }
    return true;
  }

 private:
  friend class Simplex<SparseTableau>;

  struct Entry {
    int col;
    double value;
  };

  [[nodiscard]] double rhs(int i) const noexcept { return rhs_[i]; }
  template <class F>
  void for_row(int i, F f) const {
    for (const Entry& e : rows_[i]) f(e.col, e.value);
  }
  template <class F>
  void for_column(int c, F f) {
    std::vector<int>& rows = col_rows_[c];
    std::sort(rows.begin(), rows.end());
    for (const int i : rows) f(i, entry(i, c));
  }
  // Row i's coefficient in column c (zero when not stored).
  [[nodiscard]] double entry(int i, int c) const noexcept {
    for (const Entry& e : rows_[i]) {
      if (e.col == c) return e.value;
    }
    return 0.0;
  }

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
        const double rhs = rhs_[i];
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
    for (int c = 0; c < price_end_; ++c) {
      if (obj_[c] < 0.0) {
        shifted = shifted || obj_[c] < -tol;
        obj_[c] = 0.0;
      }
    }
    if (shifted && stats != nullptr) ++stats->cost_shifts;

    for (std::uint64_t iter = 0; iter < options_.max_iterations; ++iter) {
      const int leaving = most_negative_row(iter >= options_.bland_after);
      if (leaving < 0) return true;
      int entering = -1;
      double best_ratio = kLpInfinity;
      for (const Entry& e : rows_[leaving]) {
        if (e.value < -tol) {
          const double ratio = obj_[e.col] / -e.value;
          if (ratio < best_ratio || (ratio == best_ratio && e.col < entering)) {
            best_ratio = ratio;
            entering = e.col;
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

  // Gauss-Jordan pivot over the rows holding column `col`. Entries that
  // cancel to zero stay stored, as zeros, so the lists only grow between
  // pivots on their column.
  void pivot(int row, int col) {
    std::vector<Entry>& prow = rows_[row];
    double p = 0.0;
    for (const Entry& e : prow) {
      if (e.col == col) {
        p = e.value;
        break;
      }
    }
    ++pivot_stamp_;
    pivot_cols_.clear();
    for (Entry& e : prow) {
      if (e.value == 0.0) continue;
      // The pivot itself becomes exactly 1, without rounding residue.
      e.value = e.col == col ? 1.0 : e.value / p;
      if (e.value == 0.0) continue;
      pivot_cols_.push_back(e.col);
      pivot_value_[e.col] = e.value;
      in_pivot_[e.col] = pivot_stamp_;
    }
    double& prhs = rhs_[row];
    if (prhs != 0.0) prhs /= p;
    const double pivot_rhs = prhs;

    std::vector<int>& col_rows = col_rows_[col];
    for (const int i : col_rows) {
      if (i == row) continue;
      std::vector<Entry>& r = rows_[i];
      std::size_t k = 0;
      while (r[k].col != col) ++k;
      const double factor = r[k].value;
      r[k] = r.back();
      r.pop_back();
      if (factor == 0.0) continue;
      ++touch_stamp_;
      for (Entry& e : r) {
        if (in_pivot_[e.col] != pivot_stamp_) continue;
        e.value -= factor * pivot_value_[e.col];
        touched_[e.col] = touch_stamp_;
      }
      for (const int c : pivot_cols_) {
        if (c == col || touched_[c] == touch_stamp_) continue;
        double v = 0.0;
        v -= factor * pivot_value_[c];
        r.push_back({c, v});
        col_rows_[c].push_back(i);
      }
      if (pivot_rhs != 0.0) rhs_[i] -= factor * pivot_rhs;
    }
    col_rows.assign(1, row);

    const double factor = obj_[col];
    if (factor != 0.0) {
      for (const int c : pivot_cols_) obj_[c] -= factor * pivot_value_[c];
      if (pivot_rhs != 0.0) obj_.back() -= factor * pivot_rhs;
      obj_[col] = 0.0;
    }
    basis_[row] = col;
  }

  std::vector<std::vector<Entry>> rows_;
  std::vector<std::vector<int>> col_rows_;
  std::vector<double> rhs_;
  // pivot() scratch, indexed by column: the scaled pivot row, and stamps
  // marking the pivot row's columns and those already updated in the row
  // being eliminated.
  std::vector<double> pivot_value_;
  std::vector<std::uint64_t> in_pivot_;
  std::vector<std::uint64_t> touched_;
  std::uint64_t pivot_stamp_ = 0;
  std::uint64_t touch_stamp_ = 0;
  std::vector<int> pivot_cols_;
  std::vector<char> in_target_;  // try_warm() scratch, indexed by column
  std::vector<char> is_basic_;
};

}  // namespace

LpSolution solve_lp(const LpModel& model, const SimplexOptions& options,
                    SimplexStats* stats, SimplexBasis* warm) {
  LpSolution result;
  const Transformed t = transform(model);
  const std::uint64_t signature = layout_signature(t);

  std::vector<double> columns;
  double objective = 0.0;
  auto finish = [&](const std::vector<int>& basis) {
    result.status = LpStatus::kOptimal;
    if (warm != nullptr) {
      warm->signature = signature;
      warm->basis = basis;
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
  };

  if (warm != nullptr && warm->valid() && warm->signature == signature) {
    thread_local SparseTableau sparse;
    sparse.load(model, t, options);
    if (sparse.try_warm(warm->basis, t.cost, stats) &&
        sparse.solve_phase2(t.cost, columns, objective, stats) ==
            LpStatus::kOptimal) {
      if (stats != nullptr) stats->warm_started = true;
      return finish(sparse.basis());
    }
    // A reconstruction that went sideways must not degrade the answer,
    // only the speed: cold-solve from the slack/artificial basis.
    if (stats != nullptr) ++stats->warm_failed;
  }
  DenseTableau dense(model, t, options);
  result.status = dense.solve(t.cost, columns, objective, stats);
  if (result.status != LpStatus::kOptimal) return result;
  return finish(dense.basis());
}

}  // namespace slate
