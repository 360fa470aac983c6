// Tests for the LP/MILP solver: simplex on known programs, edge cases,
// randomized feasibility/optimality properties, branch & bound, and the
// piecewise-linear convexifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "lp/branch_and_bound.h"
#include "lp/model.h"
#include "lp/piecewise.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace slate {
namespace {

// --- Textbook LPs -----------------------------------------------------------

TEST(Simplex, SimpleMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18; optimum (2, 6) -> 36.
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const int x = lp.add_variable(0, kLpInfinity, 3.0);
  const int y = lp.add_variable(0, kLpInfinity, 5.0);
  lp.add_constraint({{x, 1.0}}, Relation::kLessEqual, 4.0);
  lp.add_constraint({{y, 2.0}}, Relation::kLessEqual, 12.0);
  lp.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEqual, 18.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 36.0, 1e-7);
  EXPECT_NEAR(sol.values[x], 2.0, 1e-7);
  EXPECT_NEAR(sol.values[y], 6.0, 1e-7);
}

TEST(Simplex, MinimizationWithGreaterEqual) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3; optimum (7, 3) -> 23.
  LpModel lp;
  const int x = lp.add_variable(2.0, kLpInfinity, 2.0);
  const int y = lp.add_variable(3.0, kLpInfinity, 3.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 10.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 23.0, 1e-7);
  EXPECT_NEAR(sol.values[x], 7.0, 1e-7);
  EXPECT_NEAR(sol.values[y], 3.0, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 2y s.t. x + y = 5, x <= 3; optimum (3, 2) -> 7.
  LpModel lp;
  const int x = lp.add_variable(0, 3.0, 1.0);
  const int y = lp.add_variable(0, kLpInfinity, 2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 5.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 7.0, 1e-7);
}

TEST(Simplex, Infeasible) {
  LpModel lp;
  const int x = lp.add_variable(0, kLpInfinity, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kLessEqual, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kGreaterEqual, 2.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(Simplex, Unbounded) {
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const int x = lp.add_variable(0, kLpInfinity, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kGreaterEqual, 1.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // min x s.t. -x <= -4  (i.e. x >= 4).
  LpModel lp;
  const int x = lp.add_variable(0, kLpInfinity, 1.0);
  lp.add_constraint({{x, -1.0}}, Relation::kLessEqual, -4.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.values[x], 4.0, 1e-7);
}

TEST(Simplex, FreeVariable) {
  // min |shape|: min y s.t. y >= x - 2, y >= 2 - x with free x: optimum 0.
  LpModel lp;
  const int x = lp.add_variable(-kLpInfinity, kLpInfinity, 0.0);
  const int y = lp.add_variable(-kLpInfinity, kLpInfinity, 1.0);
  lp.add_constraint({{y, 1.0}, {x, -1.0}}, Relation::kGreaterEqual, -2.0);
  lp.add_constraint({{y, 1.0}, {x, 1.0}}, Relation::kGreaterEqual, 2.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 0.0, 1e-7);
  EXPECT_NEAR(sol.values[x], 2.0, 1e-6);
}

TEST(Simplex, NegativeLowerBound) {
  // min x with x in [-5, 5] -> -5.
  LpModel lp;
  const int x = lp.add_variable(-5.0, 5.0, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kLessEqual, 100.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.values[x], -5.0, 1e-7);
}

TEST(Simplex, UpperBoundOnlyVariable) {
  // max x with x <= 7 as a bound, no rows.
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const int x = lp.add_variable(0.0, 7.0, 1.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.values[x], 7.0, 1e-7);
}

TEST(Simplex, DegenerateCycleGuard) {
  // Beale's classic cycling example (with Bland fallback it must terminate).
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMinimize);
  const int x1 = lp.add_variable(0, kLpInfinity, -0.75);
  const int x2 = lp.add_variable(0, kLpInfinity, 150.0);
  const int x3 = lp.add_variable(0, kLpInfinity, -0.02);
  const int x4 = lp.add_variable(0, kLpInfinity, 6.0);
  lp.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                    Relation::kLessEqual, 0.0);
  lp.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                    Relation::kLessEqual, 0.0);
  lp.add_constraint({{x3, 1.0}}, Relation::kLessEqual, 1.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, -0.05, 1e-6);
}

TEST(Simplex, RedundantEqualityRows) {
  // Duplicate equality rows exercise the artificial-purge path.
  LpModel lp;
  const int x = lp.add_variable(0, kLpInfinity, 1.0);
  const int y = lp.add_variable(0, kLpInfinity, 1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 4.0);
  lp.add_constraint({{x, 2.0}, {y, 2.0}}, Relation::kEqual, 8.0);  // redundant
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 4.0, 1e-7);
}

TEST(Simplex, DuplicateTermsMerged) {
  LpModel lp;
  const int x = lp.add_variable(0, kLpInfinity, 1.0);
  // x + x <= 6 -> x <= 3 after merging.
  lp.add_constraint({{x, 1.0}, {x, 1.0}}, Relation::kLessEqual, 6.0);
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.values[x], 3.0, 1e-7);
}

TEST(Simplex, BlandFromTheStartStillSolves) {
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const int x = lp.add_variable(0, kLpInfinity, 3.0);
  const int y = lp.add_variable(0, kLpInfinity, 5.0);
  lp.add_constraint({{x, 1.0}}, Relation::kLessEqual, 4.0);
  lp.add_constraint({{y, 2.0}}, Relation::kLessEqual, 12.0);
  lp.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEqual, 18.0);
  SimplexOptions options;
  options.bland_after = 0;  // Bland's rule for every pivot
  const LpSolution sol = solve_lp(lp, options);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 36.0, 1e-7);
}

TEST(Simplex, IterationLimitReported) {
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  std::vector<LinearTerm> row;
  for (int i = 0; i < 12; ++i) {
    const int v = lp.add_variable(0, 1.0, 1.0 + 0.1 * i);
    row.push_back({v, 1.0});
  }
  lp.add_constraint(std::move(row), Relation::kLessEqual, 6.0);
  SimplexOptions options;
  options.max_iterations = 1;  // far too few
  const LpSolution sol = solve_lp(lp, options);
  EXPECT_EQ(sol.status, LpStatus::kIterationLimit);
}

TEST(Milp, NodeLimitReturnsIncumbentWithLimitStatus) {
  // A knapsack big enough that one node cannot prove optimality.
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  std::vector<LinearTerm> row;
  Rng rng(77);
  for (int i = 0; i < 16; ++i) {
    const int v = lp.add_variable(0.0, 1.0, rng.uniform(1.0, 10.0));
    lp.set_integer(v);
    row.push_back({v, rng.uniform(1.0, 10.0)});
  }
  lp.add_constraint(std::move(row), Relation::kLessEqual, 30.0);
  MilpOptions options;
  options.max_nodes = 2;
  const LpSolution sol = solve_milp(lp, options);
  EXPECT_NE(sol.status, LpStatus::kOptimal);
}

// Randomized property test: generate LPs with a known feasible point; the
// solver must (a) report optimal, (b) return a feasible solution, (c) beat
// or match the known point's objective.
class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, FeasibleAndNoWorseThanWitness) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const int n = 2 + static_cast<int>(rng.uniform_u64(6));
  const int m = 1 + static_cast<int>(rng.uniform_u64(8));

  LpModel lp;
  std::vector<double> witness(n);
  for (int j = 0; j < n; ++j) {
    witness[j] = rng.uniform(0.0, 5.0);
    lp.add_variable(0.0, 10.0, rng.uniform(-3.0, 3.0));
  }
  for (int i = 0; i < m; ++i) {
    std::vector<LinearTerm> terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      const double c = rng.uniform(-2.0, 2.0);
      terms.push_back({j, c});
      lhs += c * witness[j];
    }
    // Place the rhs so the witness satisfies the row with slack.
    lp.add_constraint(std::move(terms), Relation::kLessEqual,
                      lhs + rng.uniform(0.1, 2.0));
  }

  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_TRUE(lp.is_feasible(sol.values, 1e-6));
  EXPECT_LE(sol.objective, lp.objective_value(witness) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest, ::testing::Range(0, 40));

// Random LPs with equality rows (exercising phase 1 + artificial purge):
// built from a known solution so feasibility is guaranteed.
class RandomEqualityLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomEqualityLpTest, SolvesAndRespectsEqualities) {
  Rng rng(4000 + static_cast<std::uint64_t>(GetParam()));
  const int n = 3 + static_cast<int>(rng.uniform_u64(5));
  LpModel lp;
  std::vector<double> witness(n);
  for (int j = 0; j < n; ++j) {
    witness[j] = rng.uniform(0.0, 4.0);
    lp.add_variable(0.0, 10.0, rng.uniform(-2.0, 2.0));
  }
  const int eqs = 1 + static_cast<int>(rng.uniform_u64(3));
  for (int i = 0; i < eqs; ++i) {
    std::vector<LinearTerm> terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      const double c = rng.uniform(-1.5, 1.5);
      terms.push_back({j, c});
      lhs += c * witness[j];
    }
    lp.add_constraint(std::move(terms), Relation::kEqual, lhs);
  }
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_TRUE(lp.is_feasible(sol.values, 1e-5));
  EXPECT_LE(sol.objective, lp.objective_value(witness) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEqualityLpTest, ::testing::Range(0, 25));

// --- Differential check against brute force ----------------------------------

int uniform_int(Rng& rng, int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<int>(rng.uniform_u64(span));
}

// Best objective (minimization sense) over the vertices of the model's region
// clipped to |x_j| <= box, or +inf when the clipped region is empty. Every
// vertex is the solution of n linearly independent constraints held tight,
// and a nonempty bounded polyhedron has one, so enumerating all n-subsets of
// rows and bound planes finds the optimum.
double best_vertex(const LpModel& lp, double box) {
  const int n = lp.variable_count();
  std::vector<std::vector<double>> planes;  // n coefficients, then the rhs
  for (const auto& row : lp.rows()) {
    std::vector<double> p(n + 1, 0.0);
    for (const auto& t : row.terms) p[t.var] = t.coeff;
    p[n] = row.rhs;
    planes.push_back(std::move(p));
  }
  std::vector<double> lo(n), hi(n);
  for (int j = 0; j < n; ++j) {
    lo[j] = std::max(lp.lower_bound(j), -box);
    hi[j] = std::min(lp.upper_bound(j), box);
    for (const double v : {lo[j], hi[j]}) {
      std::vector<double> p(n + 1, 0.0);
      p[j] = 1.0;
      p[n] = v;
      planes.push_back(std::move(p));
    }
  }
  const double sign =
      lp.objective_sense() == ObjectiveSense::kMaximize ? -1.0 : 1.0;
  double best = kLpInfinity;
  const int h = static_cast<int>(planes.size());
  for (std::uint32_t mask = 0; mask < (1u << h); ++mask) {
    if (std::popcount(mask) != n) continue;
    // Gaussian elimination with partial pivoting on the chosen planes.
    std::vector<std::vector<double>> a;
    for (int p = 0; p < h; ++p) {
      if ((mask >> p) & 1u) a.push_back(planes[p]);
    }
    bool singular = false;
    for (int c = 0; c < n && !singular; ++c) {
      int piv = c;
      for (int r = c + 1; r < n; ++r) {
        if (std::abs(a[r][c]) > std::abs(a[piv][c])) piv = r;
      }
      if (std::abs(a[piv][c]) < 1e-9) {
        singular = true;
        break;
      }
      std::swap(a[c], a[piv]);
      for (int r = 0; r < n; ++r) {
        if (r == c) continue;
        const double f = a[r][c] / a[c][c];
        for (int k = c; k <= n; ++k) a[r][k] -= f * a[c][k];
      }
    }
    if (singular) continue;
    std::vector<double> x(n);
    for (int j = 0; j < n; ++j) x[j] = a[j][n] / a[j][j];
    bool inside = lp.is_feasible(x, 1e-7);
    for (int j = 0; j < n && inside; ++j) {
      inside = x[j] >= lo[j] - 1e-7 && x[j] <= hi[j] + 1e-7;
    }
    if (inside) best = std::min(best, sign * lp.objective_value(x));
  }
  return best;
}

// Status and objective by vertex enumeration. All data are small integers,
// so every vertex of the unclipped region lies far inside the 1e5 box: an
// optimum that still moves when the box doubles is unbounded.
LpSolution brute_force_lp(const LpModel& lp) {
  LpSolution s;
  const double near = best_vertex(lp, 1e5);
  if (near == kLpInfinity) {
    s.status = LpStatus::kInfeasible;
  } else if (best_vertex(lp, 2e5) < near - 1.0) {
    s.status = LpStatus::kUnbounded;
  } else {
    s.status = LpStatus::kOptimal;
    s.objective =
        lp.objective_sense() == ObjectiveSense::kMaximize ? -near : near;
  }
  return s;
}

// Random bounds of every shape the transform handles: nonnegative, boxed,
// free, negative lower, upper only, fixed.
void add_random_variable(LpModel& lp, Rng& rng, bool integer) {
  const int lo = uniform_int(rng, -3, 2);
  const int hi = lo + uniform_int(rng, 0, 4);
  const double c = uniform_int(rng, -3, 3);
  switch (integer ? 1 : uniform_int(rng, 0, 5)) {
    case 0: lp.add_variable(0.0, kLpInfinity, c); break;
    case 1: lp.add_variable(lo, hi, c); break;
    case 2: lp.add_variable(-kLpInfinity, kLpInfinity, c); break;
    case 3: lp.add_variable(-1.0 - uniform_int(rng, 0, 3), kLpInfinity, c); break;
    case 4: lp.add_variable(-kLpInfinity, hi, c); break;
    default: lp.add_variable(lo, lo, c); break;
  }
  if (integer) lp.set_integer(lp.variable_count() - 1);
}

void add_random_rows(LpModel& lp, Rng& rng, int rows) {
  const Relation rels[] = {Relation::kLessEqual, Relation::kGreaterEqual,
                           Relation::kEqual};
  for (int i = 0; i < rows; ++i) {
    std::vector<LinearTerm> terms;
    for (int j = 0; j < lp.variable_count(); ++j) {
      terms.push_back({j, static_cast<double>(uniform_int(rng, -3, 3))});
    }
    // Equalities are rarer so that most draws stay feasible.
    const Relation rel = rels[uniform_int(rng, 0, 4) % 3];
    lp.add_constraint(std::move(terms), rel, uniform_int(rng, -6, 6));
  }
}

TEST(SimplexDifferential, MatchesVertexEnumeration) {
  Rng rng(20261017);
  int outcomes[4] = {};
  for (int trial = 0; trial < 400; ++trial) {
    LpModel lp;
    if (rng.bernoulli(0.5)) lp.set_objective_sense(ObjectiveSense::kMaximize);
    const int n = uniform_int(rng, 1, 4);
    for (int j = 0; j < n; ++j) add_random_variable(lp, rng, false);
    add_random_rows(lp, rng, uniform_int(rng, 0, 5));

    const LpSolution want = brute_force_lp(lp);
    ++outcomes[static_cast<int>(want.status)];
    // A cold solve, then a warm re-solve from its own basis: the two paths
    // the control loop takes every period.
    SimplexBasis basis;
    for (const bool warm : {false, true}) {
      const LpSolution got = solve_lp(lp, {}, nullptr, &basis);
      ASSERT_EQ(got.status, want.status) << "trial " << trial << " warm " << warm;
      if (!got.ok()) continue;
      EXPECT_NEAR(got.objective, want.objective,
                  1e-6 * std::max(1.0, std::abs(want.objective)))
          << "trial " << trial << " warm " << warm;
      EXPECT_TRUE(lp.is_feasible(got.values, 1e-6)) << "trial " << trial;
    }
  }
  // The generator reaches every outcome the brute force can tell apart.
  EXPECT_GT(outcomes[static_cast<int>(LpStatus::kOptimal)], 100);
  EXPECT_GT(outcomes[static_cast<int>(LpStatus::kInfeasible)], 20);
  EXPECT_GT(outcomes[static_cast<int>(LpStatus::kUnbounded)], 20);
}

// The column offset the simplex shifts variable j by (lower bound, else
// upper bound, else 0 for a free variable).
double column_offset(const LpModel& lp, int j) {
  if (lp.lower_bound(j) != -kLpInfinity) return lp.lower_bound(j);
  return lp.upper_bound(j) != kLpInfinity ? lp.upper_bound(j) : 0.0;
}

// A copy of `a` with the same simplex layout (bound shapes, relations, and
// the sign of every offset-shifted rhs) but every cost, bound, coefficient
// and rhs jittered by small integers, as the control loop's next period.
LpModel perturb(const LpModel& a, Rng& rng) {
  LpModel b;
  b.set_objective_sense(a.objective_sense());
  for (int j = 0; j < a.variable_count(); ++j) {
    double lo = a.lower_bound(j);
    double hi = a.upper_bound(j);
    if (lo != -kLpInfinity) lo += uniform_int(rng, -1, 1);
    if (hi != kLpInfinity) hi = std::max(lo, hi + uniform_int(rng, -1, 1));
    b.add_variable(lo, hi,
                   a.objective_coefficient(j) + uniform_int(rng, -1, 1));
  }
  for (const auto& row : a.rows()) {
    std::vector<LinearTerm> terms;
    for (int j = 0; j < a.variable_count(); ++j) {
      double c = 0.0;
      for (const auto& t : row.terms) {
        if (t.var == j) c = t.coeff;
      }
      terms.push_back({j, c + uniform_int(rng, -1, 1)});
    }
    double old_rhs = row.rhs;
    for (const auto& t : row.terms) old_rhs -= t.coeff * column_offset(a, t.var);
    double rhs = old_rhs + uniform_int(rng, -3, 3);
    rhs = old_rhs < 0.0 ? std::min(rhs, -1.0) : std::max(rhs, 0.0);
    for (const auto& t : terms) rhs += t.coeff * column_offset(b, t.var);
    b.add_constraint(std::move(terms), row.rel, rhs);
  }
  return b;
}

TEST(SimplexDifferential, WarmFromPerturbedBasis) {
  Rng rng(20261019);
  int repaired = 0;
  int shifted = 0;
  int infeasible_fallbacks = 0;
  for (int trial = 0; trial < 400; ++trial) {
    LpModel a;
    SimplexBasis basis;
    do {
      a = LpModel();
      if (rng.bernoulli(0.5)) a.set_objective_sense(ObjectiveSense::kMaximize);
      const int n = uniform_int(rng, 1, 4);
      for (int j = 0; j < n; ++j) add_random_variable(a, rng, false);
      add_random_rows(a, rng, uniform_int(rng, 1, 5));
      basis = SimplexBasis();
    } while (!solve_lp(a, {}, nullptr, &basis).ok());

    const LpModel b = perturb(a, rng);
    const LpSolution want = brute_force_lp(b);
    SimplexStats stats;
    const LpSolution got = solve_lp(b, {}, &stats, &basis);
    // Same layout, so A's basis is always tried.
    ASSERT_TRUE(stats.warm_started || stats.warm_failed > 0) << "trial " << trial;
    ASSERT_EQ(got.status, want.status) << "trial " << trial;
    if (stats.dual_pivots > 0) ++repaired;
    if (stats.cost_shifts > 0) ++shifted;
    if (want.status == LpStatus::kInfeasible && stats.warm_failed > 0) {
      ++infeasible_fallbacks;
    }
    if (!got.ok()) continue;
    EXPECT_NEAR(got.objective, want.objective,
                1e-6 * std::max(1.0, std::abs(want.objective)))
        << "trial " << trial;
    EXPECT_TRUE(b.is_feasible(got.values, 1e-6)) << "trial " << trial;
  }
  // The generator reaches every branch of the warm path: dual repair, cost
  // shifting, and an infeasible B that falls back to a cold solve.
  EXPECT_GE(repaired, 50);
  EXPECT_GE(shifted, 20);
  EXPECT_GT(infeasible_fallbacks, 0);
}

// A generalized min-cost flow LP shaped like the routing LP: one column per
// arc with a gain on arrival, a conservation row at every node (=, or >= /
// <= with some slack), <= bundle rows that share capacity across a few
// arcs, and boxed or fixed arcs. The rows are built around a random flow,
// so the LP is feasible. Crash pivots on such rows fill in, which small
// dense LPs never show.
LpModel network_lp(Rng& rng) {
  const int arcs = uniform_int(rng, 40, 150);
  const int nodes = arcs / 4;
  LpModel lp;
  std::vector<std::vector<LinearTerm>> node_terms(nodes);
  std::vector<double> balance(nodes, 0.0);
  std::vector<double> flow(arcs);
  for (int e = 0; e < arcs; ++e) {
    const int from = uniform_int(rng, 0, nodes - 1);
    int to = uniform_int(rng, 0, nodes - 2);
    if (to >= from) ++to;
    const double gain = rng.uniform(0.8, 1.2);
    const double cost = rng.uniform(1.0, 10.0);
    if (rng.bernoulli(0.1)) {
      flow[e] = uniform_int(rng, 0, 5);
      lp.add_variable(flow[e], flow[e], cost);
    } else {
      const double cap = rng.uniform(2.0, 20.0);
      flow[e] = rng.uniform(0.0, cap);
      lp.add_variable(0.0, cap, cost);
    }
    node_terms[from].push_back({e, 1.0});
    node_terms[to].push_back({e, -gain});
    balance[from] += flow[e];
    balance[to] -= gain * flow[e];
  }
  for (int v = 0; v < nodes; ++v) {
    if (node_terms[v].empty()) continue;
    switch (uniform_int(rng, 0, 3)) {
      case 0:
        lp.add_constraint(node_terms[v], Relation::kGreaterEqual,
                          balance[v] - rng.uniform(0.0, 3.0));
        break;
      case 1:
        lp.add_constraint(node_terms[v], Relation::kLessEqual,
                          balance[v] + rng.uniform(0.0, 3.0));
        break;
      default:
        lp.add_constraint(node_terms[v], Relation::kEqual, balance[v]);
        break;
    }
  }
  for (int b = 0; b < nodes / 3; ++b) {
    std::vector<LinearTerm> terms;
    double load = 0.0;
    for (int k = uniform_int(rng, 3, 8); k > 0; --k) {
      const int e = uniform_int(rng, 0, arcs - 1);
      const double w = rng.uniform(0.5, 2.0);
      terms.push_back({e, w});
      load += w * flow[e];
    }
    lp.add_constraint(std::move(terms), Relation::kLessEqual,
                      load + rng.uniform(0.0, 5.0));
  }
  return lp;
}

// The next control period of a network_lp: costs (by up to ±cost_spread),
// capacities, gains and rhs jittered, with the same simplex layout (bound
// shapes, relations and the sign of every offset-shifted rhs).
LpModel perturb_network(const LpModel& a, Rng& rng, double cost_spread) {
  LpModel b;
  for (int j = 0; j < a.variable_count(); ++j) {
    const double lo = a.lower_bound(j);
    const double hi = a.upper_bound(j);
    b.add_variable(lo, hi == lo ? hi : hi * rng.uniform(0.9, 1.1),
                   a.objective_coefficient(j) *
                       rng.uniform(1.0 - cost_spread, 1.0 + cost_spread));
  }
  for (const auto& row : a.rows()) {
    std::vector<LinearTerm> terms = row.terms;
    double shifted = row.rhs;
    for (LinearTerm& t : terms) {
      shifted -= t.coeff * a.lower_bound(t.var);
      if (t.coeff != 1.0) t.coeff *= rng.uniform(0.95, 1.05);
    }
    double rhs = shifted + rng.uniform(-1.0, 1.0);
    rhs = shifted < 0.0 ? std::min(rhs, -1e-3) : std::max(rhs, 0.0);
    for (const LinearTerm& t : terms) rhs += t.coeff * b.lower_bound(t.var);
    b.add_constraint(std::move(terms), row.rel, rhs);
  }
  return b;
}

TEST(SimplexDifferential, WarmMatchesColdOnNetworkLps) {
  // Each trial warm-solves a jittered copy B of a network LP A and
  // cold-solves it. The warm basis is A's optimal basis (the control loop's
  // case), the optimal basis of a copy of A with very different costs (many
  // pivots from B's optimum), or A's basis with one basic column swapped
  // for a nonbasic arc (usually singular, so the warm start falls back).
  // Both paths must agree on the status and the objective, and the warm
  // point must satisfy every row and bound.
  Rng rng(20261020);
  int resumed = 0;
  int repaired = 0;
  int fallbacks = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const LpModel a = network_lp(rng);
    const int mode = uniform_int(rng, 0, 3);
    SimplexBasis basis;
    const LpModel basis_source = mode == 2 ? perturb_network(a, rng, 0.9) : a;
    ASSERT_TRUE(solve_lp(basis_source, {}, nullptr, &basis).ok())
        << "trial " << trial;
    if (mode == 3) {
      const int c = uniform_int(rng, 0, a.variable_count() - 1);
      if (std::find(basis.basis.begin(), basis.basis.end(), c) ==
          basis.basis.end()) {
        basis.basis[uniform_int(rng, 0, static_cast<int>(basis.basis.size()) - 1)] = c;
      }
    }
    const LpModel b = perturb_network(a, rng, 0.1);

    SimplexStats stats;
    const LpSolution warm = solve_lp(b, {}, &stats, &basis);
    const LpSolution cold = solve_lp(b);
    // Same layout, so the basis is always tried.
    ASSERT_TRUE(stats.warm_started || stats.warm_failed > 0) << "trial " << trial;
    if (stats.warm_started) ++resumed;
    if (stats.warm_started && stats.dual_pivots > 0) ++repaired;
    fallbacks += static_cast<int>(stats.warm_failed);
    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    if (!cold.ok()) continue;
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-6 * std::max(1.0, std::abs(cold.objective)))
        << "trial " << trial;
    EXPECT_TRUE(b.is_feasible(warm.values, 1e-6)) << "trial " << trial;
  }
  // Every branch of the warm path is reached: resumed bases, dual repairs
  // and fallbacks to a cold solve.
  EXPECT_GE(resumed, 140);
  EXPECT_GE(repaired, 100);
  EXPECT_GT(fallbacks, 0);
}

TEST(SimplexDifferential, WarmRatioTestVisitsTiedRowsInAscendingOrder) {
  // A degenerate next period: B keeps A's layout, but every rhs except one
  // sits within 2e-9 of zero, so once the crash has installed A's optimal
  // basis, B's phase 2 ratio tests compare rows whose ratios tie within the
  // 1e-9 tolerance. Ties go to the lower basic column, but the tolerance is
  // not transitive, so the row visited first can still decide which row
  // leaves. The crash's fill-in appends rows to column lists out of order;
  // the sparse store must visit them in ascending row order, as the dense
  // store does, or this solve ends on another basis.
  const double inf = kLpInfinity;
  auto build = [&](const double (&cost)[4], const double (&rhs)[8]) {
    LpModel lp;
    lp.add_variable(0.0, 4.0, cost[0]);
    lp.add_variable(0.0, inf, cost[1]);
    lp.add_variable(0.0, inf, cost[2]);
    lp.add_variable(0.0, 3.0, cost[3]);
    lp.add_constraint({{1, 1.0}, {2, 3.0}}, Relation::kLessEqual, rhs[0]);
    lp.add_constraint({{0, -0.5}, {2, 2.0}}, Relation::kLessEqual, rhs[1]);
    lp.add_constraint({{1, 1.0}, {2, 1.0}, {3, 3.0}}, Relation::kLessEqual,
                      rhs[2]);
    lp.add_constraint({{2, 3.5}, {3, 5.0}}, Relation::kLessEqual, rhs[3]);
    lp.add_constraint({{2, -1.0}, {3, -1.0}}, Relation::kLessEqual, rhs[4]);
    lp.add_constraint({{0, 2.0}, {2, 5.5}, {3, -1.0}}, Relation::kLessEqual,
                      rhs[5]);
    lp.add_constraint({{1, 3.0}, {3, 2.0}}, Relation::kEqual, rhs[6]);
    lp.add_constraint({{0, 2.0}, {3, 1.0}}, Relation::kLessEqual, rhs[7]);
    return lp;
  };
  const LpModel a = build({-3.0, -1.0, -3.0, -5.0},
                          {3.0, 4.0, 6.0, 6.0, 6.0, 2.0, 4.0, 2.0});
  const LpModel b = build({-1.0, 3.0, -5.0, 0.0},
                          {7e-10, 3e-10, 0.0, 7e-10, 3.0, 1.6e-9, 1.1e-9, 1.1e-9});
  SimplexBasis basis;
  ASSERT_TRUE(solve_lp(a, {}, nullptr, &basis).ok());
  ASSERT_EQ(basis.basis, (std::vector<int>{4, 5, 6, 3, 8, 2, 1, 0, 11, 12}));

  SimplexStats stats;
  const LpSolution warm = solve_lp(b, {}, &stats, &basis);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(stats.warm_started);
  EXPECT_EQ(stats.crash_pivots, 4u);
  EXPECT_EQ(stats.iterations, 2u);
  EXPECT_EQ(basis.basis, (std::vector<int>{4, 5, 6, 3, 8, 2, 1, 10, 11, 12}));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.objective),
            std::bit_cast<std::uint64_t>(-1.9032258064516134e-10));
}

TEST(SimplexDifferential, MilpMatchesIntegerEnumeration) {
  Rng rng(7919);
  int feasible = 0;
  for (int trial = 0; trial < 200; ++trial) {
    LpModel lp;
    if (rng.bernoulli(0.5)) lp.set_objective_sense(ObjectiveSense::kMaximize);
    const int n = uniform_int(rng, 1, 3);
    for (int j = 0; j < n; ++j) add_random_variable(lp, rng, true);
    add_random_rows(lp, rng, uniform_int(rng, 1, 4));

    // Every integer point of the box, best feasible objective.
    const double sign =
        lp.objective_sense() == ObjectiveSense::kMaximize ? -1.0 : 1.0;
    double best = kLpInfinity;
    std::vector<double> x(n);
    for (int j = 0; j < n; ++j) x[j] = lp.lower_bound(j);
    while (true) {
      if (lp.is_feasible(x, 1e-9)) {
        best = std::min(best, sign * lp.objective_value(x));
      }
      int j = 0;
      while (j < n && x[j] == lp.upper_bound(j)) {
        x[j] = lp.lower_bound(j);
        ++j;
      }
      if (j == n) break;
      x[j] += 1.0;
    }

    const LpSolution got = solve_milp(lp);
    if (best == kLpInfinity) {
      EXPECT_EQ(got.status, LpStatus::kInfeasible) << "trial " << trial;
      continue;
    }
    ++feasible;
    ASSERT_EQ(got.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(got.objective, sign * best, 1e-6) << "trial " << trial;
  }
  EXPECT_GT(feasible, 50);
}

// --- Branch & bound -----------------------------------------------------------

TEST(Milp, IntegerKnapsack) {
  // max 8a + 11b + 6c + 4d, 5a + 7b + 4c + 3d <= 14, binary -> optimum 21
  // (a=0? classic answer: items 1,2 (a,b): 8+11=19 w=12; b+c+d=21 w=14).
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const double values[] = {8, 11, 6, 4};
  const double weights[] = {5, 7, 4, 3};
  std::vector<int> vars;
  std::vector<LinearTerm> row;
  for (int i = 0; i < 4; ++i) {
    const int v = lp.add_variable(0.0, 1.0, values[i]);
    lp.set_integer(v);
    vars.push_back(v);
    row.push_back({v, weights[i]});
  }
  lp.add_constraint(std::move(row), Relation::kLessEqual, 14.0);
  const LpSolution sol = solve_milp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 21.0, 1e-6);
  for (int v : vars) {
    const double x = sol.values[v];
    EXPECT_NEAR(x, std::round(x), 1e-6);
  }
}

TEST(Milp, IntegralityGapVsRelaxation) {
  // max x s.t. 2x <= 3, x integer -> 1 (relaxation gives 1.5).
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const int x = lp.add_variable(0.0, kLpInfinity, 1.0);
  lp.set_integer(x);
  lp.add_constraint({{x, 2.0}}, Relation::kLessEqual, 3.0);
  const LpSolution relaxed = solve_lp(lp);
  EXPECT_NEAR(relaxed.objective, 1.5, 1e-7);
  const LpSolution integral = solve_milp(lp);
  ASSERT_TRUE(integral.ok());
  EXPECT_NEAR(integral.objective, 1.0, 1e-7);
}

TEST(Milp, InfeasibleInteger) {
  // 0.4 <= x <= 0.6, x integer: LP feasible, MILP infeasible.
  LpModel lp;
  const int x = lp.add_variable(0.4, 0.6, 1.0);
  lp.set_integer(x);
  EXPECT_TRUE(solve_lp(lp).ok());
  EXPECT_EQ(solve_milp(lp).status, LpStatus::kInfeasible);
}

TEST(Milp, MixedIntegerContinuous) {
  // min 3x + y, x + y >= 3.5, x integer, y continuous in [0, 1].
  // x = 3 forces y >= 0.5 -> objective 9.5 (x = 4 would give 12).
  LpModel lp;
  const int x = lp.add_variable(0.0, kLpInfinity, 3.0);
  lp.set_integer(x);
  const int y = lp.add_variable(0.0, 1.0, 1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 3.5);
  const LpSolution sol = solve_milp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 9.5, 1e-6);
  EXPECT_NEAR(sol.values[x], 3.0, 1e-6);
  EXPECT_NEAR(sol.values[y], 0.5, 1e-6);
}

TEST(Milp, PureLpFastPath) {
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const int x = lp.add_variable(0.0, 2.5, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kLessEqual, 10.0);
  MilpStats stats;
  const LpSolution sol = solve_milp(lp, {}, &stats);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.values[x], 2.5, 1e-7);
  EXPECT_EQ(stats.nodes_explored, 1u);
}

// --- LpModel helpers ------------------------------------------------------------

TEST(LpModel, IsFeasibleChecksEverything) {
  LpModel lp;
  const int x = lp.add_variable(0.0, 5.0, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kGreaterEqual, 2.0);
  EXPECT_TRUE(lp.is_feasible({3.0}));
  EXPECT_FALSE(lp.is_feasible({1.0}));   // violates row
  EXPECT_FALSE(lp.is_feasible({6.0}));   // violates bound
  EXPECT_FALSE(lp.is_feasible({}));      // wrong arity
}

TEST(LpModel, InvertedBoundsThrow) {
  LpModel lp;
  EXPECT_THROW(lp.add_variable(2.0, 1.0, 0.0), std::invalid_argument);
  const int x = lp.add_variable(0.0, 1.0, 0.0);
  EXPECT_THROW(lp.set_bounds(x, 3.0, 2.0), std::invalid_argument);
}

TEST(LpModel, UnknownVariableInRowThrows) {
  LpModel lp;
  lp.add_variable(0.0, 1.0, 0.0);
  EXPECT_THROW(lp.add_constraint({{5, 1.0}}, Relation::kEqual, 0.0),
               std::out_of_range);
}

// --- Piecewise-linear convexifier --------------------------------------------------

TEST(Piecewise, QueueCostValues) {
  EXPECT_EQ(queue_cost(0.0), 0.0);
  EXPECT_NEAR(queue_cost(0.5), 0.5, 1e-12);         // 0.25 / 0.5
  EXPECT_NEAR(queue_cost(0.9), 8.1, 1e-9);          // 0.81 / 0.1
  EXPECT_TRUE(std::isinf(queue_cost(1.0)));
}

TEST(Piecewise, TangentsUnderestimateConvexFunction) {
  const auto tangents = queue_cost_tangents(0.95, 12);
  EXPECT_EQ(tangents.size(), 12u);
  for (double u = 0.0; u <= 0.95; u += 0.01) {
    const double approx = pwl_value(tangents, u);
    EXPECT_LE(approx, queue_cost(u) + 1e-9) << "u=" << u;
  }
}

TEST(Piecewise, ApproximationTightAtTangentPoints) {
  const auto tangents = queue_cost_tangents(0.9, 24);
  // Dense tangents: the error must be small where the function is large
  // (relative) and absolutely small everywhere (at tiny u the function is
  // ~u^2, so relative error is inherently coarse but irrelevant).
  for (double u = 0.0; u <= 0.9; u += 0.005) {
    const double exact = queue_cost(u);
    const double approx = pwl_value(tangents, u);
    EXPECT_LE(exact - approx, std::max(0.05 * exact, 0.01)) << "u=" << u;
  }
}

TEST(Piecewise, BadArgsThrow) {
  EXPECT_THROW(queue_cost_tangents(0.0, 8), std::invalid_argument);
  EXPECT_THROW(queue_cost_tangents(1.0, 8), std::invalid_argument);
  EXPECT_THROW(queue_cost_tangents(0.9, 1), std::invalid_argument);
}

}  // namespace
}  // namespace slate
