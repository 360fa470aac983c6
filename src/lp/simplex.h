// Two-phase primal simplex for LpModel (LP relaxation: integrality ignored).
//
// Bounded variables are handled by substitution (lower bounds shifted to
// zero, finite upper bounds become explicit rows, free variables split);
// phase 1 minimizes artificial infeasibility, phase 2 the user objective.
// The entering rule is most-negative reduced cost, switching to Bland's
// rule after a fixed number of iterations to guarantee termination on
// degenerate problems.
//
// The tableau is one row-major buffer per solve_lp call, filled from the
// model's sparse rows (a failed warm start refills it for the cold solve).
// A pivot updates the other rows only at the pivot row's nonzero columns,
// and artificial columns drop out after phase 1. Only exact zeros are
// skipped, so the pivot sequence and every result bit match a dense
// tableau that updates every column.
#pragma once

#include <cstdint>

#include "lp/model.h"

namespace slate {

struct SimplexOptions {
  std::uint64_t max_iterations = 200000;
  // Iterations of most-negative-reduced-cost pivoting before switching to
  // Bland's rule.
  std::uint64_t bland_after = 20000;
  double tolerance = 1e-9;
};

struct SimplexStats {
  std::uint64_t iterations = 0;
  // True when the solve skipped phase 1 by reusing a caller-supplied basis.
  bool warm_started = false;
  // Pivots spent installing a caller-supplied basis, whether or not the
  // warm start then succeeded (not counted in `iterations`), and warm
  // starts that failed into a cold solve.
  std::uint64_t crash_pivots = 0;
  std::uint64_t warm_failed = 0;
};

// An optimal basis exported by a previous solve, reusable as a warm start
// for a structurally identical model (same constraint/variable layout; only
// coefficients, bounds, and rhs may differ — the control loop's case, where
// demand moves between periods but the LP shape is fixed). `signature`
// fingerprints the transformed layout; a solve handed a basis with a stale
// signature simply cold-solves and overwrites it.
struct SimplexBasis {
  std::uint64_t signature = 0;
  std::vector<int> basis;  // basic column per transformed row

  [[nodiscard]] bool valid() const noexcept { return !basis.empty(); }
};

// Solves the LP relaxation of `model`. `stats`, if non-null, receives
// iteration counts. `warm`, if non-null, is both input and output: a valid
// matching basis skips phase 1 (reconstructing the previous period's basis
// and resuming phase 2 from it, falling back to a cold solve if the basis
// no longer reaches a feasible point); on any optimal solve the final basis
// is written back for the next period.
LpSolution solve_lp(const LpModel& model, const SimplexOptions& options = {},
                    SimplexStats* stats = nullptr,
                    SimplexBasis* warm = nullptr);

}  // namespace slate
