// Two-phase primal simplex for LpModel (LP relaxation: integrality ignored).
//
// Bounded variables are handled by substitution (lower bounds shifted to
// zero, finite upper bounds become explicit rows, free variables split);
// phase 1 minimizes artificial infeasibility, phase 2 the user objective.
// The entering rule is most-negative reduced cost, switching to Bland's
// rule after a fixed number of iterations to guarantee termination on
// degenerate problems.
//
// A warm start replaces phase 1 with three steps: crash pivots install the
// previous period's basis; when the moved rhs leaves that basis primal
// infeasible, dual simplex repairs it (negative reduced costs clamped to
// zero first, so the basis starts dual feasible); phase 2 then prices the
// true costs and finishes. Only a basis that cannot be installed or
// repaired falls back to a cold solve.
//
// Which tableau a solve uses follows from its input, never from an option:
//   - Cold (no basis, a stale signature, or a failed warm attempt): one
//     row-major buffer per solve, with artificial columns for phase 1. A
//     pivot updates the other rows only at the pivot row's nonzero columns.
//     On the benchmark's `social-diurnal` group (604 x 944) a cold pivot
//     row holds ~58 nonzeros and changes ~147 rows, which a flat buffer
//     serves best.
//   - Warm: rows as (column, value) lists without artificial columns
//     (nothing reads them once a basis is installed), a row list per
//     column so a pivot visits only the rows holding the pivot column, and
//     a dense rhs and reduced-cost row. One such store per thread is
//     reloaded by every warm solve, so it costs O(nonzeros) and never an
//     m x n buffer. On the same group a warm pivot row holds ~9 nonzeros
//     and changes ~7 rows, and the final tableau is 2% dense, so each of
//     the ~160 crash pivots costs the rows it changes, not a scan of all.
// Both take the same pivots and return the same bits as a dense tableau
// that updates every column: only exact zeros are skipped, the same
// arithmetic runs on every stored entry, and every row and column choice
// breaks ties towards the lowest index. Measured and rejected (see
// docs/solver.md): the sparse store for both paths (cold solves 2.3-2.6x
// slower), a flat buffer with per-column occupancy lists (no warm gain,
// cold solves 60-80% slower) and a per-thread flat buffer reused across
// solves (peak RSS up to 30% higher).
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
  // Every primal and dual simplex pivot (crash pivots excluded).
  std::uint64_t iterations = 0;
  // True when the solve skipped phase 1 by reusing a caller-supplied basis.
  bool warm_started = false;
  // Pivots spent installing a caller-supplied basis, whether or not the
  // warm start then succeeded (not counted in `iterations`), and warm
  // starts that failed into a cold solve.
  std::uint64_t crash_pivots = 0;
  std::uint64_t warm_failed = 0;
  // Dual simplex pivots that repaired an installed basis (also counted in
  // `iterations`), and warm solves whose reduced costs had to be clamped to
  // make that basis dual feasible.
  std::uint64_t dual_pivots = 0;
  std::uint64_t cost_shifts = 0;
};

// An optimal basis exported by a previous solve, reusable as a warm start
// for a structurally identical model (same constraint/variable layout; only
// coefficients, bounds, and rhs may differ — the control loop's case, where
// demand moves between periods but the LP shape is fixed). The basis need
// not stay primal or dual feasible for the new values: the warm start
// repairs it by dual simplex before phase 2. `signature`
// fingerprints the transformed layout; a solve handed a basis with a stale
// signature simply cold-solves and overwrites it.
struct SimplexBasis {
  std::uint64_t signature = 0;
  std::vector<int> basis;  // basic column per transformed row

  [[nodiscard]] bool valid() const noexcept { return !basis.empty(); }
};

// Solves the LP relaxation of `model`. `stats`, if non-null, receives
// iteration counts. `warm`, if non-null, is both input and output: a valid
// matching basis skips phase 1 (crash pivots reconstruct the previous
// period's basis, dual simplex repairs it if the rhs moved out of its
// feasible range, and phase 2 resumes from it; a cold solve runs only if
// the basis cannot be installed or repaired, which includes every
// infeasible LP); on any optimal solve the final basis is written back for
// the next period.
LpSolution solve_lp(const LpModel& model, const SimplexOptions& options = {},
                    SimplexStats* stats = nullptr,
                    SimplexBasis* warm = nullptr);

}  // namespace slate
