#!/usr/bin/env python3
"""Compare a fresh bench run against its committed perf baseline.

Usage:
    check_bench_regression.py CURRENT.json [BASELINE.json] [--threshold=0.25]
        [--alloc-threshold=0.10]

Exits non-zero if any (case, policy) run's throughput metric regressed by
more than the threshold fraction relative to the baseline
(BENCH_simulator.json at the repo root by default). The metric is whichever
rate field the run carries: events_per_sec (micro_simulator) or
solves_per_sec (micro_optimizer_scaling) — so one gate covers both the
engine bench and the solver solve-time curve. Faster-than-baseline results
are reported but never fail the check — CI machines vary; a >25% throughput
drop on the same machine class is a real regression, not noise.

Allocation pressure is gated separately and more tightly: when both sides
carry allocs_per_request, the check fails if the current run allocates more
than (1 + alloc_threshold) times the baseline per request. The counting
allocator is deterministic for a fixed seed — unlike wall time, an
allocs/request increase is a code change, not machine noise, so the default
headroom is only 10%.

New cases missing from the baseline are reported and skipped. A baseline
case missing from the current run fails the check at once, unless the run
declares it skipped: a bench that leaves cases out on purpose (for
example micro_optimizer_scaling's cluster cap) lists their names in a
top-level "skipped_cases" array. A bench binary that drops or renames a
case therefore fails the first run that lacks it. Regenerate the baseline
with `./bench/micro_simulator BENCH_simulator.json` to re-pin the case
set.
"""

import json
import pathlib
import sys


METRIC_KEYS = ("events_per_sec", "solves_per_sec")


def metric_of(run, path):
    for key in METRIC_KEYS:
        if key in run:
            return run[key]
    sys.exit(
        f"error: run {run.get('case')}/{run.get('policy')} in {path} has "
        f"none of {METRIC_KEYS}"
    )


def load_runs(path):
    """(case, policy) -> run, and the case names the run declares skipped."""
    with open(path) as f:
        doc = json.load(f)
    runs = {}
    for run in doc.get("runs", []):
        runs[(run["case"], run["policy"])] = run
    if not runs:
        sys.exit(f"error: no runs in {path}")
    return runs, set(doc.get("skipped_cases", []))


def main(argv):
    threshold = 0.25
    alloc_threshold = 0.10
    positional = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg.startswith("--alloc-threshold="):
            alloc_threshold = float(arg.split("=", 1)[1])
        else:
            positional.append(arg)
    if not 1 <= len(positional) <= 2:
        sys.exit(__doc__.strip())

    current_path = positional[0]
    baseline_path = (
        positional[1]
        if len(positional) == 2
        else pathlib.Path(__file__).resolve().parent.parent / "BENCH_simulator.json"
    )

    current, skipped = load_runs(current_path)
    baseline, _ = load_runs(baseline_path)

    failures = []
    notes = []
    header = (
        f"    {'case/policy':28s} {'base rate':>12s} {'cur rate':>12s} "
        f"{'delta':>8s} {'allocs/evt':>16s}"
    )
    print(header)
    print("    " + "-" * (len(header) - 4))
    for key, base in sorted(baseline.items()):
        name = f"{key[0]}/{key[1]}"
        cur = current.get(key)
        if cur is None:
            if key[0] in skipped:
                notes.append(f"{name}: skipped by the bench run")
                marker = "SKP"
            else:
                failures.append(
                    f"{name}: in baseline but neither run nor declared "
                    f"skipped — regenerate the baseline or restore the case"
                )
                marker = "REG"
            print(
                f"{marker} {name:28s} {metric_of(base, baseline_path):12,.0f} "
                f"{'-':>12s}"
            )
            continue
        base_eps = metric_of(base, baseline_path)
        cur_eps = metric_of(cur, current_path)
        delta = (cur_eps - base_eps) / base_eps
        marker = "OK "
        if delta < -threshold:
            marker = "REG"
            failures.append(
                f"{name}: rate {cur_eps:,.0f}/s vs baseline "
                f"{base_eps:,.0f}/s ({delta:+.1%} < -{threshold:.0%})"
            )
        alloc_note = f"{'-':>16s}"
        if "allocs_per_event" in base and "allocs_per_event" in cur:
            alloc_note = (
                f"{base['allocs_per_event']:7.3f} ->"
                f"{cur['allocs_per_event']:6.3f}"
            )
        base_apr = base.get("allocs_per_request")
        cur_apr = cur.get("allocs_per_request")
        if base_apr and cur_apr is not None:
            if cur_apr > base_apr * (1.0 + alloc_threshold):
                marker = "REG"
                failures.append(
                    f"{name}: allocs/request {cur_apr:.2f} vs baseline "
                    f"{base_apr:.2f} (+{(cur_apr - base_apr) / base_apr:.1%} > "
                    f"{alloc_threshold:.0%})"
                )
        print(
            f"{marker} {name:28s} {base_eps:12,.0f} {cur_eps:12,.0f} "
            f"{delta:+8.1%} {alloc_note}"
        )

    for key in sorted(set(current) - set(baseline)):
        cur = current[key]
        name = f"{key[0]}/{key[1]}"
        print(
            f"NEW {name:28s} {'-':>12s} {metric_of(cur, current_path):12,.0f} "
            f"{'-':>8s} (not in baseline, skipped)"
        )

    if notes:
        print(f"\n{len(notes)} baseline run(s) not compared:")
        for note in notes:
            print(f"  {note}")
    if failures:
        print(f"\n{len(failures)} failure(s), rate threshold {threshold:.0%}:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nall compared runs within {threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
