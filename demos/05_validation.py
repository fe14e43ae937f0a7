"""Seeded Monte Carlo validation of every certified bound.

A validation run counts final-step screened and unscreened error events
over many independent trials (each trial on its own run of PCG64
outputs fixed by the trial index, so worker count never changes the
answer) and checks
the empirical rates against every applicable bound.

This is the desk-scale version of the full validation; the acceptance
suite runs the same checks at 10^6-10^7 trials.
"""

import time

import screened_mc as sm
from screened_mc.exp_harness import parse_config

config = parse_config(
    {
        "model": {"kind": "pareto_like"},
        "observables": {"preset": "heavy_tail"},
        "screen": {"epsilon": 0.5, "u": 0.025, "n": 200, "sidedness": "two_sided"},
        "trials": 100_000,
        "seed": 20260808,
    }
)

t0 = time.perf_counter()
report = sm.run_validation(config, jobs=2)
print(f"{config.trials} trials of n = {config.screen.n} in {time.perf_counter()-t0:.1f}s")
print(f"screened-in trials   : {report.screened_count}")
print(f"screened error count : {report.screened_error_count}")
print(f"unscreened error count: {report.unscreened_error_count}")
lo, hi = sm.wilson_interval(report.screened_error_count, report.trials)
print(f"screened error rate  : {report.screened_error_rate:.2e}  (99.7% interval [{lo:.2e}, {hi:.2e}])")
print()
print(f"{'method':<14s} {'note':<22s} {'bound at n':>12s} {'sound':>6s}")
for entry, ok in zip(report.bounds, report.bound_passes):
    if entry.skipped:
        print(f"{entry.report.method:<14s} {entry.skip_reason:<22s} {'skipped':>12s} {'-':>6s}")
    else:
        print(
            f"{entry.report.method:<14s} {entry.report.note:<22s} "
            f"{entry.bound_value:12.4g} {str(ok):>6s}"
        )
print()
print(f"all soundness checks pass: {report.all_sound}")
print()

print("heavy-tail decay of the *plain* estimator (desk scale):")
t0 = time.perf_counter()
slope = sm.run_heavy_tail_slope(
    {"kind": "pareto_like"}, {"preset": "heavy_tail"}, 0.5, [25, 50, 100], 300_000, 20260808, jobs=2
)
print(f"error counts {slope.counts} over {slope.trials} trials per horizon "
      f"({time.perf_counter()-t0:.1f}s)")
print(f"fitted log-log slope: {slope.slope:.3f}  (the n -> inf theory gives -7/3)")
