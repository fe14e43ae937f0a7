"""Screened estimation on a heavy-tailed mean.

Estimating E[X^(3/4)] from samples of the density 5/(2 x^(7/2)) on
[1, inf) is painful: the plain running mean is still visibly wandering
after thousands of samples.  But E[X] = 5/3 is known, so the running
mean of the raw samples can *screen* the estimates: we trust the
estimate at the horizon only if the raw-sample mean sits within
u = 0.005 of 5/3.

This script reproduces the trajectory experiment: a few seeded runs of
5000 samples each.  Each trajectory holds three columns over the steps
k = 1..n (the running means of F and U and the screening flag), written
to CSV (columns k,s_hat,t_hat,screened) ready for plotting.
"""

import os

import screened_mc as sm

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

model, pair = sm.heavy_tail_pair()
config = sm.ScreenConfig(epsilon=0.2, u=0.005, n=5000)
root_seed = 20260808

print(f"true mean of F:  mu = {pair.mu:.6f}  (10/7)")
print(f"known mean of U: nu = {pair.nu:.6f}  (5/3)")
print(f"screen: accept the estimate at k = n only if |t_hat - nu| < {config.u}")
print()

for trial in range(4):
    x = sm.sample(model, sm.RandomStream(root_seed).substream(trial), config.n)
    trajectory = sm.run_trajectory(pair, x, config)
    screened_steps = [k for k, flag in enumerate(trajectory.screened, 1) if flag]
    s_final, t_final = trajectory.s_hat[-1], trajectory.t_hat[-1]
    path = os.path.join(OUT_DIR, f"trajectory_{trial}.csv")
    sm.emit_trajectory_csv(trajectory, path)
    print(
        f"trial {trial}: final s_hat = {s_final:.4f} "
        f"(error {s_final - pair.mu:+.4f}), t_hat = {t_final:.4f}, "
        f"screened at n: {trajectory.screened[-1]}"
    )
    if screened_steps:
        print(
            f"         {len(screened_steps)} of {config.n} steps screened in; "
            f"first {screened_steps[0]}, last {screened_steps[-1]}"
        )
    else:
        print("         no step was screened in")
    print(f"         wrote {path}")

print()
print("Early screened times are less reliable than late ones: the error")
print("guarantee attaches only to the horizon fixed before sampling.")
