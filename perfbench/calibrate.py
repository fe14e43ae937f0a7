"""Fixed reference steps that gauge the host's speed during a run.

On a shared VM the same request runs up to 2x slower for minutes at a
time, because neighbours compete for the cores, the caches and the memory
bus.  The benchmark times a reference step between requests, in the same
shape as the requests themselves (in ``jobs`` worker processes at once
for the Monte Carlo workloads, in-process otherwise), and scales its
throughput by the step's fastest time.  Neighbours slow numpy batches and
scipy solvers by different factors, so each workload is gauged by the
step that does its kind of work.  The steps are the benchmark's own code,
so no change to the package can move them.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize

# the scaled throughput is what a host doing one reference step in this
# many seconds would see
REFERENCE_STEP_S = 0.010
# share of each request's time spent on reference steps after it
SHARE = 0.05


def batch_step(seed: int) -> float:
    """Numpy on a batch of uniforms, then a plain Python loop.

    The work of the Monte Carlo kernel and of the per-step screen.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    means = (rng.random((1024, 200)) ** -0.4).mean(axis=1)
    acc = 0.0
    for k in range(12000):
        acc += float(means[k % 1024]) if k % 3 else k * 0.5
    return acc


def solver_step(seed: int) -> float:
    """scipy's quadrature and SLSQP on Python callbacks.

    The work of the rate engine and the entropy oracle.
    """
    a = 1.0 + (seed % 7) * 1e-9
    acc = quad(lambda x: math.exp(-a * x) * math.cos(20.0 * x), 0.0, 10.0, limit=200)[0]
    for _ in range(2):
        res = minimize(
            lambda v: (a - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2, [-1.2, 1.0],
            method="SLSQP",
        )
        acc += float(res.fun)
    return acc


def mixed_step(seed: int) -> float:
    """Both kinds of work: requests that call solvers also run numpy and
    Python loops of their own."""
    return batch_step(seed) + solver_step(seed)


class HostGauge:
    """Times a reference step; ``jobs`` > 1 runs it in a worker pool at once."""

    def __init__(self, step, jobs: int):
        self.run_step = step
        self.jobs = jobs
        self.pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
        self.times: list[float] = []
        self._seed = 0
        self.step()  # start the workers and warm the caches
        self.times.clear()

    def step(self) -> float:
        self._seed += 1
        t0 = time.perf_counter()
        if self.pool is None:
            self.run_step(self._seed)
        else:
            list(self.pool.map(self.run_step, [self._seed] * self.jobs))
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]

    def after_request(self, seconds: float) -> None:
        """Spend about ``SHARE`` of a request's time, at least one step."""
        spent = self.step()
        while spent < SHARE * seconds:
            spent += self.step()

    def factor(self) -> float:
        """Fastest step over the reference time: < 1 on a faster host."""
        return min(self.times) / REFERENCE_STEP_S

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
