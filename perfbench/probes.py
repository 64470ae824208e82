"""Layer probes: series multiply/invert and loop det/inverse on fixed inputs.

The inputs are fixed, not drawn from the run's seed, so a probe reads the
same work on every run and every commit.  Each probe reports the median of
its repeats, in milliseconds.
"""

from __future__ import annotations

import random
import statistics
import time

from loopgr import QQ, LaurentSeries, LoopMatrix, random_loop

from workloads import GF

SERIES_LENGTHS = (16, 64, 256)
LOOP_RANKS = (2, 3, 4, 5, 6)
MIN_REPEATS = 3
MIN_PROBE_S = 0.05


def _median_ms(fn) -> float:
    times = []
    spent = 0.0
    while len(times) < MIN_REPEATS or spent < MIN_PROBE_S:
        start = time.perf_counter()
        fn()
        dt = time.perf_counter() - start
        times.append(dt)
        spent += dt
    return 1000 * statistics.median(times)


def _window_series(ring, rng, length) -> LaurentSeries:
    coeffs = [ring.random_unit(rng)] + [ring.random(rng) for _ in range(length - 1)]
    return LaurentSeries.make(ring, 0, coeffs, length)


def run_probes() -> dict:
    rng = random.Random("layer-probes")
    out = {}
    for ring, tag in ((QQ, "qq"), (GF, "gf")):
        for length in SERIES_LENGTHS:
            a = _window_series(ring, rng, length)
            b = _window_series(ring, rng, length)
            out[f"probe.series.mul.{tag}.{length}"] = _median_ms(lambda: a.mul(b))
            out[f"probe.series.invert.{tag}.{length}"] = _median_ms(a.invert)
    for n in LOOP_RANKS:
        rows = random_loop(n, 1, seed=n).rows
        out[f"probe.loops.det.qq.n{n}"] = _median_ms(lambda: LoopMatrix(rows).det())
        out[f"probe.loops.inverse.qq.n{n}"] = _median_ms(lambda: LoopMatrix(rows).inverse())
    return out
