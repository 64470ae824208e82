"""One fresh, single-threaded process that runs an in-process workload.

Modes (each prints one JSON object as its last stdout line):

  setup   import loopgr and build the seeded input pool; report the time
  run     set up, then run jobs in a closed loop with one client until
          --seconds have passed, at least MIN_JOBS jobs are done and the
          job mix has completed a whole number of periods
  trace   set up, run the first --jobs jobs untraced, then the same jobs
          with every layer wrapped; report per-layer counts and self times
  probes  run the layer probes
  golden  print the digest of every output of the pool (to record goldens)

Run by ``run.py``; not meant to be called by hand except for debugging.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import golden  # noqa: E402  (needs the path above; does not import loopgr)

MIN_JOBS = 100
MAX_REPORTED_FAILURES = 5


def _setup(name: str, seed: int):
    start = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name]
    pool = wl.build(seed, wl.pool_size)
    return wl, pool, time.perf_counter() - start


class Outcomes:
    """Runs jobs and counts those whose outcome differs from the expected."""

    def __init__(self, wl, pool, digests):
        self.wl, self.pool, self.digests = wl, pool, digests
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.golden_checked = 0

    def job(self, index: int) -> float:
        """Run job ``index``, check it, and return its latency in seconds."""
        from workloads import canonical

        k = index % len(self.pool)
        item = self.pool[k]
        start = time.perf_counter()
        try:
            out = self.wl.run(item)
            error = None
        except Exception as exc:  # an unexpected error is a failed job, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if error is None:
            error = self.wl.check(item, out)
        if error is None and self.digests is not None:
            self.golden_checked += 1
            if golden.digest(canonical(out)) != self.digests[k]:
                error = "output differs from the golden digest"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"job {index} (input {k}): {error}")
        return latency

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "golden_checked": self.golden_checked,
        }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def mode_setup(args) -> dict:
    _, _, setup_s = _setup(args.workload, args.seed)
    return {"setup_s": setup_s}


def mode_run(args) -> dict:
    wl, pool, setup_s = _setup(args.workload, args.seed)
    outcomes = Outcomes(wl, pool, golden.expected(args.workload, args.seed))
    latencies = []
    start = time.perf_counter()
    while (
        len(latencies) < MIN_JOBS
        or time.perf_counter() - start < args.seconds
        or len(latencies) % wl.period
    ):
        latencies.append(outcomes.job(len(latencies)))
    return {
        "setup_s": setup_s,
        "latencies": latencies,
        "peak_rss_mb": _peak_rss_mb(),
        **outcomes.summary(),
    }


def mode_trace(args) -> dict:
    from tracer import Tracer, install, layer_metrics

    wl, pool, _ = _setup(args.workload, args.seed)
    outcomes = Outcomes(wl, pool, golden.expected(args.workload, args.seed))
    untraced = sum(outcomes.job(i) for i in range(args.jobs))
    tracer = Tracer()
    restore = install(tracer)
    traced = 0.0
    try:
        for i in range(args.jobs):
            tracer.start_job(i)
            tracer.active = True
            start = time.perf_counter()
            try:
                wl.run(pool[i % len(pool)])
            finally:
                traced += time.perf_counter() - start
                tracer.active = False
    finally:
        restore()
    if args.spans:
        tracer.write_spans(args.spans)
    metrics = layer_metrics(tracer)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.overhead_ratio"] = traced / untraced
    return {"metrics": metrics, **outcomes.summary()}


def mode_probes(args) -> dict:
    from probes import run_probes

    return {"metrics": run_probes()}


def mode_golden(args) -> dict:
    from workloads import canonical

    wl, pool, _ = _setup(args.workload, args.seed)
    return {"digests": [golden.digest(canonical(wl.run(item))) for item in pool]}


MODES = {
    "setup": mode_setup,
    "run": mode_run,
    "trace": mode_trace,
    "probes": mode_probes,
    "golden": mode_golden,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--jobs", type=int, default=8)
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    args = parser.parse_args(argv)
    print(json.dumps(MODES[args.mode](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
