"""The loopgr benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload strata-qq --seed 0 --seconds 20 --trace 0

Every workload runs as a closed loop with one client: a job starts only
after the previous one returned.  The in-process workloads run in a fresh
single-threaded worker process (``worker.py``); ``cli-batch`` runs
``python -m loopgr batch FILE`` subprocesses.  Every output is checked, and
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

  --trace 0  end-to-end metrics, from untraced runs
  --trace 1  per-layer counts and self times from a traced run of a fixed
             job list, tracing overhead, and the layer probes

Inputs are generated from --seed only.  Scratch files (batch inputs, spans)
go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import batch  # noqa: E402  (needs the path above; does not import loopgr)
import golden  # noqa: E402

IN_PROCESS = ("strata-qq", "bundles-gf", "lift-artinian")
WORKLOADS = IN_PROCESS + ("cli-batch",)
SETUP_SAMPLES = 3
CLI_START_SAMPLES = 3
# fixed work for the traced run, so that its counts repeat exactly
TRACE_JOBS = {"strata-qq": 16, "bundles-gf": 12, "lift-artinian": 16}
TRACE_ENTRIES = 500
SUBPROCESS_TIMEOUT_S = 170

def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(mode: str, *args: str) -> dict:
    """Run ``worker.py`` in a fresh process and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, *args],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


class BatchRun:
    """One ``loopgr batch`` process: output lines, their arrival times,
    wall time from spawn to exit, and the process's peak RSS."""

    def __init__(self, path: Path, launcher_out: Path | None = None):
        if launcher_out is None:
            cmd = [sys.executable, "-u", "-m", "loopgr", "batch", str(path)]
        else:
            cmd = [sys.executable, "-u", str(HERE / "launcher.py"), str(launcher_out), "batch", str(path)]
        with open(OUT / "batch-stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=err)
            watchdog = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            self.lines, self.stamps = [], []
            try:
                with proc.stdout:
                    for line in proc.stdout:
                        self.stamps.append(time.perf_counter())
                        self.lines.append(line.decode())
                # wait4 gives this child's own rusage, not the maximum over all children
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall = time.perf_counter() - start
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024
        if proc.returncode < 0 or proc.returncode == 1:
            stderr = (OUT / "batch-stderr.txt").read_text().strip()
            raise RuntimeError(f"loopgr batch crashed ({proc.returncode}):\n{stderr}")

    def gaps(self) -> list[float]:
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


def _write_batch(seed: int, count: int) -> tuple[Path, list]:
    lines, expected = batch.make_batch(seed, count)
    path = OUT / f"batch-seed{seed}-{count}.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path, expected


def _empty_batch_wall(samples: int) -> float:
    empty = OUT / "empty.jsonl"
    empty.write_text("")
    return statistics.median(BatchRun(empty).wall for _ in range(samples))


def run_cli_batch_once(seed: int) -> list[str]:
    """Golden digests of every entry of the seed's batch file."""
    path, expected = _write_batch(seed, batch.ENTRIES)
    run = BatchRun(path)
    docs = {json.loads(line)["index"]: json.loads(line) for line in run.lines}
    return [golden.digest(batch.outcome_doc(docs[i])) for i in range(len(expected))]


# -- end-to-end runs -----------------------------------------------------------


def _latency_metrics(latencies: list[float], wall: float, jobs: int) -> dict:
    return {
        "jobs_per_s": jobs / wall,
        "job_p50_ms": 1000 * statistics.median(latencies),
        "job_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
    }


def measure_in_process(name: str, seed: int, seconds: int) -> dict:
    args = ("--workload", name, "--seed", str(seed))
    res = worker("run", *args, "--seconds", str(seconds))
    setups = [res["setup_s"]] + [
        worker("setup", *args)["setup_s"] for _ in range(SETUP_SAMPLES - 1)
    ]
    lat = res["latencies"]
    metrics = _latency_metrics(lat, sum(lat), len(lat))
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    return {
        "metrics": metrics,
        "samples": len(lat),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "golden_checked": res["golden_checked"],
    }


def measure_cli_batch(seed: int, seconds: int) -> dict:
    path, expected = _write_batch(seed, batch.ENTRIES)
    digests = golden.expected("cli-batch", seed)
    setup_s = _empty_batch_wall(SETUP_SAMPLES)
    gaps, wall, rss, attempted, failed, failures = [], 0.0, 0.0, 0, 0, []
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        run = BatchRun(path)
        bad, _, msgs = batch.check_output(run.lines, expected, digests)
        gaps += run.gaps()
        wall += run.wall
        rss = max(rss, run.peak_rss_mb)
        attempted += len(expected)
        failed += bad
        failures += msgs[: 5 - len(failures)]
    metrics = _latency_metrics(gaps, wall, attempted)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = rss
    return {
        "metrics": metrics,
        "samples": len(gaps),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "golden_checked": attempted if digests is not None else 0,
    }


# -- traced runs -----------------------------------------------------------------


def trace_in_process(name: str, seed: int) -> dict:
    res = worker(
        "trace",
        "--workload", name,
        "--seed", str(seed),
        "--jobs", str(TRACE_JOBS[name]),
        "--spans", str(OUT / f"spans-{name}-seed{seed}.jsonl"),
    )
    # in-process jobs never reach the CLI
    res["metrics"].update({"cli.batch.entries": 0, "cli.batch.expected_errors": 0, "jsonio.bytes_in": 0})
    return res


def trace_cli_batch(seed: int) -> dict:
    path, expected = _write_batch(seed, TRACE_ENTRIES)
    digests = golden.expected("cli-batch", seed)
    digests = digests[:TRACE_ENTRIES] if digests is not None else None
    untraced = BatchRun(path)
    bad_untraced, _, msgs = batch.check_output(untraced.lines, expected, digests)
    launcher_out = OUT / f"layers-cli-batch-seed{seed}.json"
    traced = BatchRun(path, launcher_out)
    bad_traced, expected_errors, more = batch.check_output(traced.lines, expected, digests)
    metrics = json.loads(launcher_out.read_text())
    metrics["cli.batch.entries"] = len(traced.lines)
    metrics["cli.batch.expected_errors"] = expected_errors
    metrics["trace.untraced_wall_s"] = untraced.wall
    metrics["trace.traced_wall_s"] = traced.wall
    metrics["trace.overhead_ratio"] = traced.wall / untraced.wall
    return {
        "metrics": metrics,
        "attempted": 2 * len(expected),
        "failed": bad_untraced + bad_traced,
        "failures": (msgs + more)[:5],
        "golden_checked": 2 * len(expected) if digests is not None else 0,
    }


# -- reporting -------------------------------------------------------------------


def _print_report(name: str, seed: int, res: dict, declared: list) -> None:
    """Every metric by name with its unit, then the failure share with its
    base; the JSON result line comes last."""
    print(f"{name} seed={seed}")
    for m in declared:
        print(f"  {m['name']} = {res['metrics'][m['name']]:.6g} {m['unit']}")
    frac = res["failed"] / res["attempted"]
    print(f"  ops_failed_frac = {frac:.6g} ratio ({res['failed']} of {res['attempted']} jobs)")
    if "samples" in res:
        beyond = res["samples"] - int(0.9 * res["samples"])
        print(f"  latency samples = {res['samples']} (about {beyond} beyond p90)")
    print(f"  golden-checked jobs = {res['golden_checked']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="loopgr benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=golden.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "loopgr" / "__init__.py").is_file():
        print(f"error: no loopgr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    name, seed = args.workload, args.seed
    if args.trace:
        res = trace_cli_batch(seed) if name == "cli-batch" else trace_in_process(name, seed)
        res["metrics"].update(worker("probes")["metrics"])
        res["metrics"]["cli.start_s"] = _empty_batch_wall(CLI_START_SAMPLES)
    elif name == "cli-batch":
        res = measure_cli_batch(seed, args.seconds)
    else:
        res = measure_in_process(name, seed, args.seconds)
    for msg in res["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    _print_report(name, seed, res, declared)
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
