"""Benchmark of the shearwaves command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
Workloads (see ``bench/workloads.py`` for why each was chosen):
``smooth_n4096``, ``breaking_dense`` and ``checks_small_n``.

Each run is a closed loop in one child process, single-threaded: one
iteration starts after the previous one ends, until ``--seconds`` have
passed.  Set-up is also timed in separate fresh processes, because the
package import can be timed only once per process.

End-to-end metrics (``--trace 0``):
  setup_s      median set-up time over fresh processes, at reference
               speed: package import, config parse, Grid, coefficients,
               initial data
  wall_s       median iteration wall time, rescaled to reference speed by
               a fixed kernel timed every 50 ms during the iteration
               (``child.SpeedProbe``); the raw wall times are printed too
  peak_rss_mb  peak resident memory of the workload process after its
               first iteration, as one command-line invocation reaches
Per-layer metrics (``--trace 1``) come from two more iterations under
``bench/tracer.py``; the end-to-end numbers are never taken from them.
Counts are exact and must repeat between the two; times are raw seconds
(median of the two), except ``trace.overhead_s``, the traced minus the
untraced wall time at reference speed.
Their spans are written to ``.bench_out/trace-<workload>.csv.gz``.

Inputs and run directories live under ``.bench_out/`` in the checkout and
are deleted after each iteration and each run.

Every iteration's output is checked (``workloads.py``); ``fail_fraction`` is
printed as failed / attempted and carried in the result's ``failed`` and
``attempted``.  The last line of standard output is one JSON object; the exit
code is 1 if any check failed and 2 if the benchmark could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
DEADLINE_S = 170.0
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def wall_estimate(iterations: list[dict]) -> float:
    """Median iteration wall time at reference speed (``child.SpeedProbe``)."""
    return statistics.median(it["reference_wall_s"] for it in iterations)


def source_stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    revision = "unavailable"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10).stdout.strip() or revision
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_revision": revision, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))}


def run_child(workload: str, workdir: Path, seconds: float, trace: int,
              setup_only: bool, deadline: float) -> dict:
    result = workdir / ("setup.json" if setup_only else "result.json")
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--workdir", str(workdir), "--seconds", str(seconds),
           "--trace", str(trace), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **SINGLE_THREAD},
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(result.read_text())


def layer_report(trace: dict, untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced iterations, and any problems:
    counts must repeat exactly between the two traced iterations."""
    first, second = trace["layers"]
    problems = [f"{name} differs between traced iterations: {value} vs {second[name][0]}"
                for name, (value, unit) in first.items()
                if unit != "s" and second[name][0] != value]
    metrics = {name: (value if unit != "s" else statistics.median(
        [value, second[name][0]]), unit) for name, (value, unit) in first.items()}
    iterations = trace["iterations"]
    metrics["cli.output_bytes"] = (iterations[0]["output_bytes"], "B")
    metrics["trace.overhead_s"] = (
        wall_estimate(iterations) - untraced_wall, "s")
    return metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "shearwaves" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'shearwaves'}")
    if not args.seconds > 0:
        raise BenchError("--seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    stamp = source_stamp()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload]
        workload.make_inputs(args.seed, workdir)
        setups = [run_child(args.workload, workdir, 0, 0, True, deadline)
                  for _ in range(SETUP_PROBES)]
        result = run_child(args.workload, workdir, args.seconds, args.trace, False, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result)
    setup_walls = [s["setup_s"] for s in setups]

    iterations = result["iterations"]
    walls = [it["wall_s"] for it in iterations]
    problems = [p for it in iterations for p in it["problems"]]
    failed = sum(1 for it in iterations if it["problems"])
    attempted = len(iterations)

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"# shearwaves {result['shearwaves_file']}  revision {stamp['git_revision']}  "
          f"src sha256 {stamp['src_sha256'][:16]}")
    print(f"# python {stamp['python']}  numpy {result['numpy_version']}  "
          f"nproc {stamp['nproc']}  usable cpus {stamp['cpus_usable']}")
    metrics = {
        "setup_s": (statistics.median(s["reference_setup_s"] for s in setups), "s"),
        "wall_s": (wall_estimate(iterations), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }
    print(f"wall_s = {metrics['wall_s'][0]:.6f} s  (median of {attempted} iterations at "
          f"reference speed; raw median {statistics.median(walls):.6f} s, "
          f"fastest {min(walls):.6f} s)")
    print(f"setup_s = {metrics['setup_s'][0]:.6f} s  (median of {len(setups)} set-ups at "
          f"reference speed; raw median {statistics.median(setup_walls):.6f} s)")
    print(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.3f} MiB  (after the first iteration; "
          f"{result['lifetime_peak_rss_mb']:.3f} MiB over the whole run)")
    print(f"output_bytes = {iterations[0]['output_bytes']} B  (per iteration)")

    if args.trace:
        layers, trace_problems = layer_report(result["trace"], metrics["wall_s"][0])
        traced = result["trace"]["iterations"]
        attempted += len(traced)
        failed += sum(1 for it in traced if it["problems"]) + bool(trace_problems)
        problems += [p for it in traced for p in it["problems"]] + trace_problems
        for name, (value, unit) in layers.items():
            print(f"{name} = {value:.6g} {unit}" if unit == "s" else f"{name} = {value} {unit}")
        main_s = layers["cli.main_s"][0]
        if main_s > 0:
            print(f"solver.integrate share of cli.main = "
                  f"{layers['solver.integrate_s'][0] / main_s:.3f}")
        for name in result["trace"]["absent"]:
            print(f"absent boundary: {name}")
        metrics = layers

    print(f"fail_fraction = {failed / attempted:.6g}  ({failed} of {attempted} failed)")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    missing = [m["name"] for m in wanted
               if metrics.get(m["name"], (None, None))[1] != m["unit"]]
    if missing:
        raise BenchError(f"metrics in BENCHMARK.json not measured with their unit: {missing}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
