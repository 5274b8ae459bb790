"""One workload in one process; started by ``bench/run.py``.

    python3 bench/child.py --workload NAME --workdir DIR --seconds S \
        --trace 0|1 --result FILE [--setup-only]

The set-up clock starts before the package import.  Iterations run in a
closed loop, each calling ``shearwaves.cli.main`` as the command line would,
until ``--seconds`` have passed; each iteration's outputs go to the same run
directory, are checked, and are deleted.  With ``--trace 1`` two more
iterations run under the tracer after the untraced loop, so the untraced
times never see the tracer.
"""
from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TRACED_ITERATIONS = 2
# Set-up (about 0.15 s) is too short to sample during; the probe runs right
# after it instead, while the machine is most likely still in the same phase.
SETUP_PROBE_SAMPLES = 10
EXIT_WRONG_PACKAGE = 3


class SpeedProbe:
    """Samples how fast this core runs while an iteration runs.

    On a shared VM the same work was measured taking from 1x to 2.5x its
    fastest time, in slow phases lasting from under a second to about a
    minute, so raw wall times of one input spread by 25% between iterations.
    Every ``INTERVAL_S`` a SIGALRM handler (on the main thread, between
    bytecodes; no extra thread) times a fixed numpy FFT kernel that uses
    nothing from the package, so a change to the package cannot move it.
    An iteration's reference wall time is its wall time, less the probe's
    own time, times the mean over samples of ``REFERENCE_S / sample``: the
    time it would have taken at the speed where the kernel takes
    ``REFERENCE_S``.  That cut the spread from 25% to 5% per iteration.
    """

    INTERVAL_S = 0.05
    # The kernel's time on an uncontended core of the 2-vCPU Xeon (2.1 GHz)
    # KVM guest the benchmark was written on.  Fixed: it sets the scale of
    # every reference wall time.
    REFERENCE_S = 0.0003

    def __init__(self):
        self.samples: list[float] = []
        self._x = numpy.cos(numpy.linspace(0.0, 40.0, 1024, endpoint=False))
        # Bound now, so that the tracer's wrappers never see the probe.
        self._fft, self._ifft = numpy.fft.fft, numpy.fft.ifft

    def sample(self, *_) -> None:
        start = time.perf_counter()
        x = self._x
        for _ in range(8):
            x = self._ifft(self._fft(x) * 0.5j).real + self._x
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def reference_wall(self, wall: float) -> float:
        speed = sum(self.REFERENCE_S / s for s in self.samples) / len(self.samples)
        return wall * speed


def import_package():
    """Import ``shearwaves`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import shearwaves
    import shearwaves.cli

    where = Path(shearwaves.__file__).resolve()
    if where.parent != (src / "shearwaves").resolve():
        print(f"shearwaves imported from {where}, not from {src}", file=sys.stderr)
        sys.exit(EXIT_WRONG_PACKAGE)
    return shearwaves


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def iterate(cli, workload, workdir: Path, context: dict, probe: SpeedProbe) -> dict:
    """One timed iteration; outputs are checked, measured and removed."""
    outdir = workdir / "run"
    outdir.mkdir()
    argvs = workload.argvs(workdir, outdir)
    with probe:
        start = time.perf_counter()
        try:
            codes = [cli.main(argv) for argv in argvs]
            problems = []
        except Exception:
            problems = [traceback.format_exc()]
        wall = time.perf_counter() - start - sum(probe.samples)
    if not problems:
        try:
            problems = workload.check(codes, outdir, context)
        except Exception:
            problems = [traceback.format_exc()]
    nbytes = tree_bytes(outdir)
    shutil.rmtree(outdir)
    return {"wall_s": wall, "reference_wall_s": probe.reference_wall(wall),
            "problems": problems, "output_bytes": nbytes}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(cli, workload, workdir, context, seconds: float) -> tuple[list[dict], float]:
    """Iterations until ``seconds`` have passed, and the peak resident memory
    after the first: what one command-line invocation would reach.  Later
    iterations reuse a fragmented heap, which moved the peak by up to 4%."""
    deadline = time.perf_counter() + seconds
    probe = SpeedProbe()
    results = [iterate(cli, workload, workdir, context, probe)]
    first_peak = peak_rss_mb()
    while time.perf_counter() < deadline:
        results.append(iterate(cli, workload, workdir, context, probe))
    return results, first_peak


def traced(cli, workload, workdir, context, trace_path: Path) -> dict:
    import tracer

    t = tracer.Tracer()
    probe = SpeedProbe()
    t.install()
    try:
        runs = []
        for run in range(TRACED_ITERATIONS):
            t.run = run
            runs.append(iterate(cli, workload, workdir, context, probe))
    finally:
        t.uninstall()
    t.write(trace_path)
    return {
        "iterations": runs,
        "layers": [tracer.layer_metrics(t.spans, run) for run in range(TRACED_ITERATIONS)],
        "absent": t.absent,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    package = import_package()
    cli = package.cli
    workload = WORKLOADS[args.workload]
    workload.setup(cli, args.workdir)
    setup = time.perf_counter() - SETUP_START
    probe = SpeedProbe()
    for _ in range(SETUP_PROBE_SAMPLES):
        probe.sample()
    result = {"setup_s": setup, "reference_setup_s": probe.reference_wall(setup)}
    if not args.setup_only:
        context = workload.prepare(cli, args.workdir)
        result["iterations"], result["peak_rss_mb"] = closed_loop(
            cli, workload, args.workdir, context, args.seconds)
        result["lifetime_peak_rss_mb"] = peak_rss_mb()
        result["shearwaves_file"] = package.__file__
        result["numpy_version"] = numpy.__version__
        if args.trace:
            result["trace"] = traced(cli, workload, args.workdir, context,
                                     args.workdir.parent / f"trace-{args.workload}.csv.gz")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
