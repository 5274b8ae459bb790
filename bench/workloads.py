"""The three benchmark workloads: inputs made from a seed, the command lines
one iteration runs through ``shearwaves.cli.main``, and the correctness
checks on what those commands wrote.

Stdlib only, so the parent process can make inputs without importing numpy.

Why these three:

* ``smooth_n4096``: nearly all of the time is RK4 -> ``rhs_nonlocal`` -> FFTs
  at n = 4096, with almost no I/O.  A fused right-hand side or fewer steps
  (alpha1 = 1.186 sets the CFL speed here) shows on it.
* ``breaking_dense``: the Camassa-Holm breaking run of acceptance criterion 8
  with a snapshot every step, so snapshot writing sits beside the RHS.
  alpha1 = 0, so a CFL change should not move it.
* ``checks_small_n``: ``verify`` then ``convergence``; thousands of short
  calls on n = 64..256 grids, where per-call overhead, not FFT size,
  dominates.  The only workload that reaches ``besov`` and ``oracles``.
"""
from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

# Camassa-Holm in the nonlocal coefficient set (acceptance criterion 8).
CAMASSA_HOLM = {
    "alpha1": 0.0, "alpha2": 1.0, "alpha3": 0.0, "beta1": 0.0, "beta2": -1.0,
    "beta3": 0.0, "beta4": 0.0, "beta5": 0.0, "beta6": 0.0, "beta7": -0.5,
    "beta8": 0.0, "gamma": 0.0,
}

# The n = 4096 run and its n = 1024 reference differ by O(1e-10) on shared
# nodes (RK4 error at the coarser CFL step).  1e-7 admits round-off-level
# reordering and integrator changes of that order, not a different solution.
SMOOTH_REFERENCE_RTOL = 1e-7


def _derived_seed(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


def _read_diagnostics(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _read_final(path: Path) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row["u"]) for row in csv.DictReader(fh)]


def _read_manifest(path: Path) -> dict:
    return json.loads(path.read_text())


class Workload:
    """Inputs from a seed (``make_inputs``), the work done before the first
    timed iteration (``setup``, timed as set-up; ``prepare``, untimed), the
    command lines of one iteration (``argvs``), and the checks on their exit
    codes and outputs (``check``, returns the problems found)."""

    name = ""

    def make_inputs(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def setup(self, cli, workdir: Path) -> None:
        raise NotImplementedError

    def prepare(self, cli, workdir: Path) -> dict:
        return {}

    def argvs(self, workdir: Path, outdir: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, codes: list[int], outdir: Path, context: dict) -> list[str]:
        raise NotImplementedError


class Simulate(Workload):
    """``simulate <config.json> --out <dir>``."""

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def make_inputs(self, seed, workdir):
        (workdir / "config.json").write_text(json.dumps(self.config(seed), indent=1))

    def setup(self, cli, workdir):
        """What ``simulate`` does before its first step."""
        cfg = cli.load_config(workdir / "config.json")
        sim, _ = cli.sim_config_from_dict(cfg)
        cli.initial_condition(cfg, sim.grid)

    def argvs(self, workdir, outdir):
        return [["simulate", str(workdir / "config.json"), "--out", str(outdir)]]


class SmoothN4096(Simulate):
    name = "smooth_n4096"

    def config(self, seed):
        return {
            "schema_version": 1, "n": 4096, "length": 40.0, "t_end": 1.5,
            "cfl": 0.5, "dealias": "two_thirds", "snapshot_stride": 1_000_000,
            "vorticity": 1.5, "initial": "random_bandlimited",
            "amplitude": 0.25, "max_mode": 8,
            "seed": _derived_seed(seed, self.name).randrange(2**31),
        }

    def prepare(self, cli, workdir: Path) -> dict:
        """Same-seed n = 1024 reference, run once and untimed."""
        cfg = workdir / "reference.json"
        cfg.write_text(json.dumps(dict(json.loads((workdir / "config.json").read_text()),
                                       n=1024)))
        ref = workdir / "reference"
        code = cli.main(["simulate", str(cfg), "--out", str(ref)])
        if code != 0:
            raise RuntimeError(f"n = 1024 reference run exited {code}")
        return {"h1": _read_diagnostics(ref / "diagnostics.csv")[-1]["h1"],
                "u": _read_final(ref / "snapshots" / "final.csv")}

    def check(self, codes, outdir, context):
        if codes != [0]:
            return [f"simulate exited {codes}"]
        problems = []
        manifest = _read_manifest(outdir / "manifest.json")
        if manifest["termination"] != "completed":
            problems.append(f"termination {manifest['termination']!r}")
        if manifest["breaking_verdict"] != "no_breaking_evidence":
            problems.append(f"verdict {manifest['breaking_verdict']!r}")
        records = _read_diagnostics(outdir / "diagnostics.csv")
        if not all(math.isfinite(v) for rec in records for v in rec.values()):
            problems.append("non-finite diagnostics")
            return problems
        h1 = records[-1]["h1"]
        if abs(h1 - context["h1"]) > SMOOTH_REFERENCE_RTOL * abs(context["h1"]):
            problems.append(f"final h1 {h1!r} vs n=1024 reference {context['h1']!r}")
        u = _read_final(outdir / "snapshots" / "final.csv")
        ref = context["u"]
        stride = len(u) // len(ref)
        sup = max(abs(v) for v in ref)
        gap = max(abs(a - b) for a, b in zip(u[::stride], ref))
        if gap > SMOOTH_REFERENCE_RTOL * sup:
            problems.append(f"final state differs from n=1024 reference by {gap:.3e} "
                            f"(sup_u {sup:.3e})")
        return problems


class BreakingDense(Simulate):
    name = "breaking_dense"

    def config(self, seed):
        # Perturbation kept within 1% so that seeds vary the input without
        # moving the step count by more than about 1%; 1.46..1.54 all break.
        amp = 1.5 * (1.0 + _derived_seed(seed, self.name).uniform(-0.01, 0.01))
        slope0 = amp * 2.0 * math.pi / 40.0
        return {
            "schema_version": 1, "n": 1024, "length": 40.0, "t_end": 14.0,
            "cfl": 0.3, "dealias": "two_thirds", "snapshot_stride": 1,
            "coefficients": CAMASSA_HOLM, "initial": "sine", "amplitude": -amp,
            "breaking_stop": -12.0 * slope0,
        }

    def check(self, codes, outdir, context):
        """The criterion-8 assertions, unchanged."""
        if codes != [0]:
            return [f"simulate exited {codes}"]
        problems = []
        manifest = _read_manifest(outdir / "manifest.json")
        if manifest["termination"] != "breaking_detected":
            problems.append(f"termination {manifest['termination']!r}")
        if manifest["breaking_verdict"] != "breaking_signature":
            problems.append(f"verdict {manifest['breaking_verdict']!r}")
        records = _read_diagnostics(outdir / "diagnostics.csv")
        worst = min(r["min_ux"] for r in records)
        if not worst <= 10.0 * records[0]["min_ux"]:
            problems.append(f"min u_x {worst!r} not below 10x initial {records[0]['min_ux']!r}")
        sup0 = records[0]["sup_u"]
        drift = max(abs(r["sup_u"] - sup0) for r in records) / sup0
        if not drift < 0.10:
            problems.append(f"amplitude drift {drift:.3f} >= 0.10")
        return problems


class ChecksSmallN(Workload):
    """``verify --seed <s>`` followed by ``convergence`` at A = 1.5."""

    name = "checks_small_n"

    def make_inputs(self, seed, workdir):
        verify_seed = _derived_seed(seed, self.name).randrange(2**31)
        (workdir / "inputs.json").write_text(json.dumps({"verify_seed": verify_seed}))

    def setup(self, cli, workdir):
        """Both commands start from the model coefficients at A = 1.5."""
        json.loads((workdir / "inputs.json").read_text())
        cli.normalize(cli.model_coefficients(1.5))

    def argvs(self, workdir, outdir):
        seed = json.loads((workdir / "inputs.json").read_text())["verify_seed"]
        return [["verify", "--seed", str(seed), "--json", str(outdir / "verify.json")],
                ["convergence", "--json", str(outdir / "convergence.json")]]

    def check(self, codes, outdir, context):
        if codes != [0, 0]:
            return [f"verify/convergence exited {codes}"]
        problems = [f"verify check {e['check']} failed"
                    for e in json.loads((outdir / "verify.json").read_text()) if not e["pass"]]
        conv = json.loads((outdir / "convergence.json").read_text())
        if not conv["temporal_order"] >= 3.8:
            problems.append(f"temporal order {conv['temporal_order']!r} < 3.8")
        if not conv["spatial_ratio"] > 1e3:
            problems.append(f"spatial ratio {conv['spatial_ratio']!r} <= 1e3")
        return problems


WORKLOADS = {w.name: w for w in (SmoothN4096(), BreakingDense(), ChecksSmallN())}
