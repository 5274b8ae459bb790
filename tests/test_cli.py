"""Command-line interface: tables, verification suites, runs, reproducibility."""
import json
import math
import re
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from shearwaves import checks, cli, solver
from shearwaves.cli import main
from shearwaves.coeffs import model_coefficients, perturbed
from shearwaves.solver import integrate
from shearwaves.spectral import csv_text, field_to_csv


def run_cli(*argv):
    return main(list(argv))


def test_coeffs_table(capsys):
    assert run_cli("coeffs", "--A", "1.5") == 0
    out = capsys.readouterr().out
    assert "model coefficients" in out
    assert "identities" in out
    assert "FAIL" not in out
    # spot values surface in the table
    assert "1.3999999999999999" in out or "1.4 " in out


def test_coeffs_json(capsys):
    assert run_cli("coeffs", "--A", "0", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"]["c"] == 1.0
    assert payload["model"]["omega1"] == 0.0
    assert payload["general"]["beta2"] == -1.0
    assert all(chk["passed"] for chk in payload["identities"])


def test_coeffs_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("coeffs", "--sweep", "1e-3:10:100", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 101
    assert lines[0].startswith("A,c,alpha,beta,beta0")
    assert all(row.split(",")[-2] == "1" for row in lines[1:])


def test_coeffs_sweep_rejects_bad_range(capsys):
    assert run_cli("coeffs", "--sweep", "10:1:5") == 2


def test_verify_default_passes(tmp_path, capsys):
    report = tmp_path / "verify.json"
    assert run_cli("verify", "--json", str(report)) == 0
    assert "FAIL" not in capsys.readouterr().out
    # the default set is pinned: the solver suites, and any suite added to the
    # registry later, run only under --only
    assert [e["check"] for e in json.loads(report.read_text())] == [
        "helmholtz_kernel_quadrature", "form_equivalence", "form_equivalence_refinement",
        "rescale_single_factor", "besov_exact_inequalities", "besov_reconstruction",
        "besov_log_interpolation_ratio"]


def test_verify_only_filter(capsys):
    assert run_cli("verify", "--only", "besov") == 0
    out = capsys.readouterr().out
    assert "besov_exact_inequalities" in out
    assert "helmholtz_kernel_quadrature" not in out
    assert run_cli("verify", "--only", "nonsense") == 2


def test_verify_fault_injection_names_failing_check(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = run_cli("verify", "--only", "form_equivalence",
                   "--inject-fault", "beta3", "--json", str(report))
    assert code == 1
    err = capsys.readouterr().err
    assert "form_equivalence" in err
    entries = json.loads(report.read_text())
    assert any(not e["pass"] for e in entries)
    assert {"check", "n", "L", "residual", "tolerance", "pass"} <= set(entries[0])


def test_verify_fault_unknown_field(capsys):
    assert run_cli("verify", "--inject-fault", "nope") == 2


@pytest.mark.parametrize("a", [0.0, 1e-5, 1e-4, 7e-4, 1e-3])
def test_form_equivalence_passes_near_the_irrotational_limit(a):
    # a cubic flux of modes <= 10 is resolved to round-off on n = 64 as on
    # n = 256, so the refinement pair has no error to reduce
    entries = checks.SUITES["form_equivalence"](20240, model_coefficients(a), None)
    assert [e["check"] for e in entries] == ["form_equivalence", "form_equivalence_refinement"]
    assert all(e["pass"] for e in entries), entries


@pytest.mark.parametrize("a", ["0", "1.5"])
def test_refinement_entry_reports_what_passed_it(tmp_path, a):
    # at A = 0 the round-off floor passes the entry, which then reports the
    # coarse residual against 1e-12; at A = 1.5 the fine/coarse ratio against 1e-3
    report = tmp_path / "report.json"
    assert run_cli("verify", "--A", a, "--only", "form_equivalence", "--json", str(report)) == 0
    entry = json.loads(report.read_text())[1]
    assert entry["check"] == "form_equivalence_refinement" and entry["pass"]
    assert entry["tolerance"] == (1e-12 if a == "0" else 1e-3)
    assert entry["residual"] < entry["tolerance"]


@pytest.mark.parametrize("a", [0.0, 1.5])
@pytest.mark.parametrize("fault", ["beta3", "beta8", "gamma"])
def test_form_equivalence_faults_fail_both_entries(a, fault):
    g = cli.vorticity_coefficients(a, "A")
    entries = checks.SUITES["form_equivalence"](20240, model_coefficients(a), perturbed(g, fault))
    assert not any(e["pass"] for e in entries), entries


def test_verify_form_equivalence_checks_its_fields_in_stacks(monkeypatch):
    # 50 fields in 16-field stacks and the refinement pair: 6 calls, not 52
    real = checks.verify_form_equivalence
    calls = []

    def counted(u, *args):
        calls.append(u.values.shape)
        return real(u, *args)

    monkeypatch.setattr(checks, "verify_form_equivalence", counted)
    assert run_cli("verify", "--only", "form_equivalence") == 0
    assert calls == [(16, 256)] * 3 + [(2, 256), (64,), (256,)]


@pytest.mark.parametrize("nan_field", [4, 37])
def test_verify_besov_fails_on_nan_field(capsys, monkeypatch, nan_field):
    # one NaN sample in one of the suite's random fields fails all three checks;
    # rows 4 and 37 lie in the first and the third 16-field stack
    real_suite = checks.besov_mod.inequality_suite

    def suite_with_nan(fields):
        assert len(fields) == checks.BESOV_SAMPLES
        fields[nan_field].values[5] = np.nan
        return real_suite(fields)

    monkeypatch.setattr(checks.besov_mod, "inequality_suite", suite_with_nan)
    assert run_cli("verify", "--only", "besov") == 1
    err = capsys.readouterr().err
    assert "besov_exact_inequalities" in err
    assert "besov_log_interpolation_ratio" in err
    assert "besov_reconstruction" in err


def test_verify_besov_exact_verdict_reads_entry_flags(capsys, monkeypatch):
    # a failing entry whose defect is below the absolute 1e-12 (the per-entry
    # tolerance is relative to the norm) still fails besov_exact_inequalities
    real_suite = checks.besov_mod.inequality_suite

    def suite_with_failing_entry(fields):
        excess, passed, log_ratio, reconstruction = real_suite(fields)
        passed[0, 3] = False
        return excess, passed, log_ratio, reconstruction

    monkeypatch.setattr(checks.besov_mod, "inequality_suite", suite_with_failing_entry)
    assert run_cli("verify", "--only", "besov") == 1
    assert "failing checks: besov_exact_inequalities\n" in capsys.readouterr().err


def test_verify_besov_reuses_the_suite_blocks(capsys, monkeypatch):
    # the reconstruction residual comes from inequality_suite's batched
    # blocks: no field is decomposed a second time
    calls = []
    real_decompose = checks.besov_mod.decompose

    def counting_decompose(u):
        calls.append(u)
        return real_decompose(u)

    monkeypatch.setattr(checks.besov_mod, "decompose", counting_decompose)
    assert run_cli("verify", "--only", "besov") == 0
    assert "besov_reconstruction" in capsys.readouterr().out
    assert calls == []


def test_verify_ch_reduction_fails_on_nan_oracle_sample(capsys, monkeypatch):
    # one NaN sample in the oracle rate of the 4th of 10 fields: the entry
    # folds the residuals with np.max, since max() drops a NaN after the first
    real_rhs = checks.camassa_holm_rhs
    calls = []

    def rhs_with_nan(u):
        f = real_rhs(u)
        if len(calls) == 3:
            f.values[5] = np.nan
        calls.append(f)
        return f

    # the 10 nonlocal rates come from one rhs_nonlocal call on a stack; the
    # oracle reads one field per call
    real_nonlocal = checks.rhs_nonlocal
    stacks = []

    def counted_nonlocal(u, g):
        stacks.append(u.values.shape)
        return real_nonlocal(u, g)

    monkeypatch.setattr(checks, "camassa_holm_rhs", rhs_with_nan)
    monkeypatch.setattr(checks, "rhs_nonlocal", counted_nonlocal)
    assert run_cli("verify", "--only", "ch_reduction") == 1
    assert len(calls) == 10 and stacks == [(10, 256)]
    assert "failing checks: ch_oracle_agreement\n" in capsys.readouterr().err


def _write_config(path, **overrides):
    cfg = {
        "schema_version": 1,
        "n": 128,
        "length": 40.0,
        "t_end": 0.2,
        "dt": 0.002,
        "dealias": "two_thirds",
        "snapshot_stride": 20,
        "vorticity": 1.5,
        "initial": "sech2",
        "amplitude": 0.25,
        "width": 1.0,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def test_simulate_run_directory(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path)
    outdir = tmp_path / "out"
    assert run_cli("simulate", str(cfg_path), "--out", str(outdir)) == 0
    assert (outdir / "diagnostics.csv").exists()
    assert (outdir / "manifest.json").exists()
    assert (outdir / "plot.gnuplot").exists()
    assert (outdir / "snapshots" / "final.csv").exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["termination"] == "completed"
    assert manifest["provenance"] == {"vorticity": 1.5}
    assert "dispersion_note" in manifest
    assert manifest["wall_time_s"] >= 0 and manifest["output_time_s"] >= 0
    header = (outdir / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "t,sup_u,min_ux,max_ux,h1,hs,breaking_integral,ch_energy"


def test_readme_run_configuration_runs(tmp_path):
    # the documented config is the byte-identity reference for run directories
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Run configuration\n.*?```json\n(.*?)```", readme, re.S).group(1)
    cfg_path = tmp_path / "readme.json"
    cfg_path.write_text(block)
    outdir = tmp_path / "out"
    assert run_cli("simulate", str(cfg_path), "--out", str(outdir)) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["termination"] == "completed"
    assert manifest["records"] == 11
    assert manifest["steps"] == 500 and manifest["rejected_steps"] == 0
    assert len((outdir / "diagnostics.csv").read_text().splitlines()) == 1 + 11


def test_simulate_step_size_underflow_exits_1(tmp_path, capsys, monkeypatch):
    # a floor raised to a quarter of t_end stops this CFL run after two
    # accepted steps; it ends like a nonfinite run: exit 1, run directory written
    monkeypatch.setattr(solver, "STEP_MIN_FRACTION", 0.25)
    cfg_path = tmp_path / "run.json"
    cfg = _write_config(cfg_path, n=64, snapshot_stride=1)
    del cfg["dt"]
    cfg_path.write_text(json.dumps(dict(cfg, cfl=0.5)))
    outdir = tmp_path / "out"
    assert run_cli("simulate", str(cfg_path), "--out", str(outdir)) == 1
    assert "termination=step_size_underflow" in capsys.readouterr().out
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["termination"] == "step_size_underflow"
    assert manifest["records"] >= 2
    rows = (outdir / "diagnostics.csv").read_text().splitlines()
    assert len(rows) == 1 + manifest["records"]
    # the stop time is the last accepted state's, the last record's at stride 1
    assert manifest["t_final"] == float(rows[-1].split(",")[0]) < cfg["t_end"]
    assert (outdir / "snapshots" / "final.csv").exists()


def test_simulate_rerun_clears_stale_snapshots(tmp_path):
    cfg_path = tmp_path / "run.json"
    outdir = tmp_path / "out"
    for stride in (1, 5):
        _write_config(cfg_path, n=64, t_end=0.02, snapshot_stride=stride)
        assert run_cli("simulate", str(cfg_path), "--out", str(outdir)) == 0
        (outdir / "snapshots" / "notes.txt").write_text("keep")  # not a snapshot: survives
    records = json.loads((outdir / "manifest.json").read_text())["records"]
    snapshots = list((outdir / "snapshots").glob("*.csv"))
    assert len(snapshots) == records + 1  # snap_*.csv of this run and final.csv
    last = (outdir / "snapshots" / f"snap_{records - 1:06d}.csv").read_bytes()
    assert (outdir / "snapshots" / "final.csv").read_bytes() == last
    assert (outdir / "snapshots" / "notes.txt").read_text() == "keep"


def test_simulate_zero_initial_data(tmp_path):
    cfg_path = tmp_path / "zero.json"
    _write_config(cfg_path, initial="zero")
    outdir = tmp_path / "out"
    assert run_cli("simulate", str(cfg_path), "--out", str(outdir)) == 0
    rows = (outdir / "diagnostics.csv").read_text().splitlines()[1:]
    for row in rows:
        assert all(float(v) == 0.0 for v in row.split(",")[1:])


def test_simulate_deterministic_bytes(tmp_path):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", str(cfg_path), "--out", str(out1)) == 0
    assert run_cli("simulate", str(cfg_path), "--out", str(out2)) == 0
    assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()
    assert ((out1 / "snapshots" / "final.csv").read_bytes()
            == (out2 / "snapshots" / "final.csv").read_bytes())


def test_simulate_explicit_coefficients(tmp_path):
    cfg_path = tmp_path / "explicit.json"
    _write_config(cfg_path, coefficients=checks.CAMASSA_HOLM.to_dict())
    cfg = json.loads(cfg_path.read_text())
    del cfg["vorticity"]
    cfg_path.write_text(json.dumps(cfg))
    outdir = tmp_path / "out"
    assert run_cli("simulate", str(cfg_path), "--out", str(outdir)) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["provenance"] == {"explicit_coefficients": True}


def test_simulate_breaking_flag_in_manifest(tmp_path):
    cfg_path = tmp_path / "steep.json"
    _write_config(cfg_path, n=1024, t_end=14.0, initial="sine", amplitude=-1.5,
                  mode=1, snapshot_stride=10, breaking_stop=-2.827433388230814,
                  cfl=0.3, dt=None)
    cfg = json.loads(cfg_path.read_text())
    del cfg["dt"]
    cfg_path.write_text(json.dumps(cfg))
    outdir = tmp_path / "out"
    assert run_cli("simulate", str(cfg_path), "--out", str(outdir)) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["termination"] == "breaking_detected"
    assert manifest["breaking_verdict"] == "breaking_signature"
    # a CFL run counts its accepted and rejected steps; it records every 10th
    # step and the stop, which need not fall on a stride multiple
    steps = manifest["steps"]
    assert manifest["records"] == steps // 10 + 1 + (steps % 10 != 0)
    assert manifest["rejected_steps"] >= 0


def _run(cfg: dict):
    """``(sim, provenance, trajectory)`` of a config, as ``simulate`` steps it."""
    sim, provenance = cli.sim_config_from_dict(cfg)
    return sim, provenance, integrate(sim, cli.initial_condition(cfg, sim.grid))


def _outdir(tmp_path):
    (tmp_path / "out" / "snapshots").mkdir(parents=True)
    return tmp_path / "out"


@pytest.fixture(scope="module")
def dense_run():
    """The criterion-8 Camassa-Holm breaking run at n = 1024 with a snapshot
    every step: 192 records."""
    cfg = {"schema_version": 1, "n": 1024, "length": 40.0, "t_end": 14.0, "cfl": 0.3,
           "snapshot_stride": 1, "coefficients": checks.CAMASSA_HOLM.to_dict(), "initial": "sine",
           "amplitude": -1.5, "breaking_stop": -12.0 * 1.5 * 2 * math.pi / 40.0}
    return (cfg, *_run(cfg))


def test_simulate_reports_the_stop_at_the_crossing(tmp_path):
    # the crossing of breaking_stop, interpolated between the last two accepted
    # steps, is the same at every stride and lies within the last step
    cfg = {"schema_version": 1, "n": 256, "length": 40.0, "t_end": 14.0, "cfl": 0.3,
           "coefficients": checks.CAMASSA_HOLM.to_dict(), "initial": "sine", "amplitude": -1.5,
           "breaking_stop": -6.0 * 1.5 * 2 * math.pi / 40.0}
    manifests = []
    for stride in (1, 7, 100):
        cfg_path, outdir = tmp_path / f"ch_{stride}.json", tmp_path / f"ch_{stride}"
        cfg_path.write_text(json.dumps(dict(cfg, snapshot_stride=stride)))
        assert run_cli("simulate", str(cfg_path), "--out", str(outdir)) == 0
        manifests.append(json.loads((outdir / "manifest.json").read_text()))
    t_stop, integral = manifests[0]["t_stop"], manifests[0]["breaking_integral_at_stop"]
    for manifest in manifests:
        assert manifest["termination"] == "breaking_detected"
        assert (manifest["t_stop"], manifest["breaking_integral_at_stop"]) == (t_stop, integral)
    rows = np.loadtxt(tmp_path / "ch_1" / "diagnostics.csv", delimiter=",", skiprows=1)
    assert rows[-2, 0] < t_stop <= rows[-1, 0] == manifests[0]["t_final"]
    assert rows[-2, 6] < integral <= rows[-1, 6]
    # a run that does not stop on breaking reports neither
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path)
    assert run_cli("simulate", str(cfg_path), "--out", str(tmp_path / "out")) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert not {"t_stop", "breaking_integral_at_stop"} & set(manifest)


def test_gaussian_with_a_tiny_width_runs_as_sech2_does(tmp_path, capsys):
    # (x - center)**2 / (2 width**2) would be 0/0 at the centre: width**2 underflows
    outputs = []
    for kind in ("sech2", "gaussian"):
        cfg_path, outdir = tmp_path / f"{kind}.json", tmp_path / kind
        _write_config(cfg_path, initial=kind, width=1e-300)
        assert run_cli("simulate", str(cfg_path), "--out", str(outdir)) == 0
        assert capsys.readouterr().err == ""
        outputs.append([(outdir / name).read_bytes()
                        for name in ("diagnostics.csv", "snapshots/final.csv")])
    assert outputs[0] == outputs[1]


def test_snapshot_files_match_sequential_writes(tmp_path, dense_run):
    cfg, sim, provenance, traj = dense_run
    assert len(traj.snapshots) >= 100
    outdir = _outdir(tmp_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        cli.write_run_outputs(outdir, cfg, sim, provenance, traj, 0.0)
    finally:
        sys.setswitchinterval(interval)
    reference = tmp_path / "reference.csv"
    names = sorted(p.name for p in (outdir / "snapshots").iterdir())
    assert names == ["final.csv"] + [f"snap_{i:06d}.csv" for i in range(len(traj.snapshots))]
    for i, snap in enumerate(traj.snapshots):
        field_to_csv(snap, reference)
        assert (outdir / "snapshots" / f"snap_{i:06d}.csv").read_bytes() == reference.read_bytes()
    assert (outdir / "snapshots" / "final.csv").read_bytes() == reference.read_bytes()


def test_snapshot_write_ahead_bounds_memory(tmp_path, dense_run, monkeypatch):
    # a writer slower than the formatter, as on a slow disk: without the bound
    # the formatted texts would pile up (all 192 are about 5.8 MB)
    def slow_open(*args, **kwargs):
        time.sleep(0.002)
        return open(*args, **kwargs)

    monkeypatch.setattr(cli, "open", slow_open, raising=False)
    cfg, sim, provenance, traj = dense_run
    outdir = _outdir(tmp_path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli.write_run_outputs(outdir, cfg, sim, provenance, traj, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.snapshots) == 192
    assert len(list((outdir / "snapshots").glob("snap_*.csv"))) == 192
    assert peak - base < 2**20


def test_snapshot_write_failure_is_a_config_error(tmp_path):
    # called directly: simulate's stale-file cleanup would remove the obstacle
    cfg = {"schema_version": 1, "n": 64, "length": 40.0, "t_end": 0.1, "dt": 0.01,
           "vorticity": 1.5, "initial": "sech2"}
    sim, provenance, traj = _run(cfg)
    assert len(traj.snapshots) == 11
    outdir = _outdir(tmp_path)
    blocked = outdir / "snapshots" / "snap_000003.csv"
    blocked.mkdir()
    threads = threading.active_count()
    with pytest.raises(cli.ConfigError, match=re.escape(f"cannot write {blocked}: ")):
        cli.write_run_outputs(outdir, cfg, sim, provenance, traj, 0.0)
    assert threading.active_count() == threads
    for i in range(3):
        path = outdir / "snapshots" / f"snap_{i:06d}.csv"
        assert path.read_text() == csv_text(traj.snapshots[i])
    # the writer stops at its first error, and nothing after the snapshots is written
    assert sorted(p.name for p in outdir.rglob("*")) == [
        "snap_000000.csv", "snap_000001.csv", "snap_000002.csv", "snap_000003.csv",
        "snapshots"]


def test_simulate_unwritable_output_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, n=64, t_end=0.02, snapshot_stride=5)
    outdir = tmp_path / "out"
    (outdir / "manifest.json").mkdir(parents=True)
    assert run_cli("simulate", str(cfg_path), "--out", str(outdir)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {outdir / 'manifest.json'}: ")


@pytest.mark.parametrize("mutate, message_part", [
    (lambda c: c.pop("length"), "length"),
    (lambda c: c.update(n=15), "grid size"),
    # a huge grid is refused before any array is allocated
    pytest.param(lambda c: c.update(n=1099511627776),
                 "grid size must be even and in [16, 1048576], got 1099511627776", id="n-huge"),
    (lambda c: c.update(initial="vortex"), "initial condition"),
    (lambda c: c.update(dealias="hard"), "'dealias'"),
    (lambda c: c.update(schema_version=99), "schema_version"),
    (lambda c: c.pop("vorticity"), "vorticity"),
    # numeric fields: finite JSON numbers, JSON integers where counts are meant
    (lambda c: c.update(t_end=float("inf")), "'t_end' must be a finite number"),
    (lambda c: c.update(amplitude=float("nan")), "'amplitude' must be a finite number"),
    (lambda c: c.update(vorticity=float("nan")), "'vorticity' must be a finite number"),
    (lambda c: c.update(length=10**400), "'length' must be a finite number"),
    (lambda c: c.update(snapshot_stride=float("inf")), "'snapshot_stride' must be an integer, got inf"),
    (lambda c: c.update(snapshot_stride="5"), "'snapshot_stride' must be an integer, got '5'"),
    (lambda c: c.update(schema_version=True), "'schema_version' must be an integer"),
    (lambda c: c.update(initial="sine", mode=2.7), "'mode' must be an integer"),
    # range checks on initial-condition fields
    (lambda c: c.update(initial="random_bandlimited", n=256, seed=-1), "'seed' must be >= 0"),
    (lambda c: c.update(initial="random_bandlimited", n=256, max_mode=128),
     "'max_mode' must lie in [1, n/2) = [1, 128), got 128"),
    (lambda c: c.update(initial="random_bandlimited", max_mode=0),
     "'max_mode' must lie in [1, n/2) = [1, 64), got 0"),
    (lambda c: c.update(width=0), "'width' must be > 0, got 0.0"),
    (lambda c: c.update(initial="gaussian", width=-1.5), "'width' must be > 0, got -1.5"),
    # a fixed step below STEP_MIN_FRACTION * t_end would ask for 1e12 steps
    pytest.param(lambda c: c.update(dt=1e-12, t_end=1.0),
                 "dt must be >= STEP_MIN_FRACTION * t_end = 1e-06, got 1e-12", id="dt-below-floor"),
    # min u_x <= 0 always, so a stop >= 0 would end the run at its first record
    pytest.param(lambda c: c.update(breaking_stop=0.0), "breaking_stop must be negative, got 0.0",
                 id="breaking_stop-zero"),
    # constants that overflow: 1e20 overflows inside model_coefficients, 1e300 gives c = inf
    pytest.param(lambda c: c.update(vorticity=1e20), "vorticity' = 1e+20 is too large",
                 id="vorticity-overflow"),
    pytest.param(lambda c: c.update(vorticity=1e300), "vorticity' = 1e+300 is too large",
                 id="vorticity-overflow-inf"),
    pytest.param(lambda c: c.update(dealias=["two_thirds"]),
                 "'dealias' must be two_thirds|strong|null, got ['two_thirds']",
                 id="dealias-unhashable"),
    # a misspelt optional field would otherwise run silently at its default
    pytest.param(lambda c: c.update({"sobolev": 3.0, "snapshot-stride": 1}),
                 "config: unknown fields ['snapshot-stride', 'sobolev']", id="unknown-fields"),
    # a mode at or past n/2 aliases: n/2 samples as zero, 200 on n = 256 runs as -56
    pytest.param(lambda c: c.update(initial="sine", n=256, mode=128),
                 "'mode' must lie in (-n/2, n/2) = (-128, 128), got 128", id="mode-nyquist"),
    pytest.param(lambda c: c.update(initial="sine", n=256, mode=200),
                 "'mode' must lie in (-n/2, n/2) = (-128, 128), got 200", id="mode-aliased"),
    pytest.param(lambda c: c.update(initial="cosine", mode=-64),
                 "'mode' must lie in (-n/2, n/2) = (-64, 64), got -64", id="mode-negative"),
])
def test_simulate_config_errors(tmp_path, capsys, mutate, message_part):
    cfg_path = tmp_path / "bad.json"
    cfg = _write_config(cfg_path)
    mutate(cfg)
    cfg_path.write_text(json.dumps(cfg))
    outdir = tmp_path / "out"
    assert run_cli("simulate", str(cfg_path), "--out", str(outdir)) == 2
    assert message_part in capsys.readouterr().err
    assert not outdir.exists()


# every numeric field of the schema, and each side of each initial-state range on
# the n = 128 grid of _write_config (n/2 = 64), with the kind that reads the field
NUMERIC_FIELDS = [key for key, (json_type, *_) in cli.CONFIG_SCHEMA.items()
                  if json_type in (int, float)]
BAD_NUMBERS = {"string": "1", "bool": True, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
RANGE_SIDES = {  # field: [(value, in range)]
    "mode": [(-64, False), (-63, True), (63, True), (64, False)],
    "width": [(0, False), (5e-324, True)],
    "seed": [(-1, False), (0, True)],
    "max_mode": [(0, False), (1, True), (63, True), (64, False)],
}
READER = {"mode": "sine", "width": "sech2", "seed": "random_bandlimited",
          "max_mode": "random_bandlimited"}


def test_range_sides_cover_the_schema_ranges():
    assert sorted(RANGE_SIDES) == sorted(key for key, row in cli.CONFIG_SCHEMA.items() if len(row) > 2)


@pytest.mark.parametrize("overrides, message_part", [
    *(pytest.param({key: bad}, f"field {key!r} must be", id=f"{key}-{label}")
      for key in NUMERIC_FIELDS for label, bad in BAD_NUMBERS.items()),
    *(pytest.param({"initial": READER[key], key: value}, f"field {key!r} must", id=f"{key}={value}")
      for key, sides in RANGE_SIDES.items() for value, ok in sides if not ok),
    # a range holds whichever initial kind reads the field, or none does
    pytest.param({"initial": "sine", "width": -5}, "'width' must be > 0, got -5.0", id="sine-width"),
    pytest.param({"initial": "sine", "seed": -3}, "'seed' must be >= 0, got -3", id="sine-seed"),
    pytest.param({"mode": 10**9}, "'mode' must lie in (-n/2, n/2) = (-64, 64), got 1000000000",
                 id="sech2-mode"),
    pytest.param({"initial": "zero", "width": -1}, "'width' must be > 0, got -1.0", id="zero-width"),
    # k_max^2 would overflow: NaN norms in every diagnostics row
    pytest.param({"length": 1e-300}, "grid spacing length/n must be >= 1e-100", id="length-tiny"),
    # the hs weight (1 + k_max^2)^s overflows: hs would be inf in every row
    pytest.param({"n": 1024, "sobolev_s": 100.0}, "sobolev_s = 100.0 overflows the weight",
                 id="sobolev_s-overflow"),
    pytest.param({"initial": "random_bandlimited", "amplitude": 1e308},
                 "initial state 'random_bandlimited' has a non-finite sample", id="random-overflow"),
    # the kind that reads a field checks its default too: max_mode 8 at n = 16 is n/2
    pytest.param({"n": 16, "initial": "random_bandlimited"},
                 "field 'max_mode' must lie in [1, n/2) = [1, 8), got 8", id="n16-max_mode-default"),
    pytest.param({"n": 16, "initial": "random_bandlimited", "max_mode": None},
                 "field 'max_mode' must lie in [1, n/2) = [1, 8), got 8", id="n16-max_mode-null"),
])
def test_simulate_schema_errors(tmp_path, capsys, overrides, message_part):
    cfg_path = tmp_path / "bad.json"
    _write_config(cfg_path, **overrides)
    outdir = tmp_path / "out"
    assert run_cli("simulate", str(cfg_path), "--out", str(outdir)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config: ") and message_part in err
    assert not outdir.exists()


@pytest.mark.parametrize("overrides", [
    *(pytest.param({"initial": READER[key], key: value, "t_end": 0.002}, id=f"{key}={value}")
      for key, sides in RANGE_SIDES.items() for value, ok in sides if ok),
    # a narrow sech2: cosh overflows away from the crest, where u0 = amp/inf = 0 exactly
    pytest.param({"width": 0.02, "n": 1024}, id="sech2-narrow"),
    # a default that no kind reads is not checked: max_mode 8 is n/2 at n = 16
    pytest.param({"n": 16, "initial": "sine", "max_mode": None}, id="n16-max_mode-unread"),
])
def test_simulate_in_range_runs_quietly(tmp_path, capsys, recwarn, overrides):
    cfg_path = tmp_path / "good.json"
    _write_config(cfg_path, **overrides)
    assert run_cli("simulate", str(cfg_path), "--out", str(tmp_path / "out")) == 0
    assert capsys.readouterr().err == ""
    assert [str(w.message) for w in recwarn] == []


def _simulate_argv(tmp_path, out):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path)
    return ["simulate", str(cfg_path), "--out", out]


def _simulate_into_file(tmp_path):
    (tmp_path / "taken").write_text("keep")
    return _simulate_argv(tmp_path, str(tmp_path / "taken"))


@pytest.mark.parametrize("argv, message_part", [
    pytest.param(lambda d: ["coeffs", "--A", "-1"],
                 "--A must be a finite vorticity >= 0, got -1.0", id="coeffs-A-negative"),
    pytest.param(lambda d: ["coeffs", "--A", "nan"],
                 "--A must be a finite vorticity >= 0, got nan", id="coeffs-A-nan"),
    pytest.param(lambda d: ["verify", "--A", "-1"], "--A must be", id="verify-A-negative"),
    pytest.param(lambda d: ["verify", "--A", "nan"], "--A must be", id="verify-A-nan"),
    pytest.param(lambda d: ["convergence", "--A", "-1"], "--A must be",
                 id="convergence-A-negative"),
    pytest.param(lambda d: ["convergence", "--A", "nan"], "--A must be", id="convergence-A-nan"),
    pytest.param(lambda d: ["verify", "--seed", "-1"], "--seed must be >= 0, got -1",
                 id="verify-seed-negative"),
    pytest.param(lambda d: ["coeffs", "--sweep", "1:inf:3"], "sweep needs 0 < lo < hi < inf",
                 id="coeffs-sweep-inf"),
    # finite vorticities whose model coefficients overflow (A above about 7e12)
    pytest.param(lambda d: ["coeffs", "--A", "1e20"], "--A = 1e+20 is too large",
                 id="coeffs-A-overflow"),
    pytest.param(lambda d: ["verify", "--A", "1e13", "--only", "rescale"],
                 "--A = 10000000000000.0 is too large", id="verify-A-overflow"),
    pytest.param(lambda d: ["convergence", "--A", "1e20"], "--A = 1e+20 is too large",
                 id="convergence-A-overflow"),
    pytest.param(lambda d: ["coeffs", "--sweep", "1:1e20:3"], "--sweep hi = 1e+20 is too large",
                 id="coeffs-sweep-overflow"),
    # flags that would otherwise be ignored: --out writes only a sweep, a sweep only CSV
    pytest.param(lambda d: ["coeffs", "--A", "1.5", "--out", str(d / "x.csv")],
                 "--out writes the sweep CSV and needs --sweep", id="coeffs-out-without-sweep"),
    pytest.param(lambda d: ["coeffs", "--sweep", "0.1:1:3", "--json"],
                 "--json does not apply to --sweep", id="coeffs-sweep-json"),
    # unwritable output paths: a directory where a file goes, a file where
    # the run directory goes
    pytest.param(lambda d: ["coeffs", "--sweep", "1e-3:10:100", "--out", str(d)], "cannot write",
                 id="coeffs-out-directory"),
    pytest.param(lambda d: ["verify", "--only", "rescale", "--json", str(d)], "cannot write",
                 id="verify-json-directory"),
    pytest.param(lambda d: ["convergence", "--json", str(d)], "cannot write",
                 id="convergence-json-directory"),
    # an empty path names no file (it resolves to the working directory)
    pytest.param(lambda d: ["verify", "--json", ""], "cannot write --json '': the path is empty",
                 id="verify-json-empty"),
    pytest.param(lambda d: ["convergence", "--json", ""],
                 "cannot write --json '': the path is empty", id="convergence-json-empty"),
    pytest.param(lambda d: _simulate_argv(d, ""), "cannot write --out '': the path is empty",
                 id="simulate-out-empty"),
    pytest.param(_simulate_into_file, "cannot create run directory", id="simulate-out-file"),
    # fault injections that inject nothing: an attribute of the coefficient
    # record that is not a coefficient, a coefficient that is 0 at the given A
    # (a relative perturbation keeps beta4..beta6 at -0.0 at A = 0), and a
    # suite other than form_equivalence, the one that reads the fault
    *(pytest.param(lambda d, name=name: ["verify", "--inject-fault", name],
                   f"fault injection: {name!r}; options: ['alpha1', 'alpha2', 'alpha3', "
                   "'beta1', 'beta2', 'beta3', 'beta4', 'beta5', 'beta6', 'beta7', 'beta8', "
                   "'gamma']", id=f"verify-fault-{name}") for name in ("to_dict", "__doc__")),
    *(pytest.param(lambda d, name=name: ["verify", "--A", "0", "--inject-fault", name],
                   f"--inject-fault {name} injects nothing: {name} is 0 at A = 0",
                   id=f"verify-fault-A0-{name}") for name in ("beta4", "beta6")),
    *(pytest.param(lambda d, suite=suite: ["verify", "--only", suite, "--inject-fault", "beta3"],
                   f"--inject-fault injects nothing into --only {suite}",
                   id=f"verify-fault-only-{suite}")
      for suite in ("besov", "helmholtz", "rescale", "ch_reduction", "breaking")),
])
def test_bad_command_line_input(tmp_path, capsys, monkeypatch, argv, message_part):
    def no_work(*args):
        raise AssertionError("work started despite a bad output path")

    monkeypatch.setattr(cli, "integrate", no_work)
    monkeypatch.setattr(checks, "integrate", no_work)
    monkeypatch.setattr(cli, "temporal_order", no_work)
    monkeypatch.setitem(cli.SUITES, "rescale", no_work)
    monkeypatch.setattr(cli, "identity_suite", no_work)
    argv = argv(tmp_path)
    monkeypatch.chdir(tmp_path)  # where an empty output path would write
    before = sorted(tmp_path.iterdir())
    assert run_cli(*argv) == 2
    assert message_part in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before
    if (tmp_path / "taken").exists():
        assert (tmp_path / "taken").read_text() == "keep"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("order, ratio, code", [
    (3.79, 2e3, 1),
    (3.9, 1e3, 1),
    (3.8, 1e3 * (1 + 1e-12), 0),
])
def test_convergence_gate(tmp_path, monkeypatch, order, ratio, code):
    monkeypatch.setattr(cli, "temporal_order", lambda g: (order, (0.0, 0.0, 0.0)))
    monkeypatch.setattr(cli, "spatial_error_ratio", lambda g: (ratio, {64: 0.0, 128: 0.0}))
    report = tmp_path / "conv.json"
    assert run_cli("convergence", "--json", str(report)) == code
    assert json.loads(report.read_text())["pass"] is (code == 0)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_convergence_fails_when_a_run_does_not_complete(tmp_path, capsys):
    # the right-hand side overflows at A = 1e12, so every study run ends nonfinite
    report = tmp_path / "conv.json"
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_cli("convergence", "--A", "1e12", "--json", str(report)) == 1
    # strict JSON: the failed studies' NaNs are written as null
    payload = json.loads(report.read_text(), parse_constant=_reject_constant)
    assert payload["pass"] is False
    assert payload["temporal_order"] is None and payload["spatial_ratio"] is None
    err = capsys.readouterr().err
    assert "temporal study: run at dt = 0.1 ended nonfinite" in err
    assert "spatial study: run at n = 64 ended nonfinite" in err


def test_verify_json_is_strict(tmp_path):
    # the log-interpolation ratio has an unbounded tolerance
    report = tmp_path / "verify.json"
    assert run_cli("verify", "--only", "besov", "--json", str(report)) == 0
    entries = json.loads(report.read_text(), parse_constant=_reject_constant)
    assert None in [e["tolerance"] for e in entries]
    assert all(e["pass"] for e in entries)


def test_convergence_gate_has_no_flags(capsys):
    for flag in ("--min-order", "--min-ratio"):
        with pytest.raises(SystemExit) as exc:
            run_cli("convergence", flag, "0")
        assert exc.value.code == 2


def test_simulate_malformed_json(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{ not json")
    assert run_cli("simulate", str(cfg_path)) == 2
    assert "line" in capsys.readouterr().err


def test_output_root_env(tmp_path, monkeypatch):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, n=64, t_end=0.05, snapshot_stride=5)
    monkeypatch.setenv("SHEARWAVES_OUTPUT_ROOT", str(tmp_path / "root"))
    assert run_cli("simulate", str(cfg_path)) == 0
    assert (tmp_path / "root" / "run" / "diagnostics.csv").exists()


def test_convergence_command(tmp_path, capsys):
    report = tmp_path / "conv.json"
    assert run_cli("convergence", "--json", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["temporal_order"] >= 3.8
    assert payload["spatial_ratio"] > 1e3
    out = capsys.readouterr().out
    assert "temporal Richardson order" in out
    assert "spatial error ratio" in out
