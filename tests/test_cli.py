import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rank1spec import cli, ensemble, solver, verify
from rank1spec.cli import main, parse_grid, parse_measure_atoms, parse_sigma
from rank1spec.ensemble import read_spectrum_csv
from rank1spec.measures import (SpectralMeasure, density_columns,
                                save_measure_json, write_density_csv)


SRC = Path(__file__).resolve().parent.parent / "src"


def run(args):
    return main([str(a) for a in args])


def exit_code(args):
    """run(args), or the code of the exit argparse takes."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


def manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def hashes(paths):
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)]


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------

def test_parse_grid_nudges_endpoints():
    g = parse_grid("0:4:5")
    assert len(g) == 5
    assert g[0] == pytest.approx(1e-9, abs=1e-15)
    assert g[-1] == pytest.approx(4 - 1e-9, abs=1e-15)
    assert g[2] == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        parse_grid("3:1:5")


def test_parse_sigma_atoms():
    sig = parse_sigma("atoms:0.5:0.4,2:0.6")
    assert list(sig.tau_values) == [0.5, 2.0]
    assert list(sig.weights) == [0.4, 0.6]
    with pytest.raises(ValueError):
        parse_sigma("uniform:0:1")


def test_parse_measure_atoms_sorts():
    m = parse_measure_atoms("atoms:1:0.5,0:0.5")
    assert m.atom_locations.tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# density command
# ---------------------------------------------------------------------------

def test_density_outputs_roundtrip(tmp_path):
    out = tmp_path / "d"
    rc = run(["density", "--c", 0.25, "--grid", "0.01:3.99:120",
              "--out", out])
    assert rc == 0
    text = (out / "density.csv").read_text()
    assert text.splitlines()[0] == "lambda,rho"
    table = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
    meas_json = SpectralMeasure(**json.loads((out / "measure.json").read_text()))
    assert np.array_equal(table[:, 0], meas_json.grid)
    assert np.array_equal(table[:, 1], meas_json.values)
    man = manifest(out)
    assert man["command"] == "density"
    assert man["diagnostics"]["atoms"] == [[0.0, 0.75]]
    assert len(man["diagnostics"]["iterations"]) == 120
    assert all(k >= 1 for k in man["diagnostics"]["iterations"])


def test_density_manifest_reports_the_solve(tmp_path):
    out = tmp_path / "d"
    assert run(["density", "--c", 0.25, "--sigma", "atoms:1:0.5,-0.5:0.5",
                "--n0", "atoms:-1:0.5,1:0.5", "--grid=-3:3:60",
                "--eps-final", 1e-5, "--out", out]) == 0
    diag = manifest(out)["diagnostics"]
    schedule = solver.SolverOptions(eps_final=1e-5).eps_schedule(
        parse_sigma("atoms:1:0.5,-0.5:0.5"))
    assert diag["stages"] == schedule
    assert len(diag["stages"]) == len(diag["updates_per_stage"])
    assert sum(diag["updates_per_stage"]) == sum(diag["iterations"])
    assert isinstance(diag["fallbacks"], int) and diag["fallbacks"] >= 0
    assert 0.0 <= diag["max_residual"] <= 1e-10


def test_density_manifest_hashes_verify(tmp_path):
    out = tmp_path / "d"
    assert run(["density", "--c", 1.0, "--grid", "0.1:3.9:40",
                "--out", out]) == 0
    for entry in manifest(out)["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_density_nonconvergence_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    out = tmp_path / "d"
    rc = run(["density", "--c", 1.0, "--grid", "0.5:3.5:5", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "lambda=" in err and "eps=" in err
    assert not out.exists()


def test_density_custom_base_spectrum(tmp_path):
    src = tmp_path / "base.csv"
    src.write_text("".join(f"{v!r}\n" for v in [-1.0, -1.0, 1.0, 1.0]))
    out = tmp_path / "d"
    rc = run(["density", "--c", 0.2, "--h0-spectrum", src,
              "--grid=-2:3:80", "--out", out])
    assert rc == 0
    meas = SpectralMeasure(**json.loads((out / "measure.json").read_text()))
    # rank fraction 0.2 moves ~0.4 of the mass into two continuous
    # bulks; the residual atoms at +-1 sit between grid points
    assert 0.3 < meas.total_mass < 0.6
    vals = meas.values
    grid = meas.grid
    near = vals[np.abs(grid - 1.0) < 0.3].max()
    far = vals[grid < -1.7].max()
    assert near > 10 * far


def test_density_solves_grid_once(tmp_path, monkeypatch):
    calls = []
    solve = solver.solve_mpe_grid

    def counted(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    # every binding a density run could reach
    monkeypatch.setattr(cli, "solve_mpe_grid", counted)
    monkeypatch.setattr(solver, "solve_mpe_grid", counted)
    out = tmp_path / "d"
    assert run(["density", "--c", 0.25, "--grid", "0.01:3.99:60",
                "--out", out]) == 0
    assert len(calls) == 1

    # the written measure is the one a fresh solve gives
    model = solver.ModelSpec(c=0.25, sigma=parse_sigma("atoms:1:1"),
                             n0=parse_measure_atoms("atoms:0:1"))
    opts = solver.SolverOptions()
    grid = parse_grid("0.01:3.99:60")
    fresh = solver.limit_density(model, grid, solve(grid, model, opts).f,
                                 require_mass=False)
    reused = SpectralMeasure(**json.loads((out / "measure.json").read_text()))
    assert np.array_equal(reused.atom_locations, fresh.atom_locations)
    assert np.array_equal(reused.atom_masses, fresh.atom_masses)
    assert np.array_equal(reused.values, fresh.values)
    assert reused.total_mass == fresh.total_mass
    assert reused.probability == fresh.probability
    with pytest.raises(ValueError):
        solver.limit_density(model, grid, np.zeros(3, complex))


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------

def test_simulate_outputs(tmp_path):
    out = tmp_path / "s"
    rc = run(["simulate", "--n", 80, "--m", 40, "--law", "gauss",
              "--seed", 3, "--trials", 4, "--bins", 20, "--out", out])
    assert rc == 0
    for t in range(4):
        spec = read_spectrum_csv(out / f"eigenvalues_{t:03d}.csv")
        assert spec.n == 80
    hist = np.loadtxt(out / "histogram.csv", delimiter=",", skiprows=1)
    assert (out / "histogram.csv").read_text().startswith(
        "bin_left,bin_right,mass\n")
    mass = hist[:, 2]
    assert len(mass) == 20
    assert np.array_equal(hist[1:, 0], hist[:-1, 1])    # contiguous bins
    assert abs(mass.sum() - 1.0) < 1e-9
    man = manifest(out)
    assert man["seed"] == 3
    assert len(man["outputs"]) == 5


def test_simulate_reads_a_file_base_once(tmp_path, monkeypatch):
    path = tmp_path / "h0.txt"
    path.write_text("3\n1 0.5 0\n0.5 -1 0\n0 0 0.25\n")
    reads = []
    read = ensemble.read_h0_file
    monkeypatch.setattr(ensemble, "read_h0_file",
                        lambda p: reads.append(p) or read(p))
    assert run(["simulate", "--n", 3, "--m", 2, "--h0", f"file:{path}",
                "--trials", 5, "--out", tmp_path / "s"]) == 0
    assert len(reads) == 1


def test_simulate_trials_differ(tmp_path):
    out = tmp_path / "s"
    run(["simulate", "--n", 30, "--m", 15, "--seed", 0, "--trials", 2,
         "--out", out])
    a = read_spectrum_csv(out / "eigenvalues_000.csv").eigenvalues
    b = read_spectrum_csv(out / "eigenvalues_001.csv").eigenvalues
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# compare command
# ---------------------------------------------------------------------------

def test_compare_convergence_small(tmp_path):
    out = tmp_path / "c"
    rc = run(["compare", "--c", 0.5, "--grid", "0.02:3.2:800",
              "--dims", "32,64", "--seeds", 2, "--law", "sphere",
              "--seed", 0, "--out", out])
    assert rc == 0
    data = json.loads((out / "convergence.json").read_text())
    assert data["kind"] == "convergence"
    assert data["pass"]
    assert [row[:3] for row in data["rows"]] == [[32, 16, 2], [64, 32, 2]]
    assert data["estimate"] == data["rows"][-1][3]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [o["path"] for o in manifest["outputs"]] == ["convergence.json"]
    assert sorted(p.name for p in out.iterdir()) == ["convergence.json",
                                                     "manifest.json"]


def test_compare_flat_ladder_fails_with_exit_3(tmp_path, capsys):
    # equal dimensions replay identical trials, so the mean KS cannot
    # strictly decrease
    out = tmp_path / "c"
    rc = run(["compare", "--c", 0.5, "--grid", "0.02:3.2:400",
              "--dims", "32,32", "--seeds", 2, "--out", out])
    assert rc == 3
    assert not json.loads((out / "convergence.json").read_text())["pass"]
    assert "failed" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--gram", None), ("--h0", "diag:5"), ("--n0", "atoms:-1:0.5,1:0.5"),
    ("--n", "64")])
def test_compare_rejects_flags_it_does_not_read(tmp_path, flag, value):
    out = tmp_path / "c"
    extra = [flag] if value is None else [flag, value]
    with pytest.raises(SystemExit) as exc:
        run(["compare", "--c", 0.5, "--grid", "0.02:3.2:10", *extra,
             "--out", out])
    assert exc.value.code == 2
    assert not out.exists()


def test_density_rejects_n0_with_h0_spectrum(tmp_path):
    src = tmp_path / "eig.csv"
    src.write_text("0.0\n1.0\n")
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exc:
        run(["density", "--c", 0.2, "--n0", "atoms:5:1", "--h0-spectrum",
             src, "--grid=-1:4:20", "--out", out])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("0.5\nnan\n", "atoms must be finite, got (nan, 0.5)"),
    ("", "holds no eigenvalues"),
    ("0.5\nx\n", "could not convert string to float: 'x\\n'")],
    ids=["nan", "empty", "text"])
def test_density_bad_h0_spectrum_file_names_flag_and_path(tmp_path, capsys,
                                                          text, message):
    src = tmp_path / "eig.csv"
    src.write_text(text)
    out = tmp_path / "d"
    assert run(["density", "--c", 0.2, "--h0-spectrum", src,
                "--grid=-1:4:20", "--out", out]) == 2
    assert (f"error: --h0-spectrum {src}: {message}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["density", "--c", 1, "--grid", "0.5:3.5:5", "--tol", "1e300"],
    ["density", "--c", 1, "--grid", "0.5:3.5:5", "--max-iter", 2],
    ["compare", "--c", 0.5, "--grid", "0.02:3.2:10", "--dims", "16,32",
     "--tol", "1e-8"],
    ["compare", "--c", 0.5, "--grid", "0.02:3.2:10", "--dims", "16,32",
     "--max-iter", 200],
    ["density", "--c", 1, "--grid", "0.5:3.5:5", "--config", "run.cfg"],
    ["simulate", "--n", 4, "--m", 2, "--config", "run.cfg"],
    ["compare", "--c", 0.5, "--grid", "0.02:3.2:10", "--config", "run.cfg"],
    ["verify", "gram", "--n", 4, "--m", 2, "--config",
     "run.cfg"]])
def test_solver_knobs_and_config_files_are_not_flags(tmp_path, capsys,
                                                     argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", out])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["compare", "--c", 0.5, "--grid", "0.02:3.2:50", "--dims", "16,32",
     "--seeds", 0],
    ["simulate", "--n", 10, "--m", 5, "--trials", 0]])
def test_zero_seeds_or_trials_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(argv + ["--out", out]) == 2
    assert "at least 1" in capsys.readouterr().err
    assert not out.exists()


# one malformed flag value per row, and the message its exit 2 prints
MALFORMED = [
    (["density", "--c", 1, "--grid", "0:1"], "expected a:b:count"),
    (["density", "--c", 1, "--grid", "0:1:x"], "expected a:b:count"),
    (["compare", "--c", 0.5, "--grid", "0:1:10", "--dims", "16,x"],
     "expected integers n1,n2,..., got '16,x'"),
    (["verify", "quadform", "--dims", "16,x"],
     "expected integers n1,n2,..., got '16,x'"),
    # a check is a subcommand of verify, not the value of a flag
    (["verify", "--check", "gram", "--n", 4, "--m", 2],
     "unrecognized arguments: --check"),
    (["verify", "tail", "--n", 16, "--t-values", "1,y"],
     "expected numbers t1,t2,..., got '1,y'"),
    (["simulate", "--n", 10, "--m", 5, "--bins", 0],
     "--bins must be at least 1"),
    (["verify", "counting-var", "--n", 40, "--m", 20,
      "--trials", 5, "--interval", "2,0.5"], "needs a < b"),
    (["simulate", "--n", 10, "--m", 0, "--trials", 2, "--seed", -1],
     "seed must be an integer in [0, 2^64)"),
    (["density", "--c", 1, "--grid", "0.1:3:5", "--sigma", "atoms:1:nan"],
     "atoms must be finite, got (1.0, nan)"),
    (["density", "--c", 1, "--grid", "0.1:3:5", "--eps-final", "nan"],
     "eps_final must be finite and positive"),
    (["density", "--c", "nan", "--grid", "0.1:3:5"],
     "c must be finite and nonnegative"),
    (["density", "--c", 1, "--grid", "0:inf:5"], "expected a:b:count"),
    (["density", "--c", 1, "--grid=-1e308:1e308:3"],
     "--grid '-1e308:1e308:3' does not give finite"),
    (["verify", "counting-var", "--n", 40, "--m", 20,
      "--trials", 5, "--interval", "0,nan"], "needs a < b"),
    (["verify", "stieltjes-var", "--n", 40, "--m", 20,
      "--trials", 5, "--z", "0,nan"], "Im z"),
    (["simulate", "--n", 3, "--m", 1, "--h0", "diag:1,x,2"],
     "expected diag:d1,d2,... with finite entries, got 'diag:1,x,2'"),
    (["simulate", "--n", 3, "--m", 1, "--h0", "diag:"],
     "expected diag:d1,d2,..."),
    (["simulate", "--n", 3, "--m", 1, "--h0", "diag:1,nan,2"],
     "expected diag:d1,d2,..."),
    (["simulate", "--n", 3, "--m", 1, "--law", "lp:x"],
     "expected lp:p with a number p >= 1, got 'lp:x'"),
    (["density", "--c", 1, "--grid", "0.1:3:5", "--sigma", "atoms:1e200:1"],
     "--sigma amplitude 1e+200 is too large"),
    (["verify", "stieltjes-var", "--n", 10, "--m", 5,
      "--trials", 3, "--z", "0,1e-300", "--law", "gauss"],
     "--z 0.0,1e-300: Im z is too small"),
    (["verify", "tail", "--n", 4, "--samples", 10,
      "--t-values", "nan"], "--t-values must be finite, got nan"),
    (["verify", "tail", "--n", 4, "--samples", 10,
      "--t-values", "1,inf"], "--t-values must be finite, got inf"),
    # at t <= 0 the envelope exp(-t sqrt(n)) is at least 1
    (["verify", "tail", "--n", 4, "--samples", 10,
      "--t-values", "1,0"], "--t-values must be positive, got 0.0"),
    (["verify", "tail", "--n", 4, "--samples", 10,
      "--t-values", "1,-1"], "--t-values must be positive, got -1.0"),
    (["density", "--c", 1, "--grid", "0.1:3:5", "--n0", "atoms:0:1.5"],
     "n0 must be a probability measure"),
    # the inertia matrix overflows, and its eigenvalues are NaN
    (["verify", "counting-var", "--n", 4, "--m", 2, "--trials", 3,
      "--h0", "diag:-1,-1,1,1", "--interval=-0.5,0.5", "--sigma",
      "atoms:1e300:1"], "inertia eigensolve returned non-finite eigenvalues"),
]


@pytest.mark.parametrize("argv,message", MALFORMED)
def test_malformed_flag_value_exits_2(tmp_path, capsys, monkeypatch, argv,
                                      message):
    def no_spectrum(*args, **kwargs):
        raise AssertionError("a spectrum was computed before the check")
    # every binding an ensemble run of these commands could reach
    monkeypatch.setattr(cli, "eigenvalues_sym", no_spectrum)
    monkeypatch.setattr(verify, "eigenvalues_sym", no_spectrum)
    monkeypatch.setattr(ensemble, "eigenvalues_sym", no_spectrum)
    out = tmp_path / "o"
    assert exit_code(argv + ["--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# Each asks for 2^61 bytes or more in one array, which numpy refuses
# before any page is touched: the grid, a vector block, the isotropy
# block and the histogram bins.
@pytest.mark.parametrize("argv", [
    ["density", "--c", 1, "--grid", f"0.5:1.5:{2 ** 58}"],
    ["simulate", "--n", 2 ** 58, "--m", 1],
    ["verify", "isotropy", "--n", 2 ** 58, "--samples", 2],
    ["simulate", "--n", 4, "--m", 2, "--bins", 2 ** 58]],
    ids=["grid", "vectors", "isotropy", "bins"])
def test_refused_allocation_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(argv + ["--out", out]) == 2
    assert "error: out of memory: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def constant_block(law, n, count, rng):
    return np.full((count, n), 1.0 / np.sqrt(n))


@pytest.mark.parametrize("argv, code", [
    (["verify", "isotropy", "--law", "sphere", "--n", 1,
      "--samples", 2, "--seed", 1], 3),
    (["verify", "quadform", "--dims", "4,8", "--samples", 3], 0)],
    ids=["isotropy", "quadform"])
def test_infinite_estimates_are_written_as_null(tmp_path, monkeypatch, argv,
                                                code):
    # an isotropy ratio over a zero standard error, and the slope of two
    # matrices that both concentrate exactly, as they do when every
    # draw is the same vector
    if argv[1] == "quadform":
        monkeypatch.setattr(verify, "sample_vectors", constant_block)
    out = tmp_path / "v"
    assert run(argv + ["--out", out]) == code
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=reject_constant)
    assert report["estimate"] is None
    assert report.get("max_ratio") is None
    assert report["pass"] == (code == 0)


# Each bad value takes the place of `{}` in a flag's template, one flag
# at a time, on a small base run of each subcommand and verify check.
# The flags are those the base run's parser declares, so a flag added
# later is swept with the template "{}" unless TEMPLATES names it; an
# empty list skips a flag (--h0-spectrum is a path, tested on its own).
SWEEP_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "", "x"]
TEMPLATES = {"--sigma": ["atoms:{}:1", "atoms:1:{}"],
             "--grid": ["{}:3.5:5", "0.5:{}:5", "0.5:3.5:{}"],
             "--n0": ["atoms:{}:1", "atoms:0:{}"],
             "--h0": ["diag:-1,-1,1,{}"], "--law": ["{}", "lp:{}"],
             "--dims": ["4,{}"], "--interval": ["{},2.25", "0.25,{}"],
             "--z": ["{},1", "0,{}"], "--t-values": ["1,{}"],
             "--h0-spectrum": [], "--out": []}
SWEEP = [
    ["density", "--c", "1", "--grid", "0.5:3.5:5"],
    ["simulate", "--n", "4", "--m", "2", "--trials", "2", "--bins", "5"],
    ["compare", "--c", "0.25", "--grid", "0.01:2.3:5", "--dims", "4,8",
     "--seeds", "2"],
    ["verify", "counting-var", "--n", "4", "--m", "2", "--trials", "3"],
    ["verify", "stieltjes-var", "--n", "4", "--m", "2", "--trials", "3"],
    ["verify", "gram", "--n", "4", "--m", "2"],
    ["verify", "quadform", "--dims", "4,8", "--samples", "10"],
    ["verify", "tail", "--n", "4", "--samples", "10"],
    ["verify", "isotropy", "--n", "4", "--samples", "10"],
]


def declared_flags(argv):
    """The flags of the parser that reads argv after its subcommands."""
    parser = cli.build_parser()
    for name in argv:
        subparsers = [action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)]
        if not subparsers:
            break
        parser = subparsers[0].choices[name]
    return [action.option_strings[-1] for action in parser._actions
            if not isinstance(action, argparse._HelpAction)]


def sweep_cases():
    for base in SWEEP:
        for flag in declared_flags(base):
            for template in TEMPLATES.get(flag, ["{}"]):
                for value in SWEEP_VALUES:
                    # compare makes m = round(c * n) for each dimension
                    if base[0] == "compare" and flag == "--c" and value in (
                            "inf", "1e300"):
                        continue
                    text = template.format(value)
                    argv = list(base)
                    if flag in argv:
                        argv[argv.index(flag) + 1] = text
                    else:
                        argv += [flag, text]
                    yield argv, flag, text


def test_exit_code_sweep(tmp_path, capsys):
    # every bad value exits 0, 2 or 3; an exit of 2 names the flag or its
    # text, or is a solver failure or a mass deficit, which carry their
    # own messages, and writes no --out directory; every JSON written
    # is strict
    faults = []
    for i, (argv, flag, text) in enumerate(sweep_cases()):
        out = tmp_path / str(i)
        code = exit_code(argv + ["--out", out])
        err = capsys.readouterr().err
        if code not in (0, 2, 3):
            faults.append((argv, f"exit {code}"))
        elif code == 2:
            if out.exists():
                faults.append((argv, "wrote --out"))
            # a flag of two or more letters may be named without its dashes
            named = (flag in err or len(flag) > 3 and flag[2:] in err
                     or repr(text) in err or text and text in err)
            if not (named or err.startswith(
                    ("solver failed at lambda=", "error: recovered mass"))):
                faults.append((argv, err))
        else:
            for path in out.glob("*.json"):
                try:
                    json.loads(path.read_text(), parse_constant=reject_constant)
                except ValueError as exc:
                    faults.append((argv, f"{path.name}: {exc}"))
    assert i > 600
    assert faults == []


def test_failed_eigensolve_exits_2(tmp_path, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    out = tmp_path / "s"
    assert run(["simulate", "--n", 8, "--m", 8, "--out", out]) == 2
    assert ("error: dense eigensolve failed: Eigenvalues did not converge"
            in capsys.readouterr().err)
    assert not out.exists()


def test_simulate_rejects_a_nan_in_the_h0_file(tmp_path, capsys):
    path = tmp_path / "h0.txt"
    path.write_text("3\n1 0 0\n0 nan 0\n0 0 1\n")
    out = tmp_path / "s"
    assert run(["simulate", "--n", 3, "--m", 1, "--h0", f"file:{path}",
                "--out", out]) == 2
    assert f"{path}: entry (2, 2) is nan, not finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_counting_var(tmp_path):
    out = tmp_path / "v"
    rc = run(["verify", "counting-var", "--n", 60, "--m", 30,
              "--trials", 20, "--interval", "0.25,2.25", "--out", out])
    assert rc == 0
    data = json.loads((out / "report.json").read_text())
    assert data["kind"] == "counting-var"
    assert data["pass"]
    assert [o["path"] for o in manifest(out)["outputs"]] == ["report.json"]


def test_verify_gram(tmp_path):
    out = tmp_path / "g"
    rc = run(["verify", "gram", "--n", 120, "--m", 60,
              "--seed", 2, "--out", out])
    assert rc == 0
    data = json.loads((out / "report.json").read_text())
    assert data["kind"] == "gram"
    assert data["params"] == {"n": 120, "m": 60, "law": "sphere", "seed": 2}
    assert data["pass"]
    assert data["estimate"] <= data["bound"] == 1e-8
    assert [o["path"] for o in manifest(out)["outputs"]] == ["report.json"]


def test_verify_quadform(tmp_path):
    out = tmp_path / "v"
    rc = run(["verify", "quadform", "--law", "cube",
              "--dims", "16,32", "--samples", 1000, "--out", out])
    assert rc == 0
    assert json.loads((out / "report.json").read_text())["pass"]


def test_verify_isotropy(tmp_path):
    out = tmp_path / "v"
    rc = run(["verify", "isotropy", "--law", "sphere", "--n", 20,
              "--samples", 20000, "--seed", 4, "--out", out])
    assert rc == 0
    data = json.loads((out / "report.json").read_text())
    assert set(data) >= {"kind", "params", "estimate", "bound", "se", "pass"}


def test_verify_tail(tmp_path):
    out = tmp_path / "v"
    rc = run(["verify", "tail", "--law", "laplace", "--n", 64,
              "--samples", 20000, "--out", out])
    assert rc == 0


def test_verify_missing_size_flag_exits_2(tmp_path, capsys):
    rc = exit_code(["verify", "tail", "--out", tmp_path / "v"])
    assert rc == 2
    assert ("the following arguments are required: --n"
            in capsys.readouterr().err)
    rc = exit_code(["verify", "gram", "--m", 10, "--out", tmp_path / "g"])
    assert rc == 2
    assert ("the following arguments are required: --n"
            in capsys.readouterr().err)
    assert not (tmp_path / "g").exists()


# small runs of each check, with every flag it requires
VERIFY_RUNS = {
    "counting-var": ["--n", 20, "--m", 10, "--trials", 4],
    "stieltjes-var": ["--n", 20, "--m", 10, "--trials", 4],
    "gram": ["--n", 20, "--m", 10],
    "quadform": ["--dims", "16,32", "--samples", 200],
    "tail": ["--n", 16, "--samples", 200],
    "isotropy": ["--n", 8, "--samples", 200],
}
# a value each verify flag accepts
VERIFY_VALUES = {"n": 20, "m": 10, "sigma": "atoms:1:1", "h0": "zero",
                 "trials": 4, "interval": "0.25,2.25", "z": "0,1",
                 "dims": "16,32", "samples": 200, "t_values": "1,2"}


def unread_flag(check):
    flag = min(VERIFY_VALUES.keys() - cli.VERIFY_CHECKS[check][1].keys())
    return flag.replace("_", "-"), VERIFY_VALUES[flag]


@pytest.mark.parametrize("check,flag,value", [
    *((check, *unread_flag(check)) for check in cli.VERIFY_CHECKS),
    ("gram", "sigma", "atoms:2:1"), ("gram", "h0", "diag:" + ",".join(
        ["1"] * 20))])
def test_verify_rejects_flags_its_check_does_not_read(tmp_path, capsys,
                                                       check, flag, value):
    out = tmp_path / "v"
    rc = exit_code(["verify", check, *VERIFY_RUNS[check], f"--{flag}",
                    value, "--out", out])
    assert rc == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("check", cli.VERIFY_CHECKS)
def test_verify_manifest_holds_the_check_flags(tmp_path, check):
    out = tmp_path / "v"
    rc = run(["verify", check, *VERIFY_RUNS[check], "--out", out])
    assert rc in (0, 3)
    report = json.loads((out / "report.json").read_text())
    assert set(report) >= {"kind", "params", "estimate", "bound", "se",
                           "pass"}
    assert report["kind"] == check
    assert report["pass"] == (rc == 0)
    flags = manifest(out)["flags"]
    row = cli.VERIFY_CHECKS[check][1]
    assert set(flags) == {k.replace("_", "-") for k in row} | {
        "check", "command", "law", "seed"}
    passed = VERIFY_RUNS[check][::2]
    for key, default in row.items():
        if f"--{key}" not in passed:
            assert flags[key.replace("_", "-")] == default


def test_verify_stieltjes_var_real_z_exits_2(tmp_path, capsys):
    rc = run(["verify", "stieltjes-var", "--n", 40, "--m", 20,
              "--trials", 5, "--z", "0.5,0", "--out", tmp_path / "v"])
    assert rc == 2
    assert "Im z" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["counting-var", "stieltjes-var"])
@pytest.mark.parametrize("trials", [0, 1])
def test_verify_variance_without_trials_exits_2(tmp_path, capsys, check,
                                                 trials):
    out = tmp_path / "v"
    rc = run(["verify", check, "--n", 40, "--m", 20,
              "--trials", trials, "--out", out])
    assert rc == 2
    assert "at least 2 trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("check,size,samples", [
    ("quadform", "--dims=16,32", 1), ("quadform", "--dims=64", 100),
    ("tail", "--n=16", 0), ("isotropy", "--n=16", 0),
    ("isotropy", "--n=4", 1)])
def test_verify_too_few_samples_exits_2(tmp_path, capsys, check, size,
                                        samples):
    out = tmp_path / "v"
    rc = run(["verify", check, "--law", "gauss", size,
              "--samples", samples, "--out", out])
    assert rc == 2
    assert "at least" in capsys.readouterr().err
    assert not out.exists()


def test_verify_failure_exits_3(tmp_path, monkeypatch):
    from rank1spec.verify import Report
    failing = Report(kind="counting-var", params={}, estimate=1.0, bound=0.1,
                     se=0.0, passed=False)
    monkeypatch.setattr(cli, "verify_counting_variance",
                        lambda *a, **k: failing)
    rc = run(["verify", "counting-var", "--n", 10, "--m", 5,
              "--trials", 5, "--out", tmp_path / "v"])
    assert rc == 3


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [[], ["nope"], ["--c", "1"],
                                  ["verify"], ["verify", "nope"]])
def test_missing_or_unknown_subcommand_exits_2(capsys, argv):
    assert exit_code(argv) == 2
    assert capsys.readouterr().err.startswith("usage: rank1spec")


@pytest.mark.parametrize("argv", [[], *([name] for name in cli.SUBCOMMANDS),
                                  *(["verify", check]
                                    for check in cli.VERIFY_CHECKS)],
                         ids=lambda argv: "-".join(argv) or "None")
def test_help_text_of_every_parser(capsys, argv):
    assert exit_code(argv + ["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(" ".join(["usage: rank1spec", *argv, "[-h]"]))
    if not argv:
        assert "{density,simulate,compare,verify}" in out
    if argv == ["verify"]:
        assert "{" + ",".join(cli.VERIFY_CHECKS) + "}" in out
    if argv[:1] != ["verify"] or len(argv) < 2:
        return
    # a check's help lists every flag it reads, with its default
    row = {"law": "sphere", "seed": 0, **cli.VERIFY_CHECKS[argv[1]][1],
           "out": "."}
    for flag, default in row.items():
        name = "--" + flag.replace("_", "-")
        shown = "required" if default is None else f"default: {default}"
        assert re.search(rf"^  {name} \S+\s+{re.escape(shown)}$", out,
                         flags=re.MULTILINE), (name, out)


def child(argv, out):
    """`python -m rank1spec.cli argv --out out` in a fresh process."""
    # the checkout's sources, not an installed copy, on the child's path
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [sys.executable, "-m", "rank1spec.cli", *map(str, argv),
         "--out", str(out)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))


def test_one_parser_per_process_writes_what_a_fresh_process_writes(
        tmp_path):
    assert cli.build_parser() is cli.build_parser()
    density = ["density", "--c", 0.5, "--grid", "0.02:3.2:30"]
    simulate = ["simulate", "--n", 12, "--m", 6, "--trials", 2, "--bins", 5]
    gram = ["verify", "gram", "--n", 20, "--m", 10]
    for i, argv in enumerate([density, simulate, gram, density]):
        assert run(argv + ["--out", tmp_path / "in" / str(i)]) == 0
    for i, argv in enumerate([density, simulate, gram]):
        assert child(argv, tmp_path / "fresh" / str(i)).returncode == 0
    fresh = [tmp_path / "fresh" / str(i) for i in (0, 1, 2, 0)]
    for i, want in enumerate(fresh):
        got = tmp_path / "in" / str(i)
        assert ([p.name for p in sorted(got.iterdir())]
                == [p.name for p in sorted(want.iterdir())])
        assert hashes(got.iterdir()) == hashes(want.iterdir())


LOADS_RANDOM = """
import json, sys
import rank1spec, rank1spec.cli as cli
loaded = []
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    loaded.append("numpy.random" in sys.modules)
print(json.dumps(loaded))
"""


def test_density_loads_no_random_number_machinery(tmp_path):
    # the limit solve draws nothing, so numpy.random loads only at the
    # first generator built, here by simulate
    density = ["density", "--c", "1", "--grid", "0.5:3.5:5"]
    simulate = ["simulate", "--n", "12", "--m", "6", "--trials", "2"]
    argv = [density + ["--out", str(tmp_path / "fresh" / "d")],
            simulate + ["--out", str(tmp_path / "fresh" / "s")]]
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    done = subprocess.run(
        [sys.executable, "-c", LOADS_RANDOM, json.dumps(argv)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, True]
    for name, args in (("d", density), ("s", simulate)):
        assert run(args + ["--out", tmp_path / "in" / name]) == 0
        got = sorted((tmp_path / "fresh" / name).iterdir())
        want = sorted((tmp_path / "in" / name).iterdir())
        assert [p.name for p in got] == [p.name for p in want]
        assert hashes(got) == hashes(want)


# ---------------------------------------------------------------------------
# the write path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("atoms", [[], [(-1.0, 0.25), (0.0, 0.125)]])
def test_measure_json_bytes_are_those_of_json_dumps(tmp_path, atoms):
    grid = np.array([-1e300, -2.5, -1e-300, 0.0, 5e-324, 0.1, 1e22])
    values = np.array([np.nan, 0.0, np.inf, 5e-324, 1.0 / 3.0, 2.5e16,
                       2.2250738585072014e-308])
    m = SpectralMeasure(atoms=atoms, grid=grid, values=values)
    want = json.dumps(m.to_dict(), sort_keys=True).encode()
    path = tmp_path / "measure.json"
    assert save_measure_json(m, path) == want
    assert path.read_bytes() == want
    assert b"NaN" in want and b"Infinity" in want
    # from the columns the density CSV is written from, too
    columns = density_columns(m)
    assert save_measure_json(m, path, columns) == want
    assert path.read_bytes() == want

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["lambda", "rho"])
    for x, v in zip(grid, values):
        writer.writerow([repr(float(x)), repr(float(v))])
    csv_path = tmp_path / "density.csv"
    assert write_density_csv(m, csv_path, columns) == buf.getvalue().encode()
    assert csv_path.read_bytes() == buf.getvalue().encode()
    assert b"nan" in csv_path.read_bytes() and b"inf" in csv_path.read_bytes()


# test_density_manifest_hashes_verify covers density
@pytest.mark.parametrize("argv", [
    ["simulate", "--n", 12, "--m", 6, "--trials", 2, "--bins", 5],
    ["compare", "--c", 0.5, "--grid", "0.02:3.2:50", "--dims", "16,32",
     "--seeds", 2],
    ["verify", "gram", "--n", 20, "--m", 10]],
    ids=["simulate", "compare", "verify"])
def test_manifest_hashes_are_those_of_the_files_on_disk(tmp_path, argv):
    out = tmp_path / "o"
    assert run(argv + ["--out", out]) in (0, 3)
    outputs = manifest(out)["outputs"]
    assert {entry["path"] for entry in outputs} == {
        p.name for p in out.iterdir()} - {"manifest.json"}
    for entry in outputs:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


@pytest.mark.parametrize("argv", [
    ["density", "--c", 0.5, "--grid", "0.02:3.2:30"],
    ["simulate", "--n", 12, "--m", 6, "--trials", 2, "--bins", 5],
    ["compare", "--c", 0.5, "--grid", "0.02:3.2:800", "--dims", "32,64",
     "--seeds", 2, "--law", "sphere", "--seed", 0],
    ["verify", "gram", "--n", 20, "--m", 10]],
    ids=["density", "simulate", "compare", "verify"])
def test_every_output_goes_through_one_writer(tmp_path, monkeypatch, argv):
    def refuse(self, data):
        raise AssertionError(f"Path.write_bytes({self})")

    monkeypatch.setattr(Path, "write_bytes", refuse)
    out = tmp_path / "o"
    assert run(argv + ["--out", out]) == 0
    written = {entry["path"] for entry in manifest(out)["outputs"]}
    assert written and written | {"manifest.json"} == {
        p.name for p in out.iterdir()}


# ---------------------------------------------------------------------------
# determinism, error paths
# ---------------------------------------------------------------------------

def test_reruns_byte_identical(tmp_path):
    args = ["density", "--c", 0.25, "--grid", "0.01:3.99:60"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    assert hashes(out1.iterdir()) == hashes(out2.iterdir())


def test_simulate_rerun_byte_identical(tmp_path):
    args = ["simulate", "--n", 50, "--m", 25, "--law", "lp:1.5", "--seed", 8,
            "--trials", 2]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    assert hashes(out1.iterdir()) == hashes(out2.iterdir())


@pytest.mark.parametrize("larger, smaller", [
    (["density", "--c", 1.0, "--grid", "0.01:3.99:600"],
     ["density", "--c", 1.0, "--grid", "0.01:3.99:60"]),
    (["verify", "quadform", "--dims", "64,128,256,512", "--samples", 200],
     ["verify", "quadform", "--dims", "64,128", "--samples", 200]),
    (["simulate", "--n", 80, "--m", 40, "--trials", 2, "--bins", 40],
     ["simulate", "--n", 20, "--m", 10, "--trials", 2, "--bins", 5])],
    ids=["density", "verify", "simulate"])
def test_rerun_into_a_filled_out_writes_what_a_fresh_run_writes(
        tmp_path, larger, smaller):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert run(larger + ["--out", reused]) == 0
    big = {p.name: p.stat().st_size for p in reused.iterdir()}
    assert run(smaller + ["--out", reused]) == 0
    assert run(smaller + ["--out", fresh]) == 0
    assert ([p.name for p in sorted(reused.iterdir())]
            == [p.name for p in sorted(fresh.iterdir())])
    assert hashes(reused.iterdir()) == hashes(fresh.iterdir())
    # the smaller run did overwrite longer files
    assert any(big[p.name] > p.stat().st_size for p in fresh.iterdir())


def test_unknown_law_exits_2(tmp_path, capsys):
    rc = run(["simulate", "--n", 10, "--m", 5, "--law", "banana",
              "--out", tmp_path / "s"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "d"
    proc = child(["density", "--c", "1.0", "--grid", "0.5:3.5:8"], out)
    assert proc.returncode == 0
    assert (out / "density.csv").exists()
