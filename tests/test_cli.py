import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from rank1spec import cli, solver
from rank1spec.cli import main, parse_grid, parse_measure_atoms, parse_sigma
from rank1spec.ensemble import read_spectrum_csv
from rank1spec.measures import load_measure_json, read_density_csv


def run(args):
    return main([str(a) for a in args])


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
    meas_csv = read_density_csv(out / "density.csv")
    meas_json = load_measure_json(out / "measure.json")
    assert np.array_equal(meas_csv.grid, meas_json.grid)
    assert np.array_equal(meas_csv.values, meas_json.values)
    man = manifest(out)
    assert man["command"] == "density"
    assert man["diagnostics"]["atoms"] == [[0.0, 0.75]]
    assert len(man["diagnostics"]["iterations"]) == 120
    assert all(k >= 1 for k in man["diagnostics"]["iterations"])


def test_density_manifest_hashes_verify(tmp_path):
    out = tmp_path / "d"
    assert run(["density", "--c", 1.0, "--grid", "0.1:3.9:40",
                "--out", out]) == 0
    for entry in manifest(out)["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_density_nonconvergence_exit_code(tmp_path, capsys):
    out = tmp_path / "d"
    rc = run(["density", "--c", 1.0, "--grid", "0.5:3.5:5",
              "--max-iter", 2, "--out", out])
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
    meas = load_measure_json(out / "measure.json")
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
    assert run(["density", "--c", 0.25, "--grid", "0.01:3.99:60",
                "--out", tmp_path / "d"]) == 0
    assert len(calls) == 1

    # the reused transform gives the measure a fresh solve gives
    model = solver.ModelSpec(c=0.25, sigma=parse_sigma("atoms:1:1"),
                             n0=parse_measure_atoms("atoms:0:1"))
    opts = solver.SolverOptions()
    grid = parse_grid("0.01:3.99:60")
    fresh = solver.limit_density(model, grid, opts, require_mass=False)
    reused = solver.limit_density(model, grid, opts, require_mass=False,
                                  f_vals=solve(grid, model, opts)[0])
    assert np.array_equal(reused.atom_locations, fresh.atom_locations)
    assert np.array_equal(reused.atom_masses, fresh.atom_masses)
    assert np.array_equal(reused.values, fresh.values)
    assert reused.total_mass == fresh.total_mass
    assert reused.probability == fresh.probability
    with pytest.raises(ValueError):
        solver.limit_density(model, grid, opts, f_vals=np.zeros(3, complex))


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
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "n,m,seeds,mean_ks,std_ks"
    assert len(lines) == 3


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


@pytest.mark.parametrize("argv", [
    ["compare", "--c", 0.5, "--grid", "0.02:3.2:50", "--dims", "16,32",
     "--seeds", 0],
    ["simulate", "--n", 10, "--m", 5, "--trials", 0]])
def test_zero_seeds_or_trials_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(argv + ["--out", out]) == 2
    assert "at least 1" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_counting_var(tmp_path):
    out = tmp_path / "v"
    rc = run(["verify", "--check", "counting-var", "--n", 60, "--m", 30,
              "--trials", 20, "--interval", "0.25,2.25", "--out", out])
    assert rc == 0
    data = json.loads((out / "report.json").read_text())
    assert data["kind"] == "counting-var"
    assert data["pass"]
    assert [o["path"] for o in manifest(out)["outputs"]] == ["report.json"]


def test_verify_gram(tmp_path):
    out = tmp_path / "g"
    rc = run(["verify", "--check", "gram", "--n", 120, "--m", 60,
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
    rc = run(["verify", "--check", "quadform", "--law", "cube",
              "--dims", "16,32", "--samples", 1000, "--out", out])
    assert rc == 0
    assert json.loads((out / "report.json").read_text())["pass"]


def test_verify_isotropy(tmp_path):
    out = tmp_path / "v"
    rc = run(["verify", "--check", "isotropy", "--law", "sphere", "--n", 20,
              "--samples", 20000, "--seed", 4, "--out", out])
    assert rc == 0
    data = json.loads((out / "report.json").read_text())
    assert set(data) >= {"kind", "params", "estimate", "bound", "se", "pass"}


def test_verify_tail(tmp_path):
    out = tmp_path / "v"
    rc = run(["verify", "--check", "tail", "--law", "laplace", "--n", 64,
              "--samples", 20000, "--out", out])
    assert rc == 0


def test_verify_missing_size_flag_exits_2(tmp_path, capsys):
    rc = run(["verify", "--check", "tail", "--out", tmp_path / "v"])
    assert rc == 2
    assert "requires --n" in capsys.readouterr().err
    rc = run(["verify", "--check", "gram", "--m", 10, "--out", tmp_path / "g"])
    assert rc == 2
    assert "requires --n" in capsys.readouterr().err
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
    flag = min(VERIFY_VALUES.keys() - cli.VERIFY_CHECKS[check].keys())
    return flag.replace("_", "-"), VERIFY_VALUES[flag]


@pytest.mark.parametrize("check,flag,value", [
    *((check, *unread_flag(check)) for check in cli.VERIFY_CHECKS),
    ("gram", "sigma", "atoms:2:1"), ("gram", "h0", "diag:" + ",".join(
        ["1"] * 20))])
def test_verify_rejects_flags_its_check_does_not_read(tmp_path, capsys,
                                                       check, flag, value):
    out = tmp_path / "v"
    rc = run(["verify", "--check", check, *VERIFY_RUNS[check], f"--{flag}",
              value, "--out", out])
    assert rc == 2
    assert f"does not read --{flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("check", cli.VERIFY_CHECKS)
def test_verify_manifest_holds_the_check_flags(tmp_path, check):
    out = tmp_path / "v"
    assert run(["verify", "--check", check, *VERIFY_RUNS[check],
                "--out", out]) in (0, 3)
    flags = manifest(out)["flags"]
    row = cli.VERIFY_CHECKS[check]
    assert set(flags) == {k.replace("_", "-") for k in row} | {
        "check", "command", "law", "seed"}
    passed = VERIFY_RUNS[check][::2]
    for key, default in row.items():
        if f"--{key}" not in passed:
            assert flags[key.replace("_", "-")] == default


def test_verify_config_key_the_check_does_not_read_exits_2(tmp_path,
                                                           capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=20\nm=10\ntrials=4\n")
    out = tmp_path / "g"
    assert run(["verify", "--config", cfg, "--check", "gram",
                "--out", out]) == 2
    assert "does not read --trials" in capsys.readouterr().err
    assert not out.exists()


def test_verify_stieltjes_var_real_z_exits_2(tmp_path, capsys):
    rc = run(["verify", "--check", "stieltjes-var", "--n", 40, "--m", 20,
              "--trials", 5, "--z", "0.5,0", "--out", tmp_path / "v"])
    assert rc == 2
    assert "Im z" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["counting-var", "stieltjes-var"])
@pytest.mark.parametrize("trials", [0, 1])
def test_verify_variance_without_trials_exits_2(tmp_path, capsys, check,
                                                 trials):
    out = tmp_path / "v"
    rc = run(["verify", "--check", check, "--n", 40, "--m", 20,
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
    rc = run(["verify", "--check", check, "--law", "gauss", size,
              "--samples", samples, "--out", out])
    assert rc == 2
    assert "at least" in capsys.readouterr().err
    assert not out.exists()


def test_verify_failure_exits_3(tmp_path, monkeypatch):
    from rank1spec.verify import VarianceReport
    failing = VarianceReport(kind="counting-var", params={}, estimate=1.0,
                             bound=0.1, trials=5, standard_error=0.0,
                             passed=False)
    monkeypatch.setattr(cli, "verify_counting_variance",
                        lambda *a, **k: failing)
    rc = run(["verify", "--check", "counting-var", "--n", 10, "--m", 5,
              "--trials", 5, "--out", tmp_path / "v"])
    assert rc == 3


# ---------------------------------------------------------------------------
# config file, determinism, error paths
# ---------------------------------------------------------------------------

def test_config_file_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c=1.0\ngrid=0.1:3.9:50\ntol=1e-8\n")
    out = tmp_path / "d"
    rc = run(["density", "--config", cfg, "--grid", "0.1:3.9:10",
              "--out", out])
    assert rc == 0
    man = manifest(out)
    assert man["flags"]["grid"] == "0.1:3.9:10"    # explicit flag wins
    assert man["flags"]["c"] == 1.0                # config supplies the rest
    assert man["flags"]["tol"] == 1e-8
    assert len(man["diagnostics"]["iterations"]) == 10


def test_config_file_comments_and_blanks(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\nn=30\nm=15\nseed=9\n")
    out = tmp_path / "s"
    assert run(["simulate", "--config", cfg, "--out", out]) == 0
    assert manifest(out)["seed"] == 9


def test_config_flag_without_path_exits_2(capsys):
    assert run(["density", "--config"]) == 2
    assert "--config needs a path" in capsys.readouterr().err


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


def test_unknown_law_exits_2(tmp_path, capsys):
    rc = run(["simulate", "--n", 10, "--m", 5, "--law", "banana",
              "--out", tmp_path / "s"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "d"
    proc = subprocess.run(
        [sys.executable, "-m", "rank1spec.cli", "density", "--c", "1.0",
         "--grid", "0.5:3.5:8", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "density.csv").exists()
