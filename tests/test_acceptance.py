"""End-to-end acceptance checks, one test per shipped criterion.

Each test emits a single PASS/FAIL line through the `criterion` fixture
so the suite output carries a per-criterion verdict.
"""

import hashlib
import json
import time

import numpy as np

from rank1spec.cli import main as cli_main
from rank1spec.ensemble import (EnsembleConfig, H0Zero, build_matrix,
                                eigenvalues_sym, resolvent_traces)
from rank1spec.measures import AmplitudeLaw, SpectralMeasure
from rank1spec.samplers import RngStream, VectorLaw, sample_vectors
from rank1spec.solver import (ModelSpec, SolverOptions, limit_density,
                              mp_stieltjes_oracle, solve_mpe_at, solve_mpe_grid)
from rank1spec.verify import (convergence_study, isotropy_estimate,
                              verify_counting_variance, verify_gram_duality,
                              verify_quadratic_form, verify_stieltjes_variance)

UNIT_SIGMA = AmplitudeLaw([(1.0, 1.0)])
DELTA0 = SpectralMeasure(atoms=[(0.0, 1.0)])
ALL_LAWS = ("sphere", "gauss", "lp:1", "lp:2", "cube", "laplace", "cgauss")

# pinned master seeds; margins were checked over neighboring seeds so a
# pass reflects typical estimator behavior, not a lucky draw
ISOTROPY_SEED = 2
CONVERGENCE_SEED = 0


def mp_model(c: float) -> ModelSpec:
    return ModelSpec(c=c, sigma=UNIT_SIGMA, n0=DELTA0)


def closed_form(c: float, lam: np.ndarray) -> np.ndarray:
    lo, hi = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2
    out = np.zeros_like(lam)
    inside = (lam > lo) & (lam < hi)
    out[inside] = np.sqrt((hi - lam[inside]) * (lam[inside] - lo)) / (
        2 * np.pi * lam[inside])
    return out


def test_criterion_01_solver_matches_oracle(criterion):
    with criterion(1, "fixed point equals the quadratic oracle to 1e-8 "
                      "over c in {0.25,0.5,1,2} and four spectral points"):
        worst = 0.0
        for c in (0.25, 0.5, 1.0, 2.0):
            model = mp_model(c)
            for z in (1j, 2j, 1 + 0.1j, -1 + 0.5j):
                err = abs(solve_mpe_at(z, model) - mp_stieltjes_oracle(z, c))
                worst = max(worst, err)
        assert worst <= 1e-8, worst


def test_criterion_02_density_command_closed_form(criterion, tmp_path):
    with criterion(2, "density command reproduces the closed form on a "
                      "400-point grid within 1e-3 in under 10 s"):
        out = tmp_path / "c1"
        start = time.perf_counter()
        rc = cli_main(["density", "--c", "1.0", "--grid", "0.01:3.99:400",
                       "--eps-final", "1e-4", "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert rc == 0
        assert elapsed < 10.0, elapsed
        grid, rho = np.loadtxt(out / "density.csv", delimiter=",",
                               skiprows=1, unpack=True)
        errs = np.abs(rho - closed_form(1.0, grid))
        assert errs.max() <= 1e-3, errs.max()
        spot2 = rho[np.argmin(np.abs(grid - 2.0))]
        assert abs(spot2 - 1 / (2 * np.pi)) <= 1e-3

        out25 = tmp_path / "c25"
        rc = cli_main(["density", "--c", "0.25", "--grid", "0.01:3.99:400",
                       "--eps-final", "1e-4", "--out", str(out25)])
        assert rc == 0
        grid25, rho25 = np.loadtxt(out25 / "density.csv", delimiter=",",
                                   skiprows=1, unpack=True)
        spot1 = rho25[np.argmin(np.abs(grid25 - 1.0))]
        assert abs(spot1 - np.sqrt(0.9375) / (2 * np.pi)) <= 1e-3


def test_criterion_03_mass_accounting(criterion):
    with criterion(3, "quarter-aspect limit carries atom (0, 0.75) with "
                      "unit total mass, and y|f(iy)| -> 1"):
        grid = np.linspace(0.01, 3.99, 400)
        meas = limit_density(mp_model(0.25), grid,
                             solve_mpe_grid(grid, mp_model(0.25)).f)
        assert meas.to_dict()["atoms"] == [[0.0, 0.75]]
        assert abs(meas.total_mass - 1.0) <= 5e-3
        assert meas.probability
        # total-mass probe y|f(iy)| high up the imaginary axis
        val = 1e3 * abs(solve_mpe_at(1e3j, mp_model(1.0)))
        assert abs(val - 1.0) <= 2e-3


def test_criterion_04_variance_bounds(criterion):
    with criterion(4, "counting and trace-resolvent variances meet the "
                      "4m/n^2-type bounds over 200 trials"):
        cfg = EnsembleConfig(n=500, m=250, law=VectorLaw.parse("sphere"),
                             sigma=UNIT_SIGMA, h0=H0Zero(), seed=0)
        rep = verify_counting_variance(cfg, (0.25, 2.25), trials=200)
        assert rep.bound == 0.004
        assert rep.estimate <= rep.bound + 3 * rep.se
        cfg2 = EnsembleConfig(n=400, m=200, law=VectorLaw.parse("sphere"),
                              sigma=UNIT_SIGMA, h0=H0Zero(), seed=0)
        rep2 = verify_stieltjes_variance(cfg2, 1j, trials=200)
        assert rep2.bound == 0.005
        assert rep2.estimate <= rep2.bound + 3 * rep2.se


def test_criterion_05_streamed_resolvent(criterion):
    with criterion(5, "Woodbury resolvent traces track the eigensolver "
                      "to 1e-8 on 20 random configurations"):
        rng = np.random.default_rng(17)
        laws = ["sphere", "gauss", "cube", "laplace", "lp:1.5", "cgauss"]
        worst = 0.0
        for k in range(20):
            n = int(rng.integers(10, 101))
            m = int(rng.integers(1, n + 1))
            sig = AmplitudeLaw([(float(rng.uniform(-2, -0.1)), 0.5),
                                (float(rng.uniform(0.1, 2)), 0.5)])
            cfg = EnsembleConfig(n=n, m=m, law=VectorLaw.parse(laws[k % 6]),
                                 sigma=sig, h0=H0Zero(), seed=k)
            ev = eigenvalues_sym(build_matrix(cfg, trial=0)).eigenvalues
            for z in (1j, 0.5 + 0.5j):
                g = resolvent_traces(cfg, z, [0])[0]
                worst = max(worst, abs(g - np.mean(1.0 / (ev - z))))
        assert worst <= 1e-8, worst


def test_criterion_06_convergence_study(criterion):
    with criterion(6, "mean KS decreases strictly in n for four vector "
                      "laws and the laws agree at n=1024 within 2 SE"):
        model = mp_model(0.5)
        grid = np.linspace(0.02, 3.2, 3000)
        opts = SolverOptions(eps_final=1e-5)
        finals = {}
        for law in ("sphere", "gauss", "lp:1", "cube"):
            rep = convergence_study(VectorLaw.parse(law), model,
                                    (256, 512, 1024), 5, CONVERGENCE_SEED,
                                    grid, opts)
            means = [row[3] for row in rep.detail["rows"]]
            assert all(b < a for a, b in zip(means, means[1:])), (law, means)
            finals[law] = (rep.estimate, rep.se)
        for a in finals:
            for b in finals:
                if a < b:
                    gap = abs(finals[a][0] - finals[b][0])
                    pooled = float(np.hypot(finals[a][1], finals[b][1]))
                    assert gap <= 2 * pooled, (a, b, gap, 2 * pooled)


def test_criterion_07_isotropy_screen(criterion):
    with criterion(7, "every vector law passes the covariance screen at "
                      "5 SE for n in {10,50,200}, and sphere norms are "
                      "exactly unit"):
        for li, law in enumerate(ALL_LAWS):
            parsed = VectorLaw.parse(law)
            for ni, n in enumerate((10, 50, 200)):
                rep = isotropy_estimate(parsed, n, 100_000,
                                        RngStream(ISOTROPY_SEED, li * 100 + ni))
                assert rep.passed, (law, n, rep.estimate)
        v = sample_vectors(VectorLaw.parse("sphere"), 64, 500, RngStream(0, 0))
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) <= 1e-12


def test_criterion_08_quadratic_form_decay(criterion):
    with criterion(8, "quadratic-form variances decay with slope <= -0.2 "
                      "for every law; Gaussian identity slope is -1 +- 0.15"):
        reports = {}
        for law in ALL_LAWS:
            rep = reports[law] = verify_quadratic_form(
                VectorLaw.parse(law), (64, 128, 256, 512), 20_000, 0)
            slopes = rep.detail["slopes"]
            assert rep.passed, (law, slopes)
            for name, slope in slopes.items():
                if slope is not None:
                    assert slope <= -0.2, (law, name, slope)
                else:
                    assert rep.params["exact"][name], (law, name)
        gauss = reports["gauss"]
        assert abs(gauss.detail["slopes"]["identity"] - (-1.0)) <= 0.15


def test_criterion_09_gram_duality(criterion):
    with criterion(9, "eigenvalue counts of the projection sum and its "
                      "Gram companion agree to 1e-8 at n=300, m=150"):
        cfg = EnsembleConfig(n=300, m=150, law=VectorLaw.parse("gauss"),
                             sigma=UNIT_SIGMA, h0=H0Zero(), seed=3)
        rep = verify_gram_duality(cfg)
        assert rep.passed and rep.estimate <= 1e-8


def test_criterion_10_deterministic_cli(criterion, tmp_path):
    with criterion(10, "repeated CLI invocations with equal flags produce "
                       "byte-identical outputs"):
        def digests(out):
            return sorted(hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in out.iterdir())

        def run_twice(args):
            outs = []
            for sub in ("a", "b"):
                out = tmp_path / f"{args[0]}_{sub}"
                assert cli_main(args + ["--out", str(out)]) == 0
                outs.append(digests(out))
            assert outs[0] == outs[1], args[0]
            return outs[0]

        density = ["density", "--c", "1.0", "--grid", "0.01:3.99:100"]
        first = run_twice(density)
        # a third run into the filled density_a writes the same bytes
        assert cli_main(density + ["--out", str(tmp_path / "density_a")]) == 0
        assert digests(tmp_path / "density_a") == first
        run_twice(["simulate", "--n", "100", "--m", "50", "--law", "lp:1.5",
                   "--seed", "8", "--trials", "2"])
        # the manifest must also survive a json round trip
        man = json.loads((tmp_path / "density_a" / "manifest.json").read_text())
        assert {o["path"] for o in man["outputs"]} == {"density.csv",
                                                       "measure.json"}
