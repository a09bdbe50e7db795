import numpy as np
import pytest

from rank1spec import ensemble
from rank1spec.ensemble import EnsembleConfig, H0Diagonal, H0File, H0Zero
from rank1spec.errors import RealAxisEvaluation
from rank1spec.measures import AmplitudeLaw, SpectralMeasure
from rank1spec.samplers import VectorLaw
from rank1spec.solver import ModelSpec, SolverOptions
from rank1spec.verify import (KS_LARGEST_N_THRESHOLD, _snap_structural_zeros,
                              _variance_se, convergence_study,
                              verify_counting_variance,
                              verify_norm_tail, verify_quadratic_form,
                              verify_stieltjes_variance)

UNIT_SIGMA = AmplitudeLaw([(1.0, 1.0)])


def config(n, m, law="sphere", seed=0):
    return EnsembleConfig(n=n, m=m, law=VectorLaw.parse(law),
                          sigma=UNIT_SIGMA, h0=H0Zero(), seed=seed)


# ---------------------------------------------------------------------------
# variance checks
# ---------------------------------------------------------------------------

def test_counting_variance_small_scale():
    rep = verify_counting_variance(config(100, 50), (0.25, 2.25), trials=60)
    assert rep.bound == pytest.approx(4 * 50 / 100 ** 2, abs=0)
    assert rep.estimate < rep.bound
    assert rep.passed
    assert rep.params["trials"] == 60


def test_counting_variance_report_dict_keys():
    rep = verify_counting_variance(config(40, 20), (0.25, 2.25), trials=10)
    d = rep.to_dict()
    assert set(d) == {"kind", "params", "estimate", "bound", "se", "pass"}
    assert d["kind"] == "counting-var"
    assert d["params"]["trials"] == 10


def test_stieltjes_variance_small_scale():
    rep = verify_stieltjes_variance(config(80, 40), 1j, trials=60)
    assert rep.bound == pytest.approx(4 * 40 / 80 ** 2, abs=0)
    assert rep.estimate < rep.bound
    assert rep.passed


def test_stieltjes_variance_bound_scales_with_height():
    rep = verify_stieltjes_variance(config(40, 20), 0.5j, trials=8)
    assert rep.bound == pytest.approx(4 * 20 / (40 ** 2 * 0.25), abs=1e-15)


def test_stieltjes_variance_keeps_the_eigensolved_estimate():
    # the layered benchmark's variance config; the estimate, se and pass
    # were computed from dense eigensolves of the assembled trials
    cfg = EnsembleConfig(
        n=400, m=100, law=VectorLaw.parse("gauss"),
        sigma=AmplitudeLaw([(1.0, 0.5), (-0.5, 0.5)]),
        h0=H0Diagonal(tuple([-1.0] * 200 + [1.0] * 200)), seed=0)
    rep = verify_stieltjes_variance(cfg, 0.5 + 0.5j, trials=40)
    assert rep.estimate == pytest.approx(0.00010778954900351765, rel=1e-12)
    assert rep.se == pytest.approx(1.9385410324881333e-05, rel=1e-12)
    assert rep.bound == 0.01
    assert rep.passed


def test_counting_variance_keeps_the_eigensolved_estimate():
    # the layered benchmark's variance config; the estimate, se and pass
    # were computed from dense eigensolves of the assembled trials
    cfg = EnsembleConfig(
        n=400, m=100, law=VectorLaw.parse("gauss"),
        sigma=AmplitudeLaw([(1.0, 0.5), (-0.5, 0.5)]),
        h0=H0Diagonal(tuple([-1.0] * 200 + [1.0] * 200)), seed=0)
    rep = verify_counting_variance(cfg, (-0.5, 0.5), trials=40)
    assert rep.estimate == pytest.approx(2.4419070512820512e-05, rel=1e-12)
    assert rep.se == pytest.approx(4.896705945089415e-06, rel=1e-12)
    assert rep.bound == 0.0025
    assert rep.passed


@pytest.mark.parametrize("check", [
    lambda cfg: verify_counting_variance(cfg, (-0.5, 0.5), trials=4),
    lambda cfg: verify_stieltjes_variance(cfg, 0.5j, trials=4),
], ids=["counting-var", "stieltjes-var"])
def test_variance_checks_read_a_file_base_once(tmp_path, monkeypatch, check):
    path = tmp_path / "h0.txt"
    path.write_text("3\n1 0.5 0\n0.5 -1 0\n0 0 0.25\n")
    reads, solves = [], []
    read, eigh = ensemble.read_h0_file, np.linalg.eigh
    monkeypatch.setattr(ensemble, "read_h0_file",
                        lambda p: reads.append(p) or read(p))
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: solves.append(a.shape) or eigh(a))
    cfg = EnsembleConfig(n=3, m=2, law=VectorLaw.parse("gauss"),
                         sigma=UNIT_SIGMA, h0=H0File(str(path)), seed=1)
    check(cfg)
    assert len(reads) == 1
    assert solves == [(3, 3)]


def test_stieltjes_variance_rejects_real_z():
    with pytest.raises(RealAxisEvaluation):
        verify_stieltjes_variance(config(40, 20), 0.5 + 0j, trials=5)


def test_stieltjes_variance_rejects_an_infinite_bound(monkeypatch):
    # Im z^2 underflows to 0, so 4m/(n^2 Im z^2) has no finite value
    monkeypatch.setattr(ensemble, "_draw_components", None)
    with pytest.raises(ValueError, match="--z 0.0,1e-300"):
        verify_stieltjes_variance(config(10, 5), 1e-300j, trials=3)


@pytest.mark.parametrize("trials", [0, 1])
def test_variance_checks_need_two_trials(trials):
    with pytest.raises(ValueError, match="at least 2 trials"):
        verify_counting_variance(config(40, 20), (0.25, 2.25), trials)
    with pytest.raises(ValueError, match="at least 2 trials"):
        verify_stieltjes_variance(config(40, 20), 1j, trials)


def test_variance_se_gaussian_sanity():
    # for N(0,1) the variance of the sample variance is about 2/T
    gen = np.random.default_rng(0)
    se = _variance_se(gen.normal(size=4000))
    assert 0.5 * np.sqrt(2 / 4000) < se < 2.0 * np.sqrt(2 / 4000)


# ---------------------------------------------------------------------------
# quadratic form decay
# ---------------------------------------------------------------------------

def test_quadform_slopes_decay():
    rep = verify_quadratic_form(VectorLaw.parse("gauss"), (32, 64, 128),
                                samples=4000, master_seed=0)
    assert rep.passed
    for name, slope in rep.detail["slopes"].items():
        assert slope is not None and slope <= -0.2, name


def test_quadform_gaussian_identity_slope_near_minus_one():
    # Var sum y_i^2 = 2/n exactly for independent N(0, 1/n) coordinates
    rep = verify_quadratic_form(VectorLaw.parse("gauss"), (64, 128, 256, 512),
                                samples=20_000, master_seed=0)
    assert abs(rep.detail["slopes"]["identity"] - (-1.0)) < 0.15


def test_quadform_sphere_identity_is_exact():
    rep = verify_quadratic_form(VectorLaw.parse("sphere"), (32, 64),
                                samples=2000, master_seed=0)
    assert rep.params["exact"]["identity"]
    assert rep.detail["slopes"]["identity"] is None
    assert rep.detail["slopes"]["alternating"] is not None
    assert rep.passed


def test_quadform_report_shapes():
    rep = verify_quadratic_form(VectorLaw.parse("cube"), (16, 32),
                                samples=1000, master_seed=1)
    d = rep.to_dict()
    assert d["kind"] == "quadform"
    assert d["bound"] == -0.2
    assert len(d["rows"]) == 4       # 2 matrices x 2 dims


def test_quadform_deterministic():
    a = verify_quadratic_form(VectorLaw.parse("laplace"), (16, 32), 1000, 5)
    b = verify_quadratic_form(VectorLaw.parse("laplace"), (16, 32), 1000, 5)
    assert a.detail["slopes"] == b.detail["slopes"]


@pytest.mark.parametrize("samples", [0, 1])
def test_quadform_needs_two_samples(samples):
    with pytest.raises(ValueError, match="at least 2 samples"):
        verify_quadratic_form(VectorLaw.parse("gauss"), (16, 32), samples, 0)


@pytest.mark.parametrize("dims", [(64,), (64, 64)])
def test_quadform_needs_two_dimensions(dims):
    # a slope through one point is not a decay rate
    with pytest.raises(ValueError, match="at least 2 distinct dimensions"):
        verify_quadratic_form(VectorLaw.parse("gauss"), dims, 100, 0)


# ---------------------------------------------------------------------------
# norm tail
# ---------------------------------------------------------------------------

def test_norm_tail_passes_for_gauss():
    rep = verify_norm_tail(VectorLaw.parse("gauss"), 100, 50_000, 0)
    assert rep.passed
    d = rep.to_dict()
    assert d["params"]["envelope_note"]
    assert len(d["rows"]) == 3


def test_norm_tail_envelope_values():
    rep = verify_norm_tail(VectorLaw.parse("sphere"), 64, 1000, 0,
                           t_values=(1.0, 2.0))
    envs = [envelope for _, _, envelope, _ in rep.detail["rows"]]
    assert envs[0] == pytest.approx(np.exp(-8.0), rel=1e-12)
    assert envs[1] == pytest.approx(np.exp(-16.0), rel=1e-12)


def test_norm_tail_scale_is_twice_median():
    rep = verify_norm_tail(VectorLaw.parse("sphere"), 25, 2000, 0)
    # unit sphere: every norm is 1, so the scale is exactly 2
    assert rep.params["scale"] == pytest.approx(2.0, abs=1e-12)


def test_norm_tail_needs_a_sample():
    with pytest.raises(ValueError, match="at least 1 sample"):
        verify_norm_tail(VectorLaw.parse("sphere"), 16, 0, 0)


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def test_convergence_small_ladder_decreases():
    model = ModelSpec(c=0.5, sigma=UNIT_SIGMA,
                      n0=SpectralMeasure(atoms=[(0.0, 1.0)]))
    grid = np.linspace(0.02, 3.2, 1500)
    rep = convergence_study(VectorLaw.parse("sphere"), model, (64, 128, 256),
                            3, 0, grid, SolverOptions(eps_final=1e-5))
    means = [row[3] for row in rep.detail["rows"]]
    assert all(b < a for a, b in zip(means, means[1:]))
    assert rep.detail["monotone"]
    assert rep.passed
    assert rep.detail["rows"][0][:3] == [64, 32, 3]


def test_convergence_zero_c_deterministic():
    # with c = 0 the spectra equal the base diagonal exactly and every
    # KS distance is zero; ties at zero count as converged
    entries = np.array([-1.0, -1.0, 0.5, 0.5, 2.0, 2.0])
    n0 = SpectralMeasure(atoms=[(-1.0, 1 / 3), (0.5, 1 / 3), (2.0, 1 / 3)])
    model = ModelSpec(c=0.0, sigma=UNIT_SIGMA, n0=n0)
    rep = convergence_study(
        VectorLaw.parse("sphere"), model, (6, 12), 2, 0,
        np.linspace(0.1, 1.0, 10),
        h0_factory=lambda n: H0Diagonal(tuple(np.tile(entries, n // 6))))
    assert [row[3] for row in rep.detail["rows"]] == [0.0, 0.0]
    assert rep.detail["monotone"] and rep.passed


def test_convergence_report_serialization():
    model = ModelSpec(c=0.5, sigma=UNIT_SIGMA,
                      n0=SpectralMeasure(atoms=[(0.0, 1.0)]))
    grid = np.linspace(0.02, 3.2, 800)
    rep = convergence_study(VectorLaw.parse("gauss"), model, (32, 64), 2, 1,
                            grid, SolverOptions(eps_final=1e-4))
    d = rep.to_dict()
    assert d["kind"] == "convergence"
    assert d["params"] == {"law": "gauss", "c": 0.5}
    assert len(d["rows"]) == 2
    n, m, seeds, mean_ks, std_ks = d["rows"][-1]
    assert d["estimate"] == mean_ks
    assert d["se"] == std_ks / np.sqrt(seeds)
    assert d["bound"] == KS_LARGEST_N_THRESHOLD
    assert d["pass"] == (d["monotone"] and mean_ks <= d["bound"])


def test_convergence_needs_a_seed():
    model = ModelSpec(c=0.5, sigma=UNIT_SIGMA,
                      n0=SpectralMeasure(atoms=[(0.0, 1.0)]))
    with pytest.raises(ValueError, match="at least 1 seed"):
        convergence_study(VectorLaw.parse("sphere"), model, (16, 32), 0, 0,
                          np.linspace(0.02, 3.2, 50))


def test_convergence_without_factory_needs_unit_atom_base():
    # the ensembles are H0 = 0, so another base gives a wrong verdict
    model = ModelSpec(c=0.5, sigma=UNIT_SIGMA,
                      n0=SpectralMeasure(atoms=[(-1.0, 0.5), (1.0, 0.5)]))
    with pytest.raises(ValueError, match="unit atom at zero"):
        convergence_study(VectorLaw.parse("sphere"), model, (16, 32), 2, 0,
                          np.linspace(-3.0, 3.0, 50))


def test_snap_structural_zeros():
    vals = np.array([-3e-12, 1e-15, 0.5, 2.0])
    out = _snap_structural_zeros(vals)
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[2] == 0.5 and out[3] == 2.0
    # threshold scales with the spectral radius
    big = np.array([1e-4, 2e7])
    assert _snap_structural_zeros(big)[0] == 0.0
