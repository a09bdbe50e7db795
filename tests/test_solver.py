import numpy as np
import pytest

from rank1spec import solver
from rank1spec._kernels import shift_terms
from rank1spec.errors import (MassDeficit, NonConvergence, PoleHit,
                              RealAxisEvaluation)
from rank1spec.measures import AmplitudeLaw, SpectralMeasure, cdf, moment, \
    stieltjes_of_measure
from rank1spec.solver import (ModelSpec, SolverOptions, limit_density,
                              mp_closed_form, mp_limit_measure,
                              mp_stieltjes_oracle, normalization_check,
                              solve_mpe_at, solve_mpe_grid)


def mp_model(c: float) -> ModelSpec:
    return ModelSpec(c=c, sigma=AmplitudeLaw([(1.0, 1.0)]),
                     n0=SpectralMeasure(atoms=[(0.0, 1.0)]))


# ---------------------------------------------------------------------------
# model spec
# ---------------------------------------------------------------------------

def test_model_validation():
    with pytest.raises(ValueError):
        mp_model(-0.5)
    with pytest.raises(ValueError):
        ModelSpec(c=1.0, sigma=AmplitudeLaw([(1.0, 1.0)]),
                  n0=SpectralMeasure(atoms=[(0.0, 0.5)]))


# ---------------------------------------------------------------------------
# shift map
# ---------------------------------------------------------------------------

def shift(f, c: float):
    """(shift, pole) of the unit amplitude law at the points `f`."""
    value, _, pole = shift_terms(np.atleast_1d(np.asarray(f, dtype=complex)),
                                 np.array([1.0]), np.array([1.0]), c)
    return value, pole


def test_shift_at_unit_point():
    # -c * tau/(1 + tau f) at f = i, tau = 1, c = 1: -1/(1+i) = -(1-i)/2
    value, pole = shift(1j, 1.0)
    assert value[0] == pytest.approx(-0.5 + 0.5j, abs=1e-15)
    assert not pole[0]


def test_shift_pole_detected():
    _, pole = shift([-1.0, 1j], 1.0)
    assert pole.tolist() == [True, False]


def test_shift_scales_with_c():
    f = 0.2 + 0.9j
    assert shift(f, 2.0)[0][0] == pytest.approx(2.0 * shift(f, 1.0)[0][0],
                                                abs=1e-15)


def test_solver_turns_pole_status_into_pole_hit():
    # 1 + tau f vanishes at the start value f = -1 with tau = 1
    model = mp_model(1.0)
    with pytest.raises(PoleHit):
        solver._solve_stage(np.array([1.0 + 0.1j]), np.array([-1.0 + 0j]),
                            model.c, model.sigma, solver._nodes(model.n0),
                            SolverOptions())


# ---------------------------------------------------------------------------
# quadratic oracle
# ---------------------------------------------------------------------------

def test_oracle_satisfies_quadratic():
    # z f^2 + (z - c + 1) f + 1 = 0 for the square-projection limit
    for c in (0.25, 0.5, 1.0, 2.0):
        for z in (1j, 2j, 1 + 0.1j, -1 + 0.5j, 3 + 0.05j):
            f = mp_stieltjes_oracle(z, c)
            res = z * f * f + (z - c + 1) * f + 1
            assert abs(res) < 1e-12
            assert np.imag(f) > 0


def test_oracle_pinned_value():
    f = mp_stieltjes_oracle(1j, 1.0)
    assert f.real == pytest.approx(0.3002425902, abs=1e-9)
    assert f.imag == pytest.approx(0.6248105338, abs=1e-9)


# ---------------------------------------------------------------------------
# fixed point solver
# ---------------------------------------------------------------------------

def test_solver_matches_oracle_grid_of_cases():
    for c in (0.25, 0.5, 1.0, 2.0):
        model = mp_model(c)
        for z in (1j, 2j, 1 + 0.1j, -1 + 0.5j):
            f = solve_mpe_at(z, model)
            assert abs(f - mp_stieltjes_oracle(z, c)) < 1e-8


def test_solver_near_real_axis():
    z = 1.0 + 1e-3j
    f = solve_mpe_at(z, mp_model(0.25))
    assert abs(f - mp_stieltjes_oracle(z, 0.25)) < 1e-8


def test_solver_conjugate_symmetry():
    model = mp_model(0.5)
    z = 0.7 + 0.4j
    assert solve_mpe_at(np.conj(z), model) == pytest.approx(
        np.conj(solve_mpe_at(z, model)), abs=1e-10)


def test_solver_rejects_real_z():
    with pytest.raises(RealAxisEvaluation):
        solve_mpe_at(1.0, mp_model(1.0))


def test_solver_zero_rank_fraction_returns_base():
    base = SpectralMeasure(atoms=[(-1.0, 0.5), (1.0, 0.5)])
    model = ModelSpec(c=0.0, sigma=AmplitudeLaw([(1.0, 1.0)]), n0=base)
    for z in (1j, 0.3 + 0.2j):
        assert solve_mpe_at(z, model) == pytest.approx(
            stieltjes_of_measure(base, z), abs=1e-14)


def test_solver_two_atom_amplitudes_stieltjes_class():
    sig = AmplitudeLaw([(-0.5, 0.4), (2.0, 0.6)])
    model = ModelSpec(c=0.5, sigma=sig,
                      n0=SpectralMeasure(atoms=[(0.0, 1.0)]))
    for z in (1j, -0.3 + 0.25j, 2 + 0.5j):
        f = solve_mpe_at(z, model)
        assert np.imag(f) > 0
        assert abs(f) <= 1.0 / np.imag(z) + 1e-12


def test_solver_continuous_base():
    # base = uniform density on [0, 2]; c = 0 must reproduce it, and
    # small c stays within the Stieltjes class
    base = SpectralMeasure(grid=np.linspace(0.0, 2.0, 2001),
                           values=np.full(2001, 0.5))
    model = ModelSpec(c=0.3, sigma=AmplitudeLaw([(1.0, 1.0)]), n0=base)
    f = solve_mpe_at(1.0 + 0.5j, model)
    assert np.imag(f) > 0
    model0 = ModelSpec(c=0.0, sigma=AmplitudeLaw([(1.0, 1.0)]), n0=base)
    assert solve_mpe_at(1j, model0) == pytest.approx(
        stieltjes_of_measure(base, 1j), abs=1e-13)


def test_solver_nonconvergence_carries_location():
    opts = SolverOptions(max_iter=3, tol=1e-15)
    with pytest.raises(NonConvergence) as exc_info:
        solve_mpe_grid(np.array([2.0]), mp_model(1.0), opts)
    err = exc_info.value
    assert err.lam == pytest.approx(2.0)
    assert err.eps is not None and err.eps > 0


def test_grid_solver_matches_pointwise():
    model = mp_model(0.5)
    grid = np.linspace(0.5, 2.5, 9)
    opts = SolverOptions(eps_final=1e-4)
    vals, iters = solve_mpe_grid(grid, model, opts, return_iterations=True)
    assert vals.shape == grid.shape
    assert iters.shape == grid.shape
    assert np.all(iters >= 1)
    for lam, f in zip(grid, vals):
        direct = solve_mpe_at(lam + 1e-4j, model)
        assert abs(f - direct) < 1e-8


def test_grid_solver_matches_oracle_on_fine_grid():
    # the convergence study's limit: 3000 points down to eps = 1e-5
    grid = np.linspace(0.02, 3.2, 3000)
    vals = solve_mpe_grid(grid, mp_model(0.5), SolverOptions(eps_final=1e-5))
    oracle = np.array([mp_stieltjes_oracle(lam + 1e-5j, 0.5) for lam in grid])
    assert np.max(np.abs(vals - oracle)) < 1e-8


# ---------------------------------------------------------------------------
# options / continuation ladder
# ---------------------------------------------------------------------------

def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(damping=0.0)
    with pytest.raises(ValueError):
        SolverOptions(damping=1.5)
    with pytest.raises(ValueError):
        SolverOptions(eps_factor=1.0)
    with pytest.raises(ValueError):
        SolverOptions(eps_final=0.0)


def test_eps_schedule_start_and_end():
    sig = AmplitudeLaw([(-3.0, 0.5), (1.0, 0.5)])
    opts = SolverOptions(eps_final=1e-4)
    sched = opts.eps_schedule(sig)
    assert sched[0] == pytest.approx(1.0 + 2.0 * 9.0, abs=1e-12)
    assert sched[-1] == 1e-4
    assert np.all(np.diff(sched) < 0)


def test_truncation_noop_above_support():
    sig = AmplitudeLaw([(0.5, 0.4), (2.0, 0.6)])
    model = ModelSpec(c=0.5, sigma=sig,
                      n0=SpectralMeasure(atoms=[(0.0, 1.0)]))
    z = 0.7 + 0.01j
    plain = solve_mpe_at(z, model)
    cut = solve_mpe_at(z, model, SolverOptions(tau_truncation=5.0))
    assert abs(plain - cut) < 1e-6


def test_truncation_active_changes_model():
    sig = AmplitudeLaw([(0.5, 0.5), (3.0, 0.5)])
    model = ModelSpec(c=0.5, sigma=sig,
                      n0=SpectralMeasure(atoms=[(0.0, 1.0)]))
    z = 1.0 + 0.1j
    plain = solve_mpe_at(z, model)
    cut = solve_mpe_at(z, model, SolverOptions(tau_truncation=1.0))
    assert abs(plain - cut) > 1e-3


# ---------------------------------------------------------------------------
# limiting measure
# ---------------------------------------------------------------------------

def test_limit_density_quarter_aspect():
    model = mp_model(0.25)
    grid = np.linspace(0.01, 3.99, 400)
    meas = limit_density(model, grid)
    atoms = meas.to_dict()["atoms"]
    assert atoms == [[0.0, 0.75]]
    assert meas.total_mass == pytest.approx(1.0, abs=5e-3)
    assert meas.probability


def test_limit_density_square_aspect_no_atom():
    model = mp_model(1.0)
    meas = limit_density(model, np.linspace(0.01, 3.99, 200))
    assert not meas.atom_locations.size


def test_limit_density_matches_closed_form_interior():
    model = mp_model(0.5)
    grid = np.linspace(0.3, 2.7, 60)
    meas = limit_density(model, grid)
    for lam, rho in zip(grid, meas.values):
        assert abs(rho - mp_closed_form(0.5, lam)) < 1e-3


def test_limit_density_zero_amplitudes_dilute_rank():
    # amplitude mass at tau = 0 contributes nothing, so the kernel atom
    # grows to 1 - c*(1 - w0)
    sig = AmplitudeLaw([(0.0, 0.3), (1.0, 0.7)])
    model = ModelSpec(c=0.5, sigma=sig,
                      n0=SpectralMeasure(atoms=[(0.0, 1.0)]))
    meas = limit_density(model, np.linspace(0.02, 3.0, 400))
    assert meas.to_dict()["atoms"] == [[0.0, 1.0 - 0.35]]
    assert meas.total_mass == pytest.approx(1.0, abs=5e-3)


def test_limit_density_mass_deficit_raises():
    # grid far away from the support carries almost no mass
    model = mp_model(1.0)
    with pytest.raises(MassDeficit):
        limit_density(model, np.linspace(10.0, 12.0, 50))


def test_limit_density_windowed_zoom():
    model = mp_model(1.0)
    meas = limit_density(model, np.linspace(1.9, 2.1, 21), require_mass=False)
    assert not meas.probability
    mid = meas.values[10]
    assert abs(mid - mp_closed_form(1.0, 2.0)) < 1e-3


def test_normalization_check_values():
    model = mp_model(1.0)
    val = normalization_check(lambda z: solve_mpe_at(z, model), 1e3)
    assert val == pytest.approx(1.0, abs=2e-3)
    base = SpectralMeasure(atoms=[(0.0, 1.0)])
    val0 = normalization_check(lambda z: stieltjes_of_measure(base, z), 1e6)
    assert val0 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        normalization_check(lambda z: 1j, 10.0)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_closed_form_spot_values():
    assert mp_closed_form(1.0, 2.0) == pytest.approx(1 / (2 * np.pi), abs=1e-12)
    assert mp_closed_form(0.25, 1.0) == pytest.approx(
        np.sqrt(0.9375) / (2 * np.pi), abs=1e-12)


def test_closed_form_support():
    for c in (0.25, 1.0, 2.0):
        lo, hi = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2
        assert mp_closed_form(c, lo - 1e-9 if lo > 0 else -1e-9) == 0.0
        assert mp_closed_form(c, hi + 1e-9) == 0.0
        mid = 0.5 * (lo + hi)
        assert mp_closed_form(c, mid) > 0.0
    assert mp_closed_form(1.0, 0.0) == np.inf


def test_closed_form_mass_is_min_c_one():
    for c, expect in ((0.5, 0.5), (2.0, 1.0)):
        lo, hi = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2
        xs = np.linspace(lo, hi, 200_001)
        ys = mp_closed_form(c, xs)
        assert np.trapezoid(ys, xs) == pytest.approx(expect, abs=1e-4)


def test_closed_form_consistent_with_transform():
    # Im f(lam + i eps)/pi approaches the density from the quadratic
    # branch as eps -> 0
    for c in (0.5, 1.0):
        for lam in (0.8, 1.5, 2.2):
            smoothed = np.imag(mp_stieltjes_oracle(lam + 1e-8j, c)) / np.pi
            assert smoothed == pytest.approx(mp_closed_form(c, lam), abs=1e-6)


def test_empirical_spectra_match_closed_form_not_half():
    # one n = m = 600 draw: the histogram mass of [1.8, 2.2] is a direct
    # measurement that separates rho(2) ~ 0.159 from the halved 0.0796
    from rank1spec.ensemble import EnsembleConfig, build_matrix, eigenvalues_sym
    from rank1spec.samplers import VectorLaw
    from rank1spec.ensemble import H0Zero
    cfg = EnsembleConfig(n=600, m=600, law=VectorLaw.parse("sphere"),
                         sigma=AmplitudeLaw([(1.0, 1.0)]), h0=H0Zero(), seed=5)
    ev = eigenvalues_sym(build_matrix(cfg)).eigenvalues
    frac = np.mean((ev > 1.8) & (ev <= 2.2)) / 0.4
    xs = np.linspace(1.8, 2.2, 101)
    target = np.trapezoid([mp_closed_form(1.0, x) for x in xs], xs) / 0.4
    assert abs(frac - target) < 0.25 * target
    assert abs(frac - 0.5 * target) > 0.25 * target
