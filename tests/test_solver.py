import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from rank1spec import _kernels, solver
from rank1spec._kernels import shift_terms
from rank1spec.cli import (build_parser, measure_from_spectrum_file,
                           parse_grid, parse_measure_atoms, parse_sigma)
from rank1spec.errors import (MassDeficit, NonConvergence, PoleHit,
                              RealAxisEvaluation)
from rank1spec.measures import AmplitudeLaw, SpectralMeasure, cdf, moment, \
    stieltjes_of_measure
from rank1spec.solver import (ModelSpec, SolverOptions, limit_density,
                              mp_closed_form, mp_limit_measure,
                              mp_stieltjes_oracle, solve_mpe_at,
                              solve_mpe_grid)


def load_layerbench(name: str):
    path = Path(__file__).resolve().parent.parent / "layerbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"layerbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    with np.errstate(divide="ignore", invalid="ignore"):
        value, _, pole = shift_terms(
            np.atleast_1d(np.asarray(f, dtype=complex)), np.array([1.0]),
            np.array([1.0]), c)
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
                            model.c, model.sigma,
                            _kernels.base_nodes(model.n0.atom_locations,
                                                model.n0.atom_masses,
                                                model.n0.grid, model.n0.values),
                            solver.TOL)


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


def test_solver_nonconvergence_carries_location(monkeypatch):
    # with eps_final = 1e-4 the last stage's predicted start already meets
    # TOL at lambda = 2, so one update would suffice; with 1e-2 it does not
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    with pytest.raises(NonConvergence) as exc_info:
        solve_mpe_grid(np.array([2.0]), mp_model(1.0),
                       SolverOptions(eps_final=1e-2))
    err = exc_info.value
    assert err.lam == pytest.approx(2.0)
    assert err.eps is not None and err.eps > 0
    assert err.eps == pytest.approx(1e-2)


def test_grid_solver_matches_pointwise():
    model = mp_model(0.5)
    grid = np.linspace(0.5, 2.5, 9)
    opts = SolverOptions(eps_final=1e-4)
    solve = solve_mpe_grid(grid, model, opts)
    assert solve.f.shape == grid.shape
    assert solve.iterations.shape == grid.shape
    assert np.all(solve.iterations >= 1)
    for lam, f in zip(grid, solve.f):
        direct = solve_mpe_at(lam + 1e-4j, model)
        assert abs(f - direct) < 1e-8


def test_grid_solver_matches_oracle_on_fine_grid():
    # the convergence study's limit: 3000 points down to eps = 1e-5
    grid = np.linspace(0.02, 3.2, 3000)
    vals = solve_mpe_grid(grid, mp_model(0.5),
                          SolverOptions(eps_final=1e-5)).f
    oracle = np.array([mp_stieltjes_oracle(lam + 1e-5j, 0.5) for lam in grid])
    assert np.max(np.abs(vals - oracle)) < 1e-8


@pytest.mark.parametrize("eps_final", [1e-2, 1e-4])
@pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0])
def test_grid_solver_dfdz_matches_the_exact_derivative(c, eps_final):
    # differentiating z f^2 + (z - c + 1) f + 1 = 0 gives
    # f' = -(f^2 + f) / (2 z f + z - c + 1)
    grid = np.linspace(0.05, 5.0, 300)
    solve = solve_mpe_grid(grid, mp_model(c),
                           SolverOptions(eps_final=eps_final))
    z = grid + 1j * eps_final
    f = solve.f
    exact = -(f * f + f) / (2.0 * z * f + z - c + 1.0)
    assert np.max(np.abs(solve.dfdz - exact)
                  / np.maximum(1.0, np.abs(exact))) <= 1e-7


def test_grid_solver_keeps_the_shape_of_lambdas():
    grid = np.linspace(0.05, 5.0, 20)
    flat = solve_mpe_grid(grid, mp_model(0.5))
    shaped = solve_mpe_grid(grid.reshape(4, 5), mp_model(0.5))
    for name in ("f", "dfdz", "iterations"):
        got = getattr(shaped, name)
        assert got.shape == (4, 5)
        assert np.array_equal(got.ravel(), getattr(flat, name))
    assert shaped.report == flat.report


# ---------------------------------------------------------------------------
# options / continuation ladder
# ---------------------------------------------------------------------------

def test_options_validation():
    for eps_final in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SolverOptions(eps_final=eps_final)


def test_eps_schedule_start_and_end():
    sig = AmplitudeLaw([(-3.0, 0.5), (1.0, 0.5)])
    opts = SolverOptions(eps_final=1e-4)
    sched = opts.eps_schedule(sig)
    assert sched[0] == pytest.approx(1.0 + 2.0 * 9.0, abs=1e-12)
    assert sched[-1] == 1e-4
    assert np.all(np.diff(sched) < 0)


def test_eps_schedule_rejects_an_overflowing_start():
    # 1 + 2 * (1e200)^2 overflows, though every amplitude is finite
    with pytest.raises(ValueError, match="--sigma amplitude 1e\\+200"):
        SolverOptions().eps_schedule(AmplitudeLaw([(1e200, 1.0)]))


def test_grid_solver_ends_at_eps_final_above_ladder_start():
    # the unit-amplitude ladder starts at 3; a higher eps_final is its
    # only stage, and the transform is taken there
    opts = SolverOptions(eps_final=50.0)
    assert opts.eps_schedule(AmplitudeLaw([(1.0, 1.0)])) == [50.0]
    grid = np.array([0.5, 2.0, 4.0])
    vals = solve_mpe_grid(grid, mp_model(1.0), opts).f
    oracle = [mp_stieltjes_oracle(lam + 50j, 1.0) for lam in grid]
    assert np.max(np.abs(vals - oracle)) < 1e-9


def halving_ladder(lambdas, model: ModelSpec, opts: SolverOptions,
                   factor: float = 0.5):
    """Reference continuation without a predictor: eps halves (or shrinks
    by `factor`) from the same start down to eps_final, and each stage
    starts from the previous stage's f. Returns (f, total point updates)."""
    sigma = model.sigma
    schedule = [max(1.0 + 2.0 * sigma.max_abs_tau ** 2, opts.eps_final)]
    while schedule[-1] > opts.eps_final:
        schedule.append(max(factor * schedule[-1], opts.eps_final))
    n0 = model.n0
    nodes = _kernels.base_nodes(n0.atom_locations, n0.atom_masses, n0.grid,
                                n0.values)
    f = stieltjes_of_measure(n0, lambdas + 1j * schedule[0])
    updates = 0
    for eps in schedule:
        stage = _kernels.picard_solve(lambdas + 1j * eps, f, solver.TOL,
                                      solver.MAX_ITER, sigma.tau_values,
                                      sigma.weights, float(model.c), *nodes)
        assert np.all(stage.status == 0)
        f = stage.f
        updates += stage.updates
    return f, updates


def two_sided() -> ModelSpec:
    # the README example: signed amplitudes over base atoms at -1 and 1
    return ModelSpec(c=0.25, sigma=AmplitudeLaw([(1.0, 0.5), (-0.5, 0.5)]),
                     n0=SpectralMeasure(atoms=[(-1.0, 0.5), (1.0, 0.5)]))


def spectrum_file_base(path) -> SpectralMeasure:
    # 150 distinct eigenvalues in two clusters, read as --h0-spectrum does
    ev = np.concatenate([np.linspace(-1.0, 0.5, 75),
                         np.linspace(1.0, 2.5, 75)])
    path.write_text("".join(f"{x!r}\n" for x in ev.tolist()))
    return measure_from_spectrum_file(str(path))


@pytest.mark.parametrize("c", [0.05, 0.25, 1.0, 4.0])
def test_predicted_ladder_matches_halving_ladder_on_mp(c):
    grid = np.linspace(0.01, (1.0 + c ** 0.5) ** 2 + 1.0, 300)
    opts = SolverOptions()
    f = solve_mpe_grid(grid, mp_model(c), opts).f
    ref, _ = halving_ladder(grid, mp_model(c), opts)
    assert np.max(np.abs(f - ref)) < 1e-8


@pytest.mark.parametrize("grid,eps_final", [
    (np.linspace(0.01, (1.0 + 0.5 ** 0.5) ** 2 + 1.0, 300), 1e-8),
    # the convergence study's grid, as `compare` solves it
    (np.linspace(0.02, 3.2, 3000), 1e-5)], ids=["mp-1e-8", "compare-3000"])
def test_predicted_ladder_matches_halving_ladder_near_the_axis(grid,
                                                               eps_final):
    # the predictor stages stop early, so low heights and fine grids are
    # where a point could be left in the wrong basin
    opts = SolverOptions(eps_final=eps_final)
    solve = solve_mpe_grid(grid, mp_model(0.5), opts)
    ref, _ = halving_ladder(grid, mp_model(0.5), opts)
    assert np.max(np.abs(solve.f - ref)) < 1e-8
    assert solve.report.max_residual <= solver.TOL


@pytest.mark.parametrize("eps_final", [1e-4, 1e-6])
def test_predicted_ladder_halves_updates_on_two_sided_model(eps_final):
    grid = np.linspace(-3.0, 3.0, 600)
    opts = SolverOptions(eps_final=eps_final)
    solve = solve_mpe_grid(grid, two_sided(), opts)
    ref, ref_updates = halving_ladder(grid, two_sided(), opts)
    assert np.max(np.abs(solve.f - ref)) < 1e-8
    assert solve.iterations.sum() <= 0.6 * ref_updates
    # the predictor, not only the wider ladder, saves updates
    _, restart_updates = halving_ladder(grid, two_sided(), opts, factor=0.25)
    assert solve.iterations.sum() <= 0.9 * restart_updates


@pytest.mark.parametrize("base", ["delta0", "file"])
def test_predicted_ladder_matches_halving_ladder_on_other_bases(tmp_path,
                                                                base):
    if base == "file":
        model = ModelSpec(c=0.5, sigma=AmplitudeLaw([(1.0, 1.0)]),
                          n0=spectrum_file_base(tmp_path / "eig.csv"))
        grid = np.linspace(-2.0, 4.0, 200)
    else:
        # signed amplitudes, one of them zero
        model = ModelSpec(c=0.5,
                          sigma=AmplitudeLaw([(1.0, 0.4), (0.0, 0.3),
                                              (-2.0, 0.3)]),
                          n0=SpectralMeasure(atoms=[(0.0, 1.0)]))
        grid = np.linspace(-8.0, 4.0, 400)
    opts = SolverOptions()
    f = solve_mpe_grid(grid, model, opts).f
    ref, _ = halving_ladder(grid, model, opts)
    assert np.max(np.abs(f - ref)) < 1e-8


def test_hermite_start_reproduces_a_cubic():
    # the start of a stage is exact when f is a cubic in eps
    def f(e):
        return (0.3 - 0.2j) + (1.5 + 0.5j) * e - 0.7j * e ** 2 + 0.25 * e ** 3

    def slope(e):
        return (1.5 + 0.5j) - 1.4j * e + 0.75 * e ** 2

    start = solver._hermite(0.0625, 1.0, f(1.0), slope(1.0), 0.25, f(0.25),
                            slope(0.25))
    assert abs(start - f(0.0625)) < 1e-14


def test_stages_above_the_last_stop_after_a_small_step(monkeypatch):
    tols = []
    kernel = solver.picard_solve

    def recorded(z, f, tol, *args):
        tols.append(tol)
        return kernel(z, f, tol, *args)

    monkeypatch.setattr(solver, "picard_solve", recorded)
    opts = SolverOptions(eps_final=1e-3)
    report = solve_mpe_grid(np.linspace(0.1, 3.9, 50), mp_model(1.0),
                            opts).report
    assert len(report.stages) > 2
    assert tols == [None] * (len(report.stages) - 1) + [1e-10]
    assert report.max_residual <= 1e-10


ONE, ZERO = np.array([1.0]), np.array([0.0])


def mp_newton_step(z, f):
    """The kernel's Newton step from f at c = 1, unit amplitudes and base
    delta_0, taken by hand, and the residual |f - f0(w)| at f."""
    with np.errstate(divide="ignore", invalid="ignore"):
        shift_value, dshift, _ = shift_terms(f, ONE, ONE, 1.0)
        g, dg = _kernels.base_transform(z + shift_value, ZERO, ONE)
        return f - (f - g) / (1.0 - dg * dshift), np.abs(f - g)


def test_a_point_stopped_by_a_small_step_keeps_the_stepped_f():
    z = np.linspace(0.1, 3.9, 40) + 0.05j
    # starts near the solution take one small step; starts at f0(z) = -1/z
    # take larger ones first
    start = np.array([mp_stieltjes_oracle(x + 0.06j, 1.0) for x in z.real])
    start[1::2] = -1.0 / z[1::2]
    stage = _kernels.picard_solve(z, start, None, 100, ONE, ONE, 1.0, ZERO,
                                  ONE)
    assert np.all(stage.status == 0) and stage.fallbacks == 0
    assert np.any(stage.iters > 1)
    step, residual = mp_newton_step(z, start)
    first = stage.iters == 1
    assert first.any()
    assert np.all(np.abs(step - start)[first] <= _kernels.PREDICTOR_STEP
                  * np.maximum(1.0, np.abs(start[first])))
    assert np.array_equal(stage.f[first], step[first])
    assert np.array_equal(stage.residual[first], residual[first])
    assert np.all(stage.f[first] != start[first])


def test_a_picard_step_never_stops_a_point():
    # from f = -3 + 0.01i some Newton steps leave the half-plane, two of
    # them by less than the step bound; every such point falls back to a
    # Picard step and keeps running
    z = np.linspace(-1.0, 5.0, 60) + 0.05j
    start = np.full(z.shape, -3.0 + 0.01j)
    step, _ = mp_newton_step(z, start)
    off = ~np.isfinite(step) | (step.imag < 0.0)
    assert np.any(off & (np.abs(step - start)
                         <= _kernels.PREDICTOR_STEP * np.abs(start)))
    stage = _kernels.picard_solve(z, start, None, 1, ONE, ONE, 1.0, ZERO,
                                  ONE)
    assert stage.fallbacks == np.count_nonzero(off)
    assert np.all(stage.status[off] == 1)


@pytest.mark.parametrize("argv_name,passes,updates", [
    ("MP_ARGV", 16, 4_500), ("SIGNED_ARGV", 20, 6_500)])
def test_benchmark_solves_stay_within_their_kernel_budget(monkeypatch,
                                                          argv_name, passes,
                                                          updates):
    # a kernel pass is one loop pass of picard_solve over the points still
    # running; the benchmark's density workloads time these two solves
    argv = getattr(load_layerbench("workloads"), argv_name)
    stages = []
    kernel = solver.picard_solve

    def counted(*args):
        stages.append(kernel(*args))
        return stages[-1]

    monkeypatch.setattr(solver, "picard_solve", counted)
    args = build_parser().parse_args(argv)
    model = ModelSpec(c=args.c, sigma=parse_sigma(args.sigma),
                      n0=parse_measure_atoms(args.n0))
    solve = solve_mpe_grid(parse_grid(args.grid), model,
                           SolverOptions(eps_final=args.eps_final))
    assert sum(int(stage.iters.max()) for stage in stages) <= passes
    assert solve.iterations.sum() <= updates
    assert solve.report.max_residual <= solver.TOL


def test_solve_report_accounts_for_every_update():
    grid = np.linspace(-3.0, 3.0, 120)
    opts = SolverOptions(eps_final=1e-5)
    solve = solve_mpe_grid(grid, two_sided(), opts)
    report = solve.report
    assert report.stages == opts.eps_schedule(two_sided().sigma)
    assert sum(report.updates_per_stage) == solve.iterations.sum()
    assert len(report.updates_per_stage) == len(report.stages)
    assert report.fallbacks >= 0
    assert 0.0 <= report.max_residual <= solver.TOL
    again = solve_mpe_grid(grid, two_sided(), opts)
    assert np.array_equal(again.f, solve.f)
    assert np.array_equal(again.iterations, solve.iterations)


def half_aspect(sig: AmplitudeLaw) -> ModelSpec:
    return ModelSpec(c=0.5, sigma=sig, n0=SpectralMeasure(atoms=[(0.0, 1.0)]))


def test_truncation_noop_above_support():
    sig = AmplitudeLaw([(0.5, 0.4), (2.0, 0.6)])
    z = 0.7 + 0.01j
    plain = solve_mpe_at(z, half_aspect(sig))
    # a cut above every |tau| moves no weight to zero
    cut = solve_mpe_at(z, half_aspect(
        AmplitudeLaw([(0.5, 0.4), (2.0, 0.6), (0.0, 0.0)])))
    assert abs(plain - cut) < 1e-6


def test_truncation_active_changes_model():
    sig = AmplitudeLaw([(0.5, 0.5), (3.0, 0.5)])
    z = 1.0 + 0.1j
    plain = solve_mpe_at(z, half_aspect(sig))
    # the cut at 1 sends the amplitude 3 to zero
    cut = solve_mpe_at(z, half_aspect(AmplitudeLaw([(0.5, 0.5), (0.0, 0.5)])))
    assert abs(plain - cut) > 1e-3


# ---------------------------------------------------------------------------
# limiting measure
# ---------------------------------------------------------------------------

def solved_density(model, grid, opts=None, **kwargs):
    """limit_density on the grid's solved transform."""
    return limit_density(model, grid, solve_mpe_grid(grid, model, opts).f,
                         **kwargs)


def test_limit_density_quarter_aspect():
    model = mp_model(0.25)
    grid = np.linspace(0.01, 3.99, 400)
    meas = solved_density(model, grid)
    atoms = meas.to_dict()["atoms"]
    assert atoms == [[0.0, 0.75]]
    assert meas.total_mass == pytest.approx(1.0, abs=5e-3)
    assert meas.probability


def test_limit_density_square_aspect_no_atom():
    model = mp_model(1.0)
    meas = solved_density(model, np.linspace(0.01, 3.99, 200))
    assert not meas.atom_locations.size


def test_limit_density_matches_closed_form_interior():
    model = mp_model(0.5)
    grid = np.linspace(0.3, 2.7, 60)
    meas = solved_density(model, grid)
    for lam, rho in zip(grid, meas.values):
        assert abs(rho - mp_closed_form(0.5, lam)) < 1e-3


def test_limit_density_zero_amplitudes_dilute_rank():
    # amplitude mass at tau = 0 contributes nothing, so the kernel atom
    # grows to 1 - c*(1 - w0)
    sig = AmplitudeLaw([(0.0, 0.3), (1.0, 0.7)])
    model = ModelSpec(c=0.5, sigma=sig,
                      n0=SpectralMeasure(atoms=[(0.0, 1.0)]))
    meas = solved_density(model, np.linspace(0.02, 3.0, 400))
    assert meas.to_dict()["atoms"] == [[0.0, 1.0 - 0.35]]
    assert meas.total_mass == pytest.approx(1.0, abs=5e-3)


def test_limit_density_mass_deficit_raises():
    # grid far away from the support carries almost no mass
    model = mp_model(1.0)
    with pytest.raises(MassDeficit):
        solved_density(model, np.linspace(10.0, 12.0, 50))


def test_limit_density_windowed_zoom():
    model = mp_model(1.0)
    meas = solved_density(model, np.linspace(1.9, 2.1, 21), require_mass=False)
    assert not meas.probability
    mid = meas.values[10]
    assert abs(mid - mp_closed_form(1.0, 2.0)) < 1e-3


def normalization_check(f_eval, y: float) -> float:
    """Total-mass probe y * |f(iy)| high up the imaginary axis."""
    if y < 1e3:
        raise ValueError("normalization check requires y >= 1e3")
    return float(y * abs(f_eval(complex(0.0, y))))


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
