import json

import numpy as np
import pytest

from rank1spec.errors import (EmptySpectrum, RealAxisEvaluation,
                              UnsupportedOrder)
from rank1spec.measures import (AmplitudeLaw, EmpiricalSpectrum,
                                SpectralMeasure, cdf, cdf_left, ks_distance,
                                load_measure_json, moment, read_density_csv,
                                save_measure_json, stieltjes_of_measure,
                                write_density_csv)
from rank1spec.solver import (ModelSpec, SolverOptions, limit_density,
                              mp_closed_form, mp_limit_measure)


def delta0() -> SpectralMeasure:
    return SpectralMeasure(atoms=[(0.0, 1.0)])


def half_half() -> SpectralMeasure:
    return SpectralMeasure(atoms=[(-1.0, 0.5), (1.0, 0.5)])


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_atoms_must_be_strictly_increasing():
    with pytest.raises(ValueError):
        SpectralMeasure(atoms=[(1.0, 0.5), (1.0, 0.5)])
    with pytest.raises(ValueError):
        SpectralMeasure(atoms=[(2.0, 0.5), (1.0, 0.5)])


def test_masses_and_densities_nonnegative():
    with pytest.raises(ValueError):
        SpectralMeasure(atoms=[(0.0, -0.1)])
    with pytest.raises(ValueError):
        SpectralMeasure(grid=[0.0, 1.0], values=[1.0, -0.5])


def test_total_mass_cap():
    with pytest.raises(ValueError):
        SpectralMeasure(atoms=[(0.0, 1.5)])
    # cap can be bypassed for intermediate (unnormalized) objects
    m = SpectralMeasure(atoms=[(0.0, 1.5)], validate_mass=False)
    assert m.total_mass == 1.5


def test_probability_flag_tolerance():
    m = SpectralMeasure(atoms=[(0.0, 1.0 + 5e-7)], probability=True)
    assert m.probability
    with pytest.raises(ValueError):
        SpectralMeasure(atoms=[(0.0, 0.9)], probability=True)


def test_half_mass_point():
    m = SpectralMeasure(atoms=[(0.0, 0.5)])
    assert m.total_mass == 0.5
    # unit-atom detection must not fire on partial mass
    assert not m.is_point_mass_at(0.0)
    assert SpectralMeasure(atoms=[(0.0, 1.0)]).is_point_mass_at(0.0)


def test_density_mass_is_trapezoid():
    # uniform density 0.5 on [0, 2]
    m = SpectralMeasure(grid=np.linspace(0.0, 2.0, 201),
                        values=np.full(201, 0.5))
    assert m.total_mass == pytest.approx(1.0, abs=1e-12)
    assert m.has_density


def test_single_point_grid_carries_no_mass():
    m = SpectralMeasure(grid=[1.0], values=[3.0])
    assert m.total_mass == 0.0


def test_roundtrip_dict_json(tmp_path):
    m = SpectralMeasure(atoms=[(0.0, 0.25)], grid=np.linspace(1, 2, 5),
                        values=[0.1, 0.2, 0.3, 0.2, 0.1])
    m2 = SpectralMeasure.from_dict(m.to_dict())
    assert m2.atom_locations.tolist() == [0.0]
    assert np.array_equal(m2.grid, m.grid)
    assert np.array_equal(m2.values, m.values)
    m3 = SpectralMeasure.from_json(m.to_json())
    assert m3.total_mass == pytest.approx(m.total_mass, abs=0)
    path = tmp_path / "m.json"
    save_measure_json(m, path)
    m4 = load_measure_json(path)
    assert np.array_equal(m4.values, m.values)
    assert json.loads(path.read_text())["atoms"] == [[0.0, 0.25]]


# ---------------------------------------------------------------------------
# Stieltjes transform
# ---------------------------------------------------------------------------

def test_point_mass_transform_at_i():
    assert stieltjes_of_measure(delta0(), 1j) == pytest.approx(1j, abs=1e-15)


def test_two_point_transform_at_i():
    # (1/(-1-i) + 1/(1-i)) / 2 = i/2, by hand
    assert stieltjes_of_measure(half_half(), 1j) == pytest.approx(0.5j, abs=1e-15)


def test_real_axis_rejected():
    with pytest.raises(RealAxisEvaluation):
        stieltjes_of_measure(delta0(), 1.0)


def test_conjugate_symmetry():
    m = SpectralMeasure(atoms=[(0.5, 0.3)], grid=np.linspace(1, 3, 50),
                        values=np.full(50, 0.35))
    z = 1.3 + 0.7j
    assert stieltjes_of_measure(m, np.conj(z)) == pytest.approx(
        np.conj(stieltjes_of_measure(m, z)), abs=1e-14)


def test_vectorized_transform_matches_scalar():
    m = half_half()
    zs = np.array([1j, 2j, 0.5 + 0.25j])
    vec = stieltjes_of_measure(m, zs)
    assert np.allclose(vec, [stieltjes_of_measure(m, z) for z in zs], atol=1e-15)


def test_imag_part_sign():
    m = mp_limit_measure(0.5, np.linspace(0.01, 3.5, 500))
    for z in (1j, 1 + 0.1j, -2 + 0.3j):
        assert np.imag(stieltjes_of_measure(m, z)) > 0


def test_smoothing_kernel_peak_and_tail():
    # point mass seen through the eps-smoothed imaginary part:
    # density eps/(pi (x^2+eps^2)), so 1/(pi eps) on top of the atom
    eps = 1e-3
    f = stieltjes_of_measure(delta0(), np.array([0.0, 1.0]) + 1j * eps)
    dens = np.imag(f) / np.pi
    assert dens[0] == pytest.approx(1.0 / (np.pi * eps), rel=1e-12)
    assert dens[1] == pytest.approx(eps / (np.pi * (1 + eps * eps)), rel=1e-12)


def mp_model(c: float) -> ModelSpec:
    return ModelSpec(c=c, sigma=AmplitudeLaw([(1.0, 1.0)]), n0=delta0())


def test_invert_error_halves_with_eps():
    # the limit density Im f(l + i eps)/pi has the first-order smoothing
    # bias eps Re f'(l)/pi inside the bulk; at c = 1 Re f is constant
    # there, so c = 0.5 is used
    lam = np.array([1.5])
    errs = []
    for eps in (2e-3, 1e-3):
        got = limit_density(mp_model(0.5), lam, SolverOptions(eps_final=eps),
                            require_mass=False)
        errs.append(abs(got.values[0] - mp_closed_form(0.5, 1.5)))
    assert 1.7 <= errs[0] / errs[1] <= 2.3


def test_invert_clips_negative_noise():
    grid = np.array([0.0, 1.0])
    got = limit_density(mp_model(1.0), grid, require_mass=False,
                        f_vals=np.full(grid.shape, -0.5 - 1e-3j))
    assert np.all(got.values >= 0.0)


# ---------------------------------------------------------------------------
# cdf / ks
# ---------------------------------------------------------------------------

def test_cdf_atoms_and_left_limits():
    m = half_half()
    assert cdf(m, -2.0) == 0.0
    assert cdf(m, -1.0) == 0.5
    assert cdf_left(m, -1.0) == 0.0
    assert cdf(m, 0.0) == 0.5
    assert cdf(m, 1.0) == 1.0
    assert cdf_left(m, 1.0) == 0.5


def test_cdf_uniform_density_linear():
    m = SpectralMeasure(grid=np.linspace(0.0, 2.0, 401),
                        values=np.full(401, 0.5))
    for x in (0.5, 1.0, 1.7):
        assert cdf(m, x) == pytest.approx(0.5 * x, abs=1e-9)


def test_cdf_quarter_circle_total():
    # square-aspect bulk: edge-clustered grid keeps the inverse-sqrt
    # behavior near zero integrable to 1e-3 accuracy
    grid = 4.0 * (np.arange(1, 4001) / 4000.0) ** 2
    m = mp_limit_measure(1.0, grid)
    assert cdf(m, 4.0) == pytest.approx(1.0, abs=1e-3)


def _loop_cdf(measure, x, left):
    """Plain-loop reference: atoms one by one, then whole trapezoid
    segments, then the partial segment that holds x."""
    atoms = 0.0
    for loc, mass in zip(measure.atom_locations, measure.atom_masses):
        if loc < x or (not left and loc == x):
            atoms += mass
    g, v = measure.grid, measure.values
    whole, partial = 0.0, 0.0
    for i in range(g.size - 1):
        a, b = g[i], g[i + 1]
        if x >= b:
            whole += 0.5 * (v[i] + v[i + 1]) * (b - a)
        elif x > a:
            vx = v[i] + (x - a) / (b - a) * (v[i + 1] - v[i])
            partial = 0.5 * (v[i] + vx) * (x - a)
    return atoms + whole + partial if g.size > 1 else atoms


def _cdf_probe_points(measure):
    g = measure.grid
    inner = np.linspace(g[0], g[-1], 37)[1:-1] + 1e-3 if g.size else []
    return np.concatenate([measure.atom_locations, g[:1], g[-1:], g[::7],
                           inner, [-50.0, 50.0, -np.inf, np.inf]])


@pytest.mark.parametrize("measure", [
    SpectralMeasure(atoms=[(0.0, 0.25), (0.75, 0.1)],
                    grid=np.linspace(0.0, 1.5, 61),
                    values=0.5 + 0.3 * np.sin(np.linspace(0.0, 9.0, 61)),
                    validate_mass=False),
    SpectralMeasure(atoms=[(-2.0, 0.125), (-1.0, 0.5), (3.0, 0.375)]),
    SpectralMeasure(grid=[-1.0, 0.5, 0.75, 2.0], values=[0.2, 0.0, 0.6, 0.1]),
], ids=["atoms-and-density", "atoms-only", "density-only"])
def test_vectorized_cdf_matches_loop_reference(measure):
    xs = _cdf_probe_points(measure)
    for fn, left in ((cdf, False), (cdf_left, True)):
        got = fn(measure, xs)
        want = np.array([_loop_cdf(measure, float(x), left) for x in xs])
        assert got.shape == xs.shape
        assert np.max(np.abs(got - want)) <= 1e-15
        for x in xs[:3]:
            scalar = fn(measure, float(x))
            assert isinstance(scalar, float)
            assert abs(scalar - _loop_cdf(measure, float(x), left)) <= 1e-15
    grid2d = xs[:6].reshape(2, 3)
    assert np.array_equal(cdf(measure, grid2d), cdf(measure, xs[:6]).reshape(2, 3))


def test_ks_two_points_vs_point_mass():
    spec = EmpiricalSpectrum(np.array([0.0, 1.0]))
    assert ks_distance(spec, delta0()) == pytest.approx(0.5, abs=1e-15)


def test_ks_exact_match_is_zero():
    spec = EmpiricalSpectrum(np.array([-1.0, 1.0]))
    assert ks_distance(spec, half_half()) == pytest.approx(0.0, abs=1e-15)


def test_ks_empty_spectrum_raises():
    with pytest.raises(EmptySpectrum):
        ks_distance(EmpiricalSpectrum(np.array([])), delta0())


def test_ks_iid_sample_within_dvoretzky_band():
    # 1000 draws from the c = 1/2 limit law via inverse cdf; the
    # two-sided band at 0.05 holds with probability ~0.987
    meas = mp_limit_measure(0.5, np.linspace(0.02, 3.2, 4000))
    xs = meas.grid
    Fs = np.array([cdf(meas, x) for x in xs])
    gen = np.random.default_rng(1)
    u = gen.random(1000)
    draws = np.where(u < 0.5, 0.0, np.interp(u, Fs, xs))
    assert ks_distance(EmpiricalSpectrum(draws), meas) < 0.05


def test_empirical_spectrum_sorts():
    spec = EmpiricalSpectrum(np.array([3.0, -1.0, 2.0]))
    assert spec.eigenvalues.tolist() == [-1.0, 2.0, 3.0]
    assert spec.n == 3


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moments_of_atoms():
    m = half_half()
    assert moment(m, 0) == pytest.approx(1.0, abs=1e-15)
    assert moment(m, 1) == pytest.approx(0.0, abs=1e-15)
    assert moment(m, 2) == pytest.approx(1.0, abs=1e-15)
    assert moment(m, 3) == pytest.approx(0.0, abs=1e-15)
    assert moment(m, 4) == pytest.approx(1.0, abs=1e-15)


def test_first_moment_of_limit_is_aspect_ratio():
    # the mean eigenvalue equals tr(sum of projections)/n -> c for unit
    # amplitudes
    for c in (0.25, 1.0):
        grid = np.linspace(1e-9, (1 + np.sqrt(c)) ** 2, 300_000)
        m = mp_limit_measure(c, grid)
        assert moment(m, 1) == pytest.approx(c, abs=1e-3)


def test_moment_order_restricted():
    with pytest.raises(UnsupportedOrder):
        moment(delta0(), 5)
    with pytest.raises(UnsupportedOrder):
        moment(delta0(), -1)
    with pytest.raises(UnsupportedOrder):
        moment(delta0(), 1.5)


# ---------------------------------------------------------------------------
# amplitude law
# ---------------------------------------------------------------------------

def test_amplitude_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        AmplitudeLaw([(1.0, 0.5), (2.0, 0.4)])


def test_amplitude_stats():
    sig = AmplitudeLaw([(-2.0, 0.25), (0.5, 0.75)])
    assert sig.max_abs_tau == 2.0


def test_amplitude_truncation_moves_mass_to_zero():
    sig = AmplitudeLaw([(-3.0, 0.2), (1.0, 0.5), (4.0, 0.3)])
    cut = sig.truncate(2.0)
    assert cut.max_abs_tau == 1.0
    assert 0.0 in cut.tau_values
    idx = list(cut.tau_values).index(0.0)
    assert cut.weights[idx] == pytest.approx(0.5, abs=1e-15)
    assert sum(cut.weights) == pytest.approx(1.0, abs=1e-12)


def test_amplitude_roundtrip():
    sig = AmplitudeLaw([(-1.0, 0.3), (2.0, 0.7)])
    sig2 = AmplitudeLaw(sig.to_dict()["atoms"])
    assert list(sig2.tau_values) == [-1.0, 2.0]
    assert list(sig2.weights) == [0.3, 0.7]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_density_csv_roundtrip(tmp_path):
    m = SpectralMeasure(grid=np.linspace(0.1, 2.0, 7),
                        values=np.linspace(0.0, 0.9, 7))
    path = tmp_path / "density.csv"
    write_density_csv(m, path)
    header = path.read_text().splitlines()[0]
    assert header == "lambda,rho"
    m2 = read_density_csv(path)
    assert np.array_equal(m2.grid, m.grid)
    assert np.array_equal(m2.values, m.values)
