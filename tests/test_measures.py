import csv
import io
import json
import os

import numpy as np
import pytest

from rank1spec.errors import (EmptySpectrum, RealAxisEvaluation,
                              UnsupportedOrder)
from rank1spec.measures import (AmplitudeLaw, EmpiricalSpectrum,
                                SpectralMeasure, cdf, cdf_left, ks_distance,
                                moment, save_measure_json,
                                stieltjes_of_measure, write_density_csv,
                                write_output)
from rank1spec.solver import (ModelSpec, SolverOptions, limit_density,
                              mp_closed_form, mp_limit_measure, solve_mpe_grid)


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
    # a measure holds any mass; a model's base must be a probability
    m = SpectralMeasure(atoms=[(0.0, 1.5)])
    assert m.total_mass == 1.5
    with pytest.raises(ValueError, match="n0 must be a probability measure"):
        ModelSpec(c=0.5, sigma=AmplitudeLaw([(1.0, 1.0)]), n0=m)


def test_probability_flag_tolerance():
    assert SpectralMeasure(atoms=[(0.0, 1.0 + 5e-7)]).probability
    assert SpectralMeasure(atoms=[(0.0, 1.0 - 4e-3)]).probability
    assert not SpectralMeasure(atoms=[(0.0, 1.0 + 6e-3)]).probability
    assert not SpectralMeasure(atoms=[(0.0, 0.9)]).probability


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
    m2 = SpectralMeasure(**m.to_dict())
    assert m2.atom_locations.tolist() == [0.0]
    assert np.array_equal(m2.grid, m.grid)
    assert np.array_equal(m2.values, m.values)
    m3 = SpectralMeasure(**json.loads(json.dumps(m.to_dict(), sort_keys=True)))
    assert m3.total_mass == pytest.approx(m.total_mass, abs=0)
    path = tmp_path / "m.json"
    save_measure_json(m, path)
    m4 = SpectralMeasure(**json.loads(path.read_text()))
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
        f_vals = solve_mpe_grid(lam, mp_model(0.5),
                                SolverOptions(eps_final=eps)).f
        got = limit_density(mp_model(0.5), lam, f_vals, require_mass=False)
        errs.append(abs(got.values[0] - mp_closed_form(0.5, 1.5)))
    assert 1.7 <= errs[0] / errs[1] <= 2.3


def test_invert_clips_negative_noise():
    grid = np.array([0.0, 1.0])
    got = limit_density(mp_model(1.0), grid, np.full(grid.shape, -0.5 - 1e-3j),
                        require_mass=False)
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
                    values=0.5 + 0.3 * np.sin(np.linspace(0.0, 9.0, 61))),
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


@pytest.mark.parametrize("make", [
    lambda: AmplitudeLaw([(np.inf, 1.0)]),
    lambda: AmplitudeLaw([(1.0, np.nan)]),
    lambda: SpectralMeasure(atoms=[(np.nan, 1.0)]),
], ids=["inf-amplitude", "nan-weight", "nan-location"])
def test_atoms_must_be_finite(make):
    # an infinite amplitude would start the continuation ladder at inf
    with pytest.raises(ValueError, match="atoms must be finite"):
        make()


def test_amplitude_stats():
    sig = AmplitudeLaw([(-2.0, 0.25), (0.5, 0.75)])
    assert sig.max_abs_tau == 2.0


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
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 0], m.grid)
    assert np.array_equal(table[:, 1], m.values)


def test_density_csv_bytes_match_csv_writer(tmp_path):
    grid = np.array([-2.0, -1e-300, 0.0, 5e-324, 0.1, 1e22])
    values = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1e-05,
                       1.0 / 3.0, 2.5e16])
    m = SpectralMeasure(grid=grid, values=values)
    path = tmp_path / "density.csv"
    write_density_csv(m, path)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["lambda", "rho"])
    for x, v in zip(grid, values):
        writer.writerow([repr(float(x)), repr(float(v))])
    assert path.read_bytes() == buf.getvalue().encode()
    assert path.read_bytes().count(b"\r\n") == grid.size + 1


# ---------------------------------------------------------------------------
# the output writer
# ---------------------------------------------------------------------------

def test_write_output_creates_a_new_file_like_write_bytes(tmp_path):
    data = b"lambda,rho\r\n0.5,0.25\r\n"
    path = tmp_path / "new.csv"
    assert write_output(path, data) is data
    assert path.read_bytes() == data
    want = tmp_path / "want.csv"
    want.write_bytes(data)
    assert path.stat().st_mode == want.stat().st_mode


@pytest.mark.parametrize("old_size", [0, 5, 9, 10, 11, 4096])
def test_write_output_overwrites_in_place_without_a_stale_tail(tmp_path,
                                                               old_size):
    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * old_size)
    os.chmod(path, 0o640)
    inode = path.stat().st_ino
    data = b"0123456789"
    assert write_output(path, data) == data
    assert path.read_bytes() == data
    assert path.stat().st_ino == inode
    assert path.stat().st_mode & 0o777 == 0o640


def test_write_output_writes_through_a_symlink(tmp_path):
    target = tmp_path / "target.json"
    target.write_bytes(b"{}" * 100)
    link = tmp_path / "link.json"
    try:
        link.symlink_to(target)
    except (OSError, NotImplementedError):
        pytest.skip("symlinks unavailable")
    write_output(link, b"[1]")
    assert link.is_symlink()
    assert target.read_bytes() == b"[1]"
    # a dangling link gets its target made, as with Path.write_bytes
    target.unlink()
    write_output(link, b"[2]")
    assert link.is_symlink() and target.read_bytes() == b"[2]"


def test_write_output_round_trips_every_byte(tmp_path):
    data = bytes(range(256)) + b"a\r\nb\nc\rd\0\r\n"
    path = tmp_path / "raw.bin"
    path.write_bytes(data * 2)
    assert write_output(path, data) == data
    assert path.read_bytes() == data
