import numpy as np
import pytest

from rank1spec import _kernels
from rank1spec.solver import mp_stieltjes_oracle

# square-aspect unit-amplitude model over a point mass base
TAU = np.array([1.0])
TAU_W = np.array([1.0])
LOC = np.array([0.0])
MASS = np.array([1.0])


def stage(z, f, tol=1e-10, max_iter=100_000):
    return _kernels.picard_solve(
        np.asarray(z, dtype=complex), np.asarray(f, dtype=complex),
        tol, max_iter, TAU, TAU_W, 1.0, LOC, MASS)


def test_kernel_reaches_mp_quadratic():
    zs = np.array([1j, 2j, 0.5 + 0.25j, -1 + 0.5j])
    f, _, iters, status = stage(zs, np.full(zs.shape, 1j))[:4]
    assert np.all(status == 0)
    assert np.all(iters >= 1)
    # each value must satisfy z f^2 + z f + 1 = 0 (c = 1 quadratic)
    assert np.max(np.abs(zs * f * f + zs * f + 1)) < 1e-9
    assert np.all(f.imag * np.sign(zs.imag) > 0)


def test_status_codes():
    # a starved budget reports status 1 without raising
    zs = np.array([0.5 + 1e-4j, 3.0 + 1e-4j])
    _, updates, iters, status = stage(zs, np.full(2, 1j), tol=1e-15,
                                      max_iter=2)[:4]
    assert np.all(status == 1)
    assert np.all(iters == 2)
    assert updates == 4
    # 1 + tau*f = 0 at f = -1
    _, _, iters, status = stage(np.array([1j]), np.array([-1.0 + 0j]))[:4]
    assert status.tolist() == [2]
    assert iters.tolist() == [1]


def test_newton_leaving_half_plane_falls_back_to_picard():
    z = np.array([0.14794 + 0.43943j])
    f_start = np.array([-1.21196 + 0.29807j])
    shift, dshift, _ = _kernels.shift_terms(f_start, TAU, TAU * TAU_W, 1.0)
    g, dg = _kernels.base_transform(z + shift, LOC, MASS)
    newton = f_start - (f_start - g) / (1.0 - dg * dshift)
    assert newton[0].imag < 0.0
    f, _, _, status = stage(z, f_start)[:4]
    assert status.tolist() == [0]
    assert abs(f[0] - mp_stieltjes_oracle(z[0], 1.0)) < 1e-12


def test_stage_reports_tangent_residual_and_fallbacks():
    zs = np.array([1j, 0.5 + 0.25j, -1 + 0.5j])
    got = stage(zs, np.full(zs.shape, 1j))
    f = got.f
    # implicit derivative of the c = 1 quadratic z f^2 + z f + 1 = 0
    want = -(f * f + f) / (2.0 * zs * f + zs)
    assert np.max(np.abs(got.dfdz - want)) < 1e-8
    assert np.all(got.residual <= 1e-10)
    # a starved point reports the residual of its last evaluation
    starved = stage(np.array([0.5 + 1e-4j]), np.array([1j]), tol=1e-15,
                    max_iter=2)
    assert starved.status.tolist() == [1]
    assert starved.residual[0] > 1e-15
    # the start of the Picard-fallback case above takes a fallback
    picard = stage(np.array([0.14794 + 0.43943j]),
                   np.array([-1.21196 + 0.29807j]))
    assert picard.fallbacks >= 1
    assert got.fallbacks == 0


def test_updates_equal_sum_of_point_counts():
    zs = np.array([1j, 0.5 + 1e-3j, 1j, 3.0 + 0.1j])
    starts = np.array([1j, 1j, -1.0 + 0j, 0.5j])
    _, updates, iters, status = stage(zs, starts, max_iter=5)[:4]
    assert isinstance(updates, int)
    assert updates == int(iters.sum())
    assert 2 in status.tolist()


def test_chunked_evaluation_matches_whole(monkeypatch):
    tau, tau_w = np.array([-0.5, 1.0, 2.0]), np.array([0.3, 0.5, 0.2])
    loc, mass = _kernels.base_nodes(np.array([-1.0, 1.0]),
                                    np.array([0.25, 0.25]),
                                    np.linspace(0.0, 1.0, 101),
                                    np.full(101, 0.5))
    zs = np.linspace(-2.0, 3.0, 37) + 0.05j
    args = (zs, np.full(zs.shape, 1j), 1e-10, 100_000, tau, tau_w, 0.5, loc,
            mass)
    whole = _kernels.picard_solve(*args)
    monkeypatch.setattr(_kernels, "CHUNK_ELEMENTS", 200)
    assert len(_kernels._chunks(zs.size, loc.size)) > 1
    chunked = _kernels.picard_solve(*args)
    assert np.array_equal(whole[0], chunked[0])
    assert np.array_equal(whole[2], chunked[2])


def test_transform_batch_matches_trapezoid_reference():
    atom_loc = np.array([-1.0, 2.0])
    atom_mass = np.array([0.25, 0.25])
    grid = np.linspace(0.0, 1.0, 101)
    vals = np.linspace(0.2, 0.8, 101)
    zs = np.array([1j, 0.3 + 0.2j, -2 + 1j])
    got = _kernels.base_transform(
        zs, *_kernels.base_nodes(atom_loc, atom_mass, grid, vals))[0]
    for z, value in zip(zs, got):
        ref = np.sum(atom_mass / (atom_loc - z))
        ref += np.trapezoid(vals / (grid - z), grid)
        assert value == pytest.approx(ref, abs=1e-14)


def awkward_complex(rng, shape):
    """Complex entries from 1e-8 to 1e8 in size, with +-0, inf and nan."""
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    parts = []
    for _ in range(2):
        part = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
        hit = rng.random(shape) < 0.2
        part[hit] = rng.choice(specials, hit.sum())
        parts.append(part)
    out = np.empty(shape, dtype=np.complex128)
    out.real, out.imag = parts
    return out


def same_bits(got, want):
    """Equal bit for bit, except that a nan may carry any payload."""
    got, want = got.view(np.float64), want.view(np.float64)
    nan = np.isnan(want)
    return (np.array_equal(nan, np.isnan(got))
            and np.array_equal(got[~nan].view(np.uint64),
                               want[~nan].view(np.uint64)))


@pytest.mark.parametrize("rows", [1, 7, 400])
@pytest.mark.parametrize("width", range(1, 7))
def test_row_reductions_match_numpy(rows, width):
    # the kernels' sums over nodes and atoms, narrow ones added a column at
    # a time, must keep the bits of numpy's row sums on any input
    rng = np.random.default_rng(100 * rows + width)
    w = awkward_complex(rng, rows)
    loc = rng.choice([-1.0, 1.0], width) * 10.0 ** rng.uniform(-8, 8, width)
    mass = np.where(rng.random(width) < 0.3, 0.0, rng.random(width))
    tau = np.where(rng.random(width) < 0.2, 0.0, rng.uniform(-2.0, 2.0, width))
    tw = tau * rng.random(width)
    with np.errstate(all="ignore"):
        r = 1.0 / (loc - w[:, None])
        g, dg = _kernels.base_transform(w, loc, mass)
        assert same_bits(g, (r * mass).sum(axis=1))
        assert same_bits(dg, (r * mass * r).sum(axis=1))
        den = 1.0 + w[:, None] * tau
        inv = 1.0 / den
        shift, dshift, pole = _kernels.shift_terms(w, tau, tw, 0.7)
        assert same_bits(shift, -0.7 * (inv * tw).sum(axis=1))
        assert same_bits(dshift, 0.7 * (inv * tw * inv * tau).sum(axis=1))
    assert np.array_equal(pole, (np.abs(den) < _kernels.POLE_TOL).any(axis=1))


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("width", range(1, 6))
def test_transforms_match_textbook_sums(monkeypatch, width, chunk):
    if chunk is not None:
        monkeypatch.setattr(_kernels, "CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(width)
    w = np.linspace(-3.0, 3.0, 400) + 1j * np.geomspace(1e-6, 2.0, 400)
    loc = np.sort(rng.uniform(-2.0, 2.0, width))
    # a zero weight makes signed-zero terms
    mass = np.where(np.arange(width) == 1, 0.0, rng.random(width))
    r = 1.0 / (loc - w[:, None])
    g, dg = _kernels.base_transform(w, loc, mass)
    assert np.array_equal(g, (r * mass).sum(axis=1))
    assert np.array_equal(dg, (r * mass * r).sum(axis=1))
    assert same_bits(g, (r * mass).sum(axis=1))
    assert same_bits(dg, (r * mass * r).sum(axis=1))

    tau = rng.uniform(-1.0, 2.0, width)
    tau_w = rng.random(width)
    # points with 1 + tau*f at or near zero hit the pole mask
    f = (np.linspace(-2.0, 1.0, 400) + 1j * np.geomspace(1e-20, 1.0, 400))
    f[::50] = -1.0 / tau[0]
    den = 1.0 + f[:, None] * tau
    with np.errstate(divide="ignore", invalid="ignore"):
        shift, dshift, pole = _kernels.shift_terms(f, tau, tau * tau_w, 0.3)
        inv = 1.0 / den
        want_shift = -0.3 * (inv * (tau * tau_w)).sum(axis=1)
        want_dshift = 0.3 * (inv * (tau * tau_w) * inv * tau).sum(axis=1)
    want_pole = (np.abs(den) < _kernels.POLE_TOL).any(axis=1)
    assert pole.any()
    assert np.array_equal(pole, want_pole)
    assert same_bits(shift, want_shift)
    assert same_bits(dshift, want_dshift)
