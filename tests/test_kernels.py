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
    zs = np.array([1j, 2j, 0.5 + 0.25j, -1 + 0.5j, 2.0 - 0.3j])
    f, _, iters, status = stage(zs, np.full(zs.shape, 1j))
    assert np.all(status == 0)
    assert np.all(iters >= 1)
    # each value must satisfy z f^2 + z f + 1 = 0 (c = 1 quadratic)
    assert np.max(np.abs(zs * f * f + zs * f + 1)) < 1e-9
    assert np.all(f.imag * np.sign(zs.imag) > 0)


def test_status_codes():
    # a starved budget reports status 1 without raising
    zs = np.array([0.5 + 1e-4j, 3.0 + 1e-4j])
    _, updates, iters, status = stage(zs, np.full(2, 1j), tol=1e-15,
                                      max_iter=2)
    assert np.all(status == 1)
    assert np.all(iters == 2)
    assert updates == 4
    # 1 + tau*f = 0 at f = -1
    _, _, iters, status = stage(np.array([1j]), np.array([-1.0 + 0j]))
    assert status.tolist() == [2]
    assert iters.tolist() == [1]


def test_newton_leaving_half_plane_falls_back_to_picard():
    z = np.array([0.14794 + 0.43943j])
    f_start = np.array([-1.21196 + 0.29807j])
    shift, dshift, _ = _kernels.shift_terms(f_start, TAU, TAU_W, 1.0)
    g, dg = _kernels.base_transform(z + shift, LOC, MASS)
    newton = f_start - (f_start - g) / (1.0 - dg * dshift)
    assert newton[0].imag < 0.0
    f, _, _, status = stage(z, f_start)
    assert status.tolist() == [0]
    assert abs(f[0] - mp_stieltjes_oracle(z[0], 1.0)) < 1e-12


def test_updates_equal_sum_of_point_counts():
    zs = np.array([1j, 0.5 + 1e-3j, 1j, 3.0 + 0.1j])
    starts = np.array([1j, 1j, -1.0 + 0j, 0.5j])
    _, updates, iters, status = stage(zs, starts, max_iter=5)
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
    got = _kernels.stieltjes_many(zs, atom_loc, atom_mass, grid, vals)
    for z, value in zip(zs, got):
        ref = np.sum(atom_mass / (atom_loc - z))
        ref += np.trapezoid(vals / (grid - z), grid)
        assert value == pytest.approx(ref, abs=1e-14)
