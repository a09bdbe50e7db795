"""Array kernels of the solver: the base transform and one continuation stage.

Both work on every requested point at once. A base measure enters as
discrete nodes and weights (`base_nodes`): its atoms as they are, and its
gridded density as the trapezoid rule's nodes. Temporaries of shape
(points x nodes) or (points x amplitude atoms) are built in point chunks
of at most CHUNK_ELEMENTS elements, so large bases stay bounded in memory.

Status codes returned per point by `picard_solve`:

====  =========================================
0     converged, residual <= tol
1     max_iter exhausted
2     denominator 1 + tau*f within 1e-14 of zero
====  =========================================
"""

from __future__ import annotations

import numpy as np

# numba is not used; kept because benchmark reports read this flag
USE_NUMBA = False

POLE_TOL = 1e-14
CHUNK_ELEMENTS = 1 << 18
# weight of f0(w) in the Picard step a point takes when Newton fails it
DAMPING = 0.5


def _chunks(points: int, width: int):
    step = max(1, CHUNK_ELEMENTS // max(width, 1))
    return [slice(i, i + step) for i in range(0, points, step)]


def base_nodes(atom_loc, atom_mass, grid, vals):
    """Nodes and weights whose sums give the base measure's transform.

    The density part becomes the trapezoid rule on its grid, so
    `sum weight/(node - z)` equals the atoms' sum plus the trapezoid
    integral of vals/(grid - z).
    """
    if grid.shape[0] < 2:
        return atom_loc, atom_mass
    half = 0.5 * np.diff(grid)
    weights = np.zeros_like(grid)
    weights[:-1] += half
    weights[1:] += half
    return (np.concatenate([atom_loc, grid]),
            np.concatenate([atom_mass, weights * vals]))


def base_transform(w, loc, mass):
    """f0(w) = sum mass/(loc - w) and f0'(w) = sum mass/(loc - w)^2."""
    g = np.zeros(w.shape, dtype=np.complex128)
    dg = np.zeros(w.shape, dtype=np.complex128)
    if loc.size:
        for part in _chunks(w.size, loc.size):
            r = 1.0 / (loc - w[part, None])
            rm = r * mass
            g[part] = rm.sum(axis=1)
            dg[part] = (rm * r).sum(axis=1)
    return g, dg


def shift_terms(f, tau, tau_w, c):
    """Shift -c*sum(tau q/(1 + tau f)), its f-derivative, and the pole mask.

    The derivative is c*sum(tau^2 q/(1 + tau f)^2). The pole mask marks
    the points where some 1 + tau*f lies within POLE_TOL of zero; their
    other entries are not meaningful.
    """
    shift = np.zeros(f.shape, dtype=np.complex128)
    dshift = np.zeros(f.shape, dtype=np.complex128)
    pole = np.zeros(f.shape, dtype=bool)
    tw = tau * tau_w
    with np.errstate(divide="ignore", invalid="ignore"):
        for part in _chunks(f.size, tau.size):
            den = 1.0 + f[part, None] * tau
            pole[part] = (np.abs(den) < POLE_TOL).any(axis=1)
            inv = 1.0 / den
            inv_tw = inv * tw
            shift[part] = -c * inv_tw.sum(axis=1)
            dshift[part] = c * (inv_tw * inv * tau).sum(axis=1)
    return shift, dshift, pole


def stieltjes_many(zs, atom_loc, atom_mass, grid, vals):
    """sum_k m_k/(loc_k - z) + trapezoid integral of vals/(grid - z)."""
    return base_transform(zs, *base_nodes(atom_loc, atom_mass, grid, vals))[0]


def picard_solve(z, f, tol, max_iter, tau, tau_w, c, loc, mass):
    """Solve f = f0(z + shift(f)) at every point of the array `z` at once.

    Each update is the Newton step f <- f - r/(1 - f0'(w) shift'(f)) with
    r = f - f0(w), w = z + shift(f). Where that step is not finite or
    leaves the half-plane Im f * Im z >= 0, the point takes the damped
    Picard step f <- (1 - DAMPING) f + DAMPING f0(w) instead, reflected
    into the half-plane. A point stops at the first residual evaluation
    with |r| <= tol, or at a pole, and counts every evaluation it made.

    The base measure comes as `base_nodes` output. The name is older than
    the Newton step and stays because profiling wraps it.

    Returns (f, updates, iters, status): the final values, the point
    updates of the whole call as a Python int, and the per-point counts
    and status codes (see the module docstring).
    """
    z = np.asarray(z, dtype=np.complex128)
    f = np.asarray(f, dtype=np.complex128)
    sgn = np.where(z.imag >= 0.0, 1.0, -1.0)
    f = np.where(f.imag * sgn < 0.0, f.conj(), f)
    iters = np.full(z.shape, int(max_iter), dtype=np.int64)
    status = np.ones(z.shape, dtype=np.int8)
    idx = np.arange(z.size)
    za, fa, sa = z, f, sgn
    for it in range(1, int(max_iter) + 1):
        if not idx.size:
            break
        shift, dshift, pole = shift_terms(fa, tau, tau_w, c)
        # a point at a pole has no meaningful w; it stops below
        with np.errstate(invalid="ignore"):
            g, dg = base_transform(za + shift, loc, mass)
        r = fa - g
        conv = ~pole & (np.abs(r) <= tol)
        stop = pole | conv
        if stop.any():
            ends = idx[stop]
            iters[ends] = it
            f[ends] = fa[stop]
            status[ends] = np.where(pole[stop], 2, 0)
            go = ~stop
            idx, za, fa, sa = idx[go], za[go], fa[go], sa[go]
            r, g, dg, dshift = r[go], g[go], dg[go], dshift[go]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = fa - r / (1.0 - dg * dshift)
        off = ~np.isfinite(step) | (step.imag * sa < 0.0)
        if off.any():
            picard = (1.0 - DAMPING) * fa[off] + DAMPING * g[off]
            step[off] = np.where(picard.imag * sa[off] < 0.0,
                                 picard.conj(), picard)
        fa = step
    f[idx] = fa
    return f, int(iters.sum()), iters, status
