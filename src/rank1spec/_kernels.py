"""Array kernels of the solver: the base transform and one continuation stage.

Both work on every requested point at once. A base measure enters as
discrete nodes and weights (`base_nodes`): its atoms as they are, and its
gridded density as the trapezoid rule's nodes. Temporaries of shape
(points x nodes) or (points x amplitude atoms) are built in point chunks
of at most CHUNK_ELEMENTS elements, so large bases stay bounded in memory.

Sums over nodes or atoms give the bits of numpy's `.sum(axis=1)` on a
row-major array. Up to SMALL_WIDTH nodes or atoms, the sums build no
(points x width) temporary: each node or atom adds its term, one 1-D
array over the points, onto zero from left to right, which is the order
numpy uses for rows of under 8 doubles. Wider rows are row-major
temporaries and call `.sum(axis=1)`, which keeps its pairwise order.
Each point's sum reads only its own row, so the bits do not depend on
the chunking.

Status codes returned per point by `picard_solve`:

====  =========================================
0     converged, residual <= tol
1     max_iter exhausted
2     denominator 1 + tau*f within 1e-14 of zero
====  =========================================
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# numba is not used; kept because benchmark reports read this flag
USE_NUMBA = False

POLE_TOL = 1e-14
# 512 KiB per complex temporary, so that a chunk's work stays in cache
CHUNK_ELEMENTS = 1 << 15
# widest complex row that numpy sums left to right
SMALL_WIDTH = 3
# weight of f0(w) in the Picard step a point takes when Newton fails it
DAMPING = 0.5


def _step(width: int) -> int:
    return max(1, CHUNK_ELEMENTS // max(width, 1))


def _chunks(points: int, width: int):
    step = _step(width)
    return [slice(i, i + step) for i in range(0, points, step)]


def _by_chunks(kernel, x, width, *args):
    """kernel(x, *args) over point chunks of `x`, each output joined."""
    if x.size <= _step(width):
        return kernel(x, *args)
    parts = [kernel(x[part], *args) for part in _chunks(x.size, width)]
    return tuple(np.concatenate(out) for out in zip(*parts))


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


def _base_part(w, loc, mass):
    if loc.size > SMALL_WIDTH:
        r = 1.0 / np.subtract(loc, w[:, None], order="C")
        rm = r * mass
        return rm.sum(axis=1), (rm * r).sum(axis=1)
    f0 = np.zeros(w.shape, dtype=np.complex128)
    df0 = np.zeros(w.shape, dtype=np.complex128)
    for x, m in zip(loc.tolist(), mass.tolist()):
        r = 1.0 / (x - w)
        rm = r * m
        f0 += rm
        df0 += rm * r
    return f0, df0


def base_transform(w, loc, mass):
    """f0(w) = sum mass/(loc - w) and f0'(w) = sum mass/(loc - w)^2."""
    return _by_chunks(_base_part, w, loc.size, loc, mass)


def _shift_part(f, tau, tw, c):
    if tau.size > SMALL_WIDTH:
        den = 1.0 + np.multiply(f[:, None], tau, order="C")
        inv = 1.0 / den
        inv_tw = inv * tw
        return (-c * inv_tw.sum(axis=1), c * (inv_tw * inv * tau).sum(axis=1),
                (np.abs(den) < POLE_TOL).any(axis=1))
    total = np.zeros(f.shape, dtype=np.complex128)
    slope = np.zeros(f.shape, dtype=np.complex128)
    pole = np.zeros(f.shape, dtype=bool)
    for t, q in zip(tau.tolist(), tw.tolist()):
        den = 1.0 + f * t
        pole |= np.abs(den) < POLE_TOL
        inv = 1.0 / den
        inv_tw = inv * q
        total += inv_tw
        slope += inv_tw * inv * t
    return -c * total, c * slope, pole


def shift_terms(f, tau, tw, c):
    """Shift -c*sum(tau q/(1 + tau f)), its f-derivative, and the pole mask.

    `tw` is tau * q, the amplitudes times their weights. The derivative is
    c*sum(tau^2 q/(1 + tau f)^2). The pole mask marks the points where
    some 1 + tau*f lies within POLE_TOL of zero; their other entries are
    not meaningful, and dividing by zero there raises numpy's warnings
    unless the caller silences them.
    """
    return _by_chunks(_shift_part, f, tau.size, tau, tw, c)


class Stage(NamedTuple):
    """One continuation stage's result, as `picard_solve` returns it.

    f, iters, status, dfdz and residual are per point: the final values,
    the residual evaluations each point made, its status code (see the
    module docstring), df/dz = f0'(w)/(1 - f0'(w) shift'(f)) and |r| at
    the point's last evaluation. updates is iters.sum() and fallbacks the
    number of damped Picard steps taken, both as Python ints. updates
    stays at index 1 because profiling reads it there.
    """

    f: np.ndarray
    updates: int
    iters: np.ndarray
    status: np.ndarray
    dfdz: np.ndarray
    fallbacks: int
    residual: np.ndarray


def picard_solve(z, f, tol, max_iter, tau, tau_w, c, loc, mass) -> Stage:
    """Solve f = f0(z + shift(f)) at every point of the array `z` at once.

    Every point must have Im z > 0; `solver.solve_mpe_at` answers the
    lower half-plane by conjugation. A start with Im f < 0 is conjugated.
    Each update is the Newton step f <- f - r/(1 - f0'(w) shift'(f)) with
    r = f - f0(w), w = z + shift(f). Where that step is not finite or
    leaves the half-plane Im f >= 0, the point takes the damped Picard
    step f <- (1 - DAMPING) f + DAMPING f0(w) instead, reflected into the
    half-plane. A point stops at the first residual evaluation
    with |r| <= tol, or at a pole, and counts every evaluation it made.
    Its df/dz comes from the derivatives of that same evaluation, so the
    caller can predict the next stage's start at no extra cost.

    The base measure comes as `base_nodes` output. The name is older than
    the Newton step and stays because profiling wraps it.
    """
    z = np.asarray(z, dtype=np.complex128)
    f = np.asarray(f, dtype=np.complex128)
    f = np.where(f.imag < 0.0, f.conj(), f)
    iters = np.full(z.shape, int(max_iter), dtype=np.int64)
    status = np.ones(z.shape, dtype=np.int8)
    dfdz = np.zeros(z.shape, dtype=np.complex128)
    residual = np.full(z.shape, np.inf)
    fallbacks = 0
    tw = tau * tau_w
    idx = np.arange(z.size)
    za, fa = z, f
    abs_r, stopped = residual, False
    # a point at a pole has no meaningful w and stops below; a Newton step
    # that divides by zero or overflows falls back to Picard
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, int(max_iter) + 1):
            if not idx.size:
                break
            shift, dshift, pole = shift_terms(fa, tau, tw, c)
            g, dg = base_transform(za + shift, loc, mass)
            r = fa - g
            abs_r = np.abs(r)
            slope = 1.0 - dg * dshift
            step = fa - r / slope
            off = ~np.isfinite(step) | (step.imag < 0.0)
            stop = pole | (abs_r <= tol)
            # stopped points keep fa; the others move to step
            stopped = stop.any()
            if stopped:
                ends = idx[stop]
                iters[ends] = it
                f[ends] = fa[stop]
                status[ends] = np.where(pole[stop], 2, 0)
                dfdz[ends] = dg[stop] / slope[stop]
                residual[ends] = abs_r[stop]
                go = ~stop
                off &= go
            if off.any():
                fallbacks += int(np.count_nonzero(off))
                picard = (1.0 - DAMPING) * fa[off] + DAMPING * g[off]
                step[off] = np.where(picard.imag < 0.0, picard.conj(),
                                     picard)
            if stopped:
                idx, za, fa = idx[go], za[go], step[go]
            else:
                fa = step
    # the points that ran out of updates, with their last residual
    f[idx] = fa
    residual[idx] = abs_r[go] if stopped else abs_r
    return Stage(f, int(iters.sum()), iters, status, dfdz, fallbacks,
                 residual)
