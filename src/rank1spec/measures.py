"""Spectral measures: atoms plus piecewise-linear densities, and the
Stieltjes-transform machinery built on them.

Conventions used throughout the package:

* ``f(z) = integral N(dl) / (l - z)``, analytic off the real axis, with
  ``Im f * Im z >= 0`` and ``|f(z)| <= mass / |Im z|``.
* densities are stored as values on a strictly increasing grid and
  interpreted piecewise-linearly, zero outside the grid;
* all CDFs are right-continuous.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

import numpy as np

from ._kernels import base_nodes, base_transform
from .errors import EmptySpectrum, RealAxisEvaluation, UnsupportedOrder

# a measure whose total mass lies this close to 1 is a probability measure
LIMIT_PROBABILITY_TOL = 5e-3
WEIGHT_SUM_TOL = 1e-12


def _as_pairs(pairs: Iterable) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(list(pairs), dtype=float)
    if arr.size == 0:
        return np.empty(0), np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("atoms must be (location, mass) pairs")
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise ValueError("atoms must be finite, got " + ", ".join(
            f"({x!r}, {w!r})" for x, w in arr[bad].tolist()))
    return arr[:, 0].copy(), arr[:, 1].copy()


class SpectralMeasure:
    """Finite positive measure: point atoms plus an optional gridded density.

    Parameters
    ----------
    atoms : iterable of (location, mass)
        Point masses; locations must be strictly increasing, masses >= 0.
    grid, values : array-like, optional
        Strictly increasing sample points and nonnegative density values.
        Both or neither must be given.

    The total mass is not bounded here: a windowed or coarse grid can
    hold less or a little more than 1, and callers that need a
    probability measure check `total_mass` or `probability` themselves.
    """

    __slots__ = ("atom_locations", "atom_masses", "grid", "values",
                 "total_mass")

    def __init__(self, atoms: Iterable = (), grid=None, values=None):
        locs, masses = _as_pairs(atoms)
        if np.any(masses < 0):
            raise ValueError("atom masses must be nonnegative")
        if locs.size > 1 and np.any(np.diff(locs) <= 0):
            raise ValueError("atom locations must be strictly increasing")
        if (grid is None) != (values is None):
            raise ValueError("grid and values must be supplied together")
        if grid is not None:
            grid = np.asarray(grid, dtype=float)
            values = np.asarray(values, dtype=float)
            if grid.ndim != 1 or grid.shape != values.shape or grid.size == 0:
                raise ValueError("grid and values must be 1-d arrays of equal length")
            if grid.size > 1 and np.any(np.diff(grid) <= 0):
                raise ValueError("density grid must be strictly increasing")
            if np.any(values < 0):
                raise ValueError("density values must be nonnegative")
        else:
            grid = np.empty(0)
            values = np.empty(0)
        self.atom_locations = locs
        self.atom_masses = masses
        self.grid = grid
        self.values = values
        mass = float(masses.sum())
        if grid.size > 1:
            mass += float(np.trapezoid(values, grid))
        self.total_mass = mass

    @property
    def probability(self) -> bool:
        """Whether the total mass lies within LIMIT_PROBABILITY_TOL of 1."""
        return abs(self.total_mass - 1.0) <= LIMIT_PROBABILITY_TOL

    @property
    def has_density(self) -> bool:
        return self.grid.size > 0

    def is_point_mass_at(self, location: float) -> bool:
        """True when the measure is a single unit atom at `location`, to
        1e-12."""
        return (not self.has_density
                and self.atom_locations.size == 1
                and abs(self.atom_locations[0] - location) <= 1e-12
                and abs(self.atom_masses[0] - 1.0) <= 1e-12)

    # -- serialization ------------------------------------------------------

    @property
    def atoms(self) -> list[list[float]]:
        """The atoms as [location, mass] pairs of Python floats."""
        return [[l, m] for l, m in zip(self.atom_locations.tolist(),
                                        self.atom_masses.tolist())]

    def to_dict(self) -> dict:
        return {"atoms": self.atoms, "grid": self.grid.tolist(),
                "values": self.values.tolist()}

    def __repr__(self) -> str:
        return (f"SpectralMeasure(atoms={self.atom_locations.size}, "
                f"grid={self.grid.size}, mass={self.total_mass:.6g})")


class AmplitudeLaw:
    """Discrete law of the rank-one amplitudes: atoms (tau, weight).

    Weights must be nonnegative and sum to 1 within 1e-12. Finite atom
    lists keep every absolute moment finite, so no integrability guard is
    needed anywhere downstream.
    """

    __slots__ = ("tau_values", "weights")

    def __init__(self, atoms: Iterable):
        taus, weights = _as_pairs(atoms)
        if taus.size == 0:
            raise ValueError("amplitude law needs at least one atom")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {weights.sum()}, expected 1")
        self.tau_values = taus
        self.weights = weights

    @property
    def max_abs_tau(self) -> float:
        return float(np.max(np.abs(self.tau_values)))

    def to_dict(self) -> dict:
        return {"atoms": [[float(t), float(w)] for t, w in
                          zip(self.tau_values, self.weights)]}

    def __repr__(self) -> str:
        return f"AmplitudeLaw({self.to_dict()['atoms']})"


class EmpiricalSpectrum:
    """Sorted eigenvalues of one realization."""

    __slots__ = ("eigenvalues",)

    def __init__(self, eigenvalues):
        ev = np.sort(np.asarray(eigenvalues, dtype=float).ravel())
        self.eigenvalues = ev

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def __repr__(self) -> str:
        return f"EmpiricalSpectrum(n={self.n})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def stieltjes_of_measure(measure: SpectralMeasure, z):
    """Evaluate f(z) = integral N(dl)/(l - z) off the real axis.

    Parameters
    ----------
    measure : SpectralMeasure
    z : complex scalar or array

    Returns
    -------
    complex scalar or array matching the shape of `z`.

    Raises
    ------
    RealAxisEvaluation
        If any requested point has Im z = 0.
    """
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    if np.any(zs.imag == 0.0):
        raise RealAxisEvaluation("Stieltjes transform requested on the real axis")
    nodes = base_nodes(measure.atom_locations, measure.atom_masses,
                       measure.grid, measure.values)
    out = base_transform(np.ascontiguousarray(zs.ravel()), *nodes)[0]
    out = out.reshape(zs.shape)
    return complex(out[0]) if scalar else out


def _cdf(measure: SpectralMeasure, x, left: bool):
    """F(x-) if `left` else F(x), in one pass over every point of `x`.

    Atoms enter through their cumulative masses; the piecewise-linear
    density through its cumulative trapezoid up to the grid node below
    x plus the partial segment from that node to x.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    locs, masses = measure.atom_locations, measure.atom_masses
    cum_atoms = np.concatenate(([0.0], np.cumsum(masses)))
    total = cum_atoms[np.searchsorted(locs, flat, side="left" if left else "right")]
    g, v = measure.grid, measure.values
    if g.size > 1:
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (v[:-1] + v[1:]) * np.diff(g))))
        total[flat >= g[-1]] += cum[-1]
        inside = (flat > g[0]) & (flat < g[-1])
        xi = flat[inside]
        j = np.searchsorted(g, xi, side="right") - 1
        t = (xi - g[j]) / (g[j + 1] - g[j])
        vx = v[j] + t * (v[j + 1] - v[j])
        part = total[inside] + cum[j]
        total[inside] = part + 0.5 * (v[j] + vx) * (xi - g[j])
    return float(total[0]) if xs.ndim == 0 else total.reshape(xs.shape)


def cdf(measure: SpectralMeasure, x):
    """Right-continuous distribution function of the measure."""
    return _cdf(measure, x, left=False)


def cdf_left(measure: SpectralMeasure, x):
    """Left limit F(x-) of the distribution function."""
    return _cdf(measure, x, left=True)


def ks_distance(spectrum: EmpiricalSpectrum, measure: SpectralMeasure) -> float:
    """Kolmogorov-Smirnov distance between an empirical spectrum and a measure.

    Evaluated at the eigenvalue locations, comparing right values with
    right values and left limits with left limits so that measures with
    atoms are handled correctly.
    """
    ev = spectrum.eigenvalues
    if ev.size == 0:
        raise EmptySpectrum("no eigenvalues to compare")
    n = ev.size
    emp_right = np.searchsorted(ev, ev, side="right") / n
    emp_left = np.searchsorted(ev, ev, side="left") / n
    f_right = cdf(measure, ev)
    f_left = cdf_left(measure, ev)
    return float(np.max(np.maximum(np.abs(emp_right - f_right),
                                   np.abs(emp_left - f_left))))


def moment(measure: SpectralMeasure, k: int) -> float:
    """k-th moment of the measure, k = 0..4."""
    if not isinstance(k, (int, np.integer)) or k < 0 or k > 4:
        raise UnsupportedOrder(f"moment order {k} unsupported (use 0..4)")
    total = float(np.sum(measure.atom_masses * measure.atom_locations ** k))
    if measure.grid.size > 1:
        total += float(np.trapezoid(measure.values * measure.grid ** k,
                                    measure.grid))
    return total


# ---------------------------------------------------------------------------
# file round-trips
# ---------------------------------------------------------------------------

# json's spellings of the floats whose repr it does not write
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_output(path, data: bytes) -> bytes:
    """Write `data` to `path` as `Path.write_bytes` does, but overwrite an
    existing file in place and cut it to length rather than truncate it to
    zero first, which on ext4 flushes the file at close. Returns `data`."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        fh.truncate()
    return data


def density_columns(measure: SpectralMeasure) -> tuple[list[str], list[str]]:
    """The repr of every grid node and of every density value, the text
    that both `write_density_csv` and `save_measure_json` write."""
    return (list(map(repr, measure.grid.tolist())),
            list(map(repr, measure.values.tolist())))


def write_density_csv(measure: SpectralMeasure, path, columns=None) -> bytes:
    """Write the density part as a two-column CSV (lambda, rho).

    Each row is two `repr` floats ending in CRLF, the bytes `csv.writer`
    writes for them. `columns` is `density_columns(measure)`, for a
    caller that already holds it. Returns the bytes written.
    """
    grid, values = density_columns(measure) if columns is None else columns
    data = ("lambda,rho\r\n"
            + "".join(map("{},{}\r\n".format, grid, values))).encode()
    return write_output(path, data)


def save_measure_json(measure: SpectralMeasure, path, columns=None) -> bytes:
    """Write `json.dumps(measure.to_dict(), sort_keys=True)`, built from
    `columns` as in `write_density_csv`. Returns the bytes written."""
    grid, values = density_columns(measure) if columns is None else columns
    text = '{"atoms": %s, "grid": [%s], "values": [%s]}' % (
        json.dumps(measure.atoms),
        ", ".join(map(_JSON_SPELLING.get, grid, grid)),
        ", ".join(map(_JSON_SPELLING.get, values, values)))
    return write_output(path, text.encode())
