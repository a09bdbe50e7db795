"""Finite-n ensembles H = H0 + sum_a tau_a (Y_a x Y_a): assembly,
eigensolves, counting measures, and the streamed rank-one resolvent.

Stream keying (so different routines see the same draws): vector alpha
of trial t uses stream_id = t * 2^32 + alpha, its amplitude uses
stream_id = t * 2^32 + 2^31 + alpha, all under the ensemble seed.

`build_matrix` keeps a trial's factors (H0, V, tau) and assembles the
dense n x n matrix only when `.array` is read. With H0 = 0 and k < n
nonzero amplitudes of one sign s, `eigenvalues_sym` solves the k x k
Gram side instead: the nonzero eigenvalues of V T V^T are those of
s W^H W with W = V |T|^(1/2), and the other n - k are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (H0Mismatch, NearSingularDenominator, NoConvergence,
                     ShapeMismatch)
from .measures import AmplitudeLaw, EmpiricalSpectrum
from .samplers import RngStream, VectorLaw, sample_tau, sample_vector

HERMITIAN_TOL = 1e-12
DENOM_TOL = 1e-12
_TRIAL_STRIDE = 2 ** 32
_TAU_OFFSET = 2 ** 31


@dataclass(frozen=True)
class H0Zero:
    """The zero base matrix."""


@dataclass(frozen=True)
class H0Diagonal:
    entries: tuple


@dataclass(frozen=True)
class H0File:
    path: str


H0Spec = Union[H0Zero, H0Diagonal, H0File]


def parse_h0(text: str) -> H0Spec:
    text = text.strip()
    if text == "zero":
        return H0Zero()
    if text.startswith("diag:"):
        return H0Diagonal(tuple(float(v) for v in text[5:].split(",")))
    if text.startswith("file:"):
        return H0File(text[5:])
    raise ValueError(f"unknown h0 spec {text!r}")


def read_h0_file(path) -> np.ndarray:
    """Plain-text matrix: first line n, then n rows of n reals.

    The upper triangle is trusted and mirrored; asymmetry beyond 1e-12
    is rejected.
    """
    with open(path) as fh:
        tokens = fh.read().split("\n")
    try:
        n = int(tokens[0].strip())
    except (ValueError, IndexError):
        raise H0Mismatch(f"{path}: first line must be the matrix order")
    rows = [line.split() for line in tokens[1:] if line.strip()]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise H0Mismatch(f"{path}: expected {n} rows of {n} entries")
    mat = np.array([[float(v) for v in row] for row in rows])
    if np.max(np.abs(mat - mat.T), initial=0.0) > HERMITIAN_TOL:
        raise H0Mismatch(f"{path}: matrix is not symmetric within {HERMITIAN_TOL}")
    upper = np.triu(mat)
    return upper + np.triu(mat, 1).T


def resolve_h0(h0: H0Spec, n: int) -> np.ndarray:
    if isinstance(h0, H0Zero):
        return np.zeros((n, n))
    if isinstance(h0, H0Diagonal):
        if len(h0.entries) != n:
            raise H0Mismatch(f"diagonal has {len(h0.entries)} entries, order is {n}")
        return np.diag(np.asarray(h0.entries, dtype=float))
    if isinstance(h0, H0File):
        mat = read_h0_file(h0.path)
        if mat.shape[0] != n:
            raise H0Mismatch(f"file matrix order {mat.shape[0]} != {n}")
        return mat
    raise TypeError(f"unsupported h0 spec {h0!r}")


@dataclass(frozen=True)
class EnsembleConfig:
    n: int
    m: int
    law: VectorLaw
    sigma: AmplitudeLaw
    h0: H0Spec
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.m < 0:
            raise ValueError("m must be nonnegative")


class SymMatrix:
    """Symmetric (hermitian) matrix, dense or kept as its factors.

    `SymMatrix(array)` validates the symmetry of a dense array. Matrices
    made by `assemble_matrix` and `build_matrix` are symmetric by
    construction and skip that O(n^2) check; those of `build_matrix`
    keep H0 (None for a zero base), the vectors V and the amplitudes
    tau, and assemble `.array` on first read.
    """

    __slots__ = ("_array", "h0", "vectors", "taus")

    def __init__(self, array):
        arr = np.asarray(array)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("matrix must be square")
        if np.max(np.abs(arr - arr.conj().T), initial=0.0) > HERMITIAN_TOL:
            raise ValueError(f"matrix not hermitian within {HERMITIAN_TOL}")
        self._array = arr
        self.h0 = self.vectors = self.taus = None

    @classmethod
    def _trusted(cls, array=None, h0=None, vectors=None, taus=None):
        obj = cls.__new__(cls)
        obj._array, obj.h0, obj.vectors, obj.taus = array, h0, vectors, taus
        return obj

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            h0 = self.h0 if self.h0 is not None else np.zeros((self.n, self.n))
            self._array = assemble_matrix(h0, self.taus, self.vectors).array
        return self._array

    @property
    def n(self) -> int:
        if self._array is not None:
            return self._array.shape[0]
        return self.vectors.shape[0]

    def __repr__(self) -> str:
        dtype = self._array.dtype if self._array is not None else self.vectors.dtype
        return f"SymMatrix(n={self.n}, dtype={dtype})"


def _vector_stream(config: EnsembleConfig, trial: int, alpha: int) -> RngStream:
    return RngStream(config.seed, trial * _TRIAL_STRIDE + alpha)


def _tau_stream(config: EnsembleConfig, trial: int, alpha: int) -> RngStream:
    return RngStream(config.seed, trial * _TRIAL_STRIDE + _TAU_OFFSET + alpha)


def _draw_components(config: EnsembleConfig, trial: int):
    """Vectors (n, m) and amplitudes (m,) under the documented keying.

    A law with a single atom fills the amplitudes directly: every draw
    would return that atom.
    """
    dtype = complex if config.law.is_complex else float
    vectors = np.empty((config.n, config.m), dtype=dtype)
    single = config.sigma.tau_values.size == 1
    taus = np.full(config.m, config.sigma.tau_values[0])
    for alpha in range(config.m):
        vectors[:, alpha] = sample_vector(config.law, config.n,
                                          _vector_stream(config, trial, alpha))
        if not single:
            taus[alpha] = sample_tau(config.sigma,
                                     _tau_stream(config, trial, alpha))
    return vectors, taus


def assemble_matrix(h0: np.ndarray, taus, vectors) -> SymMatrix:
    """H0 + sum_a tau_a y_a y_a^H from explicit components."""
    vectors = np.asarray(vectors)
    taus = np.asarray(taus, dtype=float)
    h = np.asarray(h0, dtype=vectors.dtype if np.iscomplexobj(vectors) else float)
    if taus.size:
        h = h + (vectors * taus[None, :]) @ vectors.conj().T
    h = 0.5 * (h + h.conj().T)
    return SymMatrix._trusted(array=h)


def build_matrix(config: EnsembleConfig, trial: int = 0) -> SymMatrix:
    """Realize H = H0 + sum_a tau_a (Y_a x Y_a) for one trial, as factors."""
    h0 = None if isinstance(config.h0, H0Zero) else resolve_h0(config.h0, config.n)
    vectors, taus = _draw_components(config, trial)
    return SymMatrix._trusted(h0=h0, vectors=vectors, taus=taus)


def _gram_factor(matrix: SymMatrix):
    """(W, s) with H = s W W^H and W of k < n columns, or None.

    Needs a zero base and nonzero amplitudes of one sign; columns with
    zero amplitude are dropped.
    """
    if matrix.vectors is None or matrix.h0 is not None:
        return None
    taus = matrix.taus
    keep = taus != 0.0
    kept = taus[keep]
    if kept.size >= matrix.n:
        return None
    if np.all(kept > 0.0):
        sign = 1.0
    elif np.all(kept < 0.0):
        sign = -1.0
    else:
        return None
    return matrix.vectors[:, keep] * np.sqrt(np.abs(kept)), sign


def eigenvalues_sym(matrix) -> EmpiricalSpectrum:
    """Eigenvalues of a symmetric/hermitian matrix, ascending.

    Householder tridiagonalization plus a backward-stable QL/QR-family
    iteration via LAPACK (numpy.linalg.eigvalsh). A factored matrix from
    `build_matrix` with H0 = 0 whose k < n nonzero amplitudes share one
    sign s is solved on the Gram side: s * eigvalsh(W^H W) with
    W = V |tau|^(1/2), padded with n - k exact zeros. Every other input,
    plain arrays included, is solved densely.
    """
    gram = _gram_factor(matrix) if isinstance(matrix, SymMatrix) else None
    if gram is not None:
        w, sign = gram
        arr = w.conj().T @ w
    else:
        arr = matrix.array if isinstance(matrix, SymMatrix) else np.asarray(matrix)
    try:
        ev = np.linalg.eigvalsh(arr)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"dense eigensolve failed: {exc}") from exc
    if gram is not None:
        ev = np.concatenate([sign * ev, np.zeros(matrix.n - ev.size)])
    return EmpiricalSpectrum(ev)


def counting_measure(spectrum: EmpiricalSpectrum, a: float, b: float) -> float:
    """Fraction of eigenvalues in the half-open interval (a, b]."""
    ev = spectrum.eigenvalues
    hi = np.searchsorted(ev, b, side="right")
    lo = np.searchsorted(ev, a, side="right")
    return (hi - lo) / ev.size


def _initial_resolvent(h0: np.ndarray, z: complex) -> np.ndarray:
    n = h0.shape[0]
    if not np.any(h0 - np.diag(np.diagonal(h0))):
        diag = 1.0 / (np.diagonal(h0) - z)
        return np.diag(diag).astype(complex)
    return np.linalg.inv(h0.astype(complex) - z * np.eye(n))


def resolvent_trace_stream(config: EnsembleConfig, z: complex,
                           trial: int = 0) -> complex:
    """Normalized resolvent trace g = Tr(H - z)^(-1) / n via rank-one updates.

    Starting from G = (H0 - z)^(-1), each vector applies

        G <- G - tau (G Y)(Y^H G) / (1 + tau Y^H G Y),
        Tr <- Tr - tau (Y^H G^2 Y) / (1 + tau Y^H G Y),

    at O(n^2) per update; for real ensembles the resolvent is complex
    symmetric and the conjugations reduce to the bilinear forms.
    """
    z = complex(z)
    h0 = resolve_h0(config.h0, config.n)
    g = _initial_resolvent(h0, z)
    trace = complex(np.trace(g))
    vectors, taus = _draw_components(config, trial)
    for y, tau in zip(vectors.T, taus):
        trace, g = _rank1_trace_update(g, trace, y, tau)
    return trace / config.n


def _rank1_trace_update(g: np.ndarray, trace: complex, y: np.ndarray,
                        tau: float) -> tuple[complex, np.ndarray]:
    yc = np.conj(y)
    u = g @ y
    denom = 1.0 + tau * (yc @ u)
    if abs(denom) < DENOM_TOL:
        raise NearSingularDenominator(f"|1 + tau Y^H G Y| = {abs(denom):.3e}")
    w = g.T @ yc
    trace = trace - tau * (w @ u) / denom
    g = g - (tau / denom) * np.outer(u, w)
    return trace, g


def gram_matrix(config: EnsembleConfig, trial: int = 0) -> SymMatrix:
    """Gram matrix of the trial's vectors (same streams as build_matrix)."""
    vectors, _ = _draw_components(config, trial)
    gram = vectors.conj().T @ vectors
    gram = 0.5 * (gram + gram.conj().T)
    return SymMatrix(gram)


def gram_counting_relation(gram_spectrum: EmpiricalSpectrum,
                           full_spectrum: EmpiricalSpectrum,
                           n: int, m: int) -> float:
    """Sup discrepancy of the Gram duality of counting measures.

    For tau = 1 the m Gram eigenvalues and the n eigenvalues of the
    rank-one sum satisfy

        F_gram(x) = -((n - m)/m) 1{x >= 0} + (n/m) F_full(x).

    Both CDFs are evaluated at the pooled eigenvalue locations with a
    snap tolerance of 1e-9 * (1 + |x|) so that the paired eigenvalues,
    equal only to roundoff, count consistently on both sides.
    """
    if m < 1 or n < m:
        raise ShapeMismatch(f"need n >= m >= 1, got n={n}, m={m}")
    if gram_spectrum.n != m:
        raise ShapeMismatch(f"gram spectrum has {gram_spectrum.n} values, expected {m}")
    if full_spectrum.n != n:
        raise ShapeMismatch(f"full spectrum has {full_spectrum.n} values, expected {n}")
    mu = gram_spectrum.eigenvalues
    lam = full_spectrum.eigenvalues
    points = np.union1d(mu, lam)
    snap = 1e-9 * (1.0 + np.abs(points))
    x = points + snap
    lhs = np.searchsorted(mu, x, side="right") / m
    step = (x >= 0.0).astype(float)
    rhs = -((n - m) / m) * step + (n / m) * (np.searchsorted(lam, x, side="right") / n)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


# ---------------------------------------------------------------------------
# spectrum CSV files
# ---------------------------------------------------------------------------

def write_spectrum_csv(spectrum: EmpiricalSpectrum, path) -> None:
    """One eigenvalue per line."""
    with open(path, "w", newline="") as fh:
        for v in spectrum.eigenvalues:
            fh.write(repr(float(v)) + "\n")


def read_spectrum_csv(path) -> EmpiricalSpectrum:
    with open(path) as fh:
        values = [float(line) for line in fh if line.strip()]
    return EmpiricalSpectrum(values)
