"""Finite-n ensembles H = H0 + sum_a tau_a (Y_a x Y_a): assembly,
eigensolves, counting measures, and the resolvent trace.

Stream keying (so different routines see the same draws): vector alpha
of trial t uses stream_id = t * 2^32 + alpha, its amplitude uses
stream_id = t * 2^32 + 2^31 + alpha, all under the ensemble seed, with
0 <= t < 2^32. The draws walk each run of keys with one Philox that is
re-keyed per stream (`samplers.stream_generators`); the keys, and so the
bits, are those of a fresh generator per stream. Each vector stream
fills row alpha of one C-ordered (m, n) trial block in place, the law's
finishing step runs once on the block, and a trial's vectors V are the
(n, m) transposed view of that block; only the dense assembly copies V.

`build_matrix` returns a trial's factors (H0, V, tau), which assemble
the dense n x n matrix each time `.array` is read. With H0 = 0 and k < n
nonzero amplitudes of one sign s, `eigenvalues_sym` solves the k x k
Gram side instead: the nonzero eigenvalues of V T V^T are those of
s W^H W with W = V |T|^(1/2), and the other n - k are exactly zero.

`resolvent_traces` evaluates g(z) = Tr(H - z)^(-1) / n on the m x m
Woodbury side, as a rank-m update of (H0 - z)^(-1), without assembling
or eigensolving H. `counting_fractions` counts the eigenvalues of H in
(a, b] the same way, from the inertia of one m x m matrix per endpoint
(Haynsworth's inertia additivity). Both diagonalize H0 once per call; a
file base is read once per `EnsembleConfig` (`EnsembleConfig.h0_array`),
not once per trial.

Every trial draw (`build_matrix`, `build_matrices` and the variance
checks' loops) goes through `_trial_draws`, which keeps a one-trial
readahead slot: after trial t of a config is drawn in sequence (the
previous draw was trial t - 1 of the same config object), the one worker
thread of a `concurrent.futures.ThreadPoolExecutor` draws trial t + 1
while the caller works on trial t, and the next draw takes it. The loops
over a given sequence of trials (`build_matrices`, `counting_fractions`,
`resolvent_traces`; every trial loop of the package goes through one of
them) read ahead only when trial t + 1 is the next one in it, so none
draws past its last trial; `build_matrix` cannot know the caller's next
trial and always reads ahead in sequence. Since a draw is a pure
function of (config, trial), the bits are those of `_draw_components`
on the calling thread. It reads ahead only when a core would otherwise
sit idle, that is when the BLAS thread caps in the environment are all
below the CPUs this process may use (`_spare_core`), and only for blocks
of at most `_READAHEAD_MAX_BYTES`; its memory cost is one trial's block.
The worker is not a daemon thread, so the interpreter's exit waits for
the readahead still pending, at most one trial's draw.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .errors import (EigensolveFailed, H0Mismatch, RealAxisEvaluation,
                     ShapeMismatch)
from .measures import AmplitudeLaw, EmpiricalSpectrum, write_output
from .samplers import VectorLaw, keyed_taus, keyed_vectors
# not called here; they stay bound because layerbench/tracer.py wraps
# these names in this module
from .samplers import sample_tau, sample_vector

HERMITIAN_TOL = 1e-12
_TRIAL_STRIDE = 2 ** 32
_TAU_OFFSET = 2 ** 31
# largest trial block (n x m entries) drawn ahead, so that the readahead
# costs at most this much memory; n = 1024, m = 512 takes 4 MiB
_READAHEAD_MAX_BYTES = 64 * 2 ** 20
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


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
        try:
            entries = tuple(float(v) for v in text[5:].split(","))
            if not np.all(np.isfinite(entries)):
                raise ValueError
        except ValueError:
            raise ValueError(f"expected diag:d1,d2,... with finite entries, "
                             f"got {text!r}") from None
        return H0Diagonal(entries)
    if text.startswith("file:"):
        return H0File(text[5:])
    raise ValueError(f"unknown h0 spec {text!r}")


def read_h0_file(path) -> np.ndarray:
    """Plain-text matrix: first line n, then n rows of n finite reals.

    The upper triangle is trusted and mirrored; asymmetry beyond 1e-12
    and non-finite entries are rejected.
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
    try:
        mat = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise H0Mismatch(f"{path}: {exc}") from None
    bad = np.argwhere(~np.isfinite(mat))
    if bad.size:
        i, j = bad[0]
        raise H0Mismatch(f"{path}: entry ({i + 1}, {j + 1}) is "
                         f"{float(mat[i, j])!r}, not finite")
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
            raise ValueError(f"n must be positive, got {self.n!r}")
        if self.m < 0:
            raise ValueError(f"m must be nonnegative, got {self.m!r}")
        if (not isinstance(self.seed, (int, np.integer))
                or not 0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be an integer in [0, 2^64)")

    @cached_property
    def h0_array(self) -> np.ndarray:
        """H0 as a read-only dense array, resolved (and a file read) once."""
        mat = resolve_h0(self.h0, self.n)
        mat.flags.writeable = False
        return mat


class TrialFactors(NamedTuple):
    """One trial's H = H0 + V diag(tau) V^H as its factors: H0 (None for
    a zero base), the (n, m) vectors V and the amplitudes tau."""

    h0: np.ndarray | None
    vectors: np.ndarray
    taus: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def array(self) -> np.ndarray:
        """The dense matrix, assembled on each read."""
        h0 = self.h0 if self.h0 is not None else np.zeros((self.n, self.n))
        return assemble_matrix(h0, self.taus, self.vectors)


def _checked_trial(trial) -> int:
    if (not isinstance(trial, (int, np.integer))
            or not 0 <= trial < _TRIAL_STRIDE):
        raise ValueError("trial must be an integer in [0, 2^32)")
    return int(trial)


def _draw_components(config: EnsembleConfig, trial: int):
    """Vectors (n, m) and amplitudes (m,) under the documented keying.

    The vectors are the transposed view of the C-ordered (m, n) block
    that `samplers.keyed_vectors` fills row by row, so `vectors.T` is
    C-contiguous and no transposing copy is made.
    """
    base = _checked_trial(trial) * _TRIAL_STRIDE
    rows = keyed_vectors(config.law, config.n, config.seed,
                         range(base, base + config.m))
    taus = keyed_taus(config.sigma, config.seed,
                      range(base + _TAU_OFFSET, base + _TAU_OFFSET + config.m))
    return rows.T, taus


def _spare_core() -> bool:
    """Whether BLAS leaves a core idle: some BLAS thread cap is set as a
    positive integer, and every such cap is below the CPUs this process
    may use. With no cap, BLAS threads take every core, and a helper
    thread drawing beside them made the eigensolves slower."""
    caps = [int(v) for v in map(os.environ.get, _BLAS_THREAD_VARS)
            if v is not None and v.strip().isdecimal() and int(v) > 0]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return bool(caps) and max(caps) < cpus


def _block_bytes(config: EnsembleConfig) -> int:
    return config.n * config.m * (16 if config.law.is_complex else 8)


_readahead_lock = threading.Lock()
# built at the first readahead: its one long-lived worker thread keeps
# the freed blocks in one malloc arena
_executor = None
# (draw, config, trial, future) of the last draw, where the future draws
# trial + 1 on the worker, or is None when no readahead was queued
_slot: tuple | None = None


def _forget_readahead() -> None:
    """Empty the slot in a forked child, where the worker does not run."""
    global _readahead_lock, _executor, _slot
    _readahead_lock = threading.Lock()
    _executor = _slot = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_readahead)


def _trial_draws(config: EnsembleConfig, trial: int, more: bool = True):
    """`_draw_components(config, trial)`, read ahead when drawn in order.

    A draw that follows trial - 1 of the same config object and the same
    `_draw_components` takes the readahead queued for it, if any, and
    queues trial + 1 on the worker when `more` (a draw of trial + 1 may
    come next), `_spare_core()` holds and the block is at most
    `_READAHEAD_MAX_BYTES`. Any other draw discards the slot. An
    exception raised on the worker is raised here.
    """
    global _executor, _slot
    trial = _checked_trial(trial)
    draw = _draw_components
    with _readahead_lock:
        last, _slot = _slot, None
    follows = (last is not None and last[0] is draw and last[1] is config
               and last[2] == trial - 1)
    if follows and last[3] is not None:
        result = last[3].result()
    else:
        result = draw(config, trial)
    ahead = (follows and more and _block_bytes(config) <= _READAHEAD_MAX_BYTES
             and _spare_core())
    future = None
    with _readahead_lock:
        if ahead:
            if _executor is None:
                from concurrent.futures import ThreadPoolExecutor
                _executor = ThreadPoolExecutor(1, "rank1spec-readahead")
            try:
                future = _executor.submit(draw, config, trial + 1)
            except RuntimeError:  # no thread starts, or the interpreter exits
                pass
        _slot = (draw, config, trial, future)
    return result


def assemble_matrix(h0: np.ndarray, taus, vectors) -> np.ndarray:
    """H0 + sum_a tau_a y_a y_a^H from explicit components.

    The product is formed from a C-ordered copy of V (none is made when V
    is already C-ordered): BLAS picks its kernel by the operands' layout,
    so this keeps the bits of H independent of the layout V comes in.
    """
    vectors = np.ascontiguousarray(vectors)
    taus = np.asarray(taus, dtype=float)
    h = np.asarray(h0, dtype=vectors.dtype if np.iscomplexobj(vectors) else float)
    if taus.size:
        h = h + (vectors * taus[None, :]) @ vectors.conj().T
    return 0.5 * (h + h.conj().T)


def _h0_factor(config: EnsembleConfig) -> np.ndarray | None:
    """H0 as `TrialFactors` holds it: None for a zero base."""
    return None if isinstance(config.h0, H0Zero) else config.h0_array


def build_matrix(config: EnsembleConfig, trial: int = 0) -> TrialFactors:
    """Realize H = H0 + sum_a tau_a (Y_a x Y_a) for one trial, as factors."""
    return TrialFactors(_h0_factor(config), *_trial_draws(config, trial))


def _ranged_draws(config: EnsembleConfig, trials):
    """`_trial_draws` of each trial in the sequence `trials`, reading
    trial + 1 ahead only when it is the next one, so that no draw is made
    past the last trial."""
    for i, trial in enumerate(trials):
        more = i + 1 < len(trials) and trials[i + 1] == trial + 1
        yield _trial_draws(config, trial, more)


def build_matrices(config: EnsembleConfig, trials):
    """`build_matrix` of each trial in the sequence `trials`, in turn,
    drawing none past the last (`_ranged_draws`)."""
    h0 = _h0_factor(config)
    for draws in _ranged_draws(config, trials):
        yield TrialFactors(h0, *draws)


def _gram_factor(matrix: TrialFactors):
    """(W, s) with H = s W W^H and W of k < n columns, or None.

    Needs a zero base and nonzero amplitudes of one sign; columns with
    zero amplitude are dropped. W is V itself when no column is dropped
    and every |tau| is 1.
    """
    if matrix.h0 is not None:
        return None
    w, kept = _nonzero_columns(matrix.vectors, matrix.taus)
    if kept.size >= matrix.n:
        return None
    if np.all(kept > 0.0):
        sign = 1.0
    elif np.all(kept < 0.0):
        sign = -1.0
    else:
        return None
    scale = np.abs(kept)
    if np.any(scale != 1.0):
        w = w * np.sqrt(scale)
    return w, sign


def _nonzero_columns(vectors: np.ndarray, taus: np.ndarray):
    """The columns of nonzero amplitude and their amplitudes, uncopied
    when every amplitude is nonzero."""
    keep = taus != 0.0
    if keep.all():
        return vectors, taus
    return vectors[:, keep], taus[keep]


def eigenvalues_sym(matrix) -> EmpiricalSpectrum:
    """Eigenvalues of a symmetric/hermitian matrix, ascending.

    Householder tridiagonalization plus a backward-stable QL/QR-family
    iteration via LAPACK (numpy.linalg.eigvalsh). A factored matrix from
    `build_matrix` with H0 = 0 whose k < n nonzero amplitudes share one
    sign s is solved on the Gram side: s * eigvalsh(W^H W) with
    W = V |tau|^(1/2), padded with n - k exact zeros. Every other input,
    plain arrays included, is solved densely. A failed eigensolve, or
    one that returns non-finite eigenvalues (a NaN or infinite entry),
    raises EigensolveFailed.
    """
    gram = _gram_factor(matrix) if isinstance(matrix, TrialFactors) else None
    if gram is not None:
        w, sign = gram
        arr = w.conj().T @ w
    else:
        arr = matrix.array if isinstance(matrix, TrialFactors) else np.asarray(matrix)
    try:
        ev = np.linalg.eigvalsh(arr)
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailed(f"dense eigensolve failed: {exc}") from exc
    if not np.all(np.isfinite(ev)):
        raise EigensolveFailed("eigensolve returned non-finite eigenvalues; "
                               "the matrix has a non-finite entry")
    if gram is not None:
        ev = np.concatenate([sign * ev, np.zeros(matrix.n - ev.size)])
    return EmpiricalSpectrum(ev)


def counting_measure(spectrum: EmpiricalSpectrum, a: float, b: float) -> float:
    """Fraction of eigenvalues in the half-open interval (a, b]."""
    ev = spectrum.eigenvalues
    hi = np.searchsorted(ev, b, side="right")
    lo = np.searchsorted(ev, a, side="right")
    return (hi - lo) / ev.size


def _h0_eigen(config: EnsembleConfig):
    """(d, q) with H0 = Q diag(d) Q^T, and q None when H0 is diagonal.

    Free for zero and diagonal bases; a file base costs one eigensolve.
    """
    if isinstance(config.h0, H0Zero):
        return np.zeros(config.n), None
    if isinstance(config.h0, H0File):
        return np.linalg.eigh(config.h0_array)
    return np.diagonal(config.h0_array), None


def _near_base_eigenvalue(d: np.ndarray, x: float) -> bool:
    """Whether x lies within roundoff of an eigenvalue of H0."""
    scale = max(1.0, abs(x), float(np.max(np.abs(d), initial=0.0)))
    return bool(np.any(np.abs(d - x) <= 1e-12 * scale))


def _rotated_draws(config: EnsembleConfig, q, trials):
    """Each trial's U = Q^H V over the columns of nonzero amplitude, and
    those amplitudes T; Q = None stands for the identity."""
    for draws in _ranged_draws(config, trials):
        u, t = _nonzero_columns(*draws)
        yield (u if q is None else q.T @ u), t


def counting_fractions(config: EnsembleConfig, interval, trials) -> np.ndarray:
    """Fraction of eigenvalues in (a, b] for each trial index in `trials`.

    With H0 = Q D Q^H, U = Q^H V over the k columns of nonzero amplitude
    and T their amplitudes, Haynsworth's inertia additivity gives

        #{lambda(H) <= x} = n - #{d > x} - #neg(M(x)) + #{tau < 0},
        M(x) = T + T U^H (D - x)^(-1) U T,

    since M(x) is congruent to T^(-1) + U^H (D - x)^(-1) U. In the count
    of (a, b] the terms n and #{tau < 0} cancel, so each endpoint costs
    one k x k eigensolve per trial, and T is never inverted. Two cases
    keep a full spectrum per trial: with H0 = 0 and nonzero amplitudes of
    one sign `eigenvalues_sym` solves the Gram side once for both ends,
    and when a or b lies within roundoff of an eigenvalue of H0 each
    trial is solved densely. A failed eigensolve, or one that returns
    non-finite eigenvalues, raises EigensolveFailed.
    """
    a, b = float(interval[0]), float(interval[1])
    atoms = config.sigma.tau_values
    nonzero = atoms[atoms != 0.0]
    gram = isinstance(config.h0, H0Zero) and (
        np.all(nonzero > 0.0) or np.all(nonzero < 0.0))
    d, q = (None, None) if gram else _h0_eigen(config)
    if gram or _near_base_eigenvalue(d, a) or _near_base_eigenvalue(d, b):
        return np.array([counting_measure(eigenvalues_sym(matrix), a, b)
                         for matrix in build_matrices(config, trials)])
    inside = np.count_nonzero((d > a) & (d <= b))
    resolvents = (1.0 / (d - a), 1.0 / (d - b))
    out = np.empty(len(trials))
    for i, (u, t) in enumerate(_rotated_draws(config, q, trials)):
        ut = u * t
        # an overflow is reported below as non-finite eigenvalues
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                ev_a, ev_b = (np.linalg.eigvalsh(
                    np.diag(t) + ut.conj().T @ (r[:, None] * ut))
                    for r in resolvents)
        except np.linalg.LinAlgError as exc:
            raise EigensolveFailed(f"inertia eigensolve failed: {exc}") from exc
        if not (np.all(np.isfinite(ev_a)) and np.all(np.isfinite(ev_b))):
            raise EigensolveFailed("inertia eigensolve returned non-finite "
                                   "eigenvalues; an entry overflowed")
        out[i] = (inside + np.count_nonzero(ev_a < 0.0)
                  - np.count_nonzero(ev_b < 0.0)) / config.n
    return out


def resolvent_traces(config: EnsembleConfig, z: complex, trials) -> np.ndarray:
    """g(z) = Tr(H - z)^(-1) / n for each trial index in `trials`.

    H0 = Q D Q^H is diagonalized once (an eigensolve only for a file
    base). With R0 = (D - z)^(-1), U = Q^H V over the k columns of
    nonzero amplitude and T their amplitudes, the Woodbury identity gives

        n g = sum R0 - tr[(I + T A)^(-1) T B],  A = U^H R0 U,  B = U^H R0^2 U,

    at O(n k^2) per trial. T is never inverted, so zero amplitudes need no
    care, and I + T A is invertible whenever Im z != 0. A real or
    non-finite z raises RealAxisEvaluation before any draw.
    """
    z = complex(z)
    if not (np.isfinite(z) and z.imag != 0.0):
        raise RealAxisEvaluation(
            f"the resolvent trace needs a finite z with Im z != 0, got {z}")
    d, q = _h0_eigen(config)
    r0 = 1.0 / (d - z)
    base = r0.sum()
    out = np.empty(len(trials), dtype=complex)
    for i, (u, t) in enumerate(_rotated_draws(config, q, trials)):
        ru = r0[:, None] * u
        a = u.conj().T @ ru
        b = (r0[:, None] * u.conj()).T @ ru
        correction = np.trace(np.linalg.solve(
            np.eye(t.size) + t[:, None] * a, t[:, None] * b))
        out[i] = (base - correction) / config.n
    return out


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

def write_spectrum_csv(spectrum: EmpiricalSpectrum, path) -> bytes:
    """One eigenvalue per line. Returns the bytes written."""
    data = "".join(f"{v!r}\n" for v in spectrum.eigenvalues.tolist()).encode()
    return write_output(path, data)


def read_spectrum_csv(path) -> EmpiricalSpectrum:
    with open(path) as fh:
        values = [float(line) for line in fh if line.strip()]
    return EmpiricalSpectrum(values)
