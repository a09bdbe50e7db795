"""Exception types raised across the package."""

from __future__ import annotations


class Rank1SpecError(Exception):
    """Base class for all package-specific errors."""


class RealAxisEvaluation(Rank1SpecError):
    """Stieltjes transform requested at a point with Im z = 0."""


class EmptySpectrum(Rank1SpecError):
    """An empirical spectrum with no eigenvalues was supplied."""


class UnsupportedOrder(Rank1SpecError):
    """Moment order outside the supported range 0..4."""


class PoleHit(Rank1SpecError):
    """A denominator 1 + tau*f came within 1e-14 of zero."""


class NonConvergence(Rank1SpecError):
    """A point used all of solver.MAX_ITER updates at one continuation
    stage without reaching its stop residual.

    The updates are Newton steps with damped Picard fallbacks. Carries the
    grid location and smoothing height of the first failing grid point so
    callers can report the failing (lambda, eps) pair.
    """

    def __init__(self, message: str, lam: float | None = None, eps: float | None = None):
        super().__init__(message)
        self.lam = lam
        self.eps = eps


class MassDeficit(Rank1SpecError):
    """Recovered measure carries less than 90% of unit mass."""


class InvalidDimension(Rank1SpecError):
    """Vector dimension must be a positive integer."""


class InvalidP(Rank1SpecError):
    """p-norm parameter must satisfy p >= 1."""


class H0Mismatch(Rank1SpecError):
    """Deterministic part H0 is inconsistent with the requested order."""


class EigensolveFailed(Rank1SpecError):
    """A LAPACK eigensolve of a finite-n matrix failed (no convergence,
    or non-finite eigenvalues from non-finite entries)."""


class ShapeMismatch(Rank1SpecError):
    """Spectra passed to the Gram comparison have inconsistent sizes."""
