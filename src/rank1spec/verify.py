"""Monte Carlo checks of the concentration bounds and of weak convergence
of empirical spectra to the solved limit.

All checks are deterministic given (master seed, trial count): trials are
keyed by index and aggregated in index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import EnsembleConfig, H0Zero, build_matrix, counting_measure, \
    eigenvalues_sym
from .errors import RealAxisEvaluation
from .measures import EmpiricalSpectrum, SpectralMeasure, ks_distance
from .samplers import RngStream, VectorLaw, sample_vectors
from .solver import ModelSpec, SolverOptions, limit_density

# Pilot-calibrated ceiling for the mean KS at the largest study dimension
# (pilot: c = 0.5, n = 1024, mean KS ~= 0.011 across laws and seeds).
KS_LARGEST_N_THRESHOLD = 0.05

# Sample variances below this are treated as exact concentration (the
# quadratic form is constant, e.g. |Y|^2 on the sphere) when fitting
# log-log decay slopes.
EXACT_VARIANCE_FLOOR = 1e-20

QUADFORM_SLOPE_BOUND = -0.2

# A = I and A = diag(+-1)
QUADFORM_MATRICES = ("identity", "alternating")


@dataclass
class VarianceReport:
    kind: str
    params: dict
    estimate: float
    bound: float
    trials: int
    standard_error: float
    passed: bool

    def to_dict(self) -> dict:
        params = dict(self.params)
        params["trials"] = self.trials
        return {"kind": self.kind, "params": params,
                "estimate": self.estimate, "bound": self.bound,
                "se": self.standard_error, "pass": self.passed}

    def csv_row(self) -> str:
        return ",".join([self.kind, repr(self.estimate), repr(self.bound),
                         str(self.trials), repr(self.standard_error),
                         str(self.passed)])


def _variance_se(values: np.ndarray) -> float:
    """Standard error of the unbiased sample variance via fourth moments."""
    t = values.size
    if t < 2:
        return 0.0
    centered = values - values.mean()
    m2 = float(np.mean(centered ** 2))
    m4 = float(np.mean(centered ** 4))
    inner = m4 - m2 ** 2 * (t - 3) / (t - 1)
    return math.sqrt(max(inner, 0.0) / t)


def _require_trials(trials: int) -> None:
    if trials < 2:
        raise ValueError(f"a variance needs at least 2 trials, got {trials}")


def verify_counting_variance(config: EnsembleConfig, interval, trials: int) -> VarianceReport:
    """Var of the counting measure on (a, b] against the 4m/n^2 bound."""
    _require_trials(trials)
    a, b = float(interval[0]), float(interval[1])
    counts = np.empty(trials)
    for t in range(trials):
        spec = eigenvalues_sym(build_matrix(config, trial=t))
        counts[t] = counting_measure(spec, a, b)
    estimate = float(np.var(counts, ddof=1))
    bound = 4.0 * config.m / config.n ** 2
    se = _variance_se(counts)
    return VarianceReport(
        kind="counting-var",
        params={"n": config.n, "m": config.m, "law": config.law.encode(),
                "interval": [a, b], "seed": config.seed},
        estimate=estimate, bound=bound, trials=trials,
        standard_error=se, passed=estimate <= bound + 3.0 * se)


def verify_stieltjes_variance(config: EnsembleConfig, z: complex, trials: int) -> VarianceReport:
    """Var of g(z) = Tr(H - z)^(-1)/n against 4m/(n^2 |Im z|^2)."""
    _require_trials(trials)
    z = complex(z)
    if z.imag == 0.0:
        raise RealAxisEvaluation("the variance bound needs Im z != 0")
    gs = np.empty(trials, dtype=complex)
    for t in range(trials):
        spec = eigenvalues_sym(build_matrix(config, trial=t))
        gs[t] = np.mean(1.0 / (spec.eigenvalues - z))
    centered = gs - gs.mean()
    sq = np.abs(centered) ** 2
    estimate = float(sq.sum() / (trials - 1))
    bound = 4.0 * config.m / (config.n ** 2 * z.imag ** 2)
    se = float(np.std(sq, ddof=1) / math.sqrt(trials))
    return VarianceReport(
        kind="stieltjes-var",
        params={"n": config.n, "m": config.m, "law": config.law.encode(),
                "z": [z.real, z.imag], "seed": config.seed},
        estimate=estimate, bound=bound, trials=trials,
        standard_error=se, passed=estimate <= bound + 3.0 * se)


@dataclass
class QuadFormRow:
    matrix: str
    n: int
    variance: float
    variance_se: float


@dataclass
class QuadFormReport:
    law: str
    dims: list
    samples: int
    rows: list
    slopes: dict
    exact: dict
    passed: bool

    def to_dict(self) -> dict:
        return {"kind": "quadform",
                "params": {"law": self.law, "dims": self.dims,
                           "samples": self.samples,
                           "exact": self.exact},
                "estimate": max((s for s in self.slopes.values()
                                 if s is not None), default=float("-inf")),
                "bound": QUADFORM_SLOPE_BOUND,
                "se": 0.0,
                "pass": self.passed,
                "slopes": {k: v for k, v in self.slopes.items()},
                "rows": [[r.matrix, r.n, r.variance, r.variance_se]
                         for r in self.rows]}

    def csv_rows(self) -> list[str]:
        return [f"{r.matrix},{r.n},{r.variance!r},{r.variance_se!r}"
                for r in self.rows]


def _quadform_values(law: VectorLaw, n: int, samples: int,
                     matrix: str, rng) -> np.ndarray:
    block = sample_vectors(law, n, samples, rng)
    sq = np.abs(block) ** 2
    if matrix == "identity":
        return sq.sum(axis=1)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return sq @ signs


def verify_quadratic_form(law: VectorLaw, dims, samples: int,
                          master_seed: int) -> QuadFormReport:
    """Decay of Var(A Y, Y) with dimension, for A = I and A = diag(+-1).

    Fits the least-squares slope of log variance against log n; the
    concentration criterion is slope <= -0.2. Rows whose variances sit
    below 1e-20 concentrate exactly and pass by convention.
    """
    if samples < 2:
        raise ValueError(f"a variance needs at least 2 samples, got {samples}")
    dims = [int(d) for d in dims]
    rows = []
    slopes: dict = {}
    exact: dict = {}
    passed = True
    for j, matrix in enumerate(QUADFORM_MATRICES):
        variances = []
        for i, n in enumerate(dims):
            rng = RngStream(master_seed, j * 1_000_000 + i).generator()
            vals = _quadform_values(law, n, samples, matrix, rng)
            variances.append(float(np.var(vals, ddof=1)))
            rows.append(QuadFormRow(matrix=matrix, n=n,
                                    variance=variances[-1],
                                    variance_se=_variance_se(vals)))
        variances = np.asarray(variances)
        if np.all(variances < EXACT_VARIANCE_FLOOR):
            slopes[matrix] = None
            exact[matrix] = True
            continue
        exact[matrix] = False
        slope = float(np.polyfit(np.log(dims), np.log(np.maximum(
            variances, EXACT_VARIANCE_FLOOR)), 1)[0])
        slopes[matrix] = slope
        if slope > QUADFORM_SLOPE_BOUND:
            passed = False
    return QuadFormReport(law=law.encode(), dims=dims, samples=samples,
                          rows=rows, slopes=slopes, exact=exact, passed=passed)


@dataclass
class TailRow:
    t: float
    empirical: float
    envelope: float
    binomial_se: float


@dataclass
class TailReport:
    law: str
    n: int
    samples: int
    scale: float
    rows: list
    passed: bool
    envelope_note: str = ("checked against the sharp envelope "
                          "exp(-t sqrt(n)); weaker forms of the same bound "
                          "divide the exponent by an absolute constant")

    def to_dict(self) -> dict:
        worst = max((r.empirical - r.envelope for r in self.rows), default=0.0)
        return {"kind": "tail",
                "params": {"law": self.law, "n": self.n,
                           "samples": self.samples, "scale": self.scale,
                           "envelope_note": self.envelope_note},
                "estimate": worst, "bound": 0.0,
                "se": max((r.binomial_se for r in self.rows), default=0.0),
                "pass": self.passed,
                "rows": [[r.t, r.empirical, r.envelope, r.binomial_se]
                         for r in self.rows]}

    def csv_rows(self) -> list[str]:
        return [f"{r.t!r},{r.empirical!r},{r.envelope!r},{r.binomial_se!r}"
                for r in self.rows]


def verify_norm_tail(law: VectorLaw, n: int, samples: int, master_seed: int,
                     t_values=(1.0, 1.5, 2.0)) -> TailReport:
    """Empirical P{|Y| >= C t} against exp(-t sqrt(n)), C = 2 median|Y|."""
    if samples < 1:
        raise ValueError(f"the tail check needs at least 1 sample, "
                         f"got {samples}")
    rng = RngStream(master_seed, 0).generator()
    norms = np.linalg.norm(sample_vectors(law, n, samples, rng), axis=1)
    scale = 2.0 * float(np.median(norms))
    rows = []
    passed = True
    for t in t_values:
        p_hat = float(np.mean(norms >= scale * t))
        envelope = math.exp(-t * math.sqrt(n))
        se = math.sqrt(p_hat * (1.0 - p_hat) / samples)
        ok = p_hat <= envelope + 3.0 * se
        passed = passed and ok
        rows.append(TailRow(t=float(t), empirical=p_hat, envelope=envelope,
                            binomial_se=se))
    return TailReport(law=law.encode(), n=n, samples=samples, scale=scale,
                      rows=rows, passed=passed)


@dataclass
class ConvergenceRow:
    n: int
    m: int
    seeds: int
    mean_ks: float
    std_ks: float


@dataclass
class ConvergenceReport:
    law: str
    c: float
    rows: list
    threshold: float
    monotone: bool
    passed: bool
    ks_values: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"kind": "convergence",
                "params": {"law": self.law, "c": self.c,
                           "threshold": self.threshold},
                "rows": [[r.n, r.m, r.seeds, r.mean_ks, r.std_ks]
                         for r in self.rows],
                "monotone": self.monotone,
                "pass": self.passed}

    def csv_rows(self) -> list[str]:
        out = ["n,m,seeds,mean_ks,std_ks"]
        out += [f"{r.n},{r.m},{r.seeds},{r.mean_ks!r},{r.std_ks!r}"
                for r in self.rows]
        return out

    def largest_n_mean(self) -> float:
        return self.rows[-1].mean_ks


def _snap_structural_zeros(values: np.ndarray) -> np.ndarray:
    """Collapse eigensolver roundoff around the structural zero eigenvalues."""
    scale = max(1.0, float(np.max(np.abs(values), initial=0.0)))
    out = values.copy()
    out[np.abs(out) <= 1e-10 * scale] = 0.0
    return out


def convergence_study(law: VectorLaw, model: ModelSpec, dims, seeds: int,
                      master_seed: int, grid,
                      opts: SolverOptions | None = None,
                      h0_factory=None) -> ConvergenceReport:
    """Mean KS distance to the solved limit along a dimension ladder.

    m = round(c * n) per dimension; seed index s runs the ensemble's
    trial s. With c = 0 the limit is the base measure itself and is used
    exactly (no smoothing), which keeps deterministic spectra at KS = 0.
    """
    opts = opts or SolverOptions()
    if model.c == 0.0:
        reference: SpectralMeasure = model.n0
    else:
        reference = limit_density(model, grid, opts)
    rows = []
    all_ks = []
    for n in [int(d) for d in dims]:
        m = int(round(model.c * n))
        h0 = h0_factory(n) if h0_factory is not None else H0Zero()
        config = EnsembleConfig(n=n, m=m, law=law, sigma=model.sigma,
                                h0=h0, seed=master_seed)
        ks_vals = np.empty(seeds)
        for s in range(seeds):
            spec = eigenvalues_sym(build_matrix(config, trial=s))
            snapped = EmpiricalSpectrum(_snap_structural_zeros(spec.eigenvalues))
            ks_vals[s] = ks_distance(snapped, reference)
        rows.append(ConvergenceRow(
            n=n, m=m, seeds=seeds, mean_ks=float(ks_vals.mean()),
            std_ks=float(ks_vals.std(ddof=1)) if seeds > 1 else 0.0))
        all_ks.append([float(v) for v in ks_vals])
    means = [r.mean_ks for r in rows]
    # exact ties at zero (deterministic spectra) count as converged
    monotone = all(b < a or a == b == 0.0 for a, b in zip(means, means[1:]))
    passed = monotone and means[-1] <= KS_LARGEST_N_THRESHOLD
    return ConvergenceReport(law=law.encode(), c=model.c, rows=rows,
                             threshold=KS_LARGEST_N_THRESHOLD,
                             monotone=monotone, passed=passed,
                             ks_values=all_ks)
