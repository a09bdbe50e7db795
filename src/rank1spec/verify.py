"""Monte Carlo checks: the seven `verify` checks (counting and trace
variances, Gram duality, quadratic forms, norm tails, isotropy, and the
convergence study of empirical spectra to the solved limit) each return
a `Report`, whose `to_dict()` is report.json.

All checks are deterministic given (master seed, trial count): trials are
keyed by index and aggregated in index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import (EnsembleConfig, H0Zero, build_matrices, build_matrix,
                       counting_fractions, eigenvalues_sym,
                       gram_counting_relation, resolvent_traces)
from .errors import RealAxisEvaluation
from .measures import EmpiricalSpectrum, ks_distance
from .samplers import RngStream, VectorLaw, as_generator, sample_vectors
from .solver import ModelSpec, SolverOptions, limit_density, solve_mpe_grid

# Ceiling for the mean KS at the largest study dimension. At c = 0.5 and
# n = 1024 the mean over 5 seeds is 0.0027-0.0029 for sphere, gauss, lp:1
# and cube (`rank1spec verify convergence --c 0.5 --grid 0.02:3.2:3000
# --eps-final 1e-5 --dims 1024 --seeds 5 --law LAW`).
KS_LARGEST_N_THRESHOLD = 0.05

# Sample variances below this are treated as exact concentration (the
# quadratic form is constant, e.g. |Y|^2 on the sphere) when fitting
# log-log decay slopes.
EXACT_VARIANCE_FLOOR = 1e-20

QUADFORM_SLOPE_BOUND = -0.2

# A = I and A = diag(+-1)
QUADFORM_MATRICES = ("identity", "alternating")

# With H0 = 0 and unit amplitudes the Gram side and the full matrix share
# their nonzero spectrum exactly, so the counting discrepancy is roundoff.
GRAM_TOL = 1e-8

# a covariance entry may deviate by this many of its standard errors
ISOTROPY_RATIO_BOUND = 5.0

# vectors drawn per block by quadform, tail and isotropy, bounding their
# memory
VECTOR_BATCH = 20_000


@dataclass
class Report:
    """One check's verdict: report.json's six head keys, then `detail`,
    the keys only that check writes."""

    kind: str
    params: dict
    estimate: float | None
    bound: float
    se: float
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params,
                "estimate": self.estimate, "bound": self.bound,
                "se": self.se, "pass": self.passed, **self.detail}


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


def verify_counting_variance(config: EnsembleConfig, interval, trials: int) -> Report:
    """Var of the counting measure on (a, b] against the 4m/n^2 bound.

    Each trial's count comes from `ensemble.counting_fractions`: an
    inertia count on the m x m side, the Gram side for H0 = 0 and one
    amplitude sign, or a dense eigensolve when a or b is an eigenvalue
    of H0.
    """
    _require_trials(trials)
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"the interval (a, b] needs a < b, both finite, "
                         f"got {a!r},{b!r}")
    counts = counting_fractions(config, (a, b), range(trials))
    estimate = float(np.var(counts, ddof=1))
    bound = 4.0 * config.m / config.n ** 2
    se = _variance_se(counts)
    return Report(
        kind="counting-var",
        params={"n": config.n, "m": config.m, "law": config.law.encode(),
                "interval": [a, b], "seed": config.seed, "trials": trials},
        estimate=estimate, bound=bound, se=se,
        passed=estimate <= bound + 3.0 * se)


def verify_stieltjes_variance(config: EnsembleConfig, z: complex, trials: int) -> Report:
    """Var of g(z) = Tr(H - z)^(-1)/n against 4m/(n^2 |Im z|^2).

    Each trial's g(z) is evaluated on the m x m Woodbury side
    (`ensemble.resolvent_traces`), without an n x n eigensolve. Before
    any draw, a real or non-finite z raises RealAxisEvaluation, and an
    Im z so small that the bound is not finite raises ValueError.
    """
    _require_trials(trials)
    z = complex(z)
    try:
        height = config.n ** 2 * z.imag ** 2
    except OverflowError:  # Im z^2 beyond the float range: the bound is 0
        height = math.inf
    bound = 4.0 * config.m / height if height else math.inf
    if not (np.isfinite(z) and z.imag != 0.0):
        raise RealAxisEvaluation(f"--z {z.real!r},{z.imag!r}: z must be "
                                 f"finite with Im z != 0")
    if not math.isfinite(bound):
        raise ValueError(f"--z {z.real!r},{z.imag!r}: Im z is too small for "
                         f"a finite bound 4m/(n^2 Im z^2)")
    gs = resolvent_traces(config, z, range(trials))
    centered = gs - gs.mean()
    sq = np.abs(centered) ** 2
    estimate = float(sq.sum() / (trials - 1))
    se = float(np.std(sq, ddof=1) / math.sqrt(trials))
    return Report(
        kind="stieltjes-var",
        params={"n": config.n, "m": config.m, "law": config.law.encode(),
                "z": [z.real, z.imag], "seed": config.seed, "trials": trials},
        estimate=estimate, bound=bound, se=se,
        passed=estimate <= bound + 3.0 * se)


def verify_gram_duality(config: EnsembleConfig) -> Report:
    """Counting discrepancy between the m x m Gram side and the full matrix.

    Trial 0's nonzero spectrum must agree on both sides to GRAM_TOL. The
    duality holds for H0 = 0 and unit amplitudes; under any other base or
    amplitude law the check fails. An m outside [1, n] raises ValueError
    before any draw.
    """
    if not 1 <= config.m <= config.n:
        raise ValueError(f"--m must be at least 1 and at most --n, got "
                         f"--m {config.m} with --n {config.n}")
    matrix = build_matrix(config, trial=0)
    # the dense solve keeps the Gram side an independent check
    full = eigenvalues_sym(matrix.array)
    gram = matrix.vectors.conj().T @ matrix.vectors
    gram = eigenvalues_sym(0.5 * (gram + gram.conj().T))
    discrepancy = gram_counting_relation(gram, full, config.n, config.m)
    return Report(
        kind="gram",
        params={"n": config.n, "m": config.m, "law": config.law.encode(),
                "seed": config.seed},
        estimate=discrepancy, bound=GRAM_TOL, se=0.0,
        passed=discrepancy <= GRAM_TOL)


def _vector_blocks(law: VectorLaw, n: int, samples: int,
                   gen: np.random.Generator):
    """`samples` vectors of `law` drawn from `gen`, as `sample_vectors`
    blocks of at most VECTOR_BATCH rows."""
    for start in range(0, samples, VECTOR_BATCH):
        yield sample_vectors(law, n, min(VECTOR_BATCH, samples - start), gen)


def verify_quadratic_form(law: VectorLaw, dims, samples: int,
                          master_seed: int) -> Report:
    """Decay of Var(A Y, Y) with dimension, for A = I and A = diag(+-1).

    Fits the least-squares slope of log variance against log n; the
    concentration criterion is slope <= -0.2, and the estimate is the
    largest slope. A matrix whose variances all sit below 1e-20
    concentrates exactly: its slope is None and it passes by convention;
    when both do, the estimate is None too. Each row is [matrix, n,
    variance, variance_se], the identity rows first.

    The vectors of the i-th dimension are drawn once, from stream
    (master_seed, i), in blocks of at most VECTOR_BATCH; both matrices
    read the same draws.
    """
    if samples < 2:
        raise ValueError(f"a variance needs at least 2 samples, got {samples}")
    dims = [int(d) for d in dims]
    if len(set(dims)) < 2:
        raise ValueError(f"a decay slope needs at least 2 distinct "
                         f"dimensions, got {dims}")
    values = np.empty((len(QUADFORM_MATRICES), len(dims), samples))
    for i, n in enumerate(dims):
        stop = 0
        gen = RngStream(master_seed, i).generator()
        for block in _vector_blocks(law, n, samples, gen):
            start, stop = stop, stop + len(block)
            sq = np.abs(block) ** 2
            values[0, i, start:stop] = sq.sum(axis=1)
            sq[:, 1::2] *= -1.0  # A = diag(+-1) on the same draws
            values[1, i, start:stop] = sq.sum(axis=1)
    rows = []
    slopes: dict = {}
    exact: dict = {}
    for matrix, matrix_values in zip(QUADFORM_MATRICES, values):
        variances = []
        for n, vals in zip(dims, matrix_values):
            variances.append(float(np.var(vals, ddof=1)))
            rows.append([matrix, n, variances[-1], _variance_se(vals)])
        exact[matrix] = bool(np.all(np.less(variances, EXACT_VARIANCE_FLOOR)))
        slopes[matrix] = None if exact[matrix] else float(np.polyfit(
            np.log(dims), np.log(np.maximum(variances, EXACT_VARIANCE_FLOOR)),
            1)[0])
    estimate = max((s for s in slopes.values() if s is not None),
                   default=None)
    return Report(
        kind="quadform",
        params={"law": law.encode(), "dims": dims, "samples": samples,
                "exact": exact},
        estimate=estimate, bound=QUADFORM_SLOPE_BOUND, se=0.0,
        passed=estimate is None or estimate <= QUADFORM_SLOPE_BOUND,
        detail={"slopes": slopes, "rows": rows})


def verify_norm_tail(law: VectorLaw, n: int, samples: int, master_seed: int,
                     t_values=(1.0, 1.5, 2.0)) -> Report:
    """Empirical P{|Y| >= C t} against exp(-t sqrt(n)), C = 2 median|Y|.

    Rows are [t, empirical, envelope, binomial_se]; the estimate is the
    largest excess of an empirical tail over its envelope. No t at all,
    or a t that is not finite or not positive, raises ValueError before
    any draw: the check would pass whatever the law, with no rows or at
    t <= 0, where the envelope is at least 1.
    """
    if samples < 1:
        raise ValueError(f"the tail check needs at least 1 sample, "
                         f"got {samples}")
    if len(t_values) == 0:
        raise ValueError("the tail check needs at least 1 t value")
    for t in t_values:
        if not math.isfinite(t):
            raise ValueError(f"--t-values must be finite, got {t!r}")
        if t <= 0.0:
            raise ValueError(f"--t-values must be positive, got {t!r}")
    gen = RngStream(master_seed, 0).generator()
    norms = np.concatenate([np.linalg.norm(block, axis=1) for block in
                            _vector_blocks(law, n, samples, gen)])
    scale = 2.0 * float(np.median(norms))
    rows = []
    for t in t_values:
        p_hat = float(np.mean(norms >= scale * t))
        se = math.sqrt(p_hat * (1.0 - p_hat) / samples)
        rows.append([float(t), p_hat, math.exp(-t * math.sqrt(n)), se])
    return Report(
        kind="tail",
        params={"law": law.encode(), "n": n, "samples": samples,
                "scale": scale, "envelope_note": (
                    "checked against the sharp envelope exp(-t sqrt(n)); "
                    "weaker forms of the same bound divide the exponent by "
                    "an absolute constant")},
        estimate=max(p - env for _, p, env, _ in rows),
        bound=0.0, se=max(row[3] for row in rows),
        passed=all(p <= env + 3.0 * se for _, p, env, se in rows),
        detail={"rows": rows})


def isotropy_estimate(law, n: int, samples: int,
                      rng: RngStream | np.random.Generator) -> Report:
    """Monte Carlo isotropy check against the target covariance I/d.

    Complex laws are unpacked to R^{2n} (real parts then imaginary
    parts), whose target covariance is I/(2n) with zero cross terms.
    Each covariance entry is compared against its own estimated standard
    error; the criterion is max |dev|/SE <= 5 together with
    |sample mean| <= 5 * sqrt(trace(cov)/samples). The estimate is that
    largest ratio; `max_cov_deviation` gives the deviation itself. A
    deviation whose standard error is zero makes the ratio infinite,
    which fails the check and is reported as None.

    A single sample has no spread to test against, so at least two are
    needed.
    """
    if samples < 2:
        raise ValueError(f"isotropy needs at least 2 samples, got {samples}")
    s1 = s2 = s4 = None
    for block in _vector_blocks(law, n, samples, as_generator(rng)):
        if np.iscomplexobj(block):
            block = np.concatenate([block.real, block.imag], axis=1)
        if s1 is None:
            d = block.shape[1]
            s1 = np.zeros(d)
            s2 = np.zeros((d, d))
            s4 = np.zeros((d, d))
        s1 += block.sum(axis=0)
        s2 += block.T @ block
        sq = block * block
        s4 += sq.T @ sq
    mean = s1 / samples
    second = s2 / samples
    cov = second - np.outer(mean, mean)
    dev = cov - np.eye(d) / d
    var_entry = np.maximum(s4 / samples - second ** 2, 0.0)
    se = np.sqrt(var_entry / samples)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(se > 0, np.abs(dev) / se,
                         np.where(np.abs(dev) > 0, np.inf, 0.0))
    mean_norm = float(np.linalg.norm(mean))
    mean_thr = 5.0 * math.sqrt(max(np.trace(cov), 0.0) / samples)
    max_ratio = float(np.max(ratio))
    passed = mean_norm <= mean_thr and max_ratio <= ISOTROPY_RATIO_BOUND
    if math.isinf(max_ratio):
        max_ratio = None
    return Report(
        kind="isotropy", params={"law": law.encode(), "n": n, "samples": samples},
        estimate=max_ratio, bound=ISOTROPY_RATIO_BOUND, se=0.0,
        passed=passed,
        detail={"mean_norm": mean_norm,
                "max_cov_deviation": float(np.max(np.abs(dev))),
                "max_ratio": max_ratio})


def _snap_structural_zeros(values: np.ndarray) -> np.ndarray:
    """Collapse eigensolver roundoff around the structural zero eigenvalues."""
    scale = max(1.0, float(np.max(np.abs(values), initial=0.0)))
    out = values.copy()
    out[np.abs(out) <= 1e-10 * scale] = 0.0
    return out


def convergence_study(law: VectorLaw, model: ModelSpec, dims, seeds: int,
                      master_seed: int, grid,
                      opts: SolverOptions | None = None,
                      h0_factory=None) -> Report:
    """Mean KS distance to the solved limit along a dimension ladder.

    m = round(c * n) per dimension; seed index s runs the ensemble's
    trial s. The ensembles use H0 = h0_factory(n); without a factory they
    use H0 = 0, whose limit needs model.n0 to be the unit atom at zero,
    and any other n0 raises ValueError, as does an empty `dims`, both
    before the solve. With c = 0 the limit is the base measure itself
    and is used exactly (no smoothing), which keeps deterministic
    spectra at KS = 0.

    Each row of `detail["rows"]` is [n, m, seeds, mean_ks, std_ks]. The
    estimate is the mean KS at the largest n and `se` its standard error;
    the study passes when the means fall strictly along the ladder
    (`detail["monotone"]`) and the estimate is at most
    KS_LARGEST_N_THRESHOLD.
    """
    if seeds < 1:
        raise ValueError(f"a convergence study needs at least 1 seed, "
                         f"got {seeds}")
    dims = [int(d) for d in dims]
    if not dims:
        raise ValueError("a convergence study needs at least 1 dimension")
    if h0_factory is None and not model.n0.is_point_mass_at(0.0):
        raise ValueError("without an h0_factory the ensembles have H0 = 0, "
                         "so n0 must be the unit atom at zero")
    reference = (model.n0 if model.c == 0.0 else
                 limit_density(model, grid, solve_mpe_grid(grid, model, opts).f))
    rows = []
    for n in dims:
        m = int(round(model.c * n))
        h0 = h0_factory(n) if h0_factory is not None else H0Zero()
        config = EnsembleConfig(n=n, m=m, law=law, sigma=model.sigma,
                                h0=h0, seed=master_seed)
        ks_vals = np.empty(seeds)
        for s, matrix in enumerate(build_matrices(config, range(seeds))):
            spec = eigenvalues_sym(matrix)
            snapped = EmpiricalSpectrum(_snap_structural_zeros(spec.eigenvalues))
            ks_vals[s] = ks_distance(snapped, reference)
        rows.append([n, m, seeds, float(ks_vals.mean()),
                     float(ks_vals.std(ddof=1)) if seeds > 1 else 0.0])
    means = [row[3] for row in rows]
    # exact ties at zero (deterministic spectra) count as converged
    monotone = all(b < a or a == b == 0.0 for a, b in zip(means, means[1:]))
    mean_ks, std_ks = rows[-1][3:]
    return Report(
        kind="convergence", params={"law": law.encode(), "c": model.c},
        estimate=mean_ks, bound=KS_LARGEST_N_THRESHOLD,
        se=float(std_ks / np.sqrt(seeds)),
        passed=monotone and mean_ks <= KS_LARGEST_N_THRESHOLD,
        detail={"rows": rows, "monotone": monotone})
