"""Self-consistent solver for the limiting spectral measure of

    H = H0 + sum_a tau_a * (Y_a x Y_a),    a = 1..m,  m/n -> c,

with isotropic vectors Y_a. The limit's Stieltjes transform f solves

    f(z) = f0(z + shift(f(z))),
    shift(f) = -c * sum_k tau_k w_k / (1 + tau_k f),

where f0 is the transform of the limiting spectrum of H0. The solver
runs continuation from high in the upper half-plane down to the target
smoothing height, a quarter of the height at a time, solving every grid
point at once at each height. Each stage after the first starts from a
predictor in eps (Allgower & Georg, Numerical Continuation Methods,
1990): the Euler step f + i*(eps_next - eps)*df/dz at the second stage,
and the cubic Hermite extrapolation through the last two stages at the
later ones, with df/dz taken from the derivatives each stage's last
evaluation already holds. Each update is a Newton step on
f - f0(z + shift(f)); where that step is not finite or leaves the
Stieltjes class (Im f * Im z >= 0), the point takes a damped Picard step
instead. Every stage but the last stops a point after one small Newton
step; only the last solves to the residual TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import Stage, base_nodes, picard_solve
from .errors import MassDeficit, NonConvergence, PoleHit, RealAxisEvaluation
from .measures import AmplitudeLaw, SpectralMeasure, stieltjes_of_measure

MASS_DEFICIT_FLOOR = 0.9
# ratio of successive continuation heights; the predictor keeps a stage
# this wide at the Newton steps a halving ladder needs without it
EPS_FACTOR = 0.25
# the residual |f - f0(z + shift(f))| at which a point stops at eps_final
TOL = 1e-10
# the updates each point may take at each continuation stage
MAX_ITER = 100_000


@dataclass(frozen=True)
class ModelSpec:
    """Limit model: aspect ratio c, amplitude law, and base spectrum n0."""

    c: float
    sigma: AmplitudeLaw
    n0: SpectralMeasure

    def __post_init__(self):
        if not 0.0 <= self.c < math.inf:
            raise ValueError(f"c must be finite and nonnegative, got {self.c}")
        if not abs(self.n0.total_mass - 1.0) <= 1e-6:
            raise ValueError("n0 must be a probability measure")


@dataclass(frozen=True)
class SolverOptions:
    """Solver controls: eps_final, the smoothing height of the returned
    transform. The last stage's residual (TOL), the update budget
    (MAX_ITER) and `_kernels.PREDICTOR_STEP` are module constants.

    The continuation ladder starts at 1 + 2*max|tau|^2, high enough that
    the fixed-point map is a strong contraction at the first stage
    regardless of the amplitude law, and multiplies eps by EPS_FACTOR
    (a quarter) at each stage down to eps_final.
    """

    eps_final: float = 1e-4

    def __post_init__(self):
        # written so that NaN fails the comparison
        if not 0.0 < self.eps_final < math.inf:
            raise ValueError(f"eps_final must be finite and positive, "
                             f"got {self.eps_final}")

    def eps_schedule(self, sigma: AmplitudeLaw) -> list[float]:
        """Heights from the ladder's start down to eps_final, which is the
        only stage when it lies above the start."""
        tau = sigma.max_abs_tau
        try:
            start = 1.0 + 2.0 * tau ** 2
            if math.isinf(start):
                raise OverflowError
        except OverflowError:
            raise ValueError(f"--sigma amplitude {tau!r} is too large: the "
                             f"start height 1 + 2 max|tau|^2 overflows") from None
        eps = max(start, self.eps_final)
        out = [eps]
        while eps > self.eps_final:
            eps = max(eps * EPS_FACTOR, self.eps_final)
            out.append(eps)
        return out


class SolveReport(NamedTuple):
    """What a grid solve did: the eps ladder, the point updates of each
    stage, the damped Picard fallbacks over all stages, and the largest
    |f - f0(z + shift(f))| of the returned values."""

    stages: list[float]
    updates_per_stage: list[int]
    fallbacks: int
    max_residual: float


class Solve(NamedTuple):
    """f(lambda + i*eps_final), its df/dz and the update totals, each
    shaped like the grid, and the SolveReport of a grid solve."""

    f: np.ndarray
    dfdz: np.ndarray
    iterations: np.ndarray
    report: SolveReport


def _solve_stage(z: np.ndarray, f: np.ndarray, c: float, sigma: AmplitudeLaw,
                 nodes: tuple, tol: float | None) -> Stage:
    """One continuation stage at every point of `z`, stopping each at
    residual `tol` (None: one small step); raises at the first failure."""
    stage = picard_solve(z, f, tol, MAX_ITER, sigma.tau_values,
                         sigma.weights, float(c), *nodes)
    status = stage.status
    failed = np.flatnonzero(status)
    if failed.size:
        k = failed[0]
        zk = complex(z[k])
        if status[k] == 1:
            raise NonConvergence(
                f"no fixed point within {MAX_ITER} updates at "
                f"lambda={zk.real:.6g}, eps={zk.imag:.6g}",
                lam=zk.real, eps=zk.imag)
        raise PoleHit(f"1 + tau*f vanished during iteration at z={zk:.6g}")
    return stage


def solve_mpe_at(z: complex, model: ModelSpec) -> complex:
    """Solve the fixed-point equation at one off-axis point, from f0(z).

    Parameters
    ----------
    z : complex with Im z != 0
    model : ModelSpec

    Returns
    -------
    complex
        f with |f - f0(z + shift(f))| <= TOL, Im f * Im z >= 0.

    Raises
    ------
    NonConvergence, PoleHit, RealAxisEvaluation
    """
    z = complex(z)
    if z.imag == 0.0:
        raise RealAxisEvaluation("solver requires Im z != 0")
    if z.imag < 0.0:
        # f(conj z) = conj f(z); the kernel solves the upper half-plane
        return solve_mpe_at(z.conjugate(), model).conjugate()
    n0 = model.n0
    f0 = stieltjes_of_measure(n0, z)
    stage = _solve_stage(np.array([z]), np.array([f0]), model.c, model.sigma,
                         base_nodes(n0.atom_locations, n0.atom_masses,
                                    n0.grid, n0.values), TOL)
    return complex(stage.f[0])


def _hermite(eps: float, e0: float, f0, d0, e1: float, f1, d1):
    """The cubic in eps through f0 at e0 and f1 at e1 with slopes d0 and
    d1 there, evaluated at eps."""
    h = e1 - e0
    t = (eps - e0) / h
    return (((2.0 * t - 3.0) * t * t + 1.0) * f0 + (t - 1.0) ** 2 * t * h * d0
            + (3.0 - 2.0 * t) * t * t * f1 + (t - 1.0) * t * t * h * d1)


def solve_mpe_grid(lambdas, model: ModelSpec,
                   opts: SolverOptions | None = None) -> Solve:
    """Solve along a real grid with smoothing-height continuation.

    Every grid point starts from f0 at the first height of
    `opts.eps_schedule` and is solved at lambda + i*eps down that ladder
    to eps_final, one array solve per stage. Along the ladder
    df/deps = i*df/dz, which each stage returns. The second stage starts
    from the previous stage's f moved along that tangent; each later one
    from the cubic Hermite extrapolation through the last two stages' f
    and df/deps. Where the start is not finite, the stage starts from
    the previous stage's f. Every stage but the last stops each point
    after its first Newton step of at most 0.3*max(1, |f|), keeping the
    stepped f; the last stops it at residual TOL.
    """
    opts = opts or SolverOptions()
    lambdas = np.asarray(lambdas, dtype=float)
    schedule = opts.eps_schedule(model.sigma)
    n0 = model.n0
    nodes = base_nodes(n0.atom_locations, n0.atom_masses, n0.grid, n0.values)
    lam = lambdas.ravel()
    f = stieltjes_of_measure(n0, lam + 1j * schedule[0])
    iterations = np.zeros(lam.size, dtype=np.int64)
    updates, fallbacks = [], 0
    prev = stage = None
    for k, eps in enumerate(schedule):
        if k == 1:
            guess = f + 1j * (eps - schedule[0]) * stage.dfdz
        elif k:
            guess = _hermite(eps, schedule[k - 2], prev.f, 1j * prev.dfdz,
                             schedule[k - 1], f, 1j * stage.dfdz)
        if k:
            f = np.where(np.isfinite(guess), guess, f)
        prev, stage = stage, _solve_stage(
            lam + 1j * eps, f, model.c, model.sigma, nodes,
            TOL if k == len(schedule) - 1 else None)
        f = stage.f
        iterations += stage.iters
        updates.append(stage.updates)
        fallbacks += stage.fallbacks
    max_residual = float(stage.residual.max()) if lam.size else 0.0
    return Solve(*(a.reshape(lambdas.shape) for a in (f, stage.dfdz, iterations)),
                 SolveReport(schedule, updates, fallbacks, max_residual))


def limit_density(model: ModelSpec, grid, f_vals,
                  require_mass: bool = True) -> SpectralMeasure:
    """The limiting spectral measure on a grid, from its solved transform.

    `f_vals` is the transform f(lambda + i*eps) on `grid`, as
    `solve_mpe_grid(grid, model, opts).f` holds it; the density is
    Im f/pi. When n0 is a unit atom at zero, the rank-one sum leaves a
    kernel of relative dimension 1 - c_eff where c_eff = c * (weight of
    nonzero amplitudes); that point mass is added exactly whenever
    c_eff < 1.

    Raises MassDeficit when the recovered total mass falls below 0.9;
    pass require_mass=False for deliberately windowed grids.
    """
    grid = np.asarray(grid, dtype=float)
    f_vals = np.asarray(f_vals, dtype=complex)
    if f_vals.shape != grid.shape:
        raise ValueError(f"f_vals has shape {f_vals.shape}, grid has "
                         f"shape {grid.shape}")
    density = np.maximum(f_vals.imag / math.pi, 0.0)
    atoms = []
    sigma = model.sigma
    # projections with a zero amplitude contribute nothing, so they only
    # dilute the rank fraction
    zero_weight = sum(w for t, w in zip(sigma.tau_values, sigma.weights)
                      if t == 0.0)
    c_eff = model.c * (1.0 - zero_weight)
    if model.n0.is_point_mass_at(0.0) and c_eff < 1.0:
        atoms.append((0.0, 1.0 - c_eff))
    atom_mass = sum(m for _, m in atoms)
    total = atom_mass + float(np.trapezoid(density, grid)) if grid.size > 1 else atom_mass
    if require_mass and total < MASS_DEFICIT_FLOOR:
        raise MassDeficit(f"recovered mass {total:.4f} below {MASS_DEFICIT_FLOOR}")
    return SpectralMeasure(atoms=atoms, grid=grid, values=density)


def mp_closed_form(c: float, lam):
    """Closed-form Marchenko-Pastur density for sigma = delta_1, H0 = 0.

    rho(l) = sqrt((a+ - l)(l - a-)) / (2 pi l) on [a-, a+] with
    a+- = (1 +- sqrt(c))^2, zero outside, and +inf exactly at l = 0 when
    c = 1 (inverse-square-root edge). The continuous part carries mass
    min(c, 1); for c < 1 the full limit adds the atom (0, 1 - c).
    """
    if c < 0:
        raise ValueError("c must be nonnegative")
    lam_arr = np.asarray(lam, dtype=float)
    scalar = lam_arr.ndim == 0
    x = np.atleast_1d(lam_arr).astype(float)
    a_minus = (1.0 - math.sqrt(c)) ** 2
    a_plus = (1.0 + math.sqrt(c)) ** 2
    out = np.zeros_like(x)
    inside = (x > a_minus) & (x < a_plus) & (x != 0.0)
    xi = x[inside]
    out[inside] = np.sqrt((a_plus - xi) * (xi - a_minus)) / (2.0 * math.pi * xi)
    if c == 1.0:
        out[x == 0.0] = np.inf
    return float(out[0]) if scalar else out.reshape(lam_arr.shape)


def mp_stieltjes_oracle(z: complex, c: float) -> complex:
    """Exact transform for sigma = delta_1, n0 = delta_0.

    Root of z f^2 + (z - c + 1) f + 1 = 0 on the branch
    Im f * Im z > 0, evaluated with the cancellation-safe quadratic
    formula.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise RealAxisEvaluation("oracle requires Im z != 0")
    b = z - c + 1.0
    disc = np.sqrt(b * b - 4.0 * z)
    # pick the sign that avoids cancellation in b + sign*disc
    sign = 1.0 if (b.conjugate() * disc).real >= 0.0 else -1.0
    q = -0.5 * (b + sign * disc)
    roots = (q / z, 1.0 / q)
    s = 1.0 if z.imag > 0 else -1.0
    return complex(max(roots, key=lambda r: r.imag * s))


def mp_limit_measure(c: float, grid) -> SpectralMeasure:
    """Reference limit measure for sigma = delta_1, H0 = 0 on a grid."""
    grid = np.asarray(grid, dtype=float)
    values = mp_closed_form(c, grid)
    atoms = [(0.0, 1.0 - c)] if c < 1.0 else []
    return SpectralMeasure(atoms=atoms, grid=grid, values=values)
