"""Self-consistent solver for the limiting spectral measure of

    H = H0 + sum_a tau_a * (Y_a x Y_a),    a = 1..m,  m/n -> c,

with isotropic vectors Y_a. The limit's Stieltjes transform f solves

    f(z) = f0(z + shift(f(z))),
    shift(f) = -c * sum_k tau_k w_k / (1 + tau_k f),

where f0 is the transform of the limiting spectrum of H0. The solver
runs continuation from high in the upper half-plane down to the target
smoothing height, solving every grid point at once at each height. Each
update is a Newton step on f - f0(z + shift(f)); where that step is not
finite or leaves the Stieltjes class (Im f * Im z >= 0), the point takes
a damped Picard step instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import base_nodes, picard_solve
from .errors import MassDeficit, NonConvergence, PoleHit, RealAxisEvaluation
from .measures import AmplitudeLaw, SpectralMeasure, stieltjes_of_measure

LIMIT_PROBABILITY_TOL = 5e-3
MASS_DEFICIT_FLOOR = 0.9


@dataclass(frozen=True)
class ModelSpec:
    """Limit model: aspect ratio c, amplitude law, and base spectrum n0."""

    c: float
    sigma: AmplitudeLaw
    n0: SpectralMeasure

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("c must be nonnegative")
        if abs(self.n0.total_mass - 1.0) > 1e-6:
            raise ValueError("n0 must be a probability measure")


@dataclass(frozen=True)
class SolverOptions:
    """Solver controls.

    max_iter bounds the updates of each point at each continuation stage.
    damping is the weight of the damped Picard step a point takes when
    its Newton step is not finite or leaves the Stieltjes class.
    eps_start = None resolves to 1 + 2*max|tau|^2, high enough that the
    fixed-point map is a strong contraction at the first continuation
    stage regardless of the amplitude law.
    """

    damping: float = 0.5
    tol: float = 1e-10
    max_iter: int = 100_000
    eps_start: float | None = None
    eps_factor: float = 0.5
    eps_final: float = 1e-4
    tau_truncation: float | None = None

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (0.0 < self.eps_factor < 1.0):
            raise ValueError("eps_factor must lie in (0, 1)")
        if self.eps_final <= 0:
            raise ValueError("eps_final must be positive")
        if self.eps_start is not None and self.eps_start < self.eps_final:
            raise ValueError("eps_start must be >= eps_final")

    def resolved_eps_start(self, sigma: AmplitudeLaw) -> float:
        if self.eps_start is not None:
            return self.eps_start
        return 1.0 + 2.0 * sigma.max_abs_tau ** 2

    def eps_schedule(self, sigma: AmplitudeLaw) -> list[float]:
        eps = self.resolved_eps_start(sigma)
        out = [eps]
        while eps > self.eps_final:
            eps = max(eps * self.eps_factor, self.eps_final)
            out.append(eps)
        return out


def _effective_sigma(model: ModelSpec, opts: SolverOptions) -> AmplitudeLaw:
    if opts.tau_truncation is None:
        return model.sigma
    return model.sigma.truncate(opts.tau_truncation)


def _solve_stage(z: np.ndarray, f: np.ndarray, c: float, sigma: AmplitudeLaw,
                 nodes: tuple, opts: SolverOptions):
    """One continuation stage at every point of `z`; raises at the first
    point that fails."""
    f, _, iters, status = picard_solve(
        z, f, opts.damping, opts.tol, int(opts.max_iter),
        sigma.tau_values, sigma.weights, float(c), *nodes)
    failed = np.flatnonzero(status)
    if failed.size:
        k = failed[0]
        zk = complex(z[k])
        if status[k] == 1:
            raise NonConvergence(
                f"no fixed point within {opts.max_iter} updates at "
                f"lambda={zk.real:.6g}, eps={zk.imag:.6g}",
                lam=zk.real, eps=zk.imag)
        raise PoleHit(f"1 + tau*f vanished during iteration at z={zk:.6g}")
    return f, iters


def _nodes(n0: SpectralMeasure) -> tuple:
    return base_nodes(n0.atom_locations, n0.atom_masses, n0.grid, n0.values)


def solve_mpe_at(z: complex, model: ModelSpec,
                 opts: SolverOptions | None = None) -> complex:
    """Solve the fixed-point equation at one off-axis point, from f0(z).

    Parameters
    ----------
    z : complex with Im z != 0
    model : ModelSpec
    opts : SolverOptions, optional

    Returns
    -------
    complex
        f with |f - f0(z + shift(f))| <= opts.tol, Im f * Im z >= 0.

    Raises
    ------
    NonConvergence, PoleHit, RealAxisEvaluation
    """
    opts = opts or SolverOptions()
    z = complex(z)
    if z.imag == 0.0:
        raise RealAxisEvaluation("solver requires Im z != 0")
    sigma = _effective_sigma(model, opts)
    f0 = stieltjes_of_measure(model.n0, z)
    f, _ = _solve_stage(np.array([z]), np.array([f0]), model.c, sigma,
                        _nodes(model.n0), opts)
    return complex(f[0])


def solve_mpe_grid(lambdas, model: ModelSpec,
                   opts: SolverOptions | None = None,
                   return_iterations: bool = False):
    """Solve along a real grid with smoothing-height continuation.

    Every grid point starts from f0(lambda + i*eps_start) and is solved
    at lambda + i*eps down a geometric eps ladder (eps_start ->
    eps_final), one array solve per stage, each stage starting from the
    previous one's values.

    Returns the complex f(lambda + i*eps_final) array, plus the per-point
    update totals over all stages when `return_iterations` is set.
    """
    opts = opts or SolverOptions()
    lambdas = np.asarray(lambdas, dtype=float)
    sigma = _effective_sigma(model, opts)
    schedule = opts.eps_schedule(sigma)
    nodes = _nodes(model.n0)
    lam = lambdas.ravel()
    f = stieltjes_of_measure(model.n0, lam + 1j * schedule[0])
    iterations = np.zeros(lam.size, dtype=np.int64)
    for eps in schedule:
        f, iters = _solve_stage(lam + 1j * eps, f, model.c, sigma, nodes, opts)
        iterations += iters
    out = f.reshape(lambdas.shape)
    iterations = iterations.reshape(lambdas.shape)
    if return_iterations:
        return out, iterations
    return out


def limit_density(model: ModelSpec, grid,
                  opts: SolverOptions | None = None,
                  require_mass: bool = True,
                  f_vals=None) -> SpectralMeasure:
    """Recover the limiting spectral measure on a grid.

    The density is Im f(lambda + i*eps_final)/pi. Pass `f_vals`, the
    output of `solve_mpe_grid(grid, model, opts)`, to reuse a grid solve
    already done; otherwise the grid is solved here. When n0 is a unit atom
    at zero, the rank-one sum leaves a kernel of relative dimension
    1 - c_eff where c_eff = c * (weight of nonzero amplitudes); that
    point mass is added exactly whenever c_eff < 1. The result is
    flagged as a probability measure iff its total mass lies within
    5e-3 of 1.

    Raises MassDeficit when the recovered total mass falls below 0.9;
    pass require_mass=False for deliberately windowed grids.
    """
    opts = opts or SolverOptions()
    grid = np.asarray(grid, dtype=float)
    if f_vals is None:
        f_vals = solve_mpe_grid(grid, model, opts)
    else:
        f_vals = np.asarray(f_vals, dtype=complex)
        if f_vals.shape != grid.shape:
            raise ValueError(f"f_vals has shape {f_vals.shape}, grid has "
                             f"shape {grid.shape}")
    density = np.maximum(f_vals.imag / math.pi, 0.0)
    atoms = []
    sigma = _effective_sigma(model, opts)
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
    probability = abs(total - 1.0) <= LIMIT_PROBABILITY_TOL
    return SpectralMeasure(atoms=atoms, grid=grid, values=density,
                           probability=probability,
                           prob_tol=LIMIT_PROBABILITY_TOL,
                           validate_mass=False)


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


def normalization_check(f_eval: Callable[[complex], complex], y: float) -> float:
    """Total-mass probe y * |f(iy)| high up the imaginary axis."""
    if y < 1e3:
        raise ValueError("normalization check requires y >= 1e3")
    return float(y * abs(f_eval(complex(0.0, y))))


def mp_limit_measure(c: float, grid) -> SpectralMeasure:
    """Reference limit measure for sigma = delta_1, H0 = 0 on a grid."""
    grid = np.asarray(grid, dtype=float)
    values = mp_closed_form(c, grid)
    atoms = [(0.0, 1.0 - c)] if c < 1.0 else []
    return SpectralMeasure(atoms=atoms, grid=grid, values=values,
                           validate_mass=False)
