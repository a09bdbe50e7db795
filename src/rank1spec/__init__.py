"""Spectral limits of rank-one additive perturbation ensembles.

Solves the self-consistent equation for the limiting spectral measure of
a base matrix plus a sum of weighted rank-one projections onto isotropic
random directions, and simulates the finite ensembles to verify
convergence and concentration.
"""

from .ensemble import (EnsembleConfig, H0Diagonal, H0File, H0Zero,
                       assemble_matrix, build_matrix, counting_measure,
                       eigenvalues_sym, gram_counting_relation, parse_h0,
                       read_spectrum_csv, resolve_h0, write_spectrum_csv)
from .errors import (EigensolveFailed, EmptySpectrum, H0Mismatch,
                     InvalidDimension, InvalidP, MassDeficit, NonConvergence,
                     PoleHit, Rank1SpecError, RealAxisEvaluation,
                     ShapeMismatch, UnsupportedOrder)
from .measures import (AmplitudeLaw, EmpiricalSpectrum, SpectralMeasure, cdf,
                       cdf_left, ks_distance, moment, save_measure_json,
                       stieltjes_of_measure, write_density_csv)
from .samplers import (RngStream, VectorLaw, lp_ball_points, lp_scale,
                       sample_tau, sample_vectors)
from .solver import (ModelSpec, SolverOptions, limit_density, mp_closed_form,
                     mp_limit_measure, mp_stieltjes_oracle, solve_mpe_at,
                     solve_mpe_grid)
from .verify import (Report, convergence_study, isotropy_estimate,
                     verify_counting_variance, verify_norm_tail,
                     verify_quadratic_form, verify_stieltjes_variance)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeLaw", "EigensolveFailed", "EmpiricalSpectrum", "EnsembleConfig",
    "EmptySpectrum", "H0Diagonal", "H0File", "H0Mismatch", "H0Zero",
    "InvalidDimension", "InvalidP", "MassDeficit", "ModelSpec",
    "NonConvergence", "PoleHit", "Rank1SpecError", "RealAxisEvaluation",
    "Report", "RngStream", "ShapeMismatch", "SolverOptions",
    "SpectralMeasure", "UnsupportedOrder", "VectorLaw",
    "assemble_matrix", "build_matrix", "cdf", "cdf_left", "convergence_study",
    "counting_measure", "eigenvalues_sym", "gram_counting_relation",
    "isotropy_estimate", "ks_distance", "limit_density",
    "lp_ball_points", "lp_scale", "moment", "mp_closed_form",
    "mp_limit_measure", "mp_stieltjes_oracle", "parse_h0", "read_spectrum_csv", "resolve_h0", "sample_tau", "sample_vectors",
    "save_measure_json", "solve_mpe_at", "solve_mpe_grid",
    "stieltjes_of_measure", "verify_counting_variance", "verify_norm_tail",
    "verify_quadratic_form", "verify_stieltjes_variance", "write_density_csv",
    "write_spectrum_csv",
]
