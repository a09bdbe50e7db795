"""Spectral limits of rank-one additive perturbation ensembles.

Solves the self-consistent equation for the limiting spectral measure of
a base matrix plus a sum of weighted rank-one projections onto isotropic
random directions, and simulates the finite ensembles to verify
convergence and concentration.
"""

from .ensemble import (EnsembleConfig, H0Diagonal, H0File, H0Zero,
                       assemble_matrix, build_matrix, counting_measure,
                       eigenvalues_sym, gram_counting_relation, gram_matrix,
                       parse_h0, read_spectrum_csv, resolve_h0,
                       resolvent_trace_stream, write_spectrum_csv)
from .errors import (EmptySpectrum, H0Mismatch, InvalidDimension, InvalidP,
                     MassDeficit, NearSingularDenominator, NoConvergence,
                     NonConvergence, PoleHit, Rank1SpecError,
                     RealAxisEvaluation, ShapeMismatch, UnsupportedOrder)
from .measures import (AmplitudeLaw, EmpiricalSpectrum, SpectralMeasure, cdf,
                       cdf_left, ks_distance, load_measure_json, moment,
                       read_density_csv, save_measure_json,
                       stieltjes_of_measure, write_density_csv)
from .samplers import (IsotropyReport, RngStream, VectorLaw, isotropy_estimate,
                       lp_ball_points, lp_scale, sample_tau, sample_vectors)
from .solver import (ModelSpec, SolverOptions, limit_density, mp_closed_form,
                     mp_limit_measure, mp_stieltjes_oracle,
                     normalization_check, solve_mpe_at, solve_mpe_grid)
from .verify import (ConvergenceReport, QuadFormReport, TailReport,
                     VarianceReport, convergence_study,
                     verify_counting_variance, verify_norm_tail,
                     verify_quadratic_form, verify_stieltjes_variance)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeLaw", "ConvergenceReport", "EmpiricalSpectrum",
    "EnsembleConfig", "EmptySpectrum", "H0Diagonal", "H0File", "H0Mismatch",
    "H0Zero", "InvalidDimension", "InvalidP", "IsotropyReport", "MassDeficit",
    "ModelSpec", "NearSingularDenominator", "NoConvergence", "NonConvergence",
    "PoleHit", "QuadFormReport", "Rank1SpecError", "RealAxisEvaluation",
    "RngStream", "ShapeMismatch", "SolverOptions", "SpectralMeasure",
    "TailReport", "UnsupportedOrder", "VarianceReport", "VectorLaw",
    "assemble_matrix", "build_matrix", "cdf", "cdf_left", "convergence_study",
    "counting_measure", "eigenvalues_sym", "gram_counting_relation",
    "gram_matrix", "isotropy_estimate", "ks_distance", "limit_density",
    "load_measure_json", "lp_ball_points", "lp_scale", "moment",
    "mp_closed_form", "mp_limit_measure", "mp_stieltjes_oracle",
    "normalization_check", "parse_h0", "read_density_csv",
    "read_spectrum_csv", "resolve_h0", "resolvent_trace_stream", "sample_tau",
    "sample_vectors", "save_measure_json", "solve_mpe_at", "solve_mpe_grid",
    "stieltjes_of_measure", "verify_counting_variance", "verify_norm_tail",
    "verify_quadratic_form", "verify_stieltjes_variance", "write_density_csv",
    "write_spectrum_csv",
]
