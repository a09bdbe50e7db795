"""Command-line interface.

Subcommands: density (solve the limit on a grid), simulate (finite-n
ensembles), verify (concentration, isotropy and Gram duality checks, and
the convergence of H0 = 0 ensembles to the limit with a unit atom at
zero as base). Each verify check is a subcommand of verify, as in
`rank1spec verify gram --n 300 --m 150`; it reads `--law`, `--seed`,
`--out` and the flags of its VERIFY_CHECKS row, writes report.json and
exits 3 when it fails, and `rank1spec verify CHECK --help` lists its
flags with their defaults. argparse rejects a missing or unread flag.
The solver's stop residuals and update budget are constants of the
solver module, not flags. Every command writes a manifest.json recording
flags, seed, and sha256 of outputs, and reruns are byte-identical.

Exit codes: 0 success, 2 solver or input failure (a size too large to
allocate included), 3 criterion failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

# CPython's builtin SHA-256, as the random module takes its SHA-512:
# hashlib would map OpenSSL's libcrypto (3.5 MiB of a density run's peak
# memory) into every limit-solve process only to hash its outputs; the
# digests are the same
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .ensemble import (EnsembleConfig, H0Zero, build_matrices,
                       eigenvalues_sym, parse_h0, read_spectrum_csv,
                       write_spectrum_csv)
from .errors import NonConvergence, Rank1SpecError
from .measures import (AmplitudeLaw, SpectralMeasure, density_columns,
                       save_measure_json, write_density_csv,
                       write_output)
from .samplers import RngStream, VectorLaw
from .solver import ModelSpec, SolverOptions, limit_density, solve_mpe_grid
from .verify import (convergence_study, isotropy_estimate,
                     verify_counting_variance, verify_gram_duality,
                     verify_norm_tail, verify_quadratic_form,
                     verify_stieltjes_variance)

GRID_NUDGE = 1e-9


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

def parse_grid(text: str) -> np.ndarray:
    """'a:b:count' -> uniform grid with endpoints nudged inward 1e-9."""
    try:
        a, b, count = text.split(":")
        a, b, count = float(a), float(b), int(count)
        if count < 1 or not -math.inf < a < b < math.inf:
            raise ValueError
    except ValueError:
        raise ValueError(f"--grid: expected a:b:count with finite a < b and "
                         f"count >= 1, got {text!r}") from None
    # b - a can overflow; the check below rejects what that leaves
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(a, b, count)
    grid[0] += GRID_NUDGE
    grid[-1] -= GRID_NUDGE
    if not (np.isfinite(grid).all() and np.all(np.diff(grid) > 0.0)):
        raise ValueError(f"--grid {text!r} does not give finite, strictly "
                         f"increasing nodes")
    return grid


def parse_atoms(text: str) -> list[tuple[float, float]]:
    """'atoms:x1:w1,x2:w2,...' -> [(x1, w1), (x2, w2), ...]."""
    try:
        if text.startswith("atoms:"):
            return [(float(x), float(w)) for x, w in
                    (c.split(":") for c in text[len("atoms:"):].split(","))]
    except ValueError:
        pass
    raise ValueError(f"expected atoms:x1:w1,x2:w2,..., got {text!r}")


def parse_sigma(text: str) -> AmplitudeLaw:
    """'atoms:t1:w1,t2:w2,...' -> AmplitudeLaw."""
    try:
        return AmplitudeLaw(parse_atoms(text))
    except ValueError as exc:
        raise ValueError(f"--sigma: {exc}") from None


def parse_measure_atoms(text: str) -> SpectralMeasure:
    try:
        return SpectralMeasure(atoms=sorted(parse_atoms(text)))
    except ValueError as exc:
        raise ValueError(f"--n0: {exc}") from None


def measure_from_spectrum_file(path: str) -> SpectralMeasure:
    """Unit mass spread evenly over the eigenvalues of an --h0-spectrum
    file; a bad file raises ValueError naming the flag and the path."""
    try:
        values = read_spectrum_csv(path).eigenvalues
        if not values.size:
            raise ValueError("holds no eigenvalues")
        locs, counts = np.unique(values, return_counts=True)
        return SpectralMeasure(atoms=[(float(l), float(c) / values.size)
                                      for l, c in zip(locs, counts)])
    except ValueError as exc:
        raise ValueError(f"--h0-spectrum {path}: {exc}") from None


def parse_pair(text: str) -> tuple[float, float]:
    try:
        a, b = text.split(",")
        return float(a), float(b)
    except ValueError:
        raise ValueError(f"expected a,b, got {text!r}") from None


def parse_dims(text: str) -> list[int]:
    try:
        dims = [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"expected integers n1,n2,..., got {text!r}") from None
    if min(dims) < 1:
        raise ValueError(f"--dims {text!r}: dimensions must be positive")
    return dims


def parse_float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"expected numbers t1,t2,..., got {text!r}") from None


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_json(path: Path, data) -> bytes:
    text = (json.dumps(data, sort_keys=True, indent=1) + "\n").encode()
    return write_output(path, text)


def _output_dir(args) -> Path:
    """The --out directory, made once a run has output to write."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def write_manifest(out_dir: Path, command: str, flags: dict, seed,
                   outputs: dict[Path, bytes],
                   diagnostics: dict | None = None) -> Path:
    """Write manifest.json; `outputs` maps each written file to its bytes,
    which are hashed here rather than read back. The outputs that the
    manifest already in `out_dir` lists and that this run did not write
    are deleted (`_stale_outputs`)."""
    path = out_dir / "manifest.json"
    stale = _stale_outputs(path, {p.name for p in outputs})
    manifest = {
        "command": command,
        "flags": {k: flags[k] for k in sorted(flags)},
        "seed": seed,
        "outputs": [{"path": p.name,
                     "sha256": sha256(data).hexdigest()}
                    for p, data in outputs.items()],
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    _write_json(path, manifest)
    for name in stale:
        if (out_dir / name).is_file():
            (out_dir / name).unlink()
    return path


def _stale_outputs(manifest_path: Path, written: set[str]) -> list[str]:
    """The file names that the manifest at `manifest_path` lists as
    outputs and that are not in `written`. An unreadable manifest, or
    one in another shape, lists none; a name with a directory part, or
    the manifest's own, is never listed."""
    try:
        entries = json.loads(manifest_path.read_bytes())["outputs"]
        names = [entry["path"] for entry in entries]
    except (OSError, ValueError, TypeError, KeyError):
        return []
    return [name for name in names
            if isinstance(name, str) and name not in written
            and name == Path(name).name
            and name not in ("", "..", "manifest.json")]


def write_histogram_csv(path: Path, edges: np.ndarray,
                        mass: np.ndarray) -> bytes:
    edges = edges.tolist()
    text = "bin_left,bin_right,mass\n" + "".join(
        f"{left!r},{right!r},{m!r}\n"
        for left, right, m in zip(edges[:-1], edges[1:], mass.tolist()))
    return write_output(path, text.encode())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_density(args) -> int:
    if args.h0_spectrum:
        n0 = measure_from_spectrum_file(args.h0_spectrum)
    else:
        n0 = parse_measure_atoms(args.n0)
    model = ModelSpec(c=args.c, sigma=parse_sigma(args.sigma), n0=n0)
    opts = SolverOptions(eps_final=args.eps_final)
    grid = parse_grid(args.grid)
    solve = solve_mpe_grid(grid, model, opts)
    # the grid may be a deliberate zoom window, so partial mass is fine
    measure = limit_density(model, grid, solve.f, require_mass=False)
    out_dir = _output_dir(args)
    density_path = out_dir / "density.csv"
    measure_path = out_dir / "measure.json"
    columns = density_columns(measure)
    outputs = {density_path: write_density_csv(measure, density_path, columns),
               measure_path: save_measure_json(measure, measure_path, columns)}
    diagnostics = {
        "iterations": solve.iterations.tolist(),
        **solve.report._asdict(),
        "atoms": measure.atoms,
        "total_mass": measure.total_mass,
        "probability": measure.probability,
        "eps_final": opts.eps_final,
    }
    write_manifest(out_dir, "density", _flags_dict(args), None, outputs,
                   diagnostics)
    return 0


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.bins < 1:
        raise ValueError(f"--bins must be at least 1, got {args.bins}")
    config = EnsembleConfig(n=args.n, m=args.m, law=VectorLaw.parse(args.law),
                            sigma=parse_sigma(args.sigma),
                            h0=parse_h0(args.h0), seed=args.seed)
    spectra = [eigenvalues_sym(matrix)
               for matrix in build_matrices(config, range(args.trials))]
    pooled = np.concatenate([s.eigenvalues for s in spectra])
    counts, edges = np.histogram(pooled, bins=args.bins)
    mass = counts / pooled.size
    out_dir = _output_dir(args)
    outputs = {}
    for trial, spectrum in enumerate(spectra):
        path = out_dir / f"eigenvalues_{trial:03d}.csv"
        outputs[path] = write_spectrum_csv(spectrum, path)
    hist_path = out_dir / "histogram.csv"
    outputs[hist_path] = write_histogram_csv(hist_path, edges, mass)
    write_manifest(out_dir, "simulate", _flags_dict(args), args.seed, outputs)
    return 0


# Each verify check's help line and the flags it reads besides --law,
# --seed and --out, with their defaults; None marks a required flag. The
# Gram duality holds only for H0 = 0 and unit amplitudes, so gram reads
# no --sigma or --h0; the convergence ensembles have H0 = 0, so
# convergence reads no base flag.
VERIFY_CHECKS = {
    "counting-var": ("Var of the counting measure on (a, b] against 4m/n^2",
                     {"n": None, "m": None, "sigma": "atoms:1:1", "h0": "zero",
                      "trials": 200, "interval": "0.25,2.25"}),
    "stieltjes-var": ("Var of g(z) against 4m/(n^2 Im z^2)",
                      {"n": None, "m": None, "sigma": "atoms:1:1",
                       "h0": "zero", "trials": 200, "z": "0,1"}),
    "gram": ("m x m Gram side against the full spectrum",
             {"n": None, "m": None}),
    "quadform": ("decay of Var(A Y, Y) with dimension",
                 {"dims": "64,128,256,512", "samples": 100_000}),
    "tail": ("P{|Y| >= C t} against exp(-t sqrt(n))",
             {"n": None, "samples": 100_000, "t_values": "1,1.5,2"}),
    "isotropy": ("largest covariance deviation from I",
                 {"n": None, "samples": 100_000}),
    "convergence": ("mean KS distance to the solved limit along --dims",
                    {"c": None, "grid": None, "sigma": "atoms:1:1",
                     "eps_final": 1e-4, "dims": "256,512,1024", "seeds": 5}),
}
# the type of each verify flag that is not a string
FLAG_TYPES = {"seed": int, "n": int, "m": int, "trials": int, "samples": int,
              "seeds": int, "c": float, "eps_final": float}


def cmd_verify(args) -> int:
    law = VectorLaw.parse(args.law)
    check = args.check
    if check in ("counting-var", "stieltjes-var"):
        config = EnsembleConfig(n=args.n, m=args.m, law=law,
                                sigma=parse_sigma(args.sigma),
                                h0=parse_h0(args.h0), seed=args.seed)
    if check == "counting-var":
        report = verify_counting_variance(config, parse_pair(args.interval),
                                          args.trials)
    elif check == "stieltjes-var":
        re_z, im_z = parse_pair(args.z)
        report = verify_stieltjes_variance(config, complex(re_z, im_z),
                                           args.trials)
    elif check == "gram":
        report = verify_gram_duality(EnsembleConfig(
            n=args.n, m=args.m, law=law, sigma=AmplitudeLaw([(1.0, 1.0)]),
            h0=H0Zero(), seed=args.seed))
    elif check == "quadform":
        report = verify_quadratic_form(law, parse_dims(args.dims),
                                       args.samples, args.seed)
    elif check == "tail":
        report = verify_norm_tail(law, args.n, args.samples, args.seed,
                                  parse_float_list(args.t_values))
    elif check == "convergence":
        model = ModelSpec(c=args.c, sigma=parse_sigma(args.sigma),
                          n0=SpectralMeasure(atoms=[(0.0, 1.0)]))
        report = convergence_study(law, model, parse_dims(args.dims),
                                   args.seeds, args.seed,
                                   parse_grid(args.grid),
                                   SolverOptions(eps_final=args.eps_final))
    else:
        report = isotropy_estimate(law, args.n, args.samples,
                                   RngStream(args.seed, 0))
    out_dir = _output_dir(args)
    json_path = out_dir / "report.json"
    write_manifest(out_dir, "verify", _flags_dict(args), args.seed,
                   {json_path: _write_json(json_path, report.to_dict())})
    return 0 if report.passed else 3


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _flags_dict(args) -> dict:
    # out is a filesystem detail; keeping it out of the manifest makes
    # reruns byte-identical regardless of destination directory
    skip = {"func", "out"}
    return {k.replace("_", "-"): v for k, v in vars(args).items()
            if k not in skip and v is not None}


def _add_density_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--sigma", default="atoms:1:1")
    p.add_argument("--grid", required=True, help="a:b:count")
    p.add_argument("--eps-final", dest="eps_final", type=float, default=1e-4)
    base = p.add_mutually_exclusive_group()
    base.add_argument("--n0", default="atoms:0:1")
    base.add_argument("--h0-spectrum", dest="h0_spectrum", default=None,
                      help="eigenvalue CSV defining the base spectrum")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_density)


def _add_simulate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--law", default="sphere")
    p.add_argument("--h0", default="zero")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", default="atoms:1:1")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_simulate)


def _add_verify_flags(p: argparse.ArgumentParser) -> None:
    checks = p.add_subparsers(dest="check", required=True)
    for check, (text, row) in VERIFY_CHECKS.items():
        q = checks.add_parser(check, help=text)
        for flag, default in {"law": "sphere", "seed": 0, **row,
                              "out": "."}.items():
            name = "--" + flag.replace("_", "-")
            q.add_argument(name, type=FLAG_TYPES.get(flag, str),
                           default=default,
                           required=default is None,
                           help="required" if default is None
                           else "default: %(default)s")
        q.set_defaults(func=cmd_verify)


# each subcommand's help line and the function that adds its flags
SUBCOMMANDS = {
    "density": ("solve the limiting density on a grid", _add_density_flags),
    "simulate": ("sample finite-n ensembles", _add_simulate_flags),
    "verify": ("concentration, isotropy, Gram duality and convergence "
               "checks", _add_verify_flags),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(prog="rank1spec")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_flags) in SUBCOMMANDS.items():
        add_flags(sub.add_parser(name, help=text))
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NonConvergence as exc:
        print(f"solver failed at lambda={exc.lam:.9g}, eps={exc.eps:.9g}",
              file=sys.stderr)
        return 2
    except (Rank1SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy refuses a size it cannot allocate before any --out is made
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
