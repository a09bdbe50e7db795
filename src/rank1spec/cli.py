"""Command-line interface.

Subcommands: density (solve the limit on a grid), simulate (finite-n
ensembles), compare (convergence of H0 = 0 ensembles to the limit with
a unit atom at zero as base), verify (concentration, isotropy and Gram
duality checks). Each subcommand takes only the flags it reads; a verify
check reads `--law`, `--seed` and the flags of its VERIFY_CHECKS row. A
`--config` file holds flat key=value pairs named after the long flags;
explicit flags override it. Every command writes a manifest.json
recording flags, seed, and sha256 of outputs, and reruns are
byte-identical.

Exit codes: 0 success, 2 solver or input failure, 3 criterion failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .ensemble import (EnsembleConfig, H0Zero, build_matrix, eigenvalues_sym,
                       parse_h0, read_spectrum_csv, write_spectrum_csv)
from .errors import NonConvergence, Rank1SpecError
from .measures import (AmplitudeLaw, SpectralMeasure, save_measure_json,
                       write_density_csv)
from .samplers import RngStream, VectorLaw, isotropy_estimate
from .solver import ModelSpec, SolverOptions, limit_density, solve_mpe_grid
from .verify import (convergence_study, verify_counting_variance,
                     verify_gram_duality, verify_norm_tail,
                     verify_quadratic_form, verify_stieltjes_variance)

GRID_NUDGE = 1e-9


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

def parse_grid(text: str) -> np.ndarray:
    """'a:b:count' -> uniform grid with endpoints nudged inward 1e-9."""
    a, b, count = text.split(":")
    a, b, count = float(a), float(b), int(count)
    if count < 1 or b <= a:
        raise ValueError(f"bad grid spec {text!r}")
    grid = np.linspace(a, b, count)
    grid[0] += GRID_NUDGE
    grid[-1] -= GRID_NUDGE
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
    return AmplitudeLaw(parse_atoms(text))


def parse_measure_atoms(text: str) -> SpectralMeasure:
    return SpectralMeasure(atoms=sorted(parse_atoms(text)))


def measure_from_spectrum_file(path: str) -> SpectralMeasure:
    values = read_spectrum_csv(path).eigenvalues
    locs, counts = np.unique(values, return_counts=True)
    atoms = [(float(l), float(c) / values.size) for l, c in zip(locs, counts)]
    return SpectralMeasure(atoms=atoms)


def parse_pair(text: str) -> tuple[float, float]:
    try:
        a, b = text.split(",")
        return float(a), float(b)
    except ValueError:
        raise ValueError(f"expected a,b, got {text!r}") from None


def parse_int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def parse_float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")


def _output_dir(args) -> Path:
    """The --out directory, made once a run has output to write."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def write_manifest(out_dir: Path, command: str, flags: dict, seed,
                   outputs: list[Path], diagnostics: dict | None = None) -> Path:
    manifest = {
        "command": command,
        "flags": {k: flags[k] for k in sorted(flags)},
        "seed": seed,
        "outputs": [{"path": p.name, "sha256": _sha256(p)} for p in outputs],
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    path = out_dir / "manifest.json"
    _write_json(path, manifest)
    return path


def write_histogram_csv(path: Path, edges: np.ndarray, mass: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("bin_left,bin_right,mass\n")
        for left, right, m in zip(edges[:-1], edges[1:], mass):
            fh.write(f"{float(left)!r},{float(right)!r},{float(m)!r}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _solver_options(args) -> SolverOptions:
    return SolverOptions(tol=args.tol, max_iter=args.max_iter,
                         eps_final=args.eps_final)


def cmd_density(args) -> int:
    if args.h0_spectrum:
        n0 = measure_from_spectrum_file(args.h0_spectrum)
    else:
        n0 = parse_measure_atoms(args.n0)
    model = ModelSpec(c=args.c, sigma=parse_sigma(args.sigma), n0=n0)
    opts = _solver_options(args)
    grid = parse_grid(args.grid)
    f_vals, iterations = solve_mpe_grid(grid, model, opts)
    # the grid may be a deliberate zoom window, so partial mass is fine
    measure = limit_density(model, grid, opts, require_mass=False,
                            f_vals=f_vals)
    out_dir = _output_dir(args)
    density_path = out_dir / "density.csv"
    measure_path = out_dir / "measure.json"
    write_density_csv(measure, density_path)
    save_measure_json(measure, measure_path)
    diagnostics = {
        "iterations": [int(k) for k in iterations],
        "atoms": measure.to_dict()["atoms"],
        "total_mass": measure.total_mass,
        "probability": measure.probability,
        "eps_final": opts.eps_final,
    }
    write_manifest(out_dir, "density", _flags_dict(args), None,
                   [density_path, measure_path], diagnostics)
    return 0


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    config = EnsembleConfig(n=args.n, m=args.m, law=VectorLaw.parse(args.law),
                            sigma=parse_sigma(args.sigma),
                            h0=parse_h0(args.h0), seed=args.seed)
    spectra = [eigenvalues_sym(build_matrix(config, trial=trial))
               for trial in range(args.trials)]
    pooled = np.concatenate([s.eigenvalues for s in spectra])
    counts, edges = np.histogram(pooled, bins=args.bins)
    mass = counts / pooled.size
    out_dir = _output_dir(args)
    outputs = []
    for trial, spectrum in enumerate(spectra):
        path = out_dir / f"eigenvalues_{trial:03d}.csv"
        write_spectrum_csv(spectrum, path)
        outputs.append(path)
    hist_path = out_dir / "histogram.csv"
    write_histogram_csv(hist_path, edges, mass)
    outputs.append(hist_path)
    write_manifest(out_dir, "simulate", _flags_dict(args), args.seed, outputs)
    return 0


def cmd_compare(args) -> int:
    model = ModelSpec(c=args.c, sigma=parse_sigma(args.sigma),
                      n0=SpectralMeasure(atoms=[(0.0, 1.0)]))
    opts = _solver_options(args)
    law = VectorLaw.parse(args.law)
    grid = parse_grid(args.grid)
    report = convergence_study(law, model, parse_int_list(args.dims),
                               args.seeds, args.seed, grid, opts)
    out_dir = _output_dir(args)
    json_path = out_dir / "convergence.json"
    csv_path = out_dir / "convergence.csv"
    _write_json(json_path, report.to_dict())
    csv_path.write_text("\n".join(report.csv_rows()) + "\n")
    write_manifest(out_dir, "compare", _flags_dict(args), args.seed,
                   [json_path, csv_path])
    if not report.passed:
        print("convergence criterion failed", file=sys.stderr)
        return 3
    return 0


# The flags each verify check reads besides --law and --seed, with their
# defaults; None marks a required flag. The Gram duality holds only for
# H0 = 0 and unit amplitudes, so gram reads no --sigma or --h0.
VERIFY_CHECKS = {
    "counting-var": {"n": None, "m": None, "sigma": "atoms:1:1", "h0": "zero",
                     "trials": 200, "interval": "0.25,2.25"},
    "stieltjes-var": {"n": None, "m": None, "sigma": "atoms:1:1",
                      "h0": "zero", "trials": 200, "z": "0,1"},
    "gram": {"n": None, "m": None},
    "quadform": {"dims": "64,128,256,512", "samples": 100_000},
    "tail": {"n": None, "samples": 100_000, "t_values": "1,1.5,2"},
    "isotropy": {"n": None, "samples": 100_000},
}


def resolve_verify_flags(args) -> None:
    """Reject the flags args.check does not read; fill in its defaults."""
    row = VERIFY_CHECKS[args.check]
    unread = sorted(vars(args).keys() - row.keys() - {
        "command", "func", "config", "out", "check", "law", "seed"})
    if unread:
        raise ValueError(f"--check {args.check} does not read " + ", ".join(
            "--" + flag.replace("_", "-") for flag in unread))
    for flag, default in row.items():
        value = getattr(args, flag, default)
        if value is None:
            raise ValueError(f"--check {args.check} requires --{flag}")
        setattr(args, flag, value)


def cmd_verify(args) -> int:
    resolve_verify_flags(args)
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
        report = verify_quadratic_form(law, parse_int_list(args.dims),
                                       args.samples, args.seed)
    elif check == "tail":
        report = verify_norm_tail(law, args.n, args.samples, args.seed,
                                  parse_float_list(args.t_values))
    else:
        report = isotropy_estimate(law, args.n, args.samples,
                                   RngStream(args.seed, 0))
    out_dir = _output_dir(args)
    json_path = out_dir / "report.json"
    _write_json(json_path, report.to_dict())
    write_manifest(out_dir, "verify", _flags_dict(args), args.seed,
                   [json_path])
    return 0 if report.passed else 3


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _flags_dict(args) -> dict:
    # out is a filesystem detail; keeping it out of the manifest makes
    # reruns byte-identical regardless of destination directory
    skip = {"func", "config", "out"}
    return {k.replace("_", "-"): v for k, v in vars(args).items()
            if k not in skip and v is not None}


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--sigma", default="atoms:1:1")
    p.add_argument("--grid", required=True, help="a:b:count")
    p.add_argument("--eps-final", dest="eps_final", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=100_000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rank1spec")
    parser.add_argument("--config", default=None, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="solve the limiting density on a grid")
    _add_solver_flags(p)
    base = p.add_mutually_exclusive_group()
    base.add_argument("--n0", default="atoms:0:1")
    base.add_argument("--h0-spectrum", dest="h0_spectrum", default=None,
                      help="eigenvalue CSV defining the base spectrum")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("simulate", help="sample finite-n ensembles")
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

    p = sub.add_parser("compare", help="convergence study of H0 = 0 "
                                       "ensembles")
    _add_solver_flags(p)
    p.add_argument("--law", default="sphere")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", default="256,512,1024")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="concentration, isotropy and Gram "
                                      "duality checks")
    p.add_argument("--check", required=True, choices=VERIFY_CHECKS)
    p.add_argument("--law", default="sphere")
    p.add_argument("--seed", type=int, default=0)
    # unset flags stay off the namespace; VERIFY_CHECKS fills them in
    for flag, kind in (("n", int), ("m", int), ("h0", str), ("sigma", str),
                       ("trials", int), ("interval", str), ("z", str),
                       ("dims", str), ("samples", int), ("t-values", str)):
        p.add_argument(f"--{flag}", type=kind, default=argparse.SUPPRESS)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_verify)
    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Expand --config key=value pairs into flags ahead of explicit ones."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValueError("--config needs a path")
    path = argv[i + 1]
    pre: list[str] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        pre.extend([f"--{key.strip()}", value.strip()])
    rest = argv[:i] + argv[i + 2:]
    # keep the subcommand first, then config-derived flags, then explicit
    return rest[:1] + pre + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_apply_config(argv))
        return args.func(args)
    except NonConvergence as exc:
        print(f"solver failed at lambda={exc.lam:.9g}, eps={exc.eps:.9g}",
              file=sys.stderr)
        return 2
    except (Rank1SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
