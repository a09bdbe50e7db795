"""Command-line interface.

Subcommands: density (solve the limit on a grid), simulate (finite-n
ensembles), compare (convergence of H0 = 0 ensembles to the limit with
a unit atom at zero as base), verify (concentration, isotropy and Gram
duality checks). Each subcommand takes only the flags it reads. A
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

from .ensemble import (EnsembleConfig, build_matrix, eigenvalues_sym,
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


def parse_sigma(text: str) -> AmplitudeLaw:
    """'atoms:t1:w1,t2:w2,...' -> AmplitudeLaw."""
    if not text.startswith("atoms:"):
        raise ValueError(f"amplitude law must start with 'atoms:', got {text!r}")
    pairs = []
    for chunk in text[len("atoms:"):].split(","):
        t, w = chunk.split(":")
        pairs.append((float(t), float(w)))
    return AmplitudeLaw(pairs)


def parse_measure_atoms(text: str) -> SpectralMeasure:
    if not text.startswith("atoms:"):
        raise ValueError(f"measure spec must start with 'atoms:', got {text!r}")
    pairs = []
    for chunk in text[len("atoms:"):].split(","):
        loc, mass = chunk.split(":")
        pairs.append((float(loc), float(mass)))
    pairs.sort(key=lambda p: p[0])
    return SpectralMeasure(atoms=pairs)


def measure_from_spectrum_file(path: str) -> SpectralMeasure:
    values = read_spectrum_csv(path).eigenvalues
    locs, counts = np.unique(values, return_counts=True)
    atoms = [(float(l), float(c) / values.size) for l, c in zip(locs, counts)]
    return SpectralMeasure(atoms=atoms)


def parse_pair(text: str) -> tuple[float, float]:
    a, b = text.split(",")
    return float(a), float(b)


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


def cmd_verify(args) -> int:
    law = VectorLaw.parse(args.law)
    check = args.check
    # quadform works off --dims; every other check needs explicit sizes
    needed = {"counting-var": ("n", "m"), "stieltjes-var": ("n", "m"),
              "gram": ("n", "m"), "tail": ("n",),
              "isotropy": ("n",)}.get(check, ())
    for flag in needed:
        if getattr(args, flag) is None:
            raise ValueError(f"--check {check} requires --{flag}")
    # the checks that need --m are the ones that draw ensembles
    if "m" in needed:
        config = EnsembleConfig(n=args.n, m=args.m, law=law,
                                sigma=parse_sigma(args.sigma),
                                h0=parse_h0(args.h0), seed=args.seed)
    csv_lines: list[str] | None = None
    if check == "counting-var":
        report = verify_counting_variance(config, parse_pair(args.interval),
                                          args.trials)
        csv_lines = ["kind,estimate,bound,trials,se,pass", report.csv_row()]
    elif check == "stieltjes-var":
        re_z, im_z = parse_pair(args.z)
        report = verify_stieltjes_variance(config, complex(re_z, im_z),
                                           args.trials)
        csv_lines = ["kind,estimate,bound,trials,se,pass", report.csv_row()]
    elif check == "gram":
        report = verify_gram_duality(config)
    elif check == "quadform":
        report = verify_quadratic_form(law, parse_int_list(args.dims),
                                       args.samples, args.seed)
        csv_lines = ["matrix,n,variance,variance_se"] + report.csv_rows()
    elif check == "tail":
        report = verify_norm_tail(law, args.n, args.samples, args.seed,
                                  parse_float_list(args.t_values))
        csv_lines = ["t,empirical,envelope,binomial_se"] + report.csv_rows()
    else:
        report = isotropy_estimate(law, args.n, args.samples,
                                   RngStream(args.seed, 0))
    out_dir = _output_dir(args)
    json_path = out_dir / "report.json"
    _write_json(json_path, report.to_dict())
    outputs = [json_path]
    if csv_lines is not None:
        csv_path = out_dir / "report.csv"
        csv_path.write_text("\n".join(csv_lines) + "\n")
        outputs.append(csv_path)
    write_manifest(out_dir, "verify", _flags_dict(args), args.seed, outputs)
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


def _add_ensemble_flags(p: argparse.ArgumentParser, need_nm: bool) -> None:
    p.add_argument("--n", type=int, required=need_nm)
    p.add_argument("--m", type=int, required=need_nm)
    p.add_argument("--law", default="sphere")
    p.add_argument("--h0", default="zero")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rank1spec")
    parser.add_argument("--config", default=None, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="solve the limiting density on a grid")
    _add_solver_flags(p)
    p.add_argument("--n0", default="atoms:0:1")
    p.add_argument("--h0-spectrum", dest="h0_spectrum", default=None,
                   help="eigenvalue CSV defining the base spectrum")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("simulate", help="sample finite-n ensembles")
    _add_ensemble_flags(p, need_nm=True)
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
    p.add_argument("--check", required=True,
                   choices=["counting-var", "stieltjes-var", "gram",
                            "quadform", "tail", "isotropy"])
    _add_ensemble_flags(p, need_nm=False)
    p.add_argument("--sigma", default="atoms:1:1")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--interval", default="0.25,2.25")
    p.add_argument("--z", default="0,1")
    p.add_argument("--dims", default="64,128,256,512")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--t-values", dest="t_values", default="1,1.5,2")
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
