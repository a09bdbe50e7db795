"""Layered benchmark for rank1spec.

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is density-mp, density-signed, ensemble, or `all` for the three in
turn. Run it from anywhere inside a checkout; it imports rank1spec from
the checkout's `src/`. Each workload runs in a worker process of its
own, between SETUP_REPS - 1 set-up-only processes, so set-up time is a
median and peak memory belongs to the workload. The BLAS thread count
of those processes is pinned to BLAS_THREADS.

Human-readable lines come first; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`, named and with the units that BENCHMARK.json at the
checkout root lists. A run that lacks one of them is not `correct`.
A full record (machine block, every iteration time, failed
operations, trace spans) goes to layerbench/results/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("density-mp", "density-signed", "ensemble")

SETUP_REPS = 5
BLAS_THREADS = 1
# all of a workload's worker processes must end within `--seconds` plus
# this slack, so that a run with --seconds 36 exits within 180 s
DEADLINE_SLACK_S = 130


class WorkerFailed(RuntimeError):
    pass


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def machine_block() -> dict:
    import importlib.util

    import numpy as np
    sys.path.insert(0, str(ROOT / "src"))
    from rank1spec import _kernels

    config = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "nproc": os.cpu_count(),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{config['blas']['name']} {config['blas']['version']}",
        "lapack": f"{config['lapack']['name']} {config['lapack']['version']}",
        "blas_threads": BLAS_THREADS,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "use_numba": bool(_kernels.USE_NUMBA),
    }


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               workdir: Path, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=worker_env(),
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} worker timed out after "
                           f"{exc.timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples: list[float]):
    """Highest of p75..p99.9 with at least ten samples beyond it."""
    import numpy as np
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(samples, p))
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 machine: dict, units: dict) -> tuple[dict, list[str]]:
    workdir = RESULTS / f"work-{workload}-{os.getpid()}"
    deadline = time.monotonic() + seconds + DEADLINE_SLACK_S

    def setup_only() -> float:
        return run_worker(workload, seed, seconds, trace, workdir, True,
                          deadline)["setup_s"]

    # half the set-up-only workers run before the measured one and half
    # after, so that the set-ups sample both ends of the run
    try:
        before = [setup_only() for _ in range(SETUP_REPS // 2)]
        raw = run_worker(workload, seed, seconds, trace, workdir, False,
                         deadline)
        after = [setup_only() for _ in range(SETUP_REPS - 1 - len(before))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups = before + [raw["setup_s"]] + after
    failures = [f"{op}: {why}" for op, why in raw["ops"] if why is not None]
    attempted, failed = len(raw["ops"]), len(failures)
    untraced = raw["times"]["untraced"]
    figures = dict(raw["figures"])
    if untraced:
        figures["wall_s"] = statistics.median(untraced)

    lines = [f"workload {workload}  seed {seed}  trace {trace}  "
             f"{len(untraced)} untraced iterations"]
    if trace:
        figures = layers_from(raw, figures.get("wall_s"))
        checks = [why for op, why in raw["ops"] if op == "sweep-count"]
        lines.append(f"  sweep-count check holds on {checks.count(None)} of "
                     f"{len(checks)} traced iterations (kernel sweeps = "
                     "solver.grid_calls x sum of manifest iterations)")
    else:
        figures.update(setup_s=statistics.median(setups),
                       peak_rss_mb=raw["peak_rss_mb"],
                       ok_frac=1.0 - failed / max(attempted, 1))
        tail = tail_percentile(untraced)
        lines.append(f"  setup_s runs: {' '.join(f'{s:.4f}' for s in setups)}")
        lines.append("  wall_s " + (
            f"p{tail[0]:g} = {tail[1]:.4f} s over {len(untraced)} samples"
            if tail else f"median of {len(untraced)} samples; no percentile "
                         "above the median has ten samples beyond it"))
    metrics = {k: figures[k] for k in units if k in figures}
    for name, value in metrics.items():
        lines.append(f"  {name:<26} {value:.6g} {units[name]}")
    lines.extend(f"  MISSING {name}" for name in units if name not in metrics)
    if not trace:
        # carried in the JSON as ok_frac and (on ensemble) max_abs_err
        lines.append(f"  {'fail_frac':<26} {failed / max(attempted, 1):.6g} 1"
                     f"  ({failed} of {attempted} operations failed)")
        if "ks_max_n" in figures:
            lines.append(f"  {'ks_max_n':<26} {figures['ks_max_n']:.6g} 1")
    lines.extend(f"  FAILED {f}" for f in failures[:20])

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine, "setup_runs_s": setups,
              "metrics": metrics, "units": units,
              "attempted": attempted, "failed": failed,
              "failures": failures, **{k: raw[k] for k in
                                       ("times", "figures", "spans")
                                       if k in raw}}
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    complete = len(metrics) == len(units)
    result = {"correct": failed == 0 and complete,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return result, lines


def layers_from(raw: dict, untraced_wall_s: float) -> dict:
    """Mean per-layer figures over the traced iterations, plus overhead."""
    layers = raw.get("layers")
    if not layers or untraced_wall_s is None:
        return {}
    metrics = {name: statistics.fmean(it[name] for it in layers)
               for name in layers[0]}
    sweeps = sorted(raw["manifest_sweeps"]) or [0]
    metrics["solver.sweeps_p50"] = float(statistics.median(sweeps))
    metrics["solver.sweeps_max"] = float(sweeps[-1])
    overhead = statistics.median(raw["times"]["traced"]) - untraced_wall_s
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / untraced_wall_s
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "rank1spec" / "__init__.py").is_file():
        print(f"error: no rank1spec sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    units = metric_units(args.trace)
    machine = machine_block()
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds,
                                                args.trace, machine, units)
            print("\n".join(lines), flush=True)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
