"""Run one workload in this process and print its result as one JSON line.

Started by run.py, one process per workload, so that set-up time and
peak memory belong to that workload alone:

    python3 layerbench/worker.py --workload NAME --seed N --seconds S
                                 --trace 0|1 --workdir DIR [--setup-only]

Set-up (importing rank1spec and the warm-up) is timed from the top of
this file. The loop then runs rounds of iterations for about
`--seconds`: it starts another round only if the median round so far
would still end in time, and it runs at least MIN_ROUNDS rounds. A
round is one untraced iteration, or with `--trace 1` one untraced and
one traced iteration, so that the tracing overhead is measured in the
same process.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 2


def import_rank1spec():
    if not (SRC / "rank1spec" / "__init__.py").is_file():
        raise SystemExit(f"rank1spec sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import rank1spec
    if Path(rank1spec.__file__).resolve().parent != SRC / "rank1spec":
        raise SystemExit(f"imported rank1spec from {rank1spec.__file__}, "
                         f"not from {SRC}")


def run_loop(workload, seconds: float, trace: bool):
    import tracer as tracing
    from workloads import describe_failure

    times = {"untraced": [], "traced": []}
    tracers = []
    ops = []
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            active = None
            if traced:
                active = tracing.Tracer(request=len(tracers))
                tracing.install(active)
            try:
                t0 = time.perf_counter()
                result = workload.iterate()
                elapsed = time.perf_counter() - t0
            except Exception as exc:  # a failed operation; keep measuring
                ops.append(("iteration", describe_failure(exc)))
                continue
            finally:
                if active is not None:
                    active.restore()
            times["traced" if traced else "untraced"].append(elapsed)
            ops.extend(workload.check(result))
            if active is not None:
                tracers.append(active)
                ops.append(sweep_check(workload, active))
        # stop before a round that would end past `seconds`, after at
        # least MIN_ROUNDS rounds
        rounds.append(time.perf_counter() - round_start)
        spent = time.perf_counter() - start
        if (len(rounds) >= MIN_ROUNDS
                and spent + statistics.median(rounds) > seconds):
            return times, tracers, ops


def sweep_check(workload, active):
    """Kernel sweeps must equal grid solves x the manifest's sweeps."""
    seen = active.values["kernels.sweeps"]
    expected = active.calls["solver.grid"] * sum(workload.manifest_sweeps)
    if seen != expected:
        return ("sweep-count", f"kernel saw {seen:.0f} sweeps, expected "
                               f"{expected} from the manifest")
    return ("sweep-count", None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_rank1spec()
    from workloads import WORKLOADS
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.warm_up()
    setup_s = time.perf_counter() - SETUP_START
    out = {"setup_s": setup_s}
    if not args.setup_only:
        times, tracers, ops = run_loop(workload, args.seconds,
                                       bool(args.trace))
        out.update(times=times, ops=ops, figures=workload.figures,
                   manifest_sweeps=workload.manifest_sweeps)
        if tracers:
            import tracer as tracing
            out["layers"] = [tracing.layer_metrics(t) for t in tracers]
            out["spans"] = [span for t in tracers for span in t.spans]
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
