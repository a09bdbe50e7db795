"""Span tracer that wraps rank1spec's public functions from outside.

`Tracer.wrap` replaces a module or class attribute with a timing wrapper
and remembers the original; `Tracer.restore` puts every original back.
Each wrapped call is a span (name, layer, start, end, parent). A span's
self time is its duration minus the time its direct child spans cover,
and a layer's self time is the sum of the self times of its spans.
Spans of frequent leaf calls are only aggregated; the others are kept in
memory and written out by the caller when the run ends.

`install` lists the wrapped attributes, layer by layer. The program
imports some functions by name into other modules, so a function is
wrapped under each binding that a workload reaches (for example
`solve_mpe_grid` as bound in `cli` and in `solver`).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "solver", "kernels", "measures", "samplers", "ensemble",
          "verify")


class Tracer:
    def __init__(self, request: int = 0):
        self.request = request
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.layer_self_s: defaultdict = defaultdict(float)
        self.values: defaultdict = defaultdict(float)
        self._stack: list[list] = []
        self._next_id = 0
        self._originals: list[tuple] = []

    # -- installation -----------------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str,
             keep: bool = True, on_return=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = tracer._enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame, name, layer, keep)
            if on_return is not None:
                on_return(args, result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- span bookkeeping -------------------------------------------------

    def within(self, layer: str) -> bool:
        return any(frame[1] == layer for frame in self._stack)

    def _enter(self, layer: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, layer, parent, 0.0, time.perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, layer: str, keep: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, _, parent, child_s, start = frame
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.layer_self_s[layer] += duration - child_s
        if keep:
            self.spans.append((self.request, span_id, parent, name, layer,
                               start, end))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary a workload reaches."""
    from rank1spec import cli, ensemble, measures, samplers, solver, verify

    values = tracer.values

    def count_points(args, result):
        values["solver.points"] += np.size(args[0])

    def count_sweeps(args, result):
        values["kernels.sweeps"] += int(result[1])

    def count_eigh(args, result):
        values["ensemble.eigh_order"] += result.n
        if tracer.within("verify"):
            values["verify.spectra"] += 1

    tracer.wrap(cli, "main", "cli.main", "cli")

    for owner in (cli, solver):
        tracer.wrap(owner, "solve_mpe_grid", "solver.grid", "solver",
                    on_return=count_points)
    tracer.wrap(cli, "limit_density", "solver.limit", "solver")

    tracer.wrap(solver, "picard_solve", "kernels.picard", "kernels",
                keep=False, on_return=count_sweeps)

    for owner in (solver, measures):
        tracer.wrap(owner, "stieltjes_of_measure", "measures.stieltjes",
                    "measures")
    tracer.wrap(measures, "ks_distance", "measures.ks", "measures")
    tracer.wrap(cli, "write_density_csv", "measures.write", "measures")
    tracer.wrap(cli, "save_measure_json", "measures.write", "measures")

    tracer.wrap(ensemble, "sample_vector", "samplers.draw", "samplers",
                keep=False)
    tracer.wrap(ensemble, "sample_tau", "samplers.draw", "samplers",
                keep=False)
    tracer.wrap(samplers.RngStream, "generator", "samplers.generator",
                "samplers", keep=False)

    for owner in (ensemble, verify):
        tracer.wrap(owner, "build_matrix", "ensemble.build", "ensemble")
        tracer.wrap(owner, "eigenvalues_sym", "ensemble.eigh", "ensemble",
                    on_return=count_eigh)
    tracer.wrap(ensemble, "assemble_matrix", "ensemble.assemble", "ensemble")

    tracer.wrap(verify, "verify_counting_variance", "verify.counting",
                "verify")
    tracer.wrap(verify, "verify_stieltjes_variance", "verify.stieltjes",
                "verify")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced workload iteration."""
    calls, total, values = tracer.calls, tracer.total_s, tracer.values
    sweeps = values["kernels.sweeps"]
    checks = calls["verify.counting"] + calls["verify.stieltjes"]
    out = {
        "solver.grid_calls": calls["solver.grid"],
        "solver.grid_s": total["solver.grid"],
        "solver.limit_s": total["solver.limit"],
        "solver.points": values["solver.points"],
        "solver.sweeps": sweeps,
        "kernels.calls": calls["kernels.picard"],
        "kernels.s": total["kernels.picard"],
        "kernels.us_per_sweep": 1e6 * total["kernels.picard"] / sweeps
        if sweeps else 0.0,
        "measures.ks_s": total["measures.ks"],
        "measures.ks_calls": calls["measures.ks"],
        "measures.write_s": total["measures.write"],
        "measures.stieltjes_calls": calls["measures.stieltjes"],
        "samplers.draw_s": total["samplers.draw"],
        "samplers.generators": calls["samplers.generator"],
        "ensemble.build_s": total["ensemble.build"],
        "ensemble.assemble_s": total["ensemble.assemble"],
        "ensemble.eigh_s": total["ensemble.eigh"],
        "ensemble.eigh_calls": calls["ensemble.eigh"],
        "ensemble.eigh_order": values["ensemble.eigh_order"],
        "verify.counting_s": total["verify.counting"],
        "verify.stieltjes_s": total["verify.stieltjes"],
        "verify.spectra": values["verify.spectra"] / checks if checks else 0.0,
    }
    # the kernel is a leaf, so its self time is kernels.s
    for layer in LAYERS:
        if layer != "kernels":
            out[f"{layer}.self_s"] = tracer.layer_self_s[layer]
    return out
