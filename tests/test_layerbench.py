"""The layered benchmark's tracer still finds every name it wraps, and
its sweep-count check holds."""

import importlib.util
import json
from pathlib import Path

import pytest

from rank1spec import _kernels, cli, ensemble, measures, samplers, solver, verify

LAYERBENCH = Path(__file__).resolve().parent.parent / "layerbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"layerbench_{name}",
                                                  LAYERBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load("tracer")


def bindings() -> dict:
    owners = (cli, ensemble, measures, samplers, samplers.RngStream, solver,
              verify)
    return {(owner.__name__, name): value for owner in owners
            for name, value in vars(owner).items()}


def test_tracer_installs_and_restores_every_original():
    tracer_module = load_tracer()
    before = bindings()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        wrapped = [(owner, attr) for owner, attr, _ in tracer._originals]
        assert wrapped
        assert all(getattr(owner, attr) is not before[owner.__name__, attr]
                   for owner, attr in wrapped)
    finally:
        tracer.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    # the benchmark's machine record reads this flag
    assert isinstance(_kernels.USE_NUMBA, bool)


@pytest.mark.parametrize("argv_name", ["MP_ARGV", "SIGNED_ARGV"])
def test_sweep_count_check_holds(tmp_path, monkeypatch, argv_name):
    # with --trace 1 the benchmark counts the updates of every
    # solver.picard_solve call and compares them with the manifest
    argv = getattr(load("workloads"), argv_name)
    stages = []
    kernel = solver.picard_solve

    def counted(*args):
        stages.append(kernel(*args))
        return stages[-1]

    monkeypatch.setattr(solver, "picard_solve", counted)
    args = cli.build_parser().parse_args(argv)
    model = solver.ModelSpec(c=args.c, sigma=cli.parse_sigma(args.sigma),
                             n0=cli.parse_measure_atoms(args.n0))
    opts = solver.SolverOptions(eps_final=args.eps_final)
    solve = solver.solve_mpe_grid(cli.parse_grid(args.grid), model, opts)
    iterations = solve.iterations
    assert len(stages) == len(opts.eps_schedule(model.sigma))
    assert (sum(stage.updates for stage in stages) == iterations.sum()
            == sum(solve.report.updates_per_stage))

    stages.clear()
    out = tmp_path / "d"
    assert cli.main(argv + ["--out", str(out)]) == 0
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["iterations"] == iterations.tolist()
    assert sum(stage.updates for stage in stages) == iterations.sum()
    assert diag["max_residual"] <= solver.TOL
