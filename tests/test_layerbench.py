"""The layered benchmark's tracer still finds every name it wraps."""

import importlib.util
from pathlib import Path

from rank1spec import _kernels, cli, ensemble, measures, samplers, solver, verify

TRACER = Path(__file__).resolve().parent.parent / "layerbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("layerbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
