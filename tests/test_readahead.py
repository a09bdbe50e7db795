"""The one-trial readahead of `ensemble._trial_draws`.

Most tests force the gate on by monkeypatching `ensemble._spare_core`,
so that they run the readahead worker whatever the BLAS settings are.
"""

import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from rank1spec import cli, ensemble
from rank1spec.ensemble import (EnsembleConfig, H0Diagonal, H0Zero,
                                build_matrix, counting_fractions,
                                resolvent_traces)
from rank1spec.measures import AmplitudeLaw, SpectralMeasure
from rank1spec.samplers import VectorLaw
from rank1spec.solver import ModelSpec
from rank1spec.verify import convergence_study

LAWS = ["sphere", "gauss", "cgauss", "lp:1.5"]
TRIALS = 8
# no trial directly follows its predecessor
SHUFFLED = [3, 0, 5, 2, 7, 4, 1, 6]
ORDERS = {"sequential": list(range(TRIALS)),
          "reversed": list(range(TRIALS))[::-1], "shuffled": SHUFFLED}
SIGNED = AmplitudeLaw([(1.0, 0.5), (-0.5, 0.5)])
CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the gate itself, before the fixture below replaces it
SPARE_CORE = ensemble._spare_core
SRC = Path(__file__).resolve().parent.parent / "src"


def config(law="sphere", n=12, m=5, sigma=SIGNED, h0=None, seed=3):
    return EnsembleConfig(n=n, m=m, law=VectorLaw.parse(law), sigma=sigma,
                          h0=h0 if h0 is not None else H0Zero(), seed=seed)


def drain():
    """Wait for every draw queued on the worker, then empty the slot."""
    executor = ensemble._executor
    if executor is not None:
        # the one worker runs its jobs in order
        executor.submit(lambda: None).result(timeout=60.0)
    ensemble._slot = None


@pytest.fixture(autouse=True)
def readahead_on(monkeypatch):
    drain()
    monkeypatch.setattr(ensemble, "_spare_core", lambda: True)
    yield
    drain()


@pytest.fixture
def draw_threads(monkeypatch):
    """Patch the raw draw to record (trial, drawn on the main thread)."""
    seen = []
    draw = ensemble._draw_components

    def recording(cfg, trial):
        seen.append((trial, threading.current_thread()
                     is threading.main_thread()))
        return draw(cfg, trial)

    monkeypatch.setattr(ensemble, "_draw_components", recording)
    return seen


@pytest.mark.parametrize("order", list(ORDERS))
@pytest.mark.parametrize("law", LAWS)
def test_draws_equal_the_raw_draw_in_any_order(law, order):
    cfg = config(law)
    want = {t: ensemble._draw_components(cfg, t) for t in range(TRIALS)}
    for trial in ORDERS[order]:
        got = build_matrix(cfg, trial)
        assert np.array_equal(got.vectors, want[trial][0])
        assert np.array_equal(got.taus, want[trial][1])


def test_sequential_trials_after_the_first_two_are_drawn_ahead(draw_threads):
    cfg = config()
    for trial in range(TRIALS):
        build_matrix(cfg, trial)
    drain()
    # trial TRIALS is the readahead past the last call
    assert draw_threads == ([(0, True), (1, True)]
                            + [(t, False) for t in range(2, TRIALS + 1)])


def test_shuffled_trials_are_drawn_on_the_calling_thread(draw_threads):
    cfg = config()
    for trial in SHUFFLED:
        build_matrix(cfg, trial)
    assert draw_threads == [(t, True) for t in SHUFFLED]


def test_another_config_object_is_not_served_from_the_slot(draw_threads):
    a, b = config(), config()
    build_matrix(a, 0)
    build_matrix(a, 1)
    got = build_matrix(b, 2)
    drain()
    # the worker drew trial 2 of a, and the calling thread that of b
    assert sorted(draw_threads) == [(0, True), (1, True), (2, False),
                                    (2, True)]
    want = ensemble._draw_components(b, 2)
    assert np.array_equal(got.vectors, want[0])


def test_a_readahead_of_a_replaced_draw_is_not_served(monkeypatch):
    cfg = config()
    build_matrix(cfg, 0)
    build_matrix(cfg, 1)
    marker = (np.zeros((cfg.n, cfg.m)), np.zeros(cfg.m))
    monkeypatch.setattr(ensemble, "_draw_components", lambda c, t: marker)
    assert build_matrix(cfg, 2).vectors is marker[0]


def test_every_entry_point_matches_the_calling_thread_draws(monkeypatch):
    h0 = H0Diagonal(tuple([-1.0, 1.0] * 6))
    cfg = config("gauss", h0=h0)

    def outputs():
        return [counting_fractions(cfg, (-0.5, 0.5), range(5)),
                resolvent_traces(cfg, 0.5 + 0.5j, range(5))]

    ahead = outputs()
    drain()
    monkeypatch.setattr(ensemble, "_spare_core", lambda: False)
    for got, want in zip(ahead, outputs()):
        assert np.array_equal(got, want)


BASE = H0Diagonal(tuple([-1.0, 1.0] * 6))
RANGED = {
    # the inertia counts, the Gram-side and the dense spectra of
    # counting_fractions, and the Woodbury traces of resolvent_traces
    "inertia": lambda trials: counting_fractions(
        config("gauss", h0=BASE), (-0.5, 0.5), trials),
    "gram": lambda trials: counting_fractions(
        config(sigma=AmplitudeLaw([(1.0, 1.0)])), (0.5, 2.0), trials),
    "dense": lambda trials: counting_fractions(
        config("gauss", h0=BASE), (-1.0, 0.5), trials),
    "traces": lambda trials: resolvent_traces(
        config("gauss", h0=BASE), 0.5 + 0.5j, trials),
}


@pytest.mark.parametrize("trials", [range(5), [0, 1, 2, 5, 6]],
                         ids=["range", "gapped"])
@pytest.mark.parametrize("entry", list(RANGED))
def test_a_loop_over_given_trials_draws_none_past_them(draw_threads, entry,
                                                        trials):
    RANGED[entry](trials)
    # nothing is pending, so the worker has drawn all it ever will
    assert ensemble._slot[3] is None
    assert sorted(t for t, _ in draw_threads) == list(trials)
    # in a run of consecutive trials, those after the first two come
    # from the worker
    assert [t for t, main in draw_threads if not main] == [
        t for i, t in enumerate(trials) if i >= 2 and trials[i - 2] == t - 2]


def test_the_convergence_study_draws_each_trial_once(draw_threads):
    model = ModelSpec(c=0.5, sigma=AmplitudeLaw([(1.0, 1.0)]),
                      n0=SpectralMeasure(atoms=[(0.0, 1.0)]))
    convergence_study(VectorLaw.parse("sphere"), model, [32, 64], 3, 0,
                      np.linspace(0.02, 3.2, 50))
    assert ensemble._slot[3] is None
    assert [t for t, _ in draw_threads] == [0, 1, 2, 0, 1, 2]


def test_simulate_draws_each_trial_once(draw_threads, tmp_path):
    assert cli.main(["simulate", "--n", "12", "--m", "5", "--trials", "3",
                     "--out", str(tmp_path / "s")]) == 0
    assert ensemble._slot[3] is None
    assert [t for t, _ in draw_threads] == [0, 1, 2]


def test_concurrent_callers_get_their_own_draws():
    configs = [config(law, seed=s) for law in ("sphere", "cgauss")
               for s in (1, 2)]
    want = {(i, t): ensemble._draw_components(cfg, t)
            for i, cfg in enumerate(configs) for t in range(TRIALS)}
    wrong = []

    def caller(k):
        # sequential runs of one config, interleaved with other callers
        for rep in range(3):
            i = (k + rep) % len(configs)
            for t in range(TRIALS):
                got = build_matrix(configs[i], t)
                if not (np.array_equal(got.vectors, want[i, t][0])
                        and np.array_equal(got.taus, want[i, t][1])):
                    wrong.append((k, i, t))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,))
                   for k in range(6)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert wrong == []


@pytest.mark.parametrize("error", [ValueError("bad draw 2"),
                                   MemoryError("no room for trial 2")])
def test_a_helper_exception_surfaces_in_the_consuming_call(monkeypatch,
                                                           error):
    cfg = config()
    draw = ensemble._draw_components
    failed_on_main = []

    def failing(c, trial):
        if trial == 2:
            failed_on_main.append(threading.current_thread()
                                  is threading.main_thread())
            raise error
        return draw(c, trial)

    monkeypatch.setattr(ensemble, "_draw_components", failing)
    build_matrix(cfg, 0)
    build_matrix(cfg, 1)
    with pytest.raises(type(error), match=str(error)):
        build_matrix(cfg, 2)
    assert failed_on_main == [False]
    assert np.array_equal(build_matrix(cfg, 3).vectors, draw(cfg, 3)[0])


@pytest.mark.parametrize("caps, spare", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "4"}, False),
    ({"OMP_NUM_THREADS": "6"}, False),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, False),
    ({"MKL_NUM_THREADS": "0"}, False),
    ({"OPENBLAS_NUM_THREADS": "two"}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"MKL_NUM_THREADS": " 3 "}, True),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "x"}, True),
])
def test_the_gate_needs_every_blas_cap_below_the_cpus(monkeypatch, caps,
                                                      spare):
    for var in CAPS:
        monkeypatch.delenv(var, raising=False)
    for var, value in caps.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert SPARE_CORE() is spare


@pytest.mark.parametrize("cap", [None, "cpus"])
def test_no_helper_starts_without_a_spare_core(monkeypatch, draw_threads,
                                               cap):
    monkeypatch.setattr(ensemble, "_spare_core", SPARE_CORE)
    for var in CAPS:
        monkeypatch.delenv(var, raising=False)
    if cap == "cpus":
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = os.cpu_count()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(cpus))
    before = threading.active_count()
    cfg = config()
    for trial in range(TRIALS):
        build_matrix(cfg, trial)
    assert ensemble._slot[3] is None
    assert threading.active_count() == before
    assert draw_threads == [(t, True) for t in range(TRIALS)]


@pytest.mark.parametrize("law", ["sphere", "cgauss"])
def test_a_block_above_the_byte_bound_is_not_read_ahead(monkeypatch,
                                                        draw_threads, law):
    cfg = config(law)
    # a complex entry takes 16 bytes, a real one 8
    size = cfg.n * cfg.m * (16 if cfg.law.is_complex else 8)
    monkeypatch.setattr(ensemble, "_READAHEAD_MAX_BYTES", size - 1)
    for trial in range(4):
        build_matrix(cfg, trial)
    assert draw_threads == [(t, True) for t in range(4)]
    monkeypatch.setattr(ensemble, "_READAHEAD_MAX_BYTES", size)
    for trial in range(4, 7):
        build_matrix(cfg, trial)
    drain()
    assert draw_threads[4:] == [(4, True), (5, False), (6, False), (7, False)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_draws_without_the_pending_readahead(monkeypatch):
    cfg = config()
    want = ensemble._draw_components(cfg, 2)
    draw = ensemble._draw_components
    release = threading.Event()

    def held(c, trial):
        # the worker's draw stays pending until the parent releases it
        if threading.current_thread() is not threading.main_thread():
            release.wait(timeout=60.0)
        return draw(c, trial)

    monkeypatch.setattr(ensemble, "_draw_components", held)
    build_matrix(cfg, 0)
    build_matrix(cfg, 1)
    assert ensemble._slot[3] is not None
    with warnings.catch_warnings():
        # Python 3.12 warns about forking a process that runs threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            got = build_matrix(cfg, 2)
            status = 0 if (np.array_equal(got.vectors, want[0])
                           and np.array_equal(got.taus, want[1])) else 1
        finally:
            os._exit(status)
    try:
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung on its draw")
            time.sleep(0.01)
    finally:
        release.set()
    assert os.waitstatus_to_exitcode(status) == 0


# A fresh interpreter with the gate forced on, whose worker draws slowly:
# it reaches its end with the readahead of trial 2 still pending. With
# "fork", a child forked there draws trials 2 to 4 (4 on a worker of its
# own), leaves the readahead of 5 pending and ends through sys.exit.
PENDING_AT_EXIT = """
import os, sys, threading, time, warnings
import numpy as np
from rank1spec import ensemble
from rank1spec.ensemble import EnsembleConfig, H0Zero, build_matrix
from rank1spec.measures import AmplitudeLaw
from rank1spec.samplers import VectorLaw

ensemble._spare_core = lambda: True
draw = ensemble._draw_components

def slow(c, trial):
    if threading.current_thread() is not threading.main_thread():
        time.sleep(0.5)
        print("drew", trial, flush=True)
    return draw(c, trial)

ensemble._draw_components = slow
cfg = EnsembleConfig(n=12, m=5, law=VectorLaw.parse("sphere"),
                     sigma=AmplitudeLaw([(1.0, 1.0)]), h0=H0Zero(), seed=3)
build_matrix(cfg, 0)
build_matrix(cfg, 1)
assert not ensemble._slot[3].done()
if sys.argv[1] == "fork":
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        ok = all([np.array_equal(build_matrix(cfg, t).vectors,
                                 draw(cfg, t)[0]) for t in (2, 3, 4)])
        assert not ensemble._slot[3].done()
        sys.exit(0 if ok else 1)
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def run_pending_at_exit(mode):
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [sys.executable, "-c", PENDING_AT_EXIT, mode], capture_output=True,
        text=True, timeout=60.0,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))


def test_exit_waits_for_the_pending_readahead():
    done = run_pending_at_exit("exit")
    assert done.returncode == 0, done.stderr
    # the worker is not a daemon: its draw ends before the interpreter
    assert done.stdout.splitlines() == ["drew 2"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_exits_normally_with_a_readahead_pending():
    done = run_pending_at_exit("fork")
    assert done.returncode == 0, done.stderr
    assert sorted(done.stdout.splitlines()) == ["drew 2", "drew 4",
                                                "drew 5"]
