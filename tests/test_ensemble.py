import numpy as np
import pytest

from rank1spec import ensemble
from rank1spec.ensemble import (EnsembleConfig, H0Diagonal, H0File, H0Zero,
                                _draw_components, _gram_factor,
                                assemble_matrix, build_matrix,
                                counting_fractions, counting_measure,
                                eigenvalues_sym,
                                gram_counting_relation, gram_matrix, parse_h0,
                                read_h0_file, read_spectrum_csv, resolve_h0,
                                resolvent_traces, write_spectrum_csv)
from rank1spec.errors import (EigensolveFailed, H0Mismatch,
                              RealAxisEvaluation, ShapeMismatch)
from rank1spec.measures import AmplitudeLaw, EmpiricalSpectrum
from rank1spec.samplers import RngStream, VectorLaw, sample_tau, sample_vector

UNIT_SIGMA = AmplitudeLaw([(1.0, 1.0)])


def sphere_config(n, m, seed=0, sigma=UNIT_SIGMA, law="sphere", h0=None):
    return EnsembleConfig(n=n, m=m, law=VectorLaw.parse(law), sigma=sigma,
                          h0=h0 if h0 is not None else H0Zero(), seed=seed)


# ---------------------------------------------------------------------------
# base matrix specs
# ---------------------------------------------------------------------------

def test_parse_h0_variants():
    assert isinstance(parse_h0("zero"), H0Zero)
    d = parse_h0("diag:1,2.5,-3")
    assert isinstance(d, H0Diagonal)
    assert d.entries == (1.0, 2.5, -3.0)
    f = parse_h0("file:/tmp/h.txt")
    assert isinstance(f, H0File)
    assert f.path == "/tmp/h.txt"
    with pytest.raises(ValueError):
        parse_h0("identity")


def test_resolve_h0_shapes():
    assert np.array_equal(resolve_h0(H0Zero(), 3), np.zeros((3, 3)))
    assert np.array_equal(resolve_h0(H0Diagonal((1.0, 2.0)), 2),
                          np.diag([1.0, 2.0]))
    with pytest.raises(H0Mismatch):
        resolve_h0(H0Diagonal((1.0, 2.0)), 3)


def test_h0_file_roundtrip(tmp_path):
    mat = np.array([[1.0, 0.25], [0.25, -2.0]])
    path = tmp_path / "h0.txt"
    path.write_text("2\n1.0 0.25\n0.25 -2.0\n")
    got = read_h0_file(path)
    assert np.array_equal(got, mat)
    assert np.array_equal(resolve_h0(H0File(str(path)), 2), mat)
    with pytest.raises(H0Mismatch):
        resolve_h0(H0File(str(path)), 5)


def test_h0_file_rejects_asymmetry(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1.0 0.3\n0.1 2.0\n")
    with pytest.raises(H0Mismatch):
        read_h0_file(path)


def test_h0_file_rejects_bad_counts(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("3\n1 0 0\n0 1 0\n")
    with pytest.raises(H0Mismatch):
        read_h0_file(path)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_h0_file_rejects_non_finite_entries(tmp_path, entry):
    path = tmp_path / "h0.txt"
    path.write_text(f"3\n1 0 0\n0 {entry} 0\n0 0 1\n")
    with pytest.raises(H0Mismatch, match=r"h0\.txt: entry \(2, 2\)"):
        read_h0_file(path)


def test_h0_file_rejects_non_numbers(tmp_path):
    path = tmp_path / "h0.txt"
    path.write_text("2\n1 x\nx 1\n")
    with pytest.raises(H0Mismatch, match="h0.txt"):
        read_h0_file(path)


def write_h0_file(path, mat):
    rows = "\n".join(" ".join(repr(float(v)) for v in row) for row in mat)
    path.write_text(f"{mat.shape[0]}\n{rows}\n")


def test_h0_array_is_resolved_once_and_read_only(tmp_path, monkeypatch):
    path = tmp_path / "h0.txt"
    write_h0_file(path, np.array([[1.0, 0.25], [0.25, -2.0]]))
    reads = []
    monkeypatch.setattr("rank1spec.ensemble.read_h0_file",
                        lambda p: reads.append(p) or read_h0_file(p))
    cfg = sphere_config(2, 1, h0=H0File(str(path)))
    assert cfg.h0_array is cfg.h0_array
    assert len(reads) == 1
    with pytest.raises(ValueError):
        cfg.h0_array[0, 0] = 5.0


# ---------------------------------------------------------------------------
# ensemble assembly
# ---------------------------------------------------------------------------

def test_build_deterministic_per_trial():
    cfg = sphere_config(20, 10, seed=3)
    a = build_matrix(cfg, trial=0).array
    b = build_matrix(cfg, trial=0).array
    c = build_matrix(cfg, trial=1).array
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_build_seed_changes_output():
    a = build_matrix(sphere_config(12, 6, seed=0)).array
    b = build_matrix(sphere_config(12, 6, seed=1)).array
    assert not np.array_equal(a, b)


def test_assemble_forced_components():
    # tau = 2 on the first axis over a diagonal base shifts one
    # eigenvalue by exactly 2
    n = 5
    base = np.diag(np.arange(1.0, 6.0))
    y = np.zeros((n, 1)); y[0, 0] = 1.0
    H = assemble_matrix(base, np.array([2.0]), y)
    ev = eigenvalues_sym(H).eigenvalues
    assert np.allclose(np.sort(ev), [2.0, 3.0, 3.0, 4.0, 5.0], atol=1e-12)


def test_assemble_matches_manual_sum():
    rng = np.random.default_rng(0)
    n, m = 8, 3
    ys = rng.normal(size=(n, m))
    taus = np.array([0.5, -1.0, 2.0])
    H = assemble_matrix(np.zeros((n, n)), taus, ys)
    manual = sum(t * np.outer(ys[:, k], ys[:, k]) for k, t in enumerate(taus))
    assert np.allclose(H, manual, atol=1e-12)


def test_build_diag_base_enters_spectrum():
    cfg = sphere_config(4, 0, h0=parse_h0("diag:5,6,7,8"))
    ev = eigenvalues_sym(build_matrix(cfg)).eigenvalues
    assert np.allclose(ev, [5.0, 6.0, 7.0, 8.0], atol=1e-12)


def test_complex_law_builds_hermitian():
    cfg = sphere_config(10, 5, law="cgauss")
    H = build_matrix(cfg)
    A = H.array
    assert np.iscomplexobj(A)
    assert np.max(np.abs(A - A.conj().T)) < 1e-12
    ev = eigenvalues_sym(H).eigenvalues
    assert np.max(np.abs(ev.imag)) == 0.0 if np.iscomplexobj(ev) else True


def test_interlacing_under_positive_update():
    rng = np.random.default_rng(17)
    n = 12
    base = rng.normal(size=(n, n)); base = (base + base.T) / 2
    y = rng.normal(size=(n, 1)); y /= np.linalg.norm(y)
    lam0 = np.linalg.eigvalsh(base)
    lam1 = eigenvalues_sym(assemble_matrix(base, np.array([1.7]), y)).eigenvalues
    assert np.all(lam1 >= lam0 - 1e-12)
    assert np.all(lam1[:-1] <= lam0[1:] + 1e-12)


# ---------------------------------------------------------------------------
# factored matrices and the Gram-side eigensolve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", [
    sphere_config(60, 24, seed=1),
    sphere_config(50, 20, seed=2, law="gauss",
                  sigma=AmplitudeLaw([(-2.0, 0.5), (-0.5, 0.5)])),
    sphere_config(40, 40, seed=3, law="cube",
                  sigma=AmplitudeLaw([(0.0, 0.5), (1.5, 0.5)])),
    sphere_config(30, 12, seed=4, law="cgauss"),
], ids=["sphere-unit", "all-negative", "zero-atom", "cgauss"])
def test_gram_side_matches_dense_eigensolve(cfg):
    H = build_matrix(cfg, trial=0)
    w, _ = _gram_factor(H)
    assert w.shape[1] < cfg.n
    got = eigenvalues_sym(H).eigenvalues
    dense = np.linalg.eigvalsh(H.array)
    assert got.size == cfg.n
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.linalg.norm(H.array, 2)
    # the padded eigenvalues are exact zeros
    assert np.count_nonzero(got == 0.0) >= cfg.n - w.shape[1]


@pytest.mark.parametrize("sigma", [
    UNIT_SIGMA,
    AmplitudeLaw([(0.0, 0.3), (1.0, 0.7)]),
    AmplitudeLaw([(2.5, 1.0)]),
    AmplitudeLaw([(-0.5, 0.6), (-3.0, 0.4)]),
], ids=["unit", "zero-atom", "non-unit", "negative"])
@pytest.mark.parametrize("law", ["sphere", "cgauss"])
def test_gram_side_is_byte_identical_to_masked_scaled_gram(law, sigma):
    cfg = sphere_config(40, 16, seed=6, sigma=sigma, law=law)
    vectors, taus = _draw_components(cfg, 1)
    keep = taus != 0.0
    w = vectors[:, keep] * np.sqrt(np.abs(taus[keep]))
    sign = -1.0 if np.all(taus[keep] < 0.0) else 1.0
    ev = np.linalg.eigvalsh(w.conj().T @ w)
    want = EmpiricalSpectrum(np.concatenate(
        [sign * ev, np.zeros(cfg.n - ev.size)])).eigenvalues
    got = eigenvalues_sym(build_matrix(cfg, trial=1)).eigenvalues
    assert got.tobytes() == want.tobytes()


def test_gram_factor_of_unit_amplitudes_is_the_vectors_uncopied():
    H = build_matrix(sphere_config(30, 10, seed=2), trial=0)
    w, sign = _gram_factor(H)
    assert w is H.vectors
    assert sign == 1.0


@pytest.mark.parametrize("cfg", [
    sphere_config(20, 20, seed=1),
    sphere_config(20, 30, seed=1, law="gauss"),
    sphere_config(30, 10, seed=2, sigma=AmplitudeLaw([(-1.0, 0.5), (1.0, 0.5)])),
    sphere_config(30, 10, seed=2, h0=parse_h0("diag:" + ",".join(["0"] * 30))),
], ids=["m-equals-n", "m-above-n", "mixed-signs", "explicit-zero-base"])
def test_dense_path_outside_gram_conditions(cfg):
    H = build_matrix(cfg, trial=0)
    assert _gram_factor(H) is None
    assert np.array_equal(eigenvalues_sym(H).eigenvalues,
                          np.linalg.eigvalsh(H.array))


@pytest.mark.parametrize("cfg", [
    sphere_config(16, 6, seed=5),
    sphere_config(16, 6, seed=5, law="cgauss",
                  sigma=AmplitudeLaw([(-1.0, 0.5), (2.0, 0.5)])),
    sphere_config(16, 6, seed=5, h0=parse_h0("diag:" + ",".join(["1.5"] * 16))),
], ids=["zero-base", "cgauss-signed", "diag-base"])
def test_factored_array_equals_assembled(cfg):
    vectors, taus = _draw_components(cfg, 2)
    want = assemble_matrix(resolve_h0(cfg.h0, cfg.n), taus, vectors)
    assert np.array_equal(build_matrix(cfg, trial=2).array, want)


def test_single_atom_law_fills_draws_unchanged():
    cfg = sphere_config(8, 5, seed=9, sigma=AmplitudeLaw([(-0.5, 1.0)]))
    _, taus = _draw_components(cfg, 3)
    drawn = [sample_tau(cfg.sigma, RngStream(cfg.seed, 3 * 2**32 + 2**31 + a))
             for a in range(5)]
    assert taus.tolist() == drawn


KEYING_SIGMAS = pytest.mark.parametrize("sigma", [
    AmplitudeLaw([(1.0, 1.0)]),
    AmplitudeLaw([(1.0, 0.5), (-0.5, 0.5)]),
    AmplitudeLaw([(0.0, 0.3), (2.0, 0.7)]),
], ids=["single-atom", "signed-two-atom", "atom-at-zero"])
KEYING_LAWS = pytest.mark.parametrize("law", [
    "sphere", "gauss", "cube", "laplace", "lp:1", "lp:1.5", "cgauss"])


def check_documented_keying(law, sigma, n, m):
    seed = 21
    cfg = sphere_config(n, m, seed=seed, sigma=sigma, law=law)
    for t in (0, 2):
        vectors, taus = _draw_components(cfg, t)
        assert vectors.shape == (n, m)
        # the (n, m) view of the C-ordered (m, n) block the streams fill
        assert vectors.T.flags.c_contiguous
        for a in range(m):
            want = sample_vector(cfg.law, n, RngStream(seed, t * 2**32 + a))
            assert np.array_equal(vectors[:, a], want)
            want = sample_tau(sigma, RngStream(seed, t * 2**32 + 2**31 + a))
            assert np.array_equal(taus[a], want)


@KEYING_SIGMAS
@KEYING_LAWS
def test_draws_follow_the_documented_keying(law, sigma):
    check_documented_keying(law, sigma, 6, 5)


@KEYING_SIGMAS
@KEYING_LAWS
@pytest.mark.parametrize("n, m", [(400, 4), (1024, 3)])
def test_draws_follow_the_documented_keying_past_the_summation_block(
        law, sigma, n, m):
    # numpy sums in pairwise blocks of 128, so a block row norm that summed
    # in another order than a single vector's norm would show here
    check_documented_keying(law, sigma, n, m)


def layout_guard_cases(tmp):
    signed = AmplitudeLaw([(1.0, 0.5), (-0.5, 0.5)])
    with_zero = AmplitudeLaw([(0.0, 0.3), (2.0, 0.7)])
    diag = parse_h0("diag:" + ",".join(str((-1.0) ** i) for i in range(30)))
    return [
        sphere_config(40, 16, seed=3),
        sphere_config(30, 45, seed=3),
        sphere_config(40, 16, seed=4, law="gauss", sigma=with_zero),
        sphere_config(40, 16, seed=4, law="cgauss", sigma=with_zero),
        sphere_config(30, 45, seed=5, law="cgauss", sigma=signed),
        sphere_config(30, 12, seed=5, law="gauss", sigma=signed, h0=diag),
        sphere_config(30, 45, seed=6, sigma=with_zero, h0=diag),
        sphere_config(30, 12, seed=6, law="cube", sigma=signed,
                      h0=file_base(tmp / "h0.txt", 30)),
        sphere_config(30, 45, seed=7, law="cgauss", sigma=with_zero,
                      h0=file_base(tmp / "h0.txt", 30)),
    ]


def layout_sensitive_outputs(cfg):
    """Every output computed from a trial's vectors, as arrays."""
    return [eigenvalues_sym(build_matrix(cfg, trial=1)).eigenvalues,
            eigenvalues_sym(build_matrix(cfg, trial=1).array).eigenvalues,
            counting_fractions(cfg, (0.25, 1.5), [0, 1, 2]),
            resolvent_traces(cfg, 0.5 + 0.2j, [0, 1, 2]),
            gram_matrix(cfg, trial=2)]


def test_outputs_do_not_depend_on_the_vector_layout(tmp_path, monkeypatch):
    # the draws hand out a transposed (F-ordered) view; a C-ordered copy of
    # the same values must give the same bits everywhere downstream
    configs = layout_guard_cases(tmp_path)
    want = [layout_sensitive_outputs(cfg) for cfg in configs]
    draw = ensemble._draw_components

    def c_ordered(config, trial):
        vectors, taus = draw(config, trial)
        assert not vectors.flags.c_contiguous
        return np.ascontiguousarray(vectors), taus

    monkeypatch.setattr(ensemble, "_draw_components", c_ordered)
    for cfg, outputs in zip(configs, want):
        for got, expected in zip(layout_sensitive_outputs(cfg), outputs):
            assert np.array_equal(got, expected)


def test_eigensolve_failure_is_typed():
    diagonal = np.eye(4)
    diagonal[1, 1] = np.nan
    off_diagonal = np.eye(4)
    off_diagonal[1, 2] = off_diagonal[2, 1] = np.nan
    for matrix in (diagonal, off_diagonal):
        with pytest.raises(EigensolveFailed):
            eigenvalues_sym(matrix)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_config_rejects_seed_outside_64_bits(seed):
    with pytest.raises(ValueError,
                       match=r"seed must be an integer in \[0, 2\^64\)"):
        sphere_config(4, 0, seed=seed)


@pytest.mark.parametrize("m", [0, 3])
@pytest.mark.parametrize("trial", [-1, 2**32])
def test_draws_reject_trial_outside_32_bits(m, trial):
    with pytest.raises(ValueError,
                       match=r"trial must be an integer in \[0, 2\^32\)"):
        _draw_components(sphere_config(4, m), trial)


# ---------------------------------------------------------------------------
# eigensolver cross-checks
# ---------------------------------------------------------------------------

def test_eigenvalues_match_characteristic_polynomial():
    # independent 5x5 oracle: interpolate det(M - t I) at 6 points and
    # take the polynomial roots
    rng = np.random.default_rng(23)
    M = rng.normal(size=(5, 5)); M = (M + M.T) / 2
    pts = np.linspace(-3.0, 3.0, 6)
    dets = [np.linalg.det(M - t * np.eye(5)) for t in pts]
    coeffs = np.polyfit(pts, dets, 5)
    roots = np.sort(np.real(np.roots(coeffs)))
    ev = eigenvalues_sym(M).eigenvalues
    assert np.max(np.abs(roots - ev)) < 1e-8


def test_eigenvalues_trace_identities():
    cfg = sphere_config(80, 40, seed=3, law="laplace",
                        sigma=AmplitudeLaw([(-1.0, 0.3), (1.0, 0.7)]))
    H = build_matrix(cfg)
    ev = eigenvalues_sym(H).eigenvalues
    A = H.array
    nrm = np.linalg.norm(A, 2)
    assert abs(ev.sum() - np.trace(A)) <= 1e-8 * 80 * nrm
    assert abs((ev ** 2).sum() - np.trace(A @ A)) <= 1e-6 * 80 * nrm ** 2


def test_counting_measure_interval_semantics():
    spec = EmpiricalSpectrum(np.array([0.0, 1.0, 2.0, 3.0]))
    assert counting_measure(spec, 0.0, 2.0) == pytest.approx(0.5)   # (0, 2]
    assert counting_measure(spec, -0.5, 0.0) == pytest.approx(0.25)
    assert counting_measure(spec, 3.0, 9.0) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# resolvent traces
# ---------------------------------------------------------------------------

def dense_traces(cfg, z, trials):
    return np.array([np.mean(1.0 / (np.linalg.eigvalsh(
        build_matrix(cfg, trial=t).array) - z)) for t in trials])


def file_base(path, n, seed=11):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, n)) / np.sqrt(n)
    write_h0_file(path, (mat + mat.T) / 2)
    return H0File(str(path))


SIGNED_WITH_ZERO = AmplitudeLaw([(1.5, 0.4), (0.0, 0.2), (-0.7, 0.4)])


@pytest.mark.parametrize("make", [
    lambda tmp: sphere_config(20, 0),
    lambda tmp: sphere_config(40, 24, seed=1, law="cgauss",
                              sigma=SIGNED_WITH_ZERO),
    lambda tmp: sphere_config(40, 24, seed=2, law="gauss",
                              sigma=SIGNED_WITH_ZERO,
                              h0=parse_h0("diag:" + ",".join(
                                  str(v) for v in np.linspace(-1, 1, 40)))),
    lambda tmp: sphere_config(36, 50, seed=3, law="cgauss",
                              sigma=SIGNED_WITH_ZERO,
                              h0=file_base(tmp / "h0.txt", 36)),
    lambda tmp: sphere_config(30, 12, seed=4, law="cube",
                              sigma=AmplitudeLaw([(-2.0, 1.0)]),
                              h0=file_base(tmp / "h0.txt", 30)),
    lambda tmp: sphere_config(25, 0, seed=5,
                              h0=file_base(tmp / "h0.txt", 25)),
    lambda tmp: sphere_config(25, 8, seed=6, law="gauss",
                              sigma=AmplitudeLaw([(0.0, 1.0)]),
                              h0=parse_h0("diag:" + ",".join(["0.5"] * 25))),
], ids=["zero-base-m-zero", "cgauss-zero-base", "gauss-diag-base", "cgauss-file-base-m-above-n",
        "cube-file-base-negative", "m-zero", "all-amplitudes-zero"])
def test_woodbury_traces_match_eigensolve(tmp_path, make):
    cfg = make(tmp_path)
    for z in (1j, 0.3 + 0.2j, -1.0 + 0.05j):
        got = resolvent_traces(cfg, z, [0, 3])
        assert np.max(np.abs(got - dense_traces(cfg, z, [0, 3]))) < 1e-10


def test_woodbury_traces_reject_real_z():
    with pytest.raises(RealAxisEvaluation):
        resolvent_traces(sphere_config(10, 4), 0.5, [0])


# ---------------------------------------------------------------------------
# counting fractions
# ---------------------------------------------------------------------------

def dense_fractions(cfg, a, b, trials):
    return np.array([counting_measure(eigenvalues_sym(
        build_matrix(cfg, trial=t).array), a, b) for t in trials])


@pytest.mark.parametrize("make", [
    lambda tmp: sphere_config(20, 0),
    lambda tmp: sphere_config(40, 24, seed=1, law="cgauss",
                              sigma=SIGNED_WITH_ZERO),
    lambda tmp: sphere_config(40, 24, seed=2, law="gauss",
                              sigma=SIGNED_WITH_ZERO,
                              h0=parse_h0("diag:" + ",".join(
                                  str(v) for v in np.linspace(-1, 1, 40)))),
    lambda tmp: sphere_config(36, 50, seed=3, law="cgauss",
                              sigma=SIGNED_WITH_ZERO,
                              h0=file_base(tmp / "h0.txt", 36)),
    lambda tmp: sphere_config(30, 12, seed=4, law="cube",
                              sigma=AmplitudeLaw([(-2.0, 1.0)]),
                              h0=file_base(tmp / "h0.txt", 30)),
    lambda tmp: sphere_config(25, 0, seed=5,
                              h0=file_base(tmp / "h0.txt", 25)),
    lambda tmp: sphere_config(25, 8, seed=6, law="gauss",
                              sigma=AmplitudeLaw([(0.0, 1.0)]),
                              h0=parse_h0("diag:" + ",".join(["0.5"] * 25))),
    lambda tmp: sphere_config(30, 40, seed=7, law="laplace",
                              sigma=AmplitudeLaw([(0.8, 1.0)]),
                              h0=parse_h0("diag:" + ",".join(["-0.3"] * 30))),
], ids=["zero-base-m-zero", "cgauss-zero-base", "gauss-diag-base",
        "cgauss-file-base-m-above-n", "cube-file-base-negative", "m-zero",
        "all-amplitudes-zero", "one-sign-diag-base-m-above-n"])
def test_counting_fractions_match_the_dense_count(tmp_path, make):
    cfg = make(tmp_path)
    for a, b in ((-0.45, 0.35), (-2.0, 1.2), (0.1, 3.0)):
        got = counting_fractions(cfg, (a, b), range(4))
        assert np.array_equal(got, dense_fractions(cfg, a, b, range(4)))


def test_counting_fractions_solve_on_the_m_side(monkeypatch):
    cfg = sphere_config(60, 10, law="gauss", sigma=SIGNED_WITH_ZERO,
                        h0=parse_h0("diag:" + ",".join(["-1", "1"] * 30)))
    want = dense_fractions(cfg, -0.5, 0.5, range(3))
    orders = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: orders.append(m.shape[0]) or eigvalsh(m))
    assert np.array_equal(counting_fractions(cfg, (-0.5, 0.5), range(3)),
                          want)
    # one solve per endpoint and trial, none of them of order n
    assert len(orders) == 6 and max(orders) <= 10


@pytest.mark.parametrize("interval", [(-1.0, 0.5), (-0.5, 1.0 + 1e-13)])
def test_counting_fractions_fall_back_at_a_base_eigenvalue(monkeypatch,
                                                           interval):
    # an endpoint on an eigenvalue of H0 = diag(+-1) leaves D - x
    # singular, so every trial is solved densely at order n
    cfg = sphere_config(40, 10, seed=2, law="gauss", sigma=SIGNED_WITH_ZERO,
                        h0=parse_h0("diag:" + ",".join(["-1", "1"] * 20)))
    want = dense_fractions(cfg, *interval, range(3))
    orders = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: orders.append(m.shape[0]) or eigvalsh(m))
    assert np.array_equal(counting_fractions(cfg, interval, range(3)), want)
    assert orders == [40] * 3


# ---------------------------------------------------------------------------
# gram duality
# ---------------------------------------------------------------------------

def test_gram_single_direction_unit_norm():
    cfg = sphere_config(10, 1)
    ev = eigenvalues_sym(gram_matrix(cfg)).eigenvalues
    assert np.allclose(ev, [1.0], atol=1e-12)


def test_gram_counting_relation_clean():
    cfg = sphere_config(60, 30, seed=1, law="gauss")
    full = eigenvalues_sym(build_matrix(cfg).array)
    gram = eigenvalues_sym(gram_matrix(cfg))
    assert gram_counting_relation(gram, full, 60, 30) < 1e-12


def test_gram_counting_relation_detects_corruption():
    cfg = sphere_config(30, 10, seed=1, law="gauss")
    full = eigenvalues_sym(build_matrix(cfg).array)
    gram = eigenvalues_sym(gram_matrix(cfg))
    bad = gram.eigenvalues.copy()
    bad[3] += 0.1
    assert gram_counting_relation(EmpiricalSpectrum(bad), full, 30, 10) >= 0.05


def test_gram_square_case_multisets_agree():
    cfg = sphere_config(40, 40, seed=2, law="gauss")
    fe = eigenvalues_sym(build_matrix(cfg).array).eigenvalues
    ge = eigenvalues_sym(gram_matrix(cfg)).eigenvalues
    assert np.max(np.abs(np.sort(fe) - np.sort(ge))) < 1e-8


def test_gram_relation_validates_shapes():
    cfg = sphere_config(20, 10)
    full = eigenvalues_sym(build_matrix(cfg).array)
    gram = eigenvalues_sym(gram_matrix(cfg))
    with pytest.raises(ShapeMismatch):
        gram_counting_relation(gram, full, 10, 20)   # needs n >= m
    with pytest.raises(ShapeMismatch):
        gram_counting_relation(gram, full, 21, 10)   # sizes must match


# ---------------------------------------------------------------------------
# spectrum files
# ---------------------------------------------------------------------------

def test_spectrum_csv_roundtrip(tmp_path):
    spec = EmpiricalSpectrum(np.array([0.5, -1.25, 3.75]))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spec, path)
    got = read_spectrum_csv(path)
    assert np.array_equal(got.eigenvalues, np.sort([0.5, -1.25, 3.75]))
