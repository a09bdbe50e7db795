import numpy as np
import pytest

from rank1spec.ensemble import (EnsembleConfig, H0Diagonal, H0File, H0Zero,
                                SymMatrix, _draw_components, _gram_factor,
                                _rank1_trace_update, _tau_stream,
                                assemble_matrix, build_matrix,
                                counting_measure, eigenvalues_sym,
                                gram_counting_relation, gram_matrix, parse_h0,
                                read_h0_file, read_spectrum_csv, resolve_h0,
                                resolvent_trace_stream, write_spectrum_csv)
from rank1spec.errors import (H0Mismatch, NearSingularDenominator,
                              ShapeMismatch)
from rank1spec.measures import AmplitudeLaw, EmpiricalSpectrum
from rank1spec.samplers import VectorLaw, sample_tau

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


def test_symmetric_wrapper_rejects_asymmetry():
    with pytest.raises(ValueError):
        SymMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))


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
    assert np.allclose(H.array, manual, atol=1e-12)


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
    want = assemble_matrix(resolve_h0(cfg.h0, cfg.n), taus, vectors).array
    assert np.array_equal(build_matrix(cfg, trial=2).array, want)


def test_single_atom_law_fills_draws_unchanged():
    cfg = sphere_config(8, 5, seed=9, sigma=AmplitudeLaw([(-0.5, 1.0)]))
    _, taus = _draw_components(cfg, 3)
    drawn = [sample_tau(cfg.sigma, _tau_stream(cfg, 3, a)) for a in range(5)]
    assert taus.tolist() == drawn


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
    ev = eigenvalues_sym(SymMatrix(M)).eigenvalues
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
# resolvent stream
# ---------------------------------------------------------------------------

def test_resolvent_stream_empty_sum():
    cfg = sphere_config(20, 0)
    assert resolvent_trace_stream(cfg, 2j) == pytest.approx(-1 / 2j, abs=1e-15)


def test_resolvent_stream_matches_eigensolve():
    cfg = sphere_config(50, 25, seed=7)
    ev = eigenvalues_sym(build_matrix(cfg)).eigenvalues
    for z in (2j, 1j, 0.5 + 0.5j):
        g_stream = resolvent_trace_stream(cfg, z)
        g_eig = np.mean(1.0 / (ev - z))
        assert abs(g_stream - g_eig) < 1e-8


def test_resolvent_stream_mixed_signs_and_base():
    cfg = sphere_config(30, 15, seed=2, law="cube",
                        sigma=AmplitudeLaw([(-2.0, 0.5), (1.0, 0.5)]),
                        h0=parse_h0("diag:" + ",".join(["0.5"] * 30)))
    ev = eigenvalues_sym(build_matrix(cfg)).eigenvalues
    g = resolvent_trace_stream(cfg, 1 + 1j)
    assert abs(g - np.mean(1.0 / (ev - (1 + 1j)))) < 1e-8


def test_rank1_update_guards_singular_denominator():
    # craft G with y^H G y = -1/tau so the update denominator vanishes
    G = np.diag([-0.5 + 0j, 1.0]).astype(complex)
    trace = complex(np.trace(G))
    y = np.array([1.0 + 0j, 0.0])
    with pytest.raises(NearSingularDenominator):
        _rank1_trace_update(G, trace, y, 2.0)


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
