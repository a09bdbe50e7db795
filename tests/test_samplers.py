import numpy as np
import pytest

from rank1spec.errors import InvalidDimension, InvalidP
from rank1spec.measures import AmplitudeLaw
from rank1spec.samplers import (RngStream, VectorLaw, isotropy_estimate,
                                lp_ball_points, lp_scale, sample_tau,
                                sample_vector, sample_vectors)

ALL_LAWS = ["sphere", "gauss", "lp:1", "lp:2", "cube", "laplace", "cgauss"]


# ---------------------------------------------------------------------------
# law encoding
# ---------------------------------------------------------------------------

def test_law_parse_encode_roundtrip():
    for text in ALL_LAWS + ["lp:1.5", "lp:3.25"]:
        law = VectorLaw.parse(text)
        assert law.encode() == text
        assert VectorLaw.parse(law.encode()) == law


def test_law_parse_rejects_garbage():
    with pytest.raises(ValueError):
        VectorLaw.parse("banana")
    with pytest.raises(InvalidP):
        VectorLaw.parse("lp:0.5")
    with pytest.raises(ValueError):
        VectorLaw.parse("lp:abc")


def test_complex_flag():
    assert VectorLaw.parse("cgauss").is_complex
    assert not VectorLaw.parse("gauss").is_complex


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def test_stream_reproducible():
    a = RngStream(42, 7).generator().random(5)
    b = RngStream(42, 7).generator().random(5)
    assert np.array_equal(a, b)


def test_stream_ids_independent():
    a = RngStream(42, 7).generator().random(5)
    b = RngStream(42, 8).generator().random(5)
    c = RngStream(43, 7).generator().random(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# law normalization
# ---------------------------------------------------------------------------

def test_sphere_norms_exact():
    v = sample_vectors(VectorLaw.parse("sphere"), 37, 200, RngStream(0, 0))
    assert v.shape == (200, 37)
    assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) < 1e-12


def test_every_law_second_moment():
    # E (Y, e_i)^2 = 1/n; 20000 samples give SE ~ sqrt(2/n)/sqrt(S)
    n, count = 25, 20_000
    for text in ALL_LAWS:
        law = VectorLaw.parse(text)
        v = sample_vectors(law, n, count, RngStream(11, 0))
        m2 = float(np.mean(np.abs(v) ** 2) * n)
        assert abs(m2 - 1.0) < 0.02, text


def test_complex_law_splits_mass_between_parts():
    v = sample_vectors(VectorLaw.parse("cgauss"), 30, 20_000, RngStream(4, 0))
    assert np.iscomplexobj(v)
    re2 = float(np.mean(v.real ** 2) * 30)
    im2 = float(np.mean(v.imag ** 2) * 30)
    assert abs(re2 - 0.5) < 0.02
    assert abs(im2 - 0.5) < 0.02


def test_cube_coordinates_bounded():
    n = 16
    v = sample_vectors(VectorLaw.parse("cube"), n, 5000, RngStream(2, 0))
    bound = np.sqrt(3.0 / n)
    assert np.max(np.abs(v)) <= bound + 1e-15
    # flat distribution actually fills the box
    assert np.max(np.abs(v)) > 0.99 * bound


def test_single_vector_matches_block():
    law = VectorLaw.parse("laplace")
    a = sample_vector(law, 10, RngStream(9, 3))
    b = sample_vectors(law, 10, 1, RngStream(9, 3))[0]
    assert np.array_equal(a, b)


def test_dimension_validation():
    with pytest.raises(InvalidDimension):
        sample_vectors(VectorLaw.parse("gauss"), 0, 5, RngStream(0, 0))


# ---------------------------------------------------------------------------
# lp ball geometry
# ---------------------------------------------------------------------------

def test_lp_ball_points_stay_inside():
    for p in (1.0, 2.0, 3.0):
        pts = lp_ball_points(p, 6, 2000, RngStream(1, 0))
        norms = np.sum(np.abs(pts) ** p, axis=1) ** (1.0 / p)
        assert np.max(norms) <= 1.0 + 1e-12


def test_lp_ball_uniformity_euclidean_disk():
    # uniform on the n = 2 disk: P(|x| <= 1/2) = 1/4
    pts = lp_ball_points(2.0, 2, 200_000, RngStream(5, 0))
    frac = float(np.mean(np.linalg.norm(pts, axis=1) <= 0.5))
    se = np.sqrt(0.25 * 0.75 / 200_000)
    assert abs(frac - 0.25) < 3 * se + 1e-3


def test_lp_ball_uniformity_diamond():
    # any planar norm ball scales area quadratically
    pts = lp_ball_points(1.0, 2, 200_000, RngStream(6, 0))
    frac = float(np.mean(np.sum(np.abs(pts), axis=1) <= 0.5))
    se = np.sqrt(0.25 * 0.75 / 200_000)
    assert abs(frac - 0.25) < 3 * se + 1e-3


def test_lp_ball_single_point():
    x = lp_ball_points(1.5, 4, 1, RngStream(8, 0))[0]
    assert x.shape == (4,)
    assert np.sum(np.abs(x) ** 1.5) <= 1.0


def test_lp_scale_euclidean_closed_form():
    # uniform ball coordinate variance is 1/(n+2); the isotropic target
    # 1/n gives scale sqrt((n+2)/n)
    for n in (2, 5, 50):
        assert lp_scale(2.0, n) == pytest.approx(np.sqrt((n + 2) / n), rel=1e-12)


def test_lp_scale_monte_carlo():
    # gamma-representation scale must normalize raw ball coordinates for
    # every p, not only p = 2
    count = 400_000
    for p in (1.0, 3.5):
        raw = lp_ball_points(p, 12, count, RngStream(9, 0))
        m2 = float(np.mean((raw * lp_scale(p, 12)) ** 2) * 12)
        assert abs(m2 - 1.0) < 0.01


def test_lp_rejects_bad_p():
    with pytest.raises(InvalidP):
        lp_ball_points(0.99, 3, 10, RngStream(0, 0))


# ---------------------------------------------------------------------------
# amplitude sampling
# ---------------------------------------------------------------------------

def test_sample_tau_frequencies():
    sig = AmplitudeLaw([(-1.0, 0.25), (2.0, 0.75)])
    taus = sample_tau(sig, RngStream(3, 0), size=100_000)
    frac = float(np.mean(taus == -1.0))
    assert abs(frac - 0.25) < 5 * np.sqrt(0.25 * 0.75 / 100_000)
    assert set(np.unique(taus)) == {-1.0, 2.0}


def test_sample_tau_scalar_and_deterministic():
    sig = AmplitudeLaw([(1.0, 1.0)])
    assert sample_tau(sig, RngStream(0, 0)) == 1.0
    a = sample_tau(AmplitudeLaw([(0.0, 0.5), (1.0, 0.5)]), RngStream(1, 2), size=10)
    b = sample_tau(AmplitudeLaw([(0.0, 0.5), (1.0, 0.5)]), RngStream(1, 2), size=10)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# isotropy check
# ---------------------------------------------------------------------------

def test_isotropy_passes_for_builtin_laws():
    for text in ("gauss", "lp:1", "cgauss"):
        rep = isotropy_estimate(VectorLaw.parse(text), 15, 30_000, RngStream(2, 0))
        assert rep.passed, (text, rep.max_ratio)
        assert rep.samples == 30_000


def test_isotropy_fails_for_skewed_sampler():
    def skewed(n, count, gen):
        v = gen.normal(size=(count, n)) / np.sqrt(n)
        v[:, 0] *= 2.0
        return v
    rep = isotropy_estimate(VectorLaw.parse("gauss"), 20, 50_000,
                            RngStream(0, 0), sampler=skewed)
    assert not rep.passed
    assert rep.max_ratio > 10


def test_isotropy_fails_for_correlated_sampler():
    def correlated(n, count, gen):
        v = gen.normal(size=(count, n)) / np.sqrt(n)
        v[:, 1] = 0.5 * v[:, 1] + 0.5 * v[:, 0]
        return v
    rep = isotropy_estimate(VectorLaw.parse("gauss"), 10, 50_000,
                            RngStream(0, 0), sampler=correlated)
    assert not rep.passed


def test_isotropy_report_dict():
    rep = isotropy_estimate(VectorLaw.parse("sphere"), 8, 5000, RngStream(7, 0))
    d = rep.to_dict()
    assert d["kind"] == "isotropy"
    assert d["params"] == {"law": "sphere", "n": 8, "samples": 5000}
    assert d["pass"] == rep.passed
    # estimate and bound are both in units of the standard error
    assert d["estimate"] == d["max_ratio"] == rep.max_ratio >= 0
    assert d["bound"] == rep.ratio_threshold
    assert d["max_cov_deviation"] == rep.max_cov_deviation >= 0


def test_isotropy_needs_a_sample():
    # one sample has zero spread, so every deviation's ratio would be inf
    for samples in (0, 1):
        with pytest.raises(ValueError, match="at least 2 samples"):
            isotropy_estimate(VectorLaw.parse("gauss"), 8, samples,
                              RngStream(0, 0))
