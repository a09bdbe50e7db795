"""Isotropic vector laws, counter-based streams and draws.

Every law is normalized so that E (Y, X)^2 = |X|^2 / n for all fixed X
(sample covariance I/n); the complex law is isotropic as a vector in
R^{2n}, giving I/(2n) per real coordinate. Streams are counter-based
(Philox) and keyed by (master_seed, stream_id), so any draw is
reproducible bit for bit from its key alone. `stream_generators` walks a
range of such streams with one Philox, re-keyed per stream, and draws
the same bits as a fresh generator per key. `keyed_vectors` and
`keyed_taus` draw one vector or amplitude per stream of such a range,
bit for bit as `sample_vector` and `sample_tau` on a fresh stream. The
Monte Carlo check of the normalization is `verify.isotropy_estimate`.

numpy loads numpy.random on first attribute access, so this module
touches np.random only in annotations (strings here) and inside the
functions that draw: a run that draws nothing, such as `density`, never
loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InvalidDimension, InvalidP

_REAL_KINDS = ("sphere", "gauss", "cube", "laplace")
_ALL_KINDS = _REAL_KINDS + ("lp", "cgauss")


@dataclass(frozen=True)
class VectorLaw:
    """One of: sphere, gauss, lp (with p >= 1), cube, laplace, cgauss."""

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown vector law {self.kind!r}")
        if self.kind == "lp":
            if self.p is None or not 1.0 <= self.p < math.inf:
                raise InvalidP(f"lp law requires a finite p >= 1, got {self.p}")
        elif self.p is not None:
            raise ValueError(f"law {self.kind!r} takes no p parameter")

    @property
    def is_complex(self) -> bool:
        return self.kind == "cgauss"

    @classmethod
    def parse(cls, text: str) -> "VectorLaw":
        text = text.strip()
        if text.startswith("lp:"):
            try:
                return cls("lp", float(text[3:]))
            except (ValueError, InvalidP) as exc:
                raise type(exc)(f"expected lp:p with a number p >= 1, "
                                f"got {text!r}") from None
        return cls(text)

    def encode(self) -> str:
        """The text `parse` reads back as this law: p as :g if that keeps it."""
        if self.kind != "lp":
            return self.kind
        short = f"{self.p:g}"
        return f"lp:{short if float(short) == self.p else repr(self.p)}"


@dataclass(frozen=True)
class RngStream:
    """Counter-based stream keyed by (master_seed, stream_id)."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0 or v >= 2 ** 64:
                raise ValueError(f"{name} must be an integer in [0, 2^64)")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(
            key=np.array([self.master_seed, self.stream_id], dtype=np.uint64)))


def stream_generators(master_seed: int,
                      stream_ids: range) -> Iterator[np.random.Generator]:
    """The generators of streams (master_seed, id) for id in stream_ids.

    Each equals `RngStream(master_seed, id).generator()` draw for draw,
    but one Philox is built and re-keyed per stream: key
    [master_seed, id], counter 0, empty buffer. The state dict and its
    key array are built once per call and only the key's stream id is
    set per stream; the state setter copies the values. The same
    generator object is yielded every time, so a yielded generator is
    valid only until the next one is yielded.
    """
    if not stream_ids:
        return
    # the ends of a range bound every id in it
    RngStream(master_seed, stream_ids[-1])
    gen = RngStream(master_seed, stream_ids[0]).generator()
    key = np.array([master_seed, 0], dtype=np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for stream_id in stream_ids:
        key[1] = stream_id
        gen.bit_generator.state = state
        yield gen


def as_generator(rng: RngStream | np.random.Generator) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


# Largest p drawn from Gamma(1/p) directly; up to it a draw underflows
# to 0 with probability below e^-44 per coordinate.
LP_SPLIT_P = 16.0


def lp_scale(p: float, n: int) -> float:
    """Isotropy scale s for the uniform law on the l_p ball.

    With m2(p, n) = Gamma(3/p) Gamma(n/p + 1) / (Gamma(1/p)
    Gamma((n+2)/p + 1)) the per-coordinate second moment on the unit
    ball, s = sqrt(1 / (n m2)) makes the scaled law isotropic. For p = 2
    this reduces to sqrt((n + 2) / n).
    """
    if p < 1.0:
        raise InvalidP(f"p must be >= 1, got {p}")
    if n < 1:
        raise InvalidDimension(f"dimension must be positive, got {n}")
    log_m2 = (math.lgamma(3.0 / p) + math.lgamma(n / p + 1.0)
              - math.lgamma(1.0 / p) - math.lgamma((n + 2.0) / p + 1.0))
    return math.sqrt(math.exp(-log_m2) / n)


def lp_ball_points(p: float, n: int, count: int,
                   rng: RngStream | np.random.Generator) -> np.ndarray:
    """Uniform draws from the unit l_p ball, shape (count, n).

    Coordinates g_i with density proportional to exp(-|t|^p) are built
    from Gamma(1/p) variates raised to 1/p with random signs; together
    with an independent W ~ Exp(1),

        x = g / (sum_i |g_i|^p + W)^(1/p)

    is uniform on the ball. For p > LP_SPLIT_P a Gamma(1/p) draw
    underflows to 0 too often (numpy draws it as a power U^p), so
    |g_i| = G^(1/p) U is built from G ~ Gamma(1 + 1/p) and U ~ U(0, 1),
    as Gamma(a) = Gamma(a + 1) U^(1/a) in law; |g_i|^p = G U^p may
    underflow there, but only where it is negligible in the sum.
    """
    if p < 1.0:
        raise InvalidP(f"p must be >= 1, got {p}")
    if n < 1:
        raise InvalidDimension(f"dimension must be positive, got {n}")
    gen = as_generator(rng)
    if p <= LP_SPLIT_P:
        gam = gen.gamma(1.0 / p, 1.0, size=(count, n))
        mag = gam ** (1.0 / p)
    else:
        shifted = gen.gamma(1.0 + 1.0 / p, 1.0, size=(count, n))
        u = gen.random((count, n))
        gam = shifted * u ** p
        mag = shifted ** (1.0 / p) * u
    signs = np.where(gen.random((count, n)) < 0.5, -1.0, 1.0)
    w = gen.standard_exponential(count)
    radius = (gam.sum(axis=1) + w) ** (1.0 / p)
    return signs * mag / radius[:, None]


# laws drawn as raw standard normals or uniforms, then finished as a block
_BLOCK_KINDS = ("sphere", "gauss", "cube", "cgauss")


def _fill_raw(law: VectorLaw, gen: np.random.Generator, re: np.ndarray,
              im: np.ndarray | None) -> None:
    """Write a block law's raw draws into re, then (cgauss) into im."""
    if law.kind == "cube":
        gen.random(out=re)
        return
    gen.standard_normal(out=re)
    if im is not None:
        gen.standard_normal(out=im)


def _finish(law: VectorLaw, n: int, re: np.ndarray,
            im: np.ndarray | None) -> np.ndarray:
    """A block law's vectors (one per row) from its raw draws, in place
    for the real laws."""
    if law.kind == "sphere":
        re /= np.linalg.norm(re, axis=1)[:, None]
    elif law.kind == "gauss":
        re /= math.sqrt(n)
    elif law.kind == "cube":
        # Generator.uniform(-a, a) is -a + (a - (-a)) * random()
        a = math.sqrt(3.0 / n)
        re *= a - (-a)
        re += -a
    else:
        return (re + 1j * im) / math.sqrt(2.0 * n)
    return re


def sample_vectors(law: VectorLaw, n: int, count: int,
                   rng: RngStream | np.random.Generator) -> np.ndarray:
    """Draw `count` isotropic vectors, shape (count, n)."""
    if n < 1:
        raise InvalidDimension(f"dimension must be positive, got {n}")
    gen = as_generator(rng)
    if law.kind in _BLOCK_KINDS:
        re = np.empty((count, n))
        im = np.empty_like(re) if law.is_complex else None
        _fill_raw(law, gen, re, im)
        return _finish(law, n, re, im)
    if law.kind == "laplace":
        return gen.laplace(0.0, 1.0 / math.sqrt(2.0 * n), size=(count, n))
    if law.kind == "lp":
        return lp_ball_points(law.p, n, count, gen) * lp_scale(law.p, n)
    raise ValueError(f"unhandled law {law.kind!r}")


def sample_vector(law: VectorLaw, n: int,
                  rng: RngStream | np.random.Generator) -> np.ndarray:
    """Draw one isotropic vector of dimension n."""
    return sample_vectors(law, n, 1, rng)[0]


def keyed_vectors(law: VectorLaw, n: int, master_seed: int,
                  stream_ids: range) -> np.ndarray:
    """One vector per stream (master_seed, id), as the rows of a C-ordered
    (len(stream_ids), n) block.

    Row i equals `sample_vector(law, n, RngStream(master_seed,
    stream_ids[i]))` bit for bit. Each stream writes its raw draws
    straight into its row (cgauss: a real row, then an imaginary row),
    and the law's finishing step, the sphere's row norms or a scale,
    then runs once on the whole block. laplace and lp rows are drawn
    whole, one stream at a time.
    """
    if n < 1:
        raise InvalidDimension(f"dimension must be positive, got {n}")
    rows = np.empty((len(stream_ids), n))
    gens = stream_generators(master_seed, stream_ids)
    if law.kind not in _BLOCK_KINDS:
        for row, gen in zip(rows, gens):
            row[:] = sample_vectors(law, n, 1, gen)[0]
        return rows
    im = np.empty_like(rows) if law.is_complex else None
    for alpha, gen in enumerate(gens):
        _fill_raw(law, gen, rows[alpha], None if im is None else im[alpha])
    return _finish(law, n, rows, im)


def _tau_lookup(sigma, u: np.ndarray) -> np.ndarray:
    """Inverse CDF over the law's cumulative weights at uniforms u."""
    cum = np.cumsum(sigma.weights)
    cum[-1] = 1.0
    idx = np.minimum(np.searchsorted(cum, u, side="right"),
                     sigma.tau_values.size - 1)
    return sigma.tau_values[idx]


def sample_tau(sigma, rng: RngStream | np.random.Generator,
               size: int | None = None):
    """Draw amplitudes by inverse CDF over the law's cumulative weights."""
    u = as_generator(rng).random(size if size is not None else 1)
    out = _tau_lookup(sigma, u)
    return out if size is not None else float(out[0])


def keyed_taus(sigma, master_seed: int, stream_ids: range) -> np.ndarray:
    """One amplitude per stream (master_seed, id), each equal to
    `sample_tau(sigma, RngStream(master_seed, id))`.

    Each stream gives one uniform, and one inverse-CDF lookup maps them
    all. A law with a single atom fills the amplitudes directly, since
    every draw would return that atom.
    """
    if sigma.tau_values.size == 1:
        return np.full(len(stream_ids), sigma.tau_values[0])
    u = np.fromiter((gen.random() for gen in
                     stream_generators(master_seed, stream_ids)),
                    dtype=float, count=len(stream_ids))
    return _tau_lookup(sigma, u)
