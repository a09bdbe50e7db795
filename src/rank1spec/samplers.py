"""Isotropic vector laws, counter-based streams and draws.

Every law is normalized so that E (Y, X)^2 = |X|^2 / n for all fixed X
(sample covariance I/n); the complex law is isotropic as a vector in
R^{2n}, giving I/(2n) per real coordinate. Streams are counter-based
(Philox) and keyed by (master_seed, stream_id), so any draw is
reproducible bit for bit from its key alone. `stream_generators` walks a
range of such streams with one Philox, re-keyed per stream, and draws
the same bits as a fresh generator per key. The Monte Carlo check of
the normalization is `verify.isotropy_estimate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

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
                p = float(text[3:])
            except ValueError:
                raise ValueError(f"expected lp:p with a number p >= 1, "
                                 f"got {text!r}") from None
            return cls("lp", p)
        return cls(text)

    def encode(self) -> str:
        return f"lp:{self.p:g}" if self.kind == "lp" else self.kind

    def __str__(self) -> str:
        return self.encode()


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
    [master_seed, id], counter 0, empty buffer. The same generator
    object is yielded every time, so a yielded generator is valid only
    until the next one is yielded.
    """
    if not stream_ids:
        return
    # the ends of a range bound every id in it
    RngStream(master_seed, stream_ids[-1])
    gen = RngStream(master_seed, stream_ids[0]).generator()
    for stream_id in stream_ids:
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64),
                      "key": np.array([master_seed, stream_id],
                                      dtype=np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        yield gen


RngLike = Union[RngStream, np.random.Generator]


def as_generator(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


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


def lp_ball_points(p: float, n: int, count: int, rng: RngLike) -> np.ndarray:
    """Uniform draws from the unit l_p ball, shape (count, n).

    Coordinates g_i with density proportional to exp(-|t|^p) are built
    from Gamma(1/p) variates raised to 1/p with random signs; together
    with an independent W ~ Exp(1),

        x = g / (sum_i |g_i|^p + W)^(1/p)

    is uniform on the ball.
    """
    if p < 1.0:
        raise InvalidP(f"p must be >= 1, got {p}")
    if n < 1:
        raise InvalidDimension(f"dimension must be positive, got {n}")
    gen = as_generator(rng)
    gam = gen.gamma(1.0 / p, 1.0, size=(count, n))
    signs = np.where(gen.random((count, n)) < 0.5, -1.0, 1.0)
    w = gen.standard_exponential(count)
    radius = (gam.sum(axis=1) + w) ** (1.0 / p)
    return signs * gam ** (1.0 / p) / radius[:, None]


def sample_vectors(law: VectorLaw, n: int, count: int, rng: RngLike) -> np.ndarray:
    """Draw `count` isotropic vectors, shape (count, n)."""
    if n < 1:
        raise InvalidDimension(f"dimension must be positive, got {n}")
    gen = as_generator(rng)
    if law.kind == "sphere":
        g = gen.standard_normal((count, n))
        norms = np.linalg.norm(g, axis=1)
        return g / norms[:, None]
    if law.kind == "gauss":
        return gen.standard_normal((count, n)) / math.sqrt(n)
    if law.kind == "cube":
        a = math.sqrt(3.0 / n)
        return gen.uniform(-a, a, size=(count, n))
    if law.kind == "laplace":
        return gen.laplace(0.0, 1.0 / math.sqrt(2.0 * n), size=(count, n))
    if law.kind == "lp":
        return lp_ball_points(law.p, n, count, gen) * lp_scale(law.p, n)
    if law.kind == "cgauss":
        scale = math.sqrt(2.0 * n)
        re = gen.standard_normal((count, n))
        im = gen.standard_normal((count, n))
        return (re + 1j * im) / scale
    raise ValueError(f"unhandled law {law.kind!r}")


def sample_vector(law: VectorLaw, n: int, rng: RngLike) -> np.ndarray:
    """Draw one isotropic vector of dimension n."""
    return sample_vectors(law, n, 1, rng)[0]


def sample_tau(sigma, rng: RngLike, size: int | None = None):
    """Draw amplitudes by inverse CDF over the law's cumulative weights."""
    gen = as_generator(rng)
    cum = np.cumsum(sigma.weights)
    cum[-1] = 1.0
    u = gen.random(size if size is not None else 1)
    idx = np.minimum(np.searchsorted(cum, u, side="right"),
                     sigma.tau_values.size - 1)
    out = sigma.tau_values[idx]
    return out if size is not None else float(out[0])
