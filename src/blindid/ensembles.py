"""Constraint scenarios and random basis/frame ensembles.

An ensemble holds the pair of matrices (D, E) together with the derived
frequency-domain row vectors a_j, b_j, where a_j is the conjugate transpose
of row j of F*D (F the unitary DFT matrix) and b_j likewise for F*E.

Supported tags:
  complex_generic       D, E have i.i.d. standard complex Gaussian entries
  complex_uniform_ball  a_j, b_j rows drawn i.i.d. uniform on radius-R balls
  real_generic          D, E have i.i.d. real standard Gaussian entries
  real_uniform_ball     free DFT rows drawn on balls, completed by conjugate
                        symmetry so that D, E come out real
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "ScenarioError",
    "ConstraintScenario",
    "Ensemble",
    "COMPLEX_GENERIC",
    "COMPLEX_UNIFORM_BALL",
    "REAL_GENERIC",
    "REAL_UNIFORM_BALL",
    "sample_uniform_complex_ball_batch",
    "sample_uniform_real_ball_batch",
    "build_ensemble",
    "mix_seed",
]

COMPLEX_GENERIC = "complex_generic"
COMPLEX_UNIFORM_BALL = "complex_uniform_ball"
REAL_GENERIC = "real_generic"
REAL_UNIFORM_BALL = "real_uniform_ball"

_COMPLEX_TAGS = (COMPLEX_GENERIC, COMPLEX_UNIFORM_BALL)
_REAL_TAGS = (REAL_GENERIC, REAL_UNIFORM_BALL)
_BALL_TAGS = (COMPLEX_UNIFORM_BALL, REAL_UNIFORM_BALL)
ALL_TAGS = _COMPLEX_TAGS + _REAL_TAGS

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ScenarioError(ValueError):
    """Invalid constraint-scenario parameters."""


@dataclass(frozen=True)
class ConstraintScenario:
    """Dimensions and kind of the signal/filter constraint sets.

    kind is one of "subspace", "mixed", "sparsity". For "mixed" the signal
    is s1-sparse over an n x m1 dictionary and the filter lives in an
    m2-dimensional subspace; for "sparsity" both sides are sparse.

    Any positive n is valid, also below the sample count d of the kind, so
    the sweeps can show both sides of the threshold and `recover` can replay
    every sweep row. The results that need n > d or n > 2d check it where
    they apply (the stability bounds in `bounds`).
    """

    kind: str
    n: int
    m1: int
    m2: int
    s1: Optional[int] = None
    s2: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("subspace", "mixed", "sparsity"):
            raise ScenarioError(f"unknown scenario kind {self.kind!r}")
        # bool is an int subclass, but True is no dimension
        for name in ("n", "m1", "m2"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                raise ScenarioError(f"{name} must be a positive integer, got {v!r}")
        for name, v in (("s1", self.s1), ("s2", self.s2)):  # ranges are checked per kind
            if isinstance(v, bool) or not isinstance(v, (int, np.integer, type(None))):
                raise ScenarioError(f"{name} must be a positive integer, got {v!r}")
        if self.kind == "subspace":
            if self.s1 is not None or self.s2 is not None:
                raise ScenarioError("subspace scenario takes no sparsity levels")
        elif self.kind == "mixed":
            if self.s1 is None:
                raise ScenarioError("mixed scenario requires s1")
            if self.s2 is not None:
                raise ScenarioError("mixed scenario takes no s2")
            if not (1 <= self.s1 <= self.m1):
                raise ScenarioError(f"mixed scenario requires 1 <= s1 <= m1, got s1={self.s1}")
        else:  # sparsity
            if self.s1 is None or self.s2 is None:
                raise ScenarioError("sparsity scenario requires s1 and s2")
            if not (1 <= self.s1 <= self.m1):
                raise ScenarioError(f"sparsity scenario requires 1 <= s1 <= m1, got s1={self.s1}")
            if not (1 <= self.s2 <= self.m2):
                raise ScenarioError(f"sparsity scenario requires 1 <= s2 <= m2, got s2={self.s2}")

    def with_n(self, n: int) -> "ConstraintScenario":
        return replace(self, n=n)

    @property
    def support_sizes(self) -> tuple[int, int]:
        """(k1, k2), the support size of x and of y: s1 or m1, s2 or m2. A
        subspace side is its one support of full size."""
        return self.s1 or self.m1, self.s2 or self.m2

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def mix_seed(master_seed: int, *indices: int) -> int:
    """Derive an independent 64-bit sub-seed from a master seed and indices.

    Uses the splitmix64 finalizer on master_seed successively combined with
    each index scaled by the golden-ratio constant. Documented so that
    individual Monte-Carlo trials are reproducible in isolation.
    """
    z = master_seed & _MASK64
    for idx in indices:
        z = (z ^ ((idx & _MASK64) * _GOLDEN)) & _MASK64
        z = (z + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z = (z ^ (z >> 31)) & _MASK64
    return z


def sample_uniform_complex_ball_batch(m: int, R: float, rng: np.random.Generator,
                                      size: int) -> np.ndarray:
    """`size` samples, (size, m), uniformly distributed on the radius-R ball
    in C^m.

    Isotropic complex Gaussian direction times radius R*U^(1/(2m)); the ball
    has real dimension 2m, so this is exact and rejection-free.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not R > 0:
        raise ValueError("R must be positive")
    g = rng.standard_normal((size, m)) + 1j * rng.standard_normal((size, m))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    radii = R * rng.uniform(size=(size, 1)) ** (1.0 / (2 * m))
    return g / norms * radii


def sample_uniform_real_ball_batch(m: int, R: float, rng: np.random.Generator,
                                   size: int) -> np.ndarray:
    """`size` samples, (size, m), uniformly distributed on the radius-R ball
    in R^m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not R > 0:
        raise ValueError("R must be positive")
    g = rng.standard_normal((size, m))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    radii = R * rng.uniform(size=(size, 1)) ** (1.0 / m)
    return g / norms * radii


@dataclass(frozen=True)
class Ensemble:
    """Random bases/frames D, E with their frequency-domain rows a_j, b_j.

    Invariants: a[j] == conj((F @ D)[j]) and b[j] == conj((F @ E)[j]).
    Serializes to a small JSON manifest; matrices re-derive from the seed.
    A stack of T trials (build_ensemble with T seeds) holds a tuple of T
    seeds, and its arrays carry a leading trial axis.
    """

    scenario: ConstraintScenario
    tag: str
    seed: int
    R: Optional[float]
    D: np.ndarray = field(repr=False)
    E: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)  # shape ([T,] n, m1), row j is a_j
    b: np.ndarray = field(repr=False)  # shape ([T,] n, m2), row j is b_j

    @property
    def n(self) -> int:
        return self.scenario.n

    def to_manifest(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "tag": self.tag,
            "seed": self.seed,
            "R": self.R,
        }

    def trial(self, t: int) -> "Ensemble":
        """Trial t of a stack, as a lone ensemble."""
        return replace(self, seed=self.seed[t], D=self.D[t], E=self.E[t],
                       a=self.a[t], b=self.b[t])


def _rows_from_matrix(D: np.ndarray) -> np.ndarray:
    # a_j is the conjugate transpose of row j of F @ D
    return np.fft.fft(D, axis=-2, norm="ortho").conj()


def _matrix_from_rows(rows: np.ndarray) -> np.ndarray:
    # invert: F @ D has row j equal to conj(a_j), and F is unitary
    return np.fft.ifft(rows.conj(), axis=-2, norm="ortho")


def _real_ball_rows(n: int, m: int, R: float, rng: np.random.Generator) -> np.ndarray:
    """Frequency rows of a real matrix: free rows on balls, rest by conjugation.

    0-based row 0 (and row n/2 for even n) are real, drawn uniform on the
    real radius-R ball; rows 1 .. ceil((n+1)/2)-1 are drawn uniform on the
    complex ball in one batch; row n-j is the conjugate of row j.
    """
    rows = np.empty((n, m), dtype=np.complex128)
    rows[0] = sample_uniform_real_ball_batch(m, R, rng, 1)[0]
    half = (n + 1) // 2  # rows 1..half-1 are free complex rows
    rows[1:half] = sample_uniform_complex_ball_batch(m, R, rng, half - 1)
    rows[n - half + 1:] = rows[half - 1:0:-1].conj()
    if n % 2 == 0:
        rows[n // 2] = sample_uniform_real_ball_batch(m, R, rng, 1)[0]
    return rows


def _complex_normal(g: np.ndarray) -> np.ndarray:
    """Standard complex Gaussians from real draws g (..., 2, size) that hold
    the real parts, then the imaginary parts."""
    return (g[..., 0, :] + 1j * g[..., 1, :]) / np.sqrt(2)


def _gaussian_matrices(sc: ConstraintScenario, tag: str, rngs: Sequence[np.random.Generator]):
    """D and E (T, n, m) of the generic tags: trial t draws D then E (for
    complex, each as its real then its imaginary part) in one call of
    rngs[t]; the complex assembly runs once on the stack."""
    parts = 2 if tag == COMPLEX_GENERIC else 1
    g = np.array([rng.standard_normal(parts * sc.n * (sc.m1 + sc.m2)) for rng in rngs])
    D, E = g[:, :parts * sc.n * sc.m1], g[:, parts * sc.n * sc.m1:]
    if parts == 2:
        D, E = (_complex_normal(G.reshape(len(g), 2, -1)) for G in (D, E))
    return tuple(np.ascontiguousarray(G.reshape(len(g), sc.n, -1)) for G in (D, E))


def _ball_rows(sc: ConstraintScenario, tag: str, R: float, rng: np.random.Generator):
    """One trial's frequency rows a then b of the ball tags, drawn from rng."""
    if tag == COMPLEX_UNIFORM_BALL:
        return tuple(sample_uniform_complex_ball_batch(m, R, rng, sc.n) for m in (sc.m1, sc.m2))
    return tuple(_real_ball_rows(sc.n, m, R, rng) for m in (sc.m1, sc.m2))


def build_ensemble(sc: ConstraintScenario, tag: str, seed: Union[int, Sequence[int]],
                   R: Optional[float] = None, *,
                   rngs: Optional[Sequence[np.random.Generator]] = None) -> Ensemble:
    """Build a seeded ensemble. Same (scenario, tag, seed, R) => identical arrays.

    seed is one seed, or a sequence of T seeds for a stack of T trials:
    D, E, a and b with a leading trial axis, and the tuple of the T seeds.
    Each trial draws from the generator of its seed, in one call for the
    generic tags; the complex assembly and the FFTs between D, E and their
    rows a, b then run once on the stack, each with the bits of a lone one,
    so trial t of a stack is the ensemble of seed t. A caller that goes on
    drawing from a trial's generator passes rngs, the generators of the T
    seeds, freshly built; they are left open after the ensemble draws.
    """
    if tag not in ALL_TAGS:
        raise ValueError(f"unknown ensemble tag {tag!r}")
    if tag in _BALL_TAGS:
        if R is None or not R > 0:
            raise ValueError(f"tag {tag!r} requires a positive ball radius R")
    elif R is not None:
        raise ValueError(f"tag {tag!r} takes no ball radius")

    lone = isinstance(seed, (int, np.integer))
    seeds = (seed,) if lone else tuple(seed)
    if rngs is None:
        rngs = [np.random.default_rng(s) for s in seeds]
    if tag not in _BALL_TAGS:
        D, E = _gaussian_matrices(sc, tag, rngs)
        a, b = _rows_from_matrix(D), _rows_from_matrix(E)
    else:
        a, b = (np.array(rows) for rows in zip(*(_ball_rows(sc, tag, R, rng) for rng in rngs)))
        D, E = _matrix_from_rows(a), _matrix_from_rows(b)
        if tag == REAL_UNIFORM_BALL:
            for name, M in (("D", D), ("E", E)):
                scale = np.maximum(1.0, np.abs(M).max(axis=(1, 2)))
                if (np.abs(M.imag).max(axis=(1, 2)) > 1e-10 * scale).any():
                    raise AssertionError(f"{name} is not real after conjugate completion")
            D, E = D.real.copy(), E.real.copy()
    ens = Ensemble(scenario=sc, tag=tag, seed=seeds, R=R, D=D, E=E, a=a, b=b)
    return ens.trial(0) if lone else ens
