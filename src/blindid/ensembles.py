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

from dataclasses import dataclass, field, replace
from typing import Optional

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
        for name in ("n", "m1", "m2"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
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

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "n": self.n, "m1": self.m1, "m2": self.m2}
        if self.s1 is not None:
            d["s1"] = self.s1
        if self.s2 is not None:
            d["s2"] = self.s2
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ConstraintScenario":
        return cls(
            kind=d["kind"], n=int(d["n"]), m1=int(d["m1"]), m2=int(d["m2"]),
            s1=None if d.get("s1") is None else int(d["s1"]),
            s2=None if d.get("s2") is None else int(d["s2"]),
        )


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
    """

    scenario: ConstraintScenario
    tag: str
    seed: int
    R: Optional[float]
    D: np.ndarray = field(repr=False)
    E: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)  # shape (n, m1), row j is a_j
    b: np.ndarray = field(repr=False)  # shape (n, m2), row j is b_j

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

    @classmethod
    def from_manifest(cls, manifest: dict) -> "Ensemble":
        sc = ConstraintScenario.from_dict(manifest["scenario"])
        return build_ensemble(sc, manifest["tag"], int(manifest["seed"]),
                              R=manifest.get("R"))


def _rows_from_matrix(D: np.ndarray) -> np.ndarray:
    # a_j is the conjugate transpose of row j of F @ D
    return np.fft.fft(D, axis=0, norm="ortho").conj()


def _matrix_from_rows(rows: np.ndarray) -> np.ndarray:
    # invert: F @ D has row j equal to conj(a_j), and F is unitary
    return np.fft.ifft(rows.conj(), axis=0, norm="ortho")


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


def build_ensemble(sc: ConstraintScenario, tag: str, seed: int,
                   R: Optional[float] = None) -> Ensemble:
    """Build a seeded ensemble. Same (scenario, tag, seed, R) => identical arrays."""
    if tag not in ALL_TAGS:
        raise ValueError(f"unknown ensemble tag {tag!r}")
    if tag in _BALL_TAGS:
        if R is None or not R > 0:
            raise ValueError(f"tag {tag!r} requires a positive ball radius R")
    elif R is not None:
        raise ValueError(f"tag {tag!r} takes no ball radius")

    n, m1, m2 = sc.n, sc.m1, sc.m2
    rng = np.random.default_rng(seed)

    if tag == COMPLEX_GENERIC:
        D = (rng.standard_normal((n, m1)) + 1j * rng.standard_normal((n, m1))) / np.sqrt(2)
        E = (rng.standard_normal((n, m2)) + 1j * rng.standard_normal((n, m2))) / np.sqrt(2)
        a = _rows_from_matrix(D)
        b = _rows_from_matrix(E)
    elif tag == COMPLEX_UNIFORM_BALL:
        a = sample_uniform_complex_ball_batch(m1, R, rng, n)
        b = sample_uniform_complex_ball_batch(m2, R, rng, n)
        D = _matrix_from_rows(a)
        E = _matrix_from_rows(b)
    elif tag == REAL_GENERIC:
        D = rng.standard_normal((n, m1))
        E = rng.standard_normal((n, m2))
        a = _rows_from_matrix(D)
        b = _rows_from_matrix(E)
    else:  # REAL_UNIFORM_BALL
        a = _real_ball_rows(n, m1, R, rng)
        b = _real_ball_rows(n, m2, R, rng)
        D = _matrix_from_rows(a)
        E = _matrix_from_rows(b)
        for name, M in (("D", D), ("E", E)):
            scale = max(1.0, float(np.abs(M).max()))
            if np.abs(M.imag).max() > 1e-10 * scale:
                raise AssertionError(f"{name} is not real after conjugate completion")
        D, E = D.real.copy(), E.real.copy()

    return Ensemble(scenario=sc, tag=tag, seed=seed, R=R, D=D, E=E, a=a, b=b)

