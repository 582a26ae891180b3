"""The benchmark's workloads: which ``blindid`` CLI calls one pass makes.

A workload is a list of passes. Pass ``p`` is a fixed list of CLI calls whose
``--seed`` values are derived from the benchmark seed and ``p`` alone, so the
program only ever sees the generated argv. A run cycles through passes
``0 .. quality_passes - 1`` and starts again at 0, so every pass index
always asks for the same work and repeated calls must reproduce their output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

_MASK64 = (1 << 64) - 1

BASELINE_SEED = 1
HELD_OUT_SEED = 2


def derive_seed(seed: int, *indices: int) -> int:
    """31-bit CLI seed from the benchmark seed and indices (splitmix64 mix,
    kept separate from the program's own seed mixing on purpose)."""
    z = seed & _MASK64
    for idx in indices:
        z = (z + 0x9E3779B97F4A7C15 * (idx + 1)) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
    return z & 0x7FFFFFFF


@dataclass(frozen=True)
class Call:
    """One ``blindid`` CLI invocation: the subcommand and its options in order."""

    subcommand: str
    options: Tuple[Tuple[str, object], ...]

    def opt(self, key: str, default=None):
        for k, v in self.options:
            if k == key:
                return v
        return default

    def argv(self) -> List[str]:
        out = [self.subcommand]
        for k, v in self.options:
            out += [f"--{k}", str(v)]
        return out

    def sweep(self) -> Tuple[float, ...]:
        return tuple(float(t) for t in str(self.opt("sweep")).split(","))

    def threshold_d(self) -> int:
        """Identifiability threshold d, from the paper: m1+m2 (subspace),
        s1+m2 (mixed), s1+s2 (sparsity)."""
        kind = self.opt("kind")
        m1, m2 = int(self.opt("m1")), int(self.opt("m2"))
        if kind == "subspace":
            return m1 + m2
        if kind == "mixed":
            return int(self.opt("s1")) + m2
        if kind == "sparsity":
            return int(self.opt("s1")) + int(self.opt("s2"))
        raise ValueError(f"unknown scenario kind {kind!r}")


def _call(subcommand: str, **options) -> Call:
    return Call(subcommand, tuple(options.items()))


def _sweep(values) -> str:
    return ",".join(str(v) for v in values)


# The criterion-5 plans (m1 = m2 = 2, where d = m1*m2, plus the 4x4 1-sparse
# plan that enumerates 16 supports) and the m1 = m2 = 3 sweep, the only plan
# whose rows n = 6, 7, 8 sit in the paper's regime d <= n < m1*m2.
_TRANSITION_PLANS = (
    dict(kind="subspace", n=8, m1=2, m2=2, tag="complex_generic",
         sweep=_sweep(range(2, 9))),
    dict(kind="sparsity", n=5, m1=4, m2=4, s1=1, s2=1, tag="complex_generic",
         sweep="5"),
    dict(kind="subspace", n=8, m1=2, m2=2, tag="real_generic",
         sweep=_sweep(range(2, 9))),
    dict(kind="subspace", n=9, m1=3, m2=3, tag="complex_generic",
         sweep=_sweep(range(3, 10))),
)
TRANSITION_TRIALS = 20


def _transition_pass(seed: int, p: int) -> List[Call]:
    return [_call("transition", **plan, trials=TRANSITION_TRIALS,
                  seed=derive_seed(seed, p, j))
            for j, plan in enumerate(_TRANSITION_PLANS)]


# Every row has n >= m1*m2 = 16: least squares, no alternating minimization.
_WIDE_TAGS = ("complex_generic", "real_uniform_ball")
WIDE_TRIALS = 2


def _wide_pass(seed: int, p: int) -> List[Call]:
    return [_call("transition", kind="subspace", n=16, m1=4, m2=4, tag=tag,
                  sweep="16,64,256,1024", trials=WIDE_TRIALS,
                  seed=derive_seed(seed, p, j))
            for j, tag in enumerate(_WIDE_TAGS)]


# The criterion-7 configuration with fewer trials per call.
STABILITY_TRIALS = 6


def _stability_pass(seed: int, p: int) -> List[Call]:
    return [_call("stability", kind="subspace", n=10, m1=2, m2=2,
                  tag="complex_uniform_ball", sweep="0.3,0.1,0.03,0",
                  trials=STABILITY_TRIALS, seed=derive_seed(seed, p))]


# n = 1 yields a verified counterexample, n = 2, 3 exhaust the heuristic
# search budget, n >= 4 = |S1 u S1'| * |S2 u S2'| takes the exact path.
CERTIFY_NS = (1, 2, 3, 4, 6)


def _certify_pass(seed: int, p: int) -> List[Call]:
    return [_call("certify", kind="sparsity", n=n, m1=5, m2=5, s1=1, s2=1,
                  tag="complex_generic", level=level,
                  seed=derive_seed(seed, p, j))
            for j, (level, n) in enumerate(
                (lv, n) for lv in ("strong", "weak") for n in CERTIFY_NS)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    bypasses: str
    quality: str
    quality_passes: int
    make_pass: Callable[[int, int], List[Call]]
    # Host-speed probe whose work resembles this workload's (run.HOST_PROBES):
    # "small" for Python-bound calls on small matrices, "dense" for n = 1024
    # dense array builds.
    host_probe: str = "small"

    def pass_calls(self, seed: int, p: int) -> List[Call]:
        return self.make_pass(seed, p % self.quality_passes)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="transition",
            why="criterion-5 plans plus the m1=m2=3 sweep, the only one in "
                "the regime d <= n < m1*m2; alternating minimization with "
                "restarts dominates",
            stresses="recovery (solve_fixed_support, alt-min, support "
                     "enumeration)",
            bypasses="mc deviation search, certifiers",
            quality="recovery_rate: recovered trials / trials",
            quality_passes=8,
            make_pass=_transition_pass,
        ),
        Workload(
            name="transition-wide",
            why="m1=m2=4 up to n=1024, every row least squares; dense "
                "O(n^2) ensemble builds dominate",
            stresses="ensembles, spectral, lifting (apply_G)",
            bypasses="alternating minimization, mc deviation search",
            quality="recovery_rate: recovered trials / trials",
            quality_passes=4,
            make_pass=_wide_pass,
            host_probe="dense",
        ),
        Workload(
            name="stability",
            why="criterion-7 configuration; scipy L-BFGS-B in the deviation "
                "search dominates",
            stresses="mc (L-BFGS-B starts, feasible-segment scan)",
            bypasses="recovery solvers except at delta=0, large-n builds",
            quality="deviation_found: mean certified-feasible deviation "
                    "over delta > 0 trials",
            quality_passes=20,
            make_pass=_stability_pass,
        ),
        Workload(
            name="certify",
            why="strong and weak certificates at n in {1,2,3,4,6}; hits all "
                "three verdicts and the restricted-operator SVDs",
            stresses="recovery certifiers, lifting.operator_matrix",
            bypasses="mc sweeps, large-n builds",
            quality="conclusive_frac: certified_unique or verified "
                    "counterexample / calls",
            quality_passes=30,
            make_pass=_certify_pass,
        ),
    )
}
