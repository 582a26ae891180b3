"""Spans around the public boundaries of each ``blindid`` layer.

The program is not changed: :meth:`Tracer.install` replaces each traced
public function by a timing wrapper wherever a ``blindid`` module looks it up
(its module global, or the name another module imported), and
:meth:`Tracer.uninstall` puts the originals back. Spans are kept in memory;
counters are read from return values and arguments.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: int
    info: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_info(arguments, result) -> dict:
    k = len(arguments["S1"]) * len(arguments["S2"])
    return {"altmin": arguments["ens"].n < k, "restarts": result.restarts_used}


def _lbfgs_info(arguments, result) -> dict:
    return {"nit": int(result.nit), "nfev": int(result.nfev),
            "status": int(result.status)}


def _verdict_info(arguments, result) -> dict:
    return {"budget": int(result.search_budget), "status": result.status}


# (module, attribute, span name, counter reader). A reader gets the call's
# arguments by parameter name and its return value. The scipy optimizer is
# traced where mc looks it up, so scipy itself is not touched.
TRACED = (
    ("blindid.ensembles", "build_ensemble", "ensembles.build_ensemble", None),
    ("blindid.spectral", "circular_convolve", "spectral.circular_convolve", None),
    ("blindid.spectral", "dft", "spectral.dft", None),
    ("blindid.spectral", "dft_matrix", "spectral.dft_matrix", None),
    ("blindid.lifting", "apply_G", "lifting.apply_G", None),
    ("blindid.lifting", "apply_A", "lifting.apply_A", None),
    ("blindid.lifting", "operator_matrix", "lifting.operator_matrix", None),
    ("blindid.recovery", "solve_fixed_support", "recovery.solve_fixed_support", _solve_info),
    ("blindid.recovery", "solve_sparse_enumerate", "recovery.solve_sparse_enumerate", None),
    ("blindid.recovery", "certify_strong", "recovery.certify_strong", _verdict_info),
    ("blindid.recovery", "certify_weak", "recovery.certify_weak", _verdict_info),
    ("blindid.mc", "minimize", "mc.lbfgs", _lbfgs_info),
    ("blindid.mc", "max_feasible_deviation", "mc.max_feasible_deviation", None),
    ("blindid.mc", "run_phase_transition", "mc.sweep", None),
    ("blindid.mc", "run_stability_sweep", "mc.sweep", None),
    ("blindid.cli", "main", "cli.main", None),
)
BOUNDS_MODULE = "blindid.bounds"


class Tracer:
    """Records spans (name, start, end, parent, run id) in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self.run = 0
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def wrap(self, name: str, fn: Callable, info: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if info is not None else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else None, self.run))
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = spans[idx]
                span.start, span.end = start, end
            if info is not None:
                span.info = info(signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _targets(self):
        for module, attr, name, info in TRACED:
            fn = getattr(importlib.import_module(module), attr, None)
            if fn is not None:
                yield fn, name, info
        bounds = importlib.import_module(BOUNDS_MODULE)
        for attr in getattr(bounds, "__all__", ()):
            fn = getattr(bounds, attr, None)
            if callable(fn) and not isinstance(fn, type):
                yield fn, "bounds." + attr, None

    def install(self) -> None:
        """Replace every traced function wherever a blindid module binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for fn, name, info in self._targets():
            wrappers.setdefault(id(fn), (fn, self.wrap(name, fn, info)))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "blindid" or modname.startswith("blindid.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def _busy(spans: List[Span], pred) -> float:
    """Time in spans matching pred, counting nested matches once."""
    total = 0.0
    for s in spans:
        if not pred(s.name):
            continue
        up = s.parent
        while up is not None and not pred(spans[up].name):
            up = spans[up].parent
        if up is None:
            total += s.duration
    return total


def _self_times(spans: List[Span]) -> List[float]:
    """Span duration minus the part of it that its children cover. Spans are
    recorded from one thread, so children never overlap one another."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: List[Span], cycles: int) -> Dict[str, float]:
    """Per-layer metrics for one cycle of work (totals divided by cycles)."""
    own = _self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ())) / cycles

    def busy(name):
        return _busy(spans, lambda n: n == name) / cycles

    def self_s(name):
        return sum(own[i] for i in by_name.get(name, ())) / cycles

    def infos(name):
        return [spans[i].info for i in by_name.get(name, ()) if spans[i].info]

    solves = infos("recovery.solve_fixed_support")
    enumerations = by_name.get("recovery.solve_sparse_enumerate", ())
    verdicts = infos("recovery.certify_strong") + infos("recovery.certify_weak")
    conclusive = sum(1 for v in verdicts if v["status"] != "heuristically_unique")
    starts = infos("mc.lbfgs")
    children = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0) + (
                s.name == "recovery.solve_fixed_support")

    return {
        "ensembles.build_ensemble.calls": calls("ensembles.build_ensemble"),
        "ensembles.build_ensemble.busy_s": busy("ensembles.build_ensemble"),
        "spectral.circular_convolve.busy_s": busy("spectral.circular_convolve"),
        "spectral.dft.busy_s": busy("spectral.dft"),
        "spectral.dft_matrix.busy_s": busy("spectral.dft_matrix"),
        "lifting.apply_G.busy_s": busy("lifting.apply_G"),
        "lifting.apply_A.busy_s": busy("lifting.apply_A"),
        "lifting.operator_matrix.calls": calls("lifting.operator_matrix"),
        "lifting.operator_matrix.busy_s": busy("lifting.operator_matrix"),
        "recovery.solve_fixed_support.calls": calls("recovery.solve_fixed_support"),
        "recovery.solve_fixed_support.busy_s": busy("recovery.solve_fixed_support"),
        "recovery.solve_fixed_support.self_s": self_s("recovery.solve_fixed_support"),
        "recovery.restarts_per_solve": _mean(v["restarts"] for v in solves if v["altmin"]),
        "recovery.solve_sparse_enumerate.busy_s": busy("recovery.solve_sparse_enumerate"),
        "recovery.supports_per_enumeration": _mean(children.get(i, 0) for i in enumerations),
        "recovery.certify_strong.busy_s": busy("recovery.certify_strong"),
        "recovery.certify_weak.busy_s": busy("recovery.certify_weak"),
        "recovery.certify.attempts_per_conclusive":
            sum(v["budget"] for v in verdicts) / conclusive if conclusive else 0.0,
        "mc.lbfgs.calls": calls("mc.lbfgs"),
        "mc.lbfgs.busy_s": busy("mc.lbfgs"),
        "mc.lbfgs.nfev_per_start": _mean(v["nfev"] for v in starts),
        "mc.lbfgs.nit_per_start": _mean(v["nit"] for v in starts),
        "mc.lbfgs.converged_frac": _mean(v["status"] == 0 for v in starts),
        "mc.max_feasible_deviation.self_s": self_s("mc.max_feasible_deviation"),
        "mc.sweep.self_s": self_s("mc.sweep"),
        "bounds.busy_s": _busy(spans, lambda n: n.startswith("bounds.")) / cycles,
        "cli.self_s": self_s("cli.main"),
        "cli.busy_s": busy("cli.main"),
    }
