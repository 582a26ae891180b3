"""Output checker: parses one CLI call's CSV/JSON and checks invariants.

It checks invariants, not bytes, so a correct change to the program (for
instance a solver fix that raises recovery rates) still passes. Two kinds of
finding are kept apart:

* ``errors`` mean the output itself is wrong or untrustworthy: a nonzero exit,
  a malformed or non-finite value, fields that contradict each other, an
  unsound certifier verdict, a stability row that breaks the proven bound.
  Any error makes the run's ``correct`` false.
* ``failed`` counts operations that did not reach their required outcome,
  including a transition trial at n >= d that the solver did not recover.
  Such an output is truthful but the operation failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import List

from workloads import Call

TRANSITION_COLUMNS = ["n", "trials", "successes", "rate", "d", "two_d",
                      "mean_lifted_error"]
STABILITY_COLUMNS = ["delta", "trials", "violations", "violation_rate",
                     "epsilon", "bound_raw", "bound_clamped", "max_deviation",
                     "mean_lifted_error"]
VERDICTS = ("certified_unique", "counterexample_found", "heuristically_unique")

# A lifted deviation is between two matrices in the unit Frobenius ball.
MAX_DEVIATION = 2.0
SLACK = 1e-9


class _Malformed(ValueError):
    pass


@dataclass
class Outcome:
    """What one call contributed: operations, failures, goodput and the
    numerator/denominator of the workload's search-quality metric."""

    ops: int
    failed: int = 0
    useful: int = 0
    quality_num: float = 0.0
    quality_den: float = 0.0
    errors: List[str] = field(default_factory=list)


def call_ops(call: Call) -> int:
    """Operations one call attempts: trial cells of a sweep, or one verdict."""
    if call.subcommand in ("transition", "stability"):
        return int(call.opt("trials")) * len(call.sweep())
    return 1


def _rows(text: str, columns: List[str]) -> List[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != columns:
        raise _Malformed(f"header {reader.fieldnames} != {columns}")
    rows = []
    for raw in reader:
        try:
            row = {k: float(raw[k]) for k in columns}
        except (TypeError, ValueError) as exc:
            raise _Malformed(f"unparsable row {raw}") from exc
        bad = [k for k, v in row.items() if not math.isfinite(v)]
        if bad:
            raise _Malformed(f"non-finite {bad} in row {raw}")
        rows.append(row)
    return rows


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise _Malformed(message)


def _check_transition(call: Call, text: str, out: Outcome) -> None:
    sweep = [int(v) for v in call.sweep()]
    trials = int(call.opt("trials"))
    d = call.threshold_d()
    rows = _rows(text, TRANSITION_COLUMNS)
    _expect(len(rows) == len(sweep), f"{len(rows)} rows for sweep {sweep}")
    for row, n in zip(rows, sweep):
        succ = int(row["successes"])
        _expect(row["n"] == n and row["trials"] == trials,
                f"row {row} does not match n={n}, trials={trials}")
        _expect(0 <= succ <= trials and succ == row["successes"],
                f"successes out of range in {row}")
        _expect(abs(row["rate"] - succ / trials) <= 1e-12, f"rate != successes/trials in {row}")
        _expect(row["d"] == d and row["two_d"] == 2 * d, f"d != {d} in {row}")
        _expect(row["mean_lifted_error"] >= 0, f"negative error in {row}")
        if n >= d:
            out.failed += trials - succ
        out.useful += succ
    out.quality_num = out.useful
    out.quality_den = out.ops


def _check_stability(call: Call, text: str, out: Outcome) -> None:
    sweep = list(call.sweep())
    trials = int(call.opt("trials"))
    rows = _rows(text, STABILITY_COLUMNS)
    _expect(len(rows) == len(sweep), f"{len(rows)} rows for sweep {sweep}")
    for row, delta in zip(rows, sweep):
        viol = int(row["violations"])
        _expect(row["delta"] == delta and row["trials"] == trials,
                f"row {row} does not match delta={delta}, trials={trials}")
        _expect(0 <= viol <= trials and viol == row["violations"],
                f"violations out of range in {row}")
        _expect(abs(row["violation_rate"] - viol / trials) <= 1e-12,
                f"violation_rate != violations/trials in {row}")
        _expect(0.0 <= row["bound_clamped"] <= 1.0, f"bound_clamped outside [0, 1] in {row}")
        _expect(0.0 <= row["mean_lifted_error"] <= row["max_deviation"] + SLACK,
                f"mean deviation above max in {row}")
        row_failed = 0
        if delta == 0.0 and viol:
            out.errors.append(f"delta=0 row has {viol} violations (seed {call.opt('seed')})")
            row_failed = viol
        elif row["bound_clamped"] < 1.0 and row["violation_rate"] > row["bound_clamped"]:
            out.errors.append(f"violation rate above bound_clamped in {row}")
            row_failed = viol
        if row["max_deviation"] > MAX_DEVIATION + SLACK:
            out.errors.append(f"deviation above {MAX_DEVIATION} in {row}")
            row_failed = trials
        out.failed += row_failed
        if delta > 0:
            out.quality_num += row["mean_lifted_error"] * trials
            out.quality_den += trials
    out.useful = out.ops - out.failed


def exact_path_n(call: Call) -> int:
    """Smallest n at which the sparse certifiers can take the exact path:
    injectivity on a union of two supports needs n >= |S1 u S1'|*|S2 u S2'|."""
    m1, m2 = int(call.opt("m1")), int(call.opt("m2"))
    return min(m1, 2 * int(call.opt("s1"))) * min(m2, 2 * int(call.opt("s2")))


def _check_certify(call: Call, text: str, out: Outcome) -> None:
    try:
        verdict = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _Malformed(f"bad JSON {text!r}") from exc
    status = verdict.get("status")
    budget = verdict.get("search_budget")
    tol = verdict.get("tolerance")
    _expect(status in VERDICTS, f"unknown status {status!r}")
    _expect(isinstance(budget, int) and budget >= 0, f"bad search_budget {budget!r}")
    _expect(isinstance(tol, float) and math.isfinite(tol) and tol > 0, f"bad tolerance {tol!r}")
    n = int(call.opt("n"))
    exact_n = exact_path_n(call)
    where = f"n={n}, level={call.opt('level')}, seed={call.opt('seed')}"
    if status == "counterexample_found":
        if verdict.get("witness_verified") is not True:
            out.errors.append(f"unverified counterexample ({where})")
            out.failed = 1
    elif status == "certified_unique" and n < exact_n:
        out.errors.append(f"certified_unique below the exact-path size ({where})")
        out.failed = 1
    if n >= exact_n and status != "certified_unique":
        out.errors.append(f"exact-path case returned {status} ({where})")
        out.failed = 1
    out.useful = int(not out.failed and status != "heuristically_unique")
    out.quality_num = out.useful
    out.quality_den = 1


_CHECKS = {"transition": _check_transition, "stability": _check_stability,
           "certify": _check_certify}


def check_call(call: Call, exit_code: int, text: str) -> Outcome:
    """Check one call's exit code and output text."""
    out = Outcome(ops=call_ops(call))
    try:
        _expect(exit_code == 0, f"exit code {exit_code}")
        _CHECKS[call.subcommand](call, text, out)
    except _Malformed as exc:
        return Outcome(ops=out.ops, failed=out.ops, quality_den=out.ops,
                       errors=[f"{' '.join(call.argv())}: {exc}"])
    return out
