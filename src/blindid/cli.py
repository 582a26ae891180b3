"""Command-line front door: config parsing, subcommand dispatch, and
deterministic CSV/JSON reporting.

Value precedence is flag > BLINDID_SEED environment variable (seed only) >
config file > default. Config files are flat key=value text; unknown keys
are rejected. Exit codes: 0 success, 2 validation error, 3 IO error.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bounds, mc
from .ensembles import COMPLEX_UNIFORM_BALL, ConstraintScenario, mix_seed
from .recovery import certify_strong, certify_weak, verify_counterexample

__all__ = ["RunConfig", "parse_config", "emit_report", "main"]


def finite_float(raw: str) -> float:
    """float() that rejects nan and infinities, which every range check
    such as `x <= 0` lets through."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def seed_int(raw: str) -> int:
    """int() in [0, 2**64): mix_seed masks a seed to 64 bits, so a seed
    outside would alias one inside."""
    value = int(raw)
    if not 0 <= value < 2**64:
        raise ValueError(f"seed outside [0, 2**64): {raw!r}")
    return value


# option name -> (type, default or {subcommand: default}); handlers fill None
_OPTION_SPECS = {
    "kind": (str, None),
    "n": (int, None),
    "m1": (int, None),
    "m2": (int, None),
    "s1": (int, None),
    "s2": (int, None),
    "tag": (str, COMPLEX_UNIFORM_BALL),
    "seed": (seed_int, 0),
    "R": (finite_float, {"bounds": 1.0, "smallball": 1.0}),
    "trials": (int, 100),
    "restarts": (int, 62),
    "noise_level": (finite_float, 0.0),
    "sweep": (str, None),
    "mode": (str, "single_point"),
    "delta": (finite_float, 0.1),
    "epsilon": (finite_float, 0.5),
    "rho": (finite_float, 0.1),
    "ell": (finite_float, 1.0),
    "L": (finite_float, 1.0),
    "level": (str, "weak"),
    "budget": (int, 100),
    "tol": (finite_float, 1e-6),
    "starts": (int, 3),
    "out": (str, None),
}

_SCENARIO_KEYS = ("kind", "n", "m1", "m2", "s1", "s2")

_ALLOWED = {
    "gen": _SCENARIO_KEYS + ("tag", "seed", "R", "out"),
    "recover": _SCENARIO_KEYS + ("tag", "seed", "R", "restarts",
                                 "noise_level", "out"),
    "certify": _SCENARIO_KEYS + ("tag", "seed", "R", "level", "budget",
                                 "tol", "out"),
    "bounds": _SCENARIO_KEYS + ("delta", "epsilon", "R", "rho", "ell", "L",
                                "out"),
    "smallball": ("m1", "m2", "seed", "R", "rho", "trials", "out"),
    "transition": _SCENARIO_KEYS + ("tag", "seed", "R", "trials", "restarts",
                                    "noise_level", "sweep", "out"),
    "stability": _SCENARIO_KEYS + ("tag", "seed", "R", "trials", "sweep",
                                   "mode", "starts", "restarts", "out"),
}
# per subcommand: each flag (--config, or --<key> with _ written as -) -> key
_FLAGS = {sub: {"--" + key.replace("_", "-"): key for key in ("config",) + keys}
          for sub, keys in _ALLOWED.items()}


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, or failed invariant."""


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    values: dict


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _coerce(key: str, raw: str):
    typ, _ = _OPTION_SPECS[key]
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


class _Help(Exception):
    """-h or --help in a flag position; the message is the usage line."""


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Merge flags (`--flag value` or `--flag=value`, the last of a key
    wins), the BLINDID_SEED environment variable, an optional flat key=value
    config file, and per-option defaults (in that precedence). Every value
    is a raw string until one _coerce call per key converts it."""
    if not argv or argv[0] not in _ALLOWED:
        raise ConfigError(f"a subcommand must come first, one of {', '.join(_ALLOWED)}")
    sub, flags = argv[0], _FLAGS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            raise _Help(f"usage: blindid {sub} " + " ".join(
                f"[{flag} {key.upper()}]" for flag, key in flags.items()))
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise ConfigError(f"unknown option {flag!r} for subcommand {sub!r}")
        if not eq and (value := next(tokens, None)) is None:
            raise ConfigError(f"option {flag} needs a value")
        given[flags[flag]] = value

    raw = {}
    if "config" in given:
        raw = _read_config_file(given.pop("config"))
        for key in raw:
            if key not in _ALLOWED[sub]:
                raise ConfigError(f"unknown config key {key!r} for subcommand {sub!r}")
    if "seed" in _ALLOWED[sub] and os.environ.get("BLINDID_SEED") is not None:
        raw["seed"] = os.environ["BLINDID_SEED"]
    raw.update(given)

    values = {}
    for key in _ALLOWED[sub]:
        default = _OPTION_SPECS[key][1]
        if key in raw:
            values[key] = _coerce(key, raw[key])
        else:
            values[key] = default.get(sub) if isinstance(default, dict) else default
    return RunConfig(subcommand=sub, values=values)


def _scenario(v: dict) -> ConstraintScenario:
    missing = [k for k in ("kind", "n", "m1", "m2") if v.get(k) is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join('--' + m for m in missing)}")
    return ConstraintScenario(kind=v["kind"], n=v["n"], m1=v["m1"], m2=v["m2"],
                              s1=v.get("s1"), s2=v.get("s2"))


def _parse_sweep(raw: Optional[str], integral: bool) -> tuple:
    if raw is None:
        raise ConfigError("missing required option --sweep (comma-separated grid)")
    # every token is parsed, so an empty one ("4,,4", "4,", "") is refused
    try:
        return tuple(int(tok) if integral else finite_float(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad sweep grid {raw!r}") from exc


def emit_report(report, path: Optional[str]) -> None:
    """Write a report to the path or stdout: text (a sweep's CSV) as it is,
    anything else as JSON with sorted keys and a trailing newline."""
    text = report if isinstance(report, str) else json.dumps(report, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_gen(v: dict):
    # the ensemble of the trial that `recover --seed s` solves
    return mc.trial_ensemble(_scenario(v), v["tag"], [v["seed"]], R=v["R"]).trial(0).to_manifest()


def _cmd_recover(v: dict):
    # the trial kernel of the sweeps on a stack of one: --seed s replays the
    # sweep trial with seed s
    fit, err, ok = mc.recover_stack([_scenario(v)], v["tag"], [v["seed"]], R=v["R"],
                                    restarts=v["restarts"], noise_level=v["noise_level"])
    return {
        "residual": float(fit.residual[0]),
        "lifted_error": float(err[0]),
        "success": bool(ok[0]),
        "support": [S[0].tolist() for S in fit.supports],
        "restarts_used": fit.restarts_used,
    }


def _cmd_certify(v: dict):
    sc = _scenario(v)
    rng = np.random.default_rng(mix_seed(v["seed"], 3))
    if v["level"] == "weak":
        # the trial that `recover --seed s` solves
        ens, M0 = mc.draw_trial(sc, v["tag"], v["seed"], R=v["R"])
        verdict = certify_weak(ens, M0, budget=v["budget"], tol=v["tol"], rng=rng)
    elif v["level"] == "strong":
        # that trial's ensemble
        ens = mc.trial_ensemble(sc, v["tag"], [v["seed"]], R=v["R"]).trial(0)
        verdict = certify_strong(ens, budget=v["budget"], tol=v["tol"], rng=rng)
    else:
        raise ConfigError(f"level must be 'weak' or 'strong', got {v['level']!r}")
    out = {"status": verdict.status, "search_budget": verdict.search_budget,
           "tolerance": verdict.tolerance}
    if verdict.witness is not None:
        out["witness_verified"] = verify_counterexample(verdict, ens)
    return out


def _cmd_bounds(v: dict):
    sc = _scenario(v)
    return bounds.make_report(sc, delta=v["delta"], epsilon=v["epsilon"], R=v["R"],
                              rho=v["rho"], ell=v["ell"], L=v["L"])


def _cmd_smallball(v: dict):
    if v.get("m1") is None or v.get("m2") is None:
        raise ConfigError("missing required option(s): --m1, --m2")
    if min(v["m1"], v["m2"]) < 1:
        raise ConfigError(f"--m1 and --m2 must be >= 1, got {v['m1']} and {v['m2']}")
    rng = np.random.default_rng(v["seed"])
    M = rng.standard_normal((v["m1"], v["m2"])) + 1j * rng.standard_normal((v["m1"], v["m2"]))
    M /= np.linalg.norm(M)
    p_hat, se = mc.estimate_small_ball_prob(M, v["R"], v["rho"], v["trials"], rng)
    L = float(np.linalg.norm(M, 2))
    bound = bounds.small_ball_bound("complex", v["rho"], L, L, v["R"], v["m1"], v["m2"])
    return {"p_hat": p_hat, "std_err": se, "bound": bound, "rho": v["rho"],
            "trials": v["trials"]}


def _cmd_transition(v: dict):
    sc = _scenario(v)
    ns = _parse_sweep(v["sweep"], integral=True)
    rows = mc.run_phase_transition(sc, v["tag"], ns, trials=v["trials"], seed=v["seed"],
                                   restarts=v["restarts"], noise_level=v["noise_level"],
                                   R=v["R"])
    return mc.sweep_csv(mc.TRANSITION_COLUMNS, rows)


def _cmd_stability(v: dict):
    sc = _scenario(v)
    deltas = _parse_sweep(v["sweep"], integral=False)
    # the stability bounds hold for the complex uniform-ball ensemble, the
    # one tag this subcommand accepts
    if v["tag"] != COMPLEX_UNIFORM_BALL:
        raise ConfigError("stability sweeps require the complex uniform-ball ensemble")
    rows = mc.run_stability_sweep(sc, deltas, trials=v["trials"], seed=v["seed"],
                                  restarts=v["restarts"], R=v["R"], mode=v["mode"],
                                  starts=v["starts"])
    return mc.sweep_csv(mc.STABILITY_COLUMNS, rows)


_HANDLERS = {
    "gen": _cmd_gen,
    "recover": _cmd_recover,
    "certify": _cmd_certify,
    "bounds": _cmd_bounds,
    "smallball": _cmd_smallball,
    "transition": _cmd_transition,
    "stability": _cmd_stability,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_config(argv)
        report = _HANDLERS[cfg.subcommand](cfg.values)
    except _Help as usage:
        print(usage)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    try:
        emit_report(report, cfg.values.get("out"))
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
