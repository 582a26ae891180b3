import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from blindid import cli, mc
from blindid.cli import ConfigError, emit_report, main, parse_config
from blindid.ensembles import ConstraintScenario, build_ensemble, mix_seed
from blindid.recovery import certify_strong, certify_weak, verify_counterexample


SUBSPACE_2X2 = ("--kind", "subspace", "--m1", "2", "--m2", "2", "--n", "5")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseConfig:
    def test_flags_parse(self):
        cfg = parse_config(["bounds", "--kind", "subspace", "--m1", "3",
                            "--m2", "4", "--n", "10"])
        assert cfg.subcommand == "bounds"
        assert cfg.values["m1"] == 3 and cfg.values["delta"] == 0.1

    def test_radius_default_is_per_subcommand(self):
        # bounds and smallball default to the unit radius; the ensemble
        # subcommands keep None, which becomes the mean-isometry radius
        for sub, want in (("bounds", 1.0), ("smallball", 1.0), ("gen", None),
                          ("certify", None), ("stability", None)):
            assert parse_config([sub]).values["R"] == want
        assert parse_config(["smallball", "--R", "2"]).values["R"] == 2.0

    def test_file_values_used_when_flag_absent(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# grid config\nkind=subspace\nn=10\nm1=3\nm2=4\ndelta=0.2\n")
        cfg = parse_config(["bounds", "--config", str(conf)])
        assert cfg.values["n"] == 10

    def test_flag_overrides_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("seed=1\nkind=subspace\nn=5\nm1=2\nm2=2\n")
        cfg = parse_config(["gen", "--config", str(conf), "--seed", "2"])
        assert cfg.values["seed"] == 2

    def test_env_seed_between_flag_and_file(self, tmp_path, monkeypatch):
        conf = tmp_path / "run.conf"
        conf.write_text("seed=1\n")
        monkeypatch.setenv("BLINDID_SEED", "5")
        cfg = parse_config(["gen", "--config", str(conf)])
        assert cfg.values["seed"] == 5
        cfg = parse_config(["gen", "--config", str(conf), "--seed", "9"])
        assert cfg.values["seed"] == 9

    def test_unknown_config_key_rejected(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("frobnicate=1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(["bounds", "--config", str(conf)])

    def test_malformed_line_rejected(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("this is not a pair\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(["bounds", "--config", str(conf)])

    def test_subcommand_required(self):
        with pytest.raises(ConfigError):
            parse_config([])

    def test_parser_reuse_keeps_calls_independent(self):
        # parse_config keeps no state from one call to the next
        a = ["transition", "--kind", "subspace", "--m1", "2", "--m2", "2",
             "--n", "5", "--sweep", "4,5", "--seed", "3"]
        b = ["stability", "--kind", "subspace", "--m1", "3", "--m2", "3",
             "--n", "10", "--sweep", "0.1", "--seed", "8", "--starts", "5"]
        first = parse_config(a)
        assert parse_config(b).values["seed"] == 8
        again = parse_config(a)
        assert first == again == parse_config(a)

    def test_flag_equals_value_and_last_value_wins(self):
        spaced = parse_config(["transition", "--sweep", "4,5", "--noise-level", "0.5"])
        assert parse_config(["transition", "--sweep=4,5", "--noise-level=0.5"]) == spaced
        assert spaced.values["sweep"] == "4,5" and spaced.values["noise_level"] == 0.5
        assert parse_config(["gen", "--seed", "1", "--seed=2"]).values["seed"] == 2

    def test_help_lists_every_flag(self, capsys):
        code, out, err = run(capsys, "transition", "--n", "5", "-h")
        assert code == 0 and err == ""
        want = {"--config"} | {"--" + key.replace("_", "-")
                               for key in cli._ALLOWED["transition"]}
        assert out.startswith("usage: blindid transition ")
        assert set(re.findall(r"--[\w-]+", out)) == want
        assert run(capsys, "gen", "--help")[0] == 0


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run(capsys, "bounds", "--kind", "subspace",
                           "--m1", "3", "--m2", "4", "--n", "10")
        assert code == 0
        assert json.loads(out)["d"] == 7

    def test_missing_required_n_is_two(self, capsys):
        code, _, err = run(capsys, "bounds", "--kind", "subspace",
                           "--m1", "3", "--m2", "4")
        assert code == 2
        assert "--n" in err

    def test_invalid_scenario_is_two_and_names_invariant(self, capsys):
        code, _, err = run(capsys, "gen", "--kind", "mixed", "--m1", "3",
                           "--m2", "2", "--s1", "4", "--n", "5")
        assert code == 2
        assert "1 <= s1 <= m1" in err

    def test_missing_config_file_is_three(self, capsys):
        code, _, err = run(capsys, "bounds", "--config", "/nonexistent/x.conf")
        assert code == 3

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--budget", "-3"], "search budget must be >= 0"),
        (["certify", "--tol", "-1"], "tolerance must be positive"),
        (["certify", "--kind", "mixed", "--m1", "3", "--m2", "2", "--s1", "1",
          "--tag", "real_generic", "--n", "3", "--level", "strong", "--seed", "0",
          "--tol", "0.1"], "far threshold 10 * tol stays below the unit-ball radius"),
        (["stability", "--n", "10", "--tag", "complex_uniform_ball", "--sweep", "0.1",
          "--trials", "1", "--starts", "-7"], "starts must be >= 1"),
        (["stability", "--n", "10", "--tag", "complex_uniform_ball", "--sweep", "0",
          "--trials", "1", "--starts", "0"], "starts must be >= 1"),
        (["recover", "--n", "3", "--restarts", "-4"], "restarts must be >= 0"),
        (["recover", "--n", "3", "--restarts", "-1"], "restarts must be >= 0"),
        (["transition", "--n", "3", "--sweep", "3", "--trials", "1", "--restarts", "-1"],
         "restarts must be >= 0"),
        (["stability", "--n", "10", "--tag", "complex_uniform_ball", "--sweep", "0",
          "--trials", "1", "--restarts", "-1"], "restarts must be >= 0"),
        (["recover", "--n", "3", "--noise-level", "-0.5"],
         "noise_level must be nonnegative"),
        (["stability", "--kind", "subspace", "--n", "10", "--m1", "2", "--m2", "2",
          "--sweep", "0", "--trials", "2", "--mode", "bogus"], "unknown mode"),
        (["stability", "--n", "10", "--tag", "complex_generic", "--sweep", "0.1",
          "--trials", "1"], "require the complex uniform-ball ensemble"),
    ], ids=["budget", "tol", "tol_knife_edge", "starts", "starts_zero_delta", "restarts",
            "restarts_minus_one", "transition_restarts", "stability_restarts",
            "noise_level", "stability_mode", "stability_tag"])
    def test_bad_search_size_is_two(self, capsys, argv, message):
        if "--kind" in argv:
            scenario = []
        elif argv[0] == "certify":
            scenario = ["--kind", "sparsity", "--n", "2", "--m1", "5", "--m2", "5",
                        "--s1", "1", "--s2", "1"]
        else:
            scenario = ["--kind", "subspace", "--m1", "2", "--m2", "2"]
        code, out, err = run(capsys, *argv, *scenario)
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("source, token", [
        ("flag", "nan"), ("config", "inf"), ("sweep", "nan")])
    def test_non_finite_float_is_two(self, capsys, tmp_path, source, token):
        # nan passes every `x <= 0` range check, so it is rejected on input
        argv = ["stability", "--kind", "subspace", "--m1", "2", "--m2", "2",
                "--n", "10", "--trials", "1", "--sweep", "0.1"]
        if source == "flag":
            argv += ["--R", token]
        elif source == "config":
            conf = tmp_path / "run.conf"
            conf.write_text(f"R={token}\n")
            argv += ["--config", str(conf)]
        else:
            argv[-1] = f"0.1,{token}"
        assert main(argv) == 2 and capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, message", [
        (["frobnicate"], "a subcommand must come first"),
        ([], "a subcommand must come first"),
        (["transition", "--bogus", "1"], "unknown option '--bogus'"),
        (["transition", "--tri", "5"], "unknown option '--tri'"),
        (["transition", "--noise_level", "0.1"], "unknown option '--noise_level'"),
        (["transition", "--trials"], "option --trials needs a value"),
        (["transition", "stray"], "unknown option 'stray'"),
        (["transition", "--n", "x"], "bad value for n: 'x'"),
        (["transition", "--R", "nan"], "bad value for R: 'nan'"),
    ], ids=["unknown_subcommand", "no_subcommand", "unknown_flag", "abbreviation",
            "underscore_spelling", "no_value", "stray_token", "bad_int", "nan_flag"])
    def test_bad_argv_is_two_without_raising(self, capsys, argv, message):
        # a bad option from any source is refused through main's return
        # value; nothing escapes main
        base = ["--kind", "subspace", "--m1", "2", "--m2", "2", "--n", "5",
                "--sweep", "5", "--trials", "1"]
        code, out, err = run(capsys, *argv[:1], *base, *argv[1:])
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize("sub", ["gen", "recover", "smallball", "transition"])
    def test_seed_outside_64_bits_is_two(self, capsys, tmp_path, monkeypatch, sub, source,
                                         seed):
        # mix_seed keeps 64 bits, so -1 would alias 2**64 - 1 and 2**64 would alias 0
        argv = [sub]
        if source == "flag":
            argv += ["--seed", seed]
        elif source == "env":
            monkeypatch.setenv("BLINDID_SEED", seed)
        else:
            conf = tmp_path / "run.conf"
            conf.write_text(f"seed={seed}\n")
            argv += ["--config", str(conf)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"bad value for seed: {seed!r}" in err

    @pytest.mark.parametrize("sub", ["gen", "recover", "smallball", "transition"])
    def test_seed_bounds_of_64_bits_are_taken(self, sub):
        for seed in (0, 2**64 - 1):
            assert parse_config([sub, "--seed", str(seed)]).values["seed"] == seed

    @pytest.mark.parametrize("argv, message", [
        (["smallball", "--m1", "0", "--m2", "2"], "--m1 and --m2 must be >= 1, got 0 and 2"),
        (["smallball", "--m1", "2", "--m2", "-1"], "--m1 and --m2 must be >= 1, got 2 and -1"),
        (["smallball", "--m2", "2"], "missing required option(s): --m1, --m2"),
        (["transition", *SUBSPACE_2X2], "missing required option --sweep"),
        (["stability", *SUBSPACE_2X2], "missing required option --sweep"),
    ], ids=["smallball_m1_zero", "smallball_m2_negative", "smallball_no_m1",
            "transition_no_sweep", "stability_no_sweep"])
    def test_missing_or_bad_required_option_is_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("scenario", [
        ["--kind", "sparsity", "--s1", "1", "--s2", "1"], ["--kind", "mixed", "--s1", "2"]],
        ids=["sparsity", "mixed"])
    def test_sparse_stability_sweep_is_two(self, capsys, monkeypatch, scenario):
        drawn = []
        monkeypatch.setattr(mc, "_draw_trials", lambda *a, **kw: drawn.append(a))
        code, out, err = run(capsys, "stability", *scenario, "--m1", "4", "--m2", "4",
                             "--n", "12", "--trials", "4", "--sweep", "0.3,0.1")
        assert code == 2 and out == "" and "subspace scenarios only" in err
        assert drawn == []

    def test_unwritable_output_is_three(self, capsys):
        code, _, err = run(capsys, "bounds", "--kind", "subspace", "--m1", "3",
                           "--m2", "4", "--n", "10",
                           "--out", "/nonexistent-dir/report.json")
        assert code == 3


class TestEmitReport:
    def test_json_sorted_keys_trailing_newline(self, capsys):
        emit_report({"b": 1, "a": 2.5}, None)
        out = capsys.readouterr().out
        assert out == '{"a": 2.5, "b": 1}\n'

    def test_text_written_as_it_is(self, tmp_path, capsys):
        # a sweep's CSV is text, written byte for byte to stdout or a file
        text = "n,rate\n4,1.0\n"
        emit_report(text, None)
        assert capsys.readouterr().out == text
        emit_report(text, str(tmp_path / "rows.csv"))
        assert (tmp_path / "rows.csv").read_bytes() == text.encode()

    def test_json_round_trip_is_lossless(self, capsys):
        code, out, _ = run(capsys, "bounds", "--kind", "subspace", "--m1", "2",
                           "--m2", "2", "--n", "12", "--delta", "0.05")
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report
        # shortest-round-trip float serialization preserves all 17 digits
        assert json.loads(json.dumps(report["C"])) == report["C"]

    def test_csv_written_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "transition", "--kind", "subspace",
                         "--m1", "2", "--m2", "2", "--n", "5",
                         "--tag", "complex_generic", "--sweep", "4,5",
                         "--trials", "3", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "n,trials,successes,rate,d,two_d,mean_lifted_error"
        assert len(lines) == 3


class TestDeterminism:
    def test_same_config_byte_identical(self, capsys):
        args = ["transition", "--kind", "subspace", "--m1", "2", "--m2", "2",
                "--n", "5", "--tag", "complex_generic", "--sweep", "2,5",
                "--trials", "5", "--seed", "3"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_recover_replays_transition_trial(self, capsys):
        # recover --seed mix_seed(m, r, i) replays trial i of row r; with one
        # trial per row, the row's mean_lifted_error is that trial's error
        master = 4
        plans = (
            # m1 = m2 = 3 at n = 6 < m1*m2: restarted alternating minimization
            ["--kind", "subspace", "--m1", "3", "--m2", "3", "--n", "9",
             "--sweep", "3,6,9", "--restarts", "3"],
            # four kernel rows, zero-padded to n = 8 and solved as one stack,
            # at the default restarts
            ["--kind", "subspace", "--m1", "3", "--m2", "3", "--n", "9",
             "--sweep", "5,6,7,8"],
            # 16 enumerated supports, noise drawn after the plant
            ["--kind", "sparsity", "--m1", "4", "--m2", "4", "--s1", "1",
             "--s2", "1", "--n", "5", "--sweep", "5,8", "--noise-level", "0.01"],
            ["--kind", "subspace", "--m1", "2", "--m2", "2", "--n", "8",
             "--sweep", "8", "--tag", "real_uniform_ball"],
            # rows at n <= m2 (here and n = 3 above) replay like any other
            ["--kind", "mixed", "--m1", "3", "--m2", "2", "--s1", "1", "--n", "4",
             "--sweep", "2,4", "--tag", "real_generic"],
        )
        replayed = 0
        for plan in plans:
            code, out, _ = run(capsys, "transition", *plan, "--trials", "1",
                               "--seed", str(master))
            assert code == 0
            opts = plan[:plan.index("--n")] + plan[plan.index("--sweep") + 2:]
            for row_idx, line in enumerate(out.splitlines()[1:]):
                n, _, successes, _, _, _, err = line.split(",")
                code, rec, _ = run(capsys, "recover", *opts, "--n", n,
                                   "--seed", str(mix_seed(master, row_idx, 0)))
                assert code == 0
                res = json.loads(rec)
                assert res["success"] == (successes == "1")
                assert res["lifted_error"] == float(err)
                replayed += 1
        assert replayed == 12

    def test_workers_flag_is_gone(self, capsys, tmp_path):
        # neither the thread-pool knob nor the support cap is an option
        transition = ["transition", "--kind", "subspace", "--m1", "2", "--m2", "2",
                      "--n", "5", "--sweep", "5", "--trials", "2"]
        recover = ["recover", "--kind", "subspace", "--m1", "2", "--m2", "2", "--n", "5"]
        conf = tmp_path / "run.conf"
        for base, key in ((transition, "workers"), (transition, "cap"), (recover, "cap")):
            code, _, err = run(capsys, *base, f"--{key}", "2")
            assert code == 2 and f"unknown option '--{key}'" in err
            conf.write_text(f"{key}=2\n")
            code, _, err = run(capsys, *base, "--config", str(conf))
            assert code == 2 and f"unknown config key {key!r}" in err


class TestSubcommands:
    def test_gen_manifest(self, capsys):
        for scenario, tag, seed in (
                ({"kind": "subspace", "n": 6, "m1": 2, "m2": 2}, "complex_generic", 9),
                ({"kind": "sparsity", "n": 4, "m1": 3, "m2": 3, "s1": 1, "s2": 2},
                 "real_generic", 5),
                ({"kind": "mixed", "n": 4, "m1": 3, "m2": 3, "s1": 2}, "real_generic", 5)):
            flags = [tok for key, value in scenario.items() for tok in (f"--{key}", str(value))]
            code, out, _ = run(capsys, "gen", *flags, "--tag", tag, "--seed", str(seed))
            assert code == 0
            manifest = json.loads(out)
            # the scenario carries its sparsity levels, and the seed is the trial's
            assert manifest["seed"] == mix_seed(seed, 0) and manifest["scenario"] == scenario
            # the manifest rebuilds the ensemble of the trial that recover --seed s solves
            sc = ConstraintScenario(**manifest["scenario"])
            ens = build_ensemble(sc, manifest["tag"], manifest["seed"], R=manifest["R"])
            want = mc.draw_trial(sc, tag, seed, R=None)[0]
            for name in ("D", "E", "a", "b"):
                assert np.array_equal(getattr(ens, name), getattr(want, name)), (scenario, name)

    def test_recover_noiseless_success(self, capsys):
        code, out, _ = run(capsys, "recover", "--kind", "subspace", "--m1", "2",
                           "--m2", "2", "--n", "6", "--tag", "complex_generic")
        assert code == 0
        res = json.loads(out)
        assert res["success"] is True and res["residual"] < 1e-8

    def test_certify_strong(self, capsys):
        code, out, _ = run(capsys, "certify", "--kind", "subspace", "--m1", "2",
                           "--m2", "2", "--n", "6", "--tag", "complex_generic",
                           "--level", "strong")
        assert code == 0
        assert json.loads(out)["status"] == "certified_unique"

    def test_certify_strong_past_the_union_cap_is_two(self, capsys):
        # 1,600 support pairs, but C(40, 2)^2 = 608,400 union rectangles
        code, out, err = run(capsys, "certify", "--kind", "sparsity", "--m1", "40",
                             "--m2", "40", "--s1", "1", "--s2", "1", "--n", "4",
                             "--tag", "complex_generic", "--level", "strong")
        assert code == 2 and out == ""
        assert "608400 support unions exceed the cap of 100000" in err

    def test_certify_bad_level(self, capsys):
        code, _, err = run(capsys, "certify", "--kind", "subspace", "--m1", "2",
                           "--m2", "2", "--n", "6", "--tag", "complex_generic",
                           "--level", "maximal")
        assert code == 2

    def test_certify_weak_certifies_the_recover_trial(self, capsys, monkeypatch):
        # --level weak --seed s certifies the trial that recover --seed s
        # solves: draw_trial's ensemble and plant, and its search continues
        # draw_trial's generator
        seen = []

        def spy(ens, M0, **kw):
            seen.append((ens, M0, kw["rng"].bit_generator.state))
            return certify_weak(ens, M0, **kw)

        monkeypatch.setattr(cli, "certify_weak", spy)
        for n in (1, 6):
            sc = ConstraintScenario(kind="sparsity", n=n, m1=5, m2=5, s1=1, s2=1)
            code, out, _ = run(capsys, "certify", "--kind", "sparsity", "--n", str(n),
                               "--m1", "5", "--m2", "5", "--s1", "1", "--s2", "1",
                               "--tag", "complex_generic", "--level", "weak",
                               "--seed", "21")
            assert code == 0
            ens, M0, rng = mc.draw_trial(sc, "complex_generic", 21, R=None)
            cli_ens, cli_M0, cli_state = seen.pop()
            assert np.array_equal(cli_ens.a, ens.a) and np.array_equal(cli_ens.b, ens.b)
            assert np.array_equal(cli_M0.M, M0.M)
            assert cli_state == rng.bit_generator.state
            verdict = certify_weak(ens, M0, budget=100, tol=1e-6, rng=rng)
            want = {"status": verdict.status, "search_budget": verdict.search_budget,
                    "tolerance": verdict.tolerance}
            if verdict.witness is not None:
                want["witness_verified"] = verify_counterexample(verdict, ens)
            assert json.loads(out) == want

    def test_certify_strong_certifies_the_recover_trial(self, capsys, monkeypatch):
        # --level strong --seed s certifies the ensemble of the trial that
        # recover --seed s solves, and its search continues draw_trial's
        # generator, after the plant
        seen = []

        def spy(ens, **kw):
            seen.append((ens, kw["rng"].bit_generator.state))
            return certify_strong(ens, **kw)

        monkeypatch.setattr(cli, "certify_strong", spy)
        for n in (1, 6):
            sc = ConstraintScenario(kind="sparsity", n=n, m1=5, m2=5, s1=1, s2=1)
            code, out, _ = run(capsys, "certify", "--kind", "sparsity", "--n", str(n),
                               "--m1", "5", "--m2", "5", "--s1", "1", "--s2", "1",
                               "--tag", "complex_generic", "--level", "strong",
                               "--seed", "21")
            assert code == 0
            ens, _, rng = mc.draw_trial(sc, "complex_generic", 21, R=None)
            cli_ens, cli_state = seen.pop()
            assert np.array_equal(cli_ens.a, ens.a) and np.array_equal(cli_ens.b, ens.b)
            assert cli_state == rng.bit_generator.state
            verdict = certify_strong(ens, budget=100, tol=1e-6, rng=rng)
            want = {"status": verdict.status, "search_budget": verdict.search_budget,
                    "tolerance": verdict.tolerance}
            if verdict.witness is not None:
                want["witness_verified"] = verify_counterexample(verdict, ens)
            assert json.loads(out) == want

    def test_certify_weak_below_d_finds_verified_counterexamples(self, capsys):
        # subspace 3x3 at n = 5 = d - 1: the planted pair is never unique
        for seed in range(10):
            code, out, _ = run(capsys, "certify", "--kind", "subspace", "--m1", "3",
                               "--m2", "3", "--n", "5", "--tag", "complex_generic",
                               "--level", "weak", "--seed", str(seed))
            assert code == 0
            verdict = json.loads(out)
            assert verdict["status"] == "counterexample_found", seed
            assert verdict["witness_verified"] is True, seed

    @pytest.mark.parametrize("level", ["weak", "strong"])
    def test_certify_status_does_not_depend_on_the_radius(self, capsys, level):
        # the ball radius R scales the operator A by R^2, and a fit counts as
        # measured alike at residual <= tol * sigma_max(A), so no status
        # moves with R; with an absolute tol, 8 of these 18 cases moved
        grid = [(["--kind", "subspace", "--m1", "3", "--m2", "3"], n) for n in (6, 7, 8, 9, 12)]
        grid += [(["--kind", "sparsity", "--m1", "5", "--m2", "5", "--s1", "1", "--s2", "1"], n)
                 for n in (1, 2, 3, 4)]
        for options, n in grid:
            statuses = set()
            for R in ("1e-3", "1", "1e3"):
                code, out, _ = run(capsys, "certify", *options, "--n", str(n), "--seed", "1",
                                   "--level", level, "--R", R)
                assert code == 0
                statuses.add(json.loads(out)["status"])
            assert len(statuses) == 1, (options, n, statuses)

    @pytest.mark.parametrize("level", ["weak", "strong"])
    @pytest.mark.parametrize("n", [7, 8])
    def test_certify_in_the_band_finds_no_counterexample_at_a_small_radius(self, capsys, n,
                                                                            level):
        # 3x3 at d = 6 < n < 9: at R = 1e-4, tol = 1e-6 in measurement units
        # counted pairs of the unit ball as measured alike, and both levels
        # returned a verified counterexample where none exists
        code, out, _ = run(capsys, "certify", "--kind", "subspace", "--m1", "3", "--m2", "3",
                           "--n", str(n), "--seed", "1", "--level", level, "--R", "1e-4")
        assert code == 0 and json.loads(out)["status"] == "heuristically_unique"

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 19")
    def test_certify_strong_finds_no_counterexample_where_none_is_exact(self, capsys):
        # 3x3 at n = 8 = 2(m1 + m2) - 4: ker A is one line cK, and this
        # seed's K has sigma_3 / sigma_1 = 0.17, so no rank-two difference
        # lies in it and no exact strong counterexample exists. The rule
        # accepts a pair at residual 0.0285 <= tol * sigma_max(A) = 0.0395
        # and orbit distance 0.557, and the verifier passes it
        code, out, _ = run(capsys, "certify", "--kind", "subspace", "--m1", "3", "--m2", "3",
                           "--n", "8", "--level", "strong", "--seed", "4", "--tol", "0.05")
        assert code == 0 and json.loads(out)["status"] == "heuristically_unique"

    def test_bounds_nulls_when_C_not_positive(self, capsys):
        # n = 12 > 2d = 8 holds, but delta = 10 drives C below zero, so every
        # stability field is null while C itself is reported
        code, out, _ = run(capsys, "bounds", "--kind", "subspace", "--m1", "2", "--m2", "2",
                           "--n", "12", "--delta", "10")
        assert code == 0
        report = json.loads(out)
        assert report["C"] < 0 and report["d"] == 4
        stability = ("C_prime", "C_dblprime", "epsilon_single", "epsilon_uniform",
                     "weak_failure_raw", "weak_failure_bound", "uniform_failure_raw",
                     "uniform_failure_bound")
        assert all(report[key] is None for key in stability)
        assert report["small_ball_complex"] is not None

    def test_smallball(self, capsys):
        code, out, _ = run(capsys, "smallball", "--m1", "1", "--m2", "1",
                           "--rho", "0.2", "--trials", "2000")
        assert code == 0
        res = json.loads(out)
        assert 0 <= res["p_hat"] <= 1
        assert res["p_hat"] <= res["bound"] + 5 * res["std_err"]

    def test_stability(self, capsys):
        code, out, _ = run(capsys, "stability", "--kind", "subspace",
                           "--m1", "2", "--m2", "2", "--n", "10",
                           "--sweep", "0.1,0", "--trials", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("delta,trials,violations")
        assert len(lines) == 3

    @pytest.mark.parametrize("seed", ["513681787", "1039962212"])
    def test_transition_below_and_in_the_gap_regime(self, capsys, seed):
        # the 3x3 sweep of the transition workload, on two seeds where a
        # version of the kernel without a damping floor failed on a singular
        # system; every row with n >= d = 6 recovers every trial
        code, out, _ = run(capsys, "transition", "--kind", "subspace", "--n", "9",
                           "--m1", "3", "--m2", "3", "--tag", "complex_generic",
                           "--sweep", "3,4,5,6,7,8,9", "--trials", "20", "--seed", seed)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(n) for n, *_ in rows] == list(range(3, 10))
        assert all(succ == "20" for n, _, succ, *_ in rows if int(n) >= 6)

    def test_bad_sweep_grid(self, capsys):
        code, _, err = run(capsys, "stability", "--kind", "subspace",
                           "--m1", "2", "--m2", "2", "--n", "10",
                           "--sweep", "0.1,zebra", "--trials", "2")
        assert code == 2
        for grid in ("0,3", "-1"):
            code, _, err = run(capsys, "transition", "--kind", "subspace",
                               "--m1", "2", "--m2", "2", "--n", "4",
                               "--tag", "complex_generic", "--trials", "1",
                               "--sweep", grid)
            assert code == 2
            assert "n must be a positive integer" in err

    @pytest.mark.parametrize("grid", ["", " ", ",", " , ", "4,,4", "4,", ",4"])
    def test_empty_sweep_grid(self, capsys, tmp_path, grid):
        # an empty grid, or an empty token in one, is refused, from a flag or
        # from a config file, instead of printing a header-only CSV or
        # dropping the token
        argvs = [["transition", *_SUB22, "--n", "4", "--tag", "complex_generic",
                  "--trials", "1", "--sweep", grid],
                 ["stability", *_SUB22, "--n", "10", "--trials", "1", "--sweep", grid]]
        conf = tmp_path / "grid.conf"
        conf.write_text(f"kind=subspace\nm1=2\nm2=2\nn=4\ntrials=1\nsweep={grid}\n")
        argvs.append(["transition", "--config", str(conf)])
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "bad sweep grid" in err, (argv, err)


def test_transition_rates_do_not_depend_on_the_radius(capsys):
    # the ball radius R scales the measurements by R^2, and the kernel's
    # residual floor is relative to ||z||, so every row fits at every R;
    # with the floor 1e-13 max(1, ||z||), the subspace rows at n = 6 and 8
    # read 8/20 and 14/20 at R = 1e-4 and 0/20 and 0/20 at R = 1e-6
    sweeps = [("--kind", "subspace", "--m1", "3", "--m2", "3", "--n", "6",
               "--sweep", "6,8,12", "--trials", "20"),
              ("--kind", "sparsity", "--m1", "3", "--m2", "4", "--s1", "2", "--s2", "3",
               "--n", "5", "--sweep", "5,6,8", "--trials", "10")]
    for options in sweeps:
        for R in ("1e-6", "1e-4", "1"):
            code, out, _ = run(capsys, "transition", *options, "--seed", "3", "--R", R)
            assert code == 0
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert all(row[1] == row[2] for row in rows), (options, R, out)


def test_transition_rates_do_not_depend_on_the_basis_scale(capsys, monkeypatch):
    # scaling the basis D, and with it its frequency rows a, by c scales the
    # operator and the measurements by c; the kernel's residual floor is
    # relative to ||z|| and the recovery test to ||M0||, so every row of
    # both radius sweeps stays full at every c
    real = mc._draw_trials

    def scaled(*args, **kw):
        ens, X, Y, rngs = real(*args, **kw)
        return replace(ens, D=c * ens.D, a=c * ens.a), X, Y, rngs

    monkeypatch.setattr(mc, "_draw_trials", scaled)
    sweeps = [("--kind", "subspace", "--m1", "3", "--m2", "3", "--n", "6",
               "--sweep", "6,8,12", "--trials", "20"),
              ("--kind", "sparsity", "--m1", "3", "--m2", "4", "--s1", "2", "--s2", "3",
               "--n", "5", "--sweep", "5,6,8", "--trials", "10")]
    for options in sweeps:
        for c in (1e-6, 1e-3, 1e3, 1e6):
            code, out, _ = run(capsys, "transition", *options, "--seed", "3")
            assert code == 0
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert len(rows) == 3 and all(row[1] == row[2] for row in rows), (options, c, out)


# Output bytes of the default reports, pinned. A file under tests/golden is
# regenerated only by a change that means to move output bytes, and that
# change says so in CHANGES.md.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_SUB22 = ["--kind", "subspace", "--m1", "2", "--m2", "2"]
_SPARSE55 = ["--kind", "sparsity", "--m1", "5", "--m2", "5", "--s1", "1", "--s2", "1",
             "--tag", "complex_generic"]
GOLDEN = {
    "transition_2x2.csv": ["transition", *_SUB22, "--n", "8", "--tag", "complex_generic",
                           "--sweep", "2,3,4,5,6,7,8", "--trials", "5", "--seed", "5"],
    "transition_3x3.csv": ["transition", "--kind", "subspace", "--m1", "3", "--m2", "3",
                           "--n", "9", "--tag", "complex_generic", "--sweep", "3,6,9",
                           "--trials", "3", "--seed", "5"],
    "transition_sparse.csv": ["transition", "--kind", "sparsity", "--m1", "4", "--m2", "4",
                              "--s1", "1", "--s2", "1", "--n", "5", "--tag", "real_generic",
                              "--sweep", "5", "--trials", "3", "--seed", "5"],
    "transition_real_ball.csv": ["transition", "--kind", "subspace", "--m1", "4", "--m2", "4",
                                 "--n", "16", "--tag", "real_uniform_ball", "--sweep", "16,64",
                                 "--trials", "2", "--seed", "5"],
    "transition_noise.csv": ["transition", *_SUB22, "--n", "8", "--tag", "complex_uniform_ball",
                             "--noise-level", "0.01", "--sweep", "4,8", "--trials", "3",
                             "--seed", "5"],
    "transition_mixed.csv": ["transition", "--kind", "mixed", "--m1", "4", "--m2", "4",
                             "--s1", "2", "--n", "8", "--tag", "complex_generic",
                             "--sweep", "5,6,8", "--trials", "2", "--seed", "5"],
    "stability.csv": ["stability", *_SUB22, "--n", "10", "--sweep", "0.3,0.1,0",
                      "--trials", "2", "--seed", "3"],
    "bounds_n12.json": ["bounds", *_SUB22, "--n", "12"],
    "bounds_n5.json": ["bounds", *_SUB22, "--n", "5"],
    "certify_weak_n1.json": ["certify", *_SPARSE55, "--n", "1", "--level", "weak"],
    "certify_strong_n1.json": ["certify", *_SPARSE55, "--n", "1", "--level", "strong"],
    "certify_strong_n2.json": ["certify", *_SPARSE55, "--n", "2", "--level", "strong"],
    "certify_strong_n4.json": ["certify", *_SPARSE55, "--n", "4", "--level", "strong"],
    "certify_strong_mixed_n3.json": ["certify", "--kind", "mixed", "--m1", "3", "--m2", "2",
                                     "--s1", "1", "--tag", "complex_generic", "--n", "3",
                                     "--level", "strong"],
    "recover.json": ["recover", *_SUB22, "--n", "6", "--tag", "complex_generic",
                     "--seed", "7"],
    "gen.json": ["gen", *_SUB22, "--n", "4", "--tag", "complex_generic", "--seed", "9"],
    "smallball.json": ["smallball", "--m1", "2", "--m2", "2", "--rho", "0.2",
                       "--trials", "500", "--seed", "1"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden(tmp_path, name):
    out = tmp_path / name
    assert main(GOLDEN[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency, and the CLI parses argv from its
    # option table; importing either scipy or argparse costs start-up time
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, blindid.cli; print(sorted(m for m in sys.modules"
            " if m.startswith('scipy') or m == 'argparse'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"
