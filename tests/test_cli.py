import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blindid import cli, mc
from blindid.cli import ConfigError, emit_report, main, parse_config
from blindid.ensembles import ConstraintScenario, mix_seed
from blindid.recovery import certify_weak, verify_counterexample


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
        # the parser is built once per process and reused by every call
        a = ["transition", "--kind", "subspace", "--m1", "2", "--m2", "2",
             "--n", "5", "--sweep", "4,5", "--seed", "3"]
        b = ["stability", "--kind", "subspace", "--m1", "3", "--m2", "3",
             "--n", "10", "--sweep", "0.1", "--seed", "8", "--starts", "5"]
        first = parse_config(a)
        assert parse_config(b).values["seed"] == 8
        again = parse_config(a)
        cli._build_parser.cache_clear()
        assert first == again == parse_config(a)


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
        (["stability", "--n", "10", "--tag", "complex_uniform_ball", "--sweep", "0.1",
          "--trials", "1", "--starts", "-7"], "starts must be >= 1"),
        (["recover", "--n", "3", "--restarts", "-4"], "restarts must be >= 0"),
        (["recover", "--n", "3", "--noise-level", "-0.5"],
         "noise_level must be nonnegative"),
    ], ids=["budget", "tol", "starts", "restarts", "noise_level"])
    def test_bad_search_size_is_two(self, capsys, argv, message):
        scenario = (["--kind", "sparsity", "--n", "2", "--m1", "5", "--m2", "5",
                     "--s1", "1", "--s2", "1"] if argv[0] == "certify"
                    else ["--kind", "subspace", "--m1", "2", "--m2", "2"])
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
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a bad flag value
            code = exc.code
        assert code == 2 and capsys.readouterr().out == ""

    def test_unwritable_output_is_three(self, capsys):
        code, _, err = run(capsys, "bounds", "--kind", "subspace", "--m1", "3",
                           "--m2", "4", "--n", "10",
                           "--out", "/nonexistent-dir/report.json")
        assert code == 3


class TestEmitReport:
    def test_json_sorted_keys_trailing_newline(self, capsys):
        emit_report({"b": 1, "a": 2.5}, "json", None)
        out = capsys.readouterr().out
        assert out == '{"a": 2.5, "b": 1}\n'

    def test_json_round_trip_is_lossless(self, capsys):
        code, out, _ = run(capsys, "bounds", "--kind", "subspace", "--m1", "2",
                           "--m2", "2", "--n", "12", "--delta", "0.05")
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report
        # shortest-round-trip float serialization preserves all 17 digits
        assert json.loads(json.dumps(report["C"])) == report["C"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            emit_report({}, "xml", None)

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
            # 16 enumerated supports, noise drawn from the plant stream
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
        assert replayed == 8

    def test_workers_flag_is_gone(self, capsys, tmp_path):
        # neither the thread-pool knob nor the support cap is an option
        transition = ["transition", "--kind", "subspace", "--m1", "2", "--m2", "2",
                      "--n", "5", "--sweep", "5", "--trials", "2"]
        recover = ["recover", "--kind", "subspace", "--m1", "2", "--m2", "2", "--n", "5"]
        conf = tmp_path / "run.conf"
        for base, key in ((transition, "workers"), (transition, "cap"), (recover, "cap")):
            with pytest.raises(SystemExit) as exc:
                main(base + [f"--{key}", "2"])
            assert exc.value.code == 2
            conf.write_text(f"{key}=2\n")
            code, _, err = run(capsys, *base, "--config", str(conf))
            assert code == 2 and f"unknown config key {key!r}" in err


class TestSubcommands:
    def test_gen_manifest(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "subspace", "--m1", "2",
                           "--m2", "2", "--n", "6", "--tag", "complex_generic",
                           "--seed", "9")
        assert code == 0
        manifest = json.loads(out)
        assert manifest["seed"] == 9 and manifest["scenario"]["n"] == 6

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

    def test_certify_bad_level(self, capsys):
        code, _, err = run(capsys, "certify", "--kind", "subspace", "--m1", "2",
                           "--m2", "2", "--n", "6", "--tag", "complex_generic",
                           "--level", "maximal")
        assert code == 2

    def test_certify_weak_certifies_the_recover_trial(self, capsys, monkeypatch):
        # --level weak --seed s certifies the trial that recover --seed s
        # solves: draw_trial's ensemble and plant, verdict stream mix_seed(s, 3)
        seen = []

        def spy(ens, M0, **kw):
            seen.append((ens, M0))
            return certify_weak(ens, M0, **kw)

        monkeypatch.setattr(cli, "certify_weak", spy)
        for n in (1, 6):
            sc = ConstraintScenario(kind="sparsity", n=n, m1=5, m2=5, s1=1, s2=1)
            code, out, _ = run(capsys, "certify", "--kind", "sparsity", "--n", str(n),
                               "--m1", "5", "--m2", "5", "--s1", "1", "--s2", "1",
                               "--tag", "complex_generic", "--level", "weak",
                               "--seed", "21")
            assert code == 0
            ens, M0, _, _ = mc.draw_trial(sc, "complex_generic", 21)
            cli_ens, cli_M0 = seen.pop()
            assert np.array_equal(cli_ens.a, ens.a) and np.array_equal(cli_ens.b, ens.b)
            assert np.array_equal(cli_M0.M, M0.M)
            verdict = certify_weak(ens, M0, budget=100, tol=1e-6,
                                   rng=np.random.default_rng(mix_seed(21, 3)))
            want = {"status": verdict.status, "search_budget": verdict.search_budget,
                    "tolerance": verdict.tolerance}
            if verdict.witness is not None:
                want["witness_verified"] = verify_counterexample(verdict, ens)
            assert json.loads(out) == want

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
    # scipy is a test-only dependency; importing it costs CLI start-up time
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, blindid.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"
