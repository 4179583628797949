import csv
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghzpurify
from ghzpurify import cli
from ghzpurify.cli import (EXIT_CONFIG, EXIT_NO_CONVERGENCE, EXIT_OK,
                           EXIT_VALIDATION, MAX_GRID_POINTS, MAX_VALIDATE_CASES,
                           main)
from ghzpurify.ghz import build_binary_ensemble, canonical_label
from ghzpurify.optics import DiscriminationMode
from ghzpurify.purify import StepKind, correction_for_outcome
from ghzpurify.schedule import Schedule, run_schedule
from ghzpurify.validation import run_validation


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_module(*argv):
    """python -m ghzpurify in a fresh process, on this checkout's package."""
    src = str(Path(ghzpurify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "ghzpurify", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


class TestRun:
    def test_werner_run_outputs(self, tmp_path, capsys):
        code = main(["run", "--x", "0.8", "--n", "3", "--schedule", "P1,P2",
                     "--threshold", "0.99", "--outdir", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "trace.csv")
        assert rows[0] == ["round", "step", "fidelity", "keep_probability",
                           "cumulative_yield"]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["converged"] is True
        # header + initial record + one row per round
        assert len(rows) == summary["rounds"] + 2
        assert float(rows[1][2]) == pytest.approx(0.825)
        out = capsys.readouterr().out
        assert "converged=True" in out

    def test_pure_input_single_round_row(self, tmp_path):
        code = main(["run", "--F", "1.0", "--n", "3", "--schedule", "P1",
                     "--threshold", "0.99", "--outdir", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "trace.csv")
        assert len(rows) == 2          # header + initial record only
        assert float(rows[1][2]) == 1.0

    def test_reproducible_outputs(self, tmp_path):
        args = ["run", "--x", "0.8", "--n", "3", "--schedule", "P1,P2",
                "--threshold", "0.99"]
        main(args + ["--outdir", str(tmp_path / "a")])
        main(args + ["--outdir", str(tmp_path / "b")])
        assert (tmp_path / "a/trace.csv").read_bytes() == \
            (tmp_path / "b/trace.csv").read_bytes()
        assert (tmp_path / "a/summary.json").read_bytes() == \
            (tmp_path / "b/summary.json").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({
            "n_qubits": 3,
            "initial": {"type": "werner", "x": 0.8},
            "schedule": ["P1", "P2"],
            "mode": "even-plus-odd",
            "stop": {"rounds": 2},
        }))
        code = main(["run", "--config", str(config), "--rounds", "3",
                     "--outdir", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "trace.csv")
        assert len(rows) == 5          # override to 3 rounds

    def test_nonconvergence_exit_code_and_trace(self, tmp_path):
        code = main(["run", "--x", "0.8", "--n", "3", "--schedule", "P1",
                     "--threshold", "0.99", "--outdir", str(tmp_path)])
        assert code == EXIT_NO_CONVERGENCE
        assert (tmp_path / "trace.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["converged"] is False

    def test_env_var_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GHZPURIFY_OUTDIR", str(tmp_path / "env"))
        code = main(["run", "--F", "1.0", "--n", "3", "--schedule", "P1",
                     "--threshold", "0.99"])
        assert code == EXIT_OK
        assert (tmp_path / "env" / "trace.csv").exists()


class TestConfigErrors:
    def test_size_bound_exact(self, tmp_path, capsys):
        code = main(["run", "--n", "7", "--engine", "exact", "--x", "0.8",
                     "--threshold", "0.99", "--outdir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "bound" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["run", "--config", str(bad)])
        assert code == EXIT_CONFIG
        assert "line" in capsys.readouterr().err

    def test_unknown_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_qbits": 3}))
        code = main(["run", "--config", str(bad)])
        assert code == EXIT_CONFIG
        assert "n_qbits" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config", [
        (["run", "--epsilon", "0.1"], None),
        (["run"], {"stop": {"threshold": "0.9"}}),
        (["run"], {"stop": {"rounds": "2"}}),
        (["run", "--rounds", "1000000000"], None),
        (["run", "--theta", "nan"], None),
        (["sweep", "--grid", "0.6:0.9:0"], None),
        (["sweep", "--grid", "0.9:0.6:-0.1"], None),
        (["sweep", "--grid", "0:inf:0.1"], None),
        (["sweep"], {"grid": {"param": "x", "values": ["a"]}}),
        (["run"], {"initial": {"type": "binary", "F": 0.8, "error_rep": ""}}),
        (["run", "--outdir", "{file}"], None),
        (["run"], {"stop": {"rounds": 2.5}}),
        (["run"], {"stop": {"rounds": True}}),
        (["validate", "--n-max", "1"], None),
        (["validate", "--cases", "0"], None),
        (["validate", "--seed", "-1"], None),
        (["run", "--n", "x"], None),
        (["validate", "--n-max", "x"], None),
        (["run"], {"stop": {"threshold": True}}),
        (["run"], {"initial": {"type": "werner", "x": True}}),
        (["run"], {"initial": {"type": "binary", "F": True}}),
        (["run"], {"initial": {"type": "bitflip", "weights": [True, 0, 0, 0]}}),
        (["run"], {"theta": True}),
        (["run"], {"epsilon": False}),
        (["run"], {"initial": {"type": "binary", "F": 0.8, "error_sign": -1.7}}),
        (["run", "--x", "0.8", "--F", "0.9"], None),
        (["run", "--threshold", "0.99", "--rounds", "2"], None),
        (["sweep", "--grid", ",".join(["0.8"] * (MAX_GRID_POINTS + 1))], None),
        (["sweep"], {"grid": {"param": "x", "values": [0.8] * (MAX_GRID_POINTS + 1)}}),
        (["validate", "--cases", str(MAX_VALIDATE_CASES + 1)], None),
        (["run"], {"initial": {"type": "binary", "F": 0.8, "error_sing": -1}}),
        (["run"], {"initial": {"type": "werner", "x": 0.8, "F": 0.9}}),
        (["sweep"], {"grid": {"param": "x", "values": [0.7], "step": 0.1}}),
        (["sweep", "--x", "0.5", "--grid", "0.7"], None),
        (["run"], {"initial": {"type": "werner", "x": "0.8"}}),
        (["run"], {"epsilon": "0"}),
        (["run"], {"initial": {"type": "bitflip", "weights": ["0.7", 0.1, 0.1, 0.1]}}),
        (["run"], {"initial": {"type": "binary", "F": "0.9"}}),
        (["run"], {"initial": {"type": "binary", "F": 0.9, "error_sign": "-1"}}),
        (["run"], {"initial": {"type": "binary", "F": 0.8, "error_rep": "000"}}),
        (["run"], {"initial": {"type": "binary", "F": 0.8, "error_rep": "111"}}),
    ])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, argv, config):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        argv = [a.replace("{file}", str(blocker)) for a in argv]
        if argv[0] != "validate" and "--outdir" not in argv:
            argv += ["--outdir", str(tmp_path / "out")]
        if config is not None:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, blocked", [
        (["run", "--x", "0.8"], "trace.csv"),
        (["run", "--x", "0.8"], "summary.json"),
        (["sweep", "--grid", "0.7"], "sweep.csv"),
    ])
    def test_unwritable_output(self, tmp_path, capsys, argv, blocked):
        (tmp_path / blocked).mkdir()
        assert main(argv + ["--outdir", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output: ")
        assert err.count("\n") == 1

    def test_bad_step_name(self, tmp_path):
        code = main(["run", "--schedule", "P1,P3", "--x", "0.8",
                     "--threshold", "0.99", "--outdir", str(tmp_path)])
        assert code == EXIT_CONFIG


class TestSweep:
    def test_grid_csv(self, tmp_path):
        code = main(["sweep", "--grid", "0.6:0.9:0.1", "--n", "3",
                     "--threshold", "0.99", "--outdir", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 5          # header + 4 grid points
        initial = [float(r[1]) for r in rows[1:]]
        assert initial == pytest.approx([0.65, 0.7375, 0.825, 0.9125])

    def test_low_x_convergence_flag(self, tmp_path):
        # x=0.5 gives initial fidelity 0.5625 and converges; x=0.1 decays
        # back to the uniform mixture and is flagged non-convergent.
        code = main(["sweep", "--grid", "0.1,0.5", "--n", "3",
                     "--threshold", "0.99", "--outdir", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "sweep.csv")
        assert float(rows[1][1]) == pytest.approx(0.2125)
        assert rows[1][5] == "False"
        assert float(rows[2][1]) == pytest.approx(0.5625)
        assert rows[2][5] == "True"

    def test_param_flag_wins_over_config(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"grid": {"param": "x", "values": [0.7]}}))
        code = main(["sweep", "--config", str(config), "--param", "F",
                     "--outdir", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "sweep.csv")
        assert float(rows[1][1]) == pytest.approx(0.7, abs=1e-15)

    def test_param_falls_back_to_x(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"grid": {"values": [0.5, 0.6]}}))
        code = main(["sweep", "--config", str(config), "--outdir", str(tmp_path)])
        assert code == EXIT_OK
        initial = [float(r[1]) for r in read_csv(tmp_path / "sweep.csv")[1:]]
        assert initial == pytest.approx([0.5625, 0.65])

    def test_empty_grid(self, tmp_path, capsys):
        code = main(["sweep", "--grid", "", "--outdir", str(tmp_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv, config", [
        (["sweep", "--grid", ""], None),
        (["sweep"], {"grid": {"param": "x", "values": []}}),
        (["sweep"], {"grid": {"param": "y", "values": [0.7, 0.8]}}),
        (["sweep", "--engine", "exact", "--n", "3"], {"grid": {"param": "y", "values": [0.7]}}),
    ])
    def test_bad_grid_exits_2_and_writes_no_csv(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        assert main(argv + ["--outdir", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("n, grid", [(3, "0.3:0.9:0.1"), (4, "0.5:0.95:0.075")])
    @pytest.mark.parametrize("param, schedule, mode", [
        ("x", "P1,P2", "even-only"),
        ("F", "P2,P1", "even-plus-odd"),
        ("x", "P1", "six-mode-pbs"),
    ])
    def test_exact_engine_sweep_agrees_with_fast(self, tmp_path, n, grid, param,
                                                 schedule, mode):
        rows = {}
        for engine in ("fast", "exact"):
            out = tmp_path / engine
            code = main(["sweep", "--engine", engine, "--n", str(n), "--param", param,
                         "--grid", grid, "--schedule", schedule, "--mode", mode,
                         "--threshold", "0.99", "--outdir", str(out)])
            assert code == EXIT_OK
            rows[engine] = read_csv(out / "sweep.csv")[1:]
        assert len(rows["fast"]) == 7
        for fast, dense in zip(rows["fast"], rows["exact"]):
            assert fast[:3] == dense[:3]           # value, initial fidelity, rounds
            assert fast[5] == dense[5]             # converged
            assert abs(float(fast[3]) - float(dense[3])) < 1e-9
            # the tier-1 keep tolerance, 1e-12, compounded over the rounds
            assert float(fast[4]) == pytest.approx(float(dense[4]),
                                                   rel=1e-12 * max(int(fast[2]), 1))

    def test_plateauing_sweep_is_deterministic(self, tmp_path):
        # Most of this grid plateaus below the threshold and replays its
        # repeating cycle up to MAX_ROUNDS.
        args = ["sweep", "--param", "F", "--n", "6", "--schedule", "P2,P1",
                "--threshold", "0.99", "--grid", "0.55:0.98:0.0143"]
        for out in ("a", "b"):
            proc = run_module(*args, "--outdir", str(tmp_path / out))
            assert proc.returncode == EXIT_OK, proc.stderr
        csv_a = (tmp_path / "a/sweep.csv").read_bytes()
        assert csv_a == (tmp_path / "b/sweep.csv").read_bytes()
        sched = Schedule((StepKind.P2, StepKind.P1), DiscriminationMode.even_only(),
                         stop_threshold=0.99)
        error = canonical_label("100000", +1)
        rows = read_csv(tmp_path / "a/sweep.csv")[1:]
        assert len(rows) == 31
        for row in rows:
            trace = run_schedule(build_binary_ensemble(float(row[0]), error, 6), sched)
            assert int(row[2]) == trace.n_rounds


class TestValidate:
    def test_default_passes(self, capsys):
        code = main(["validate", "--n-max", "3", "--cases", "5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "oracle_equivalence" in out
        assert "dense_vs_bruteforce" in out

    def test_seed_independent_verdicts(self, capsys):
        assert main(["validate", "--n-max", "3", "--cases", "5",
                     "--seed", "1"]) == EXIT_OK
        assert main(["validate", "--n-max", "3", "--cases", "5",
                     "--seed", "99"]) == EXIT_OK

    def test_corrupted_p2_correction_localized(self, capsys, monkeypatch):
        def corrupt(step, outcome):
            if step is StepKind.P2 and outcome.count("1"):
                return (0,)  # wrong pattern: ignores which qubits the outcome flags
            return correction_for_outcome(step, outcome)

        monkeypatch.setattr(cli, "run_validation",
                            functools.partial(run_validation, p2_correction=corrupt))
        code = main(["validate", "--n-max", "3", "--cases", "5"])
        assert code == EXIT_VALIDATION
        lines = capsys.readouterr().out.splitlines()
        failed = [ln for ln in lines if ln.startswith("FAIL")]
        assert len(failed) == 1
        assert "p2_correction_table" in failed[0]

    def test_n_max_bound(self, capsys):
        assert main(["validate", "--n-max", "6"]) == EXIT_CONFIG

    def test_python_dash_m_entry_point(self):
        proc = run_module("validate", "--n-max", "2", "--cases", "1")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "PASS oracle_equivalence" in proc.stdout


class TestParser:
    def test_built_once_per_process(self):
        assert cli.make_parser() is cli.make_parser()

    @staticmethod
    def _call(argv, outdir, capsys):
        """Exit code, stdout, stderr and output files of one in-process call."""
        if argv[0] != "validate":
            argv = argv + ["--outdir", str(outdir)]
        code = main(argv)
        out, err = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(outdir.glob("*"))} \
            if outdir.is_dir() else {}
        return code, out, err, files

    @pytest.mark.parametrize("calls, codes", [
        ([["run", "--rounds", "3"], ["run", "--threshold", "0.99"]], [EXIT_OK, EXIT_OK]),
        ([["run", "--x", "0.7"], ["run", "--F", "0.9"]], [EXIT_OK, EXIT_OK]),
        ([["run", "--theta", "1"], ["run", "--x", "0.8", "--n", "4"]],
         [EXIT_CONFIG, EXIT_OK]),
        ([["validate", "--n-max", "2"], ["run", "--schedule", "P2,P1"]],
         [EXIT_OK, EXIT_OK]),
    ], ids=["stop", "initial", "bad_then_good", "validate_then_run"])
    def test_shared_parser_matches_a_fresh_one(self, tmp_path, capsys, calls, codes):
        """Calls in a row through the one parser give what each call gives
        through a parser of its own."""
        shared = [self._call(argv, tmp_path / f"shared{i}", capsys)
                  for i, argv in enumerate(calls)]
        fresh = []
        for i, argv in enumerate(calls):
            cli.make_parser.cache_clear()
            fresh.append(self._call(argv, tmp_path / f"fresh{i}", capsys))
        assert [code for code, *_ in shared] == codes
        assert shared == fresh

    def test_in_process_matches_python_dash_m(self, tmp_path, capsys):
        args = ["run", "--x", "0.75", "--n", "4", "--schedule", "P1,P2,P2",
                "--mode", "even-plus-odd", "--rounds", "5"]
        code, out, err, files = self._call(args, tmp_path / "inproc", capsys)
        proc = run_module(*args, "--outdir", str(tmp_path / "sub"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        assert files.keys() == {"trace.csv", "summary.json"}
        for name, data in files.items():
            assert (tmp_path / "sub" / name).read_bytes() == data
