"""End-to-end tests for the command-line interface."""

import dataclasses
import errno
import hashlib
import io
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # only the property test needs it
    given = None

import deformflow.cli
from deformflow import (
    LINEAR_REGIMES,
    MAX_SNAPSHOT_VALUES,
    MAX_STEPS,
    FlowConfig,
    FlowState,
    Trajectory,
    VelocityGrid,
    analytic_linear,
    compare,
    critical_beta,
    energy_trace,
    integrate,
    l2_energy,
    l2_energy_rate,
    lorentz_gamma,
    relaxation_target,
    second_order_solution,
)
from deformflow.cli import EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main

PI = math.pi


def read_csv(path):
    """Split an output file into ('# key = value' meta, data-row fields)."""
    meta, rows = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            key, _, value = body.partition("=")
            meta.setdefault(key.strip(), value.strip())
        elif line:
            rows.append(line.split(","))
    return meta, rows


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "cv" in capsys.readouterr().out


def test_unknown_command_exits_one(capsys):
    assert main(["bogus"]) == EXIT_VALIDATION


def test_missing_command_exits_one(capsys):
    assert main([]) == EXIT_VALIDATION


class TestCv:
    def test_table_values(self, tmp_path):
        out = tmp_path / "cv.csv"
        assert main(["cv", "--beta-min", "0", "--beta-max", "1", "--n", "5", "--out", str(out)]) == EXIT_OK
        meta, rows = read_csv(out)
        assert meta["command"] == "cv"
        assert rows[0] == ["beta", "c_model", "c_exact", "c_first_order", "dev_model", "dev_first_order", "gamma"]
        assert len(rows) == 6
        rest = rows[1]
        assert rest[0] == "0"
        assert rest[1] == format(PI, ".17g")  # 17 significant digits
        assert rest[2] == format(PI, ".17g")
        assert float(rest[4]) == 0.0
        assert float(rest[6]) == 1.0
        limit = rows[-1]
        assert float(limit[1]) == 0.0
        assert float(limit[2]) == 2.0
        assert limit[6] == ""  # gamma diverges at beta = 1

    def test_line_endings_are_lf(self, tmp_path):
        out = tmp_path / "cv.csv"
        main(["cv", "--n", "3", "--out", str(out)])
        assert b"\r" not in out.read_bytes()

    @pytest.mark.parametrize(
        "name, args",
        [
            ("cv_100001", []),
            # every gamma lies in [10.01, 70710.7] and has a fraction, so each row places a point after digit 1..4
            ("cv_gamma_100001", ["--beta-min", "0.995", "--beta-max", "0.9999999999"]),
        ],
        ids=["cv_100001", "cv_gamma_100001"],
    )
    def test_large_table_matches_its_digest(self, tmp_path, name, args):
        # each <name>.sha256 is `deformflow cv <args> --n 100001 | sha256sum`: IEEE-exact arithmetic and
        # Python's '%.17g' digits, so the bytes are the same on every platform
        out = tmp_path / "cv.csv"
        assert main(["cv", *args, "--n", "100001", "--out", str(out)]) == EXIT_OK
        digest = Path(__file__).with_name(f"{name}.sha256").read_text(encoding="ascii").split()[0]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_stdout_and_out_file_are_the_same_bytes(self, tmp_path, capsys):
        out = tmp_path / "cv.csv"
        assert main(["cv", "--n", "7", "--out", str(out)]) == EXIT_OK
        assert main(["cv", "--n", "7"]) == EXIT_OK
        bare = capsys.readouterr().out
        assert main(["cv", "--n", "7", "--out", "-"]) == EXIT_OK
        dash = capsys.readouterr().out
        assert bare == dash == out.read_bytes().decode("ascii")
        assert bare.count("\n") == 9

    def test_bad_range_exits_one(self, capsys):
        assert main(["cv", "--beta-min", "0.5", "--beta-max", "0.5"]) == EXIT_VALIDATION
        assert "beta" in capsys.readouterr().err

    def test_too_few_samples_exits_one(self, capsys):
        assert main(["cv", "--n", "1"]) == EXIT_VALIDATION

    def test_unallocatable_grid_exits_one_without_a_traceback(self):
        # a child capped at 3 GiB of address space: the 8 TiB sample array fails before touching memory
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        src = str(Path(deformflow.cli.__file__).parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "deformflow.cli", "cv", "--n", str(2**40)],
            capture_output=True, text=True, timeout=60, preexec_fn=cap, env={**os.environ, "PYTHONPATH": src},
        )
        assert run.returncode == EXIT_VALIDATION
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith("deformflow: ") and run.stderr.count("\n") == 1


class TestOut:
    """--out writes over the file in place and cuts it at the end of what was written."""

    def fresh_cv(self, capsys, n):
        capsys.readouterr()
        assert main(["cv", "--n", str(n)]) == EXIT_OK
        return capsys.readouterr().out.encode("ascii")

    def test_shorter_table_over_a_longer_file_is_a_fresh_table(self, tmp_path, capsys):
        out = tmp_path / "cv.csv"
        assert main(["cv", "--n", "1001", "--out", str(out)]) == EXIT_OK
        assert main(["cv", "--n", "11", "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == self.fresh_cv(capsys, 11)

    def test_inode_and_mode_survive_a_rewrite(self, tmp_path):
        out = tmp_path / "cv.csv"
        assert main(["cv", "--n", "101", "--out", str(out)]) == EXIT_OK
        out.chmod(0o640)
        before = out.stat()
        assert main(["cv", "--n", "11", "--out", str(out)]) == EXIT_OK
        after = out.stat()
        assert (after.st_ino, after.st_mode & 0o777) == (before.st_ino, 0o640)
        assert after.st_size < before.st_size

    def test_symlink_stays_a_link_to_its_rewritten_target(self, tmp_path, capsys):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"x" * 100_000)
        link.symlink_to(target)
        assert main(["cv", "--n", "11", "--out", str(link)]) == EXIT_OK
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == self.fresh_cv(capsys, 11)

    def test_dev_null_exits_zero(self):
        assert main(["cv", "--n", "11", "--out", os.devnull]) == EXIT_OK

    def test_directory_exits_one(self, tmp_path, capsys):
        assert main(["cv", "--n", "11", "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"deformflow: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_failure_while_writing_leaves_the_rows_written(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("grid.n = 9\n", encoding="utf-8")
        argv = ["flow", "--config", str(cfg), "--tau-end", "1"]
        assert main(argv) == EXIT_OK
        whole = capsys.readouterr().out
        written = whole[: whole.index("# final_max_abs_dev_from_target")]  # through the data rows
        out = tmp_path / "flow.csv"
        out.write_bytes(b"x" * (4 * len(whole)))
        write_rows = deformflow.cli._write_rows

        def fail_after(*args, **kwargs):
            write_rows(*args, **kwargs)
            raise ArithmeticError("injected")

        monkeypatch.setattr(deformflow.cli, "_write_rows", fail_after)
        assert main([*argv, "--out", str(out)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == "deformflow: numerical failure: injected\n"
        assert out.read_bytes() == written.encode("ascii")

    def test_file_is_never_opened_with_o_trunc(self, tmp_path, monkeypatch):
        # truncating a written file makes a rerun wait on its disk writeback; only timing would show it
        out, calls, os_open = tmp_path / "cv.csv", [], os.open

        def spy(path, flags, *args, **kwargs):
            calls.append((path, flags))
            return os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        for _ in range(2):
            assert main(["cv", "--n", "11", "--out", str(out)]) == EXIT_OK
        assert [path for path, _ in calls] == [str(out)] * 2
        assert not any(flags & os.O_TRUNC for _, flags in calls)


class TestFlow:
    def write_config(self, tmp_path, text):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text(text, encoding="utf-8")
        return cfg

    def test_linear_run_summary(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            "# linear relaxation\nalpha = 2.0\nregime = subcritical-linear\ndt = 1e-3\ngrid.n = 3\ngrid.beta_max = 0.8\n",
        )
        out = tmp_path / "flow.csv"
        code = main(
            [
                "flow",
                "--config",
                str(cfg),
                "--initial",
                "uniform:4.0",
                "--tau-end",
                "1.0",
                "--snapshot-every",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        meta, rows = read_csv(out)
        assert meta["regime"] == "subcritical-linear"
        assert meta["alpha"] == "2"
        assert meta["dt"] == "0.001"
        assert meta["grid.n"] == "3"
        assert rows[0] == ["tau", "beta", "C"]
        assert len(rows) == 1 + 3 * 3  # header + 3 snapshots x 3 samples
        # rk4 must track the closed form written into the summary
        assert float(meta["oracle_max_abs_dev"]) < 1e-10
        # fitted decay rate recovers alpha beta^2 for the moving samples
        key_mid = "fitted_rate_beta_" + format(0.4, ".17g")
        key_top = "fitted_rate_beta_" + format(0.8, ".17g")
        np.testing.assert_allclose(float(meta[key_mid]), 2.0 * 0.4 * 0.4, rtol=1e-6)
        np.testing.assert_allclose(float(meta[key_top]), 2.0 * 0.8 * 0.8, rtol=1e-6)
        assert float(meta["fitted_rate_beta_0"]) == 0.0  # frozen sample never moves
        # the frozen beta = 0 sample dominates the final deviation
        np.testing.assert_allclose(float(meta["final_max_abs_dev_from_target"]), 4.0 - PI, rtol=1e-12)

    def test_half_life_at_band_edge(self, tmp_path):
        # uniform pi+1, alpha 1, sample beta = 1: gap halves after tau = ln 2
        cfg = self.write_config(tmp_path, "grid.n = 2\ngrid.beta_max = 1\ndt = 1e-4\n")
        out = tmp_path / "flow.csv"
        code = main(
            [
                "flow",
                "--config",
                str(cfg),
                "--initial",
                "uniform:" + format(PI + 1.0, ".17g"),
                "--tau-end",
                format(math.log(2.0), ".17g"),
                "--snapshot-every",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        _, rows = read_csv(out)
        last = rows[-1]
        assert float(last[1]) == 1.0
        np.testing.assert_allclose(float(last[2]), PI + 0.5, rtol=0, atol=1e-8)

    def test_stationary_profile_reports_na_rates(self, tmp_path):
        out = tmp_path / "flow.csv"
        code = main(
            [
                "flow",
                "--initial",
                "uniform:" + format(PI, ".17g"),
                "--tau-end",
                "0.1",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        meta, _ = read_csv(out)
        assert meta["final_max_abs_dev_from_target"] == "0"
        rate_keys = [k for k in meta if k.startswith("fitted_rate_beta_")]
        assert len(rate_keys) == 65  # default grid
        assert all(meta[k] == "n/a" for k in rate_keys)

    def test_default_grid_matches_critical_ratio(self, tmp_path):
        out = tmp_path / "flow.csv"
        main(["flow", "--tau-end", "0.1", "--out", str(out)])
        meta, _ = read_csv(out)
        assert meta["grid.beta_max"] == format(critical_beta(), ".17g")
        assert meta["initial"] == "static"

    def test_profile_from_file(self, tmp_path):
        cfg = self.write_config(tmp_path, "grid.n = 3\ngrid.beta_max = 0.8\ndt = 1e-2\n")
        prof = tmp_path / "prof.csv"
        prof.write_text("beta,C\n0,3.5\n0.4,3.5\n0.8,3.5\n", encoding="utf-8")
        out = tmp_path / "flow.csv"
        code = main(
            [
                "flow",
                "--config",
                str(cfg),
                "--initial",
                f"file:{prof}",
                "--tau-end",
                "0.5",
                "--snapshot-every",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        _, rows = read_csv(out)
        first = rows[1]
        assert float(first[0]) == 0.0
        assert float(first[2]) == 3.5

    def test_profile_grid_mismatch_exits_one(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "grid.n = 3\ngrid.beta_max = 0.8\n")
        prof = tmp_path / "prof.csv"
        prof.write_text("beta,C\n0,3.5\n0.5,3.5\n0.8,3.5\n", encoding="utf-8")
        code = main(["flow", "--config", str(cfg), "--initial", f"file:{prof}", "--tau-end", "1"])
        assert code == EXIT_VALIDATION
        assert "does not match grid sample" in capsys.readouterr().err

    def test_profile_row_count_other_than_the_grids_exits_one(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "grid.n = 3\ngrid.beta_max = 0.8\n")
        prof = tmp_path / "prof.csv"
        prof.write_text("beta,C\n0,3.5\n0.8,3.5\n", encoding="utf-8")
        assert main(["flow", "--config", str(cfg), "--initial", f"file:{prof}", "--tau-end", "1"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"deformflow: {prof}: profile has 2 rows for a grid of 3 samples\n"

    def test_headerless_profile_parses_from_its_first_row(self, tmp_path):
        rows = "0,3.5\n0.4,3.5\n\n0.8,3.25\n"
        tables = []
        for name, text in [("with", "# note = x\nbeta,C\n" + rows), ("without", "# note = x\n" + rows)]:
            (tmp_path / name).write_text(text, encoding="utf-8")
            tables.append(deformflow.cli._read_table(str(tmp_path / name), "beta,C", "initial profile"))
        want = np.array([[0.0, 3.5], [0.4, 3.5], [0.8, 3.25]]).tobytes()
        assert tables[0][0] == tables[1][0] == {"note": "x"}
        assert tables[0][1].tobytes() == tables[1][1].tobytes() == want

    def test_profile_row_after_header_is_not_swallowed(self, tmp_path, capsys):
        # only the literal 'beta,C' line is a header, so a bad first row is named, not skipped
        cfg = self.write_config(tmp_path, "grid.n = 3\ngrid.beta_max = 1\n")
        prof = tmp_path / "prof.csv"
        prof.write_text("beta,C\n0.0,abc\n0.5,4.0\n1.0,4.0\n", encoding="utf-8")
        code = main(["flow", "--config", str(cfg), "--initial", f"file:{prof}", "--tau-end", "1"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"deformflow: {prof}: malformed row '0.0,abc'\n"

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "alpa = 2.0\n")
        assert main(["flow", "--config", str(cfg), "--tau-end", "1"]) == EXIT_VALIDATION
        assert "unknown config key" in capsys.readouterr().err

    def test_duplicate_config_key_exits_one(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "alpha = 2.0\nalpha = 3.0\n")
        assert main(["flow", "--config", str(cfg), "--tau-end", "1"]) == EXIT_VALIDATION
        assert "duplicate config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("alpha = fast", "alpha needs a number, got 'fast'"),
            ("grid.beta_max = high", "grid.beta_max needs a number, got 'high'"),
            ("grid.n = 6.5", "grid.n needs an integer, got '6.5'"),
            ("dt = small", "dt needs a number or 'auto', got 'small'"),
            ("alpha 2.0", "expected 'key = value', got 'alpha 2.0'"),
        ],
    )
    def test_bad_config_value_exits_one(self, tmp_path, capsys, line, message):
        cfg = self.write_config(tmp_path, f"# comment\n{line}\n")
        assert main(["flow", "--config", str(cfg), "--tau-end", "1"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"deformflow: {cfg}:2: {message}\n"

    def test_unreadable_config_exits_one(self, tmp_path, capsys):
        cfg = str(tmp_path / "missing.cfg")
        assert main(["flow", "--config", cfg, "--tau-end", "1"]) == EXIT_VALIDATION
        reason = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {cfg!r}"
        assert capsys.readouterr().err == f"deformflow: cannot read config file {cfg!r}: {reason}\n"

    def test_every_flow_config_field_is_a_key_with_its_default(self):
        values = deformflow.cli.parse_config(None)
        assert {field.name for field in dataclasses.fields(FlowConfig)} <= set(values)
        cfg, grid = deformflow.cli._build_flow(values)
        assert vars(cfg) == vars(FlowConfig())
        assert (grid.n, grid.beta_max, values["lambda"]) == (65, critical_beta(), 0.0)

    def test_readme_config_block_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0].splitlines()
        cfg = self.write_config(tmp_path, "".join(line.split("#", 1)[0] + "\n" for line in block))
        defaults = deformflow.cli.parse_config(None)
        assert len(block) == len(defaults)
        assert deformflow.cli.parse_config(str(cfg)) == defaults

    def test_every_config_key_is_echoed_in_a_fixed_order(self, tmp_path):
        # the file sets all 11 keys in reverse; the header lists them in the order it always has
        cfg = self.write_config(
            tmp_path,
            "grid.beta_max = 0.95\ngrid.n = 129\ndt = 0.002\ntol = 1e-9\nmethod = adaptive-rk\nk_curv = 2.0\n"
            "lambda = 0.5\nK = 1.5\nc = 1.25\nalpha = 0.75\nregime = supercritical-linear\n",
        )
        out = tmp_path / "flow.csv"
        argv = ["flow", "--config", str(cfg), "--initial", "uniform:4.0", "--tau-end", "5", "--snapshot-every", "0.5"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert out.read_text(encoding="utf-8").startswith(
            "# command = flow\n"
            "# regime = supercritical-linear\n"
            "# alpha = 0.75\n"
            "# c = 1.25\n"
            "# K = 1.5\n"
            "# lambda = 0.5\n"
            "# k_curv = 2\n"
            "# method = adaptive-rk\n"
            "# tol = 1.0000000000000001e-09\n"
            "# dt = 0.002\n"
            "# grid.n = 129\n"
            "# grid.beta_max = 0.94999999999999996\n"
            "# tau_end = 5\n"
            "# snapshot_every = 0.5\n"
            "# initial = uniform:4.0\n"
            "tau,beta,C\n"
        )

    @pytest.mark.parametrize("n", [2**25 + 1, 2**40])
    def test_oversized_grid_is_refused_before_it_is_built(self, tmp_path, capsys, deadline, n):
        # the first and last snapshots alone pass the bound, so no snapshot_every can help
        cfg = self.write_config(tmp_path, f"grid.n = {n}\n")
        tracemalloc.start()
        try:
            with deadline(5.0):
                code = main(["flow", "--config", str(cfg), "--tau-end", "1", "--snapshot-every", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION
        assert peak < 2**22  # a grid of n samples is 8 n bytes
        assert capsys.readouterr().err == (
            f"deformflow: grid.n = {n} would store more than {MAX_SNAPSHOT_VALUES} values "
            "in the first and last snapshots alone\n"
        )

    @pytest.mark.parametrize(
        "config, tau_end, message",
        [
            ("regime = conformal-nonlinear\ndt = 1e-7\n", "1",
             f"conformal-nonlinear rk4 with dt = 1e-07 needs 1000000 steps by tau = 0.1, past the budget of "
             f"{MAX_STEPS} steps (alpha = 1.0)"),
            ("regime = second-order\nmethod = adaptive-rk\nalpha = 1e4\n", "1e4",
             f"second-order adaptive-rk spent its budget of {MAX_STEPS} attempted steps by tau = "),
        ],
        ids=["conformal-rk4", "second-order-adaptive"],
    )
    def test_run_past_the_step_budget_exits_two(self, tmp_path, capsys, deadline, config, tau_end, message):
        cfg = self.write_config(tmp_path, config)
        with deadline(30.0):
            code = main(["flow", "--config", str(cfg), "--initial", "uniform:4.0", "--tau-end", tau_end])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith(f"deformflow: numerical failure: {message}")
        assert "alpha = " in err and ("h = " in err or "dt = " in err)

    def test_bad_initial_spec_exits_one(self, capsys):
        assert main(["flow", "--initial", "uniform:abc", "--tau-end", "1"]) == EXIT_VALIDATION

    def test_unknown_initial_spec_exits_one(self, capsys):
        assert main(["flow", "--initial", "bogus", "--tau-end", "1"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "deformflow: initial profile must be 'static', 'uniform:<x>' or 'file:<path>', got 'bogus'\n"
        )

    def test_conformal_domain_exhaustion_exits_two(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, "regime = conformal-nonlinear\nk_curv = 1.0\ndt = 1e-3\ngrid.n = 2\ngrid.beta_max = 0.5\n"
        )
        code = main(
            ["flow", "--config", str(cfg), "--initial", "uniform:2.0", "--tau-end", "1.0"]
        )
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "tau*" in err

    def test_subnormal_default_step_exits_two(self, tmp_path, capsys):
        # dt = auto is 0.01 / 1e308, about 1e-310: tau / dt overflows
        cfg = self.write_config(tmp_path, "alpha = 1e308\ngrid.beta_max = 1\n")
        assert main(["flow", "--config", str(cfg), "--tau-end", "10"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "dt = 1e-310" in err and "alpha = 1e+308" in err

    def test_subnormal_k_curv_runs_clean_under_warnings_as_errors(self, tmp_path):
        # C^2 / (4 k) overflows to tau* = inf, the right answer, with no numpy overflow warning
        cfg = self.write_config(tmp_path, "regime = conformal-nonlinear\nk_curv = 1e-320\n")
        src = str(Path(deformflow.cli.__file__).parents[1])
        run = subprocess.run(
            [sys.executable, "-W", "error", "-m", "deformflow.cli", "flow", "--config", str(cfg), "--tau-end", "1"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert (run.returncode, run.stderr) == (EXIT_OK, "")
        assert "# k_curv = 9.9998886718268301e-321\n" in run.stdout

    @pytest.mark.parametrize("k_curv, tau_end", [("4.4942328371557893e+307", "20"), ("1", "1")])
    def test_start_whose_square_overflows_runs_clean_under_warnings_as_errors(self, tmp_path, k_curv, tau_end):
        # C0^2 = 1e310 overflows, but tau* (55.6, or inf for k = 1) and the closed form are finite
        cfg = self.write_config(tmp_path, f"regime = conformal-nonlinear\nk_curv = {k_curv}\n")
        src = str(Path(deformflow.cli.__file__).parents[1])
        out = tmp_path / "flow.csv"
        argv = ["flow", "--config", str(cfg), "--initial", "uniform:1e155", "--tau-end", tau_end, "--out", str(out)]
        run = subprocess.run(
            [sys.executable, "-W", "error", "-m", "deformflow.cli", *argv],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert (run.returncode, run.stderr) == (EXIT_OK, "")
        meta, rows = read_csv(out)
        dev, last = float(meta["oracle_max_abs_dev"]), float(rows[-1][2])
        assert math.isfinite(dev) and dev <= 1e-14 * last

    def test_k_curv_whose_4k_overflows_exits_one(self, tmp_path, capsys):
        # 4 k = inf would make tau* = C^2 / (4 k) inf / inf = NaN for C = 1e155
        cfg = self.write_config(tmp_path, "regime = conformal-nonlinear\nk_curv = 1e308\n")
        argv = ["flow", "--config", str(cfg), "--initial", "uniform:1e155", "--tau-end", "20"]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "deformflow: k_curv must be <= 4.4942328371557893e+307 so that 4 * k_curv is finite, got 1e+308\n"
        )

    def test_snapshot_count_is_bounded(self, capsys):
        start = time.perf_counter()
        assert main(["flow", "--tau-end", "10", "--snapshot-every", "1e-9"]) == EXIT_VALIDATION
        assert time.perf_counter() - start < 1.0
        assert "snapshot_every" in capsys.readouterr().err

    def test_snapshot_interval_count_is_bounded(self, tmp_path, capsys, deadline):
        # 10^5 intervals store few values at grid.n = 2, but every interval costs Python work
        cfg = self.write_config(tmp_path, "grid.n = 2\n")
        with deadline(1.0):
            code = main(["flow", "--config", str(cfg), "--tau-end", "0.01", "--snapshot-every", "1e-7"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "deformflow: snapshot_every = 1e-07 over tau_end = 0.01 makes 100000 snapshot intervals, "
            f"more than MAX_STEPS = {MAX_STEPS}; raise snapshot_every\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_rk4_blow_up_exits_two(self, tmp_path, capsys):
        # omega dt ~ 80 is far past the rk4 stability bound: refused before any stepping
        cfg = self.write_config(tmp_path, "regime = second-order\nalpha = 1e6\ndt = 0.1\n")
        code = main(["flow", "--config", str(cfg), "--initial", "uniform:4.0", "--tau-end", "10"])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "second-order rk4 step h = 0.1 (dt = 0.1) is past the stability bound" in err
        assert "> 2.8284271247461903 (alpha = 1000000.0)" in err

    @pytest.mark.parametrize(
        "config, tau_end, bound",
        [
            # kappa h = 20 * 0.8^2 * 0.3 = 3.84: stepping would exit 0 with oracle_max_abs_dev 1.9e13
            ("regime = supercritical-linear\nalpha = 20\ndt = 0.3\ngrid.beta_max = 0.8\n", "10",
             "kappa_max * h = 3.84"),
            # snapshots every 3.6, so every step is dt: omega h = beta_c * 3.6 = 2.97, and stepping
            # would exit 0 with oracle_max_abs_dev 10.6
            ("regime = second-order\nalpha = 1\ndt = 3.6\n", "36", "omega_max * h = 2.97"),
        ],
        ids=["supercritical-linear", "second-order"],
    )
    def test_unstable_step_that_stays_finite_exits_two(self, tmp_path, capsys, config, tau_end, bound):
        cfg = self.write_config(tmp_path, config)
        out = tmp_path / "flow.csv"
        argv = ["flow", "--config", str(cfg), "--initial", "uniform:4.0", "--tau-end", tau_end, "--out", str(out)]
        code = main(argv)
        assert code == EXIT_NUMERIC
        assert not out.exists()
        err = capsys.readouterr().err
        assert "past the stability bound" in err and bound in err and "dt = " in err and "alpha = " in err

    @pytest.mark.parametrize(
        "config, tau_end",
        [
            # dt = 0.3 is past the bound, but snapshots every 0.1 cut every step to 0.1: kappa h = 1.28
            ("regime = supercritical-linear\nalpha = 20\ndt = 0.3\ngrid.beta_max = 0.8\n", "1"),
            # dt = 3.6 is past the bound, but snapshots every 1.0 cut every step to 1.0: omega h = 0.83
            ("regime = second-order\nalpha = 1\ndt = 3.6\n", "10"),
        ],
        ids=["supercritical-linear", "second-order"],
    )
    def test_dt_past_the_bound_with_closer_snapshots_steps_as_before(self, tmp_path, monkeypatch, config, tau_end):
        # the check measures the steps taken, so the CSV is the one stepping without it writes
        cfg = self.write_config(tmp_path, config)
        argv = ["flow", "--config", str(cfg), "--initial", "uniform:4.0", "--tau-end", tau_end, "--out"]
        assert main([*argv, str(tmp_path / "checked.csv")]) == EXIT_OK
        monkeypatch.setattr(deformflow.flow, "_RK4_REAL_BOUND", math.inf)
        monkeypatch.setattr(deformflow.flow, "_RK4_IMAG_BOUND", math.inf)
        assert main([*argv, str(tmp_path / "unchecked.csv")]) == EXIT_OK
        assert (tmp_path / "checked.csv").read_bytes() == (tmp_path / "unchecked.csv").read_bytes()

    @pytest.mark.parametrize(
        "config, tau_end, refusal",
        [
            # tau* = 0.25 and C_min^2 = 4e-4 at tau_end, so the rate is 5000 there; every step is a whole
            # snapshot interval, and stepping would exit 0 with oracle_max_abs_dev 0.0185
            ("dt = 0.05\n", "0.2499", "h = 0.024990000000000012 (dt = 0.05) is past the stability bound: "
             "kappa_end * h = 124.95000000001382"),
            # dt = auto is sized from the initial rate 2, and the rate is 5e4 at tau_end: stepping would
            # exit 0 with oracle_max_abs_dev 2.4e-3
            ("", "0.24999", "h = 0.001 (dt = 0.001) is past the stability bound: kappa_end * h = 49.99999999994999"),
        ],
        ids=["explicit-dt", "default-dt"],
    )
    def test_conformal_step_unstable_by_tau_end_exits_two(self, tmp_path, capsys, config, tau_end, refusal):
        cfg = self.write_config(tmp_path, "regime = conformal-nonlinear\n" + config)
        out = tmp_path / "flow.csv"
        argv = ["flow", "--config", str(cfg), "--initial", "uniform:1", "--tau-end", tau_end, "--out", str(out)]
        assert main(argv) == EXIT_NUMERIC
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"deformflow: numerical failure: conformal-nonlinear rk4 step {refusal} > 2.785293563405282 (k_curv = 1.0)\n"
        )

    @pytest.mark.parametrize(
        "config, tau_end",
        [
            ("dt = 5.5e-4\n", "0.2499"),  # kappa_end h = 5000 * 5.5e-4 = 2.75
            ("", "0.249"),  # dt = auto: kappa_end h = 500 * 1e-3 = 0.5
        ],
        ids=["explicit-dt", "default-dt"],
    )
    def test_conformal_step_inside_the_bound_by_tau_end_steps_as_before(self, tmp_path, monkeypatch, config, tau_end):
        cfg = self.write_config(tmp_path, "regime = conformal-nonlinear\n" + config)
        argv = ["flow", "--config", str(cfg), "--initial", "uniform:1", "--tau-end", tau_end, "--out"]
        assert main([*argv, str(tmp_path / "checked.csv")]) == EXIT_OK
        monkeypatch.setattr(deformflow.flow, "_RK4_REAL_BOUND", math.inf)
        assert main([*argv, str(tmp_path / "unchecked.csv")]) == EXIT_OK
        assert (tmp_path / "checked.csv").read_bytes() == (tmp_path / "unchecked.csv").read_bytes()

    def test_adaptive_step_floor_exits_two(self, tmp_path, capsys, deadline):
        # kappa = 6.4e19 at beta = 0.8: rk4 would need steps far below the adaptive floor
        cfg = self.write_config(
            tmp_path, "alpha = 1e20\ndt = 0.1\nmethod = adaptive-rk\ngrid.n = 2\ngrid.beta_max = 0.8\n"
        )
        with deadline(5.0):
            assert main(["flow", "--config", str(cfg), "--tau-end", "1"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "step floor" in err and "tau = 0.0" in err and "alpha = 1e+20" in err

    def test_conformal_run_inside_domain(self, tmp_path):
        cfg = self.write_config(
            tmp_path, "regime = conformal-nonlinear\nk_curv = 1.0\ndt = 1e-4\ngrid.n = 2\ngrid.beta_max = 0.5\n"
        )
        out = tmp_path / "flow.csv"
        code = main(
            [
                "flow",
                "--config",
                str(cfg),
                "--initial",
                "uniform:2.0",
                "--tau-end",
                "0.9",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        meta, rows = read_csv(out)
        assert float(meta["oracle_max_abs_dev"]) < 1e-8
        assert meta["final_max_abs_dev_from_target"] == "n/a"
        last = rows[-1]
        np.testing.assert_allclose(float(last[2]), math.sqrt(4.0 - 3.6), rtol=1e-7)

    def test_seed_is_recorded(self, tmp_path):
        out = tmp_path / "flow.csv"
        main(["flow", "--tau-end", "0.1", "--seed", "7", "--out", str(out)])
        meta, _ = read_csv(out)
        assert meta["seed"] == "7"

    def test_fitted_rates_are_the_libm_log(self):
        # 2^17 + 1 ratios, same-sign deviations of both signs; numpy's SIMD log moves the last bit of some
        d1 = np.where(np.arange(2**17 + 1) % 2, 1.0, -1.0)
        d0 = np.linspace(1.0001, 50.0, d1.size) * d1
        span = 0.7
        want = [math.log(abs(a) / abs(b)) / span for a, b in zip(d0.tolist(), d1.tolist())]
        assert deformflow.cli._fitted_rates(d0, d1, span).tobytes() == np.array(want).tobytes()
        ratios = np.abs(d0) / np.abs(d1)
        assert (np.log(ratios) != [math.log(r) for r in ratios.tolist()]).any()

    def test_fitted_rates_peak_at_a_few_profiles(self):
        # log per element through np.vectorize held object arrays: the peak was 11.1x
        d1 = np.where(np.arange(2**20) % 2, 1.0, -1.0)
        d0 = np.linspace(1.0001, 50.0, d1.size) * d1
        tracemalloc.start()
        try:
            deformflow.cli._fitted_rates(d0, d1, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.0 * d0.nbytes


class TestEnergy:
    def run_flow(self, tmp_path, **kw):
        out = tmp_path / "flow.csv"
        argv = [
            "flow",
            "--initial",
            kw.get("initial", "uniform:4.0"),
            "--tau-end",
            kw.get("tau_end", "0.5"),
            "--snapshot-every",
            kw.get("snapshot_every", "0.05"),
            "--out",
            str(out),
        ]
        assert main(argv) == EXIT_OK
        return out

    def test_energy_trace_decreases(self, tmp_path):
        traj = self.run_flow(tmp_path)
        out = tmp_path / "energy.csv"
        assert main(["energy", str(traj), "--out", str(out)]) == EXIT_OK
        meta, rows = read_csv(out)
        assert rows[0] == ["tau", "E", "dE_dtau_quadrature", "dE_dtau_lemma"]
        es = [float(r[1]) for r in rows[1:]]
        assert all(b < a for a, b in zip(es, es[1:]))
        assert all(float(r[3]) <= 0.0 for r in rows[1:])
        # no spurious growth warnings on a dissipative run
        assert not any(k.startswith("warn_energy_increase") for k in meta)

    def test_slope_column_tracks_lemma_column(self, tmp_path):
        traj = self.run_flow(tmp_path, snapshot_every="0.01")
        out = tmp_path / "energy.csv"
        main(["energy", str(traj), "--out", str(out)])
        _, rows = read_csv(out)
        interior = rows[2:-1]
        for r in interior:
            np.testing.assert_allclose(float(r[2]), float(r[3]), rtol=2e-3)

    def test_non_uniform_grid_matches_energy_trace_bitwise(self, tmp_path):
        # random interior samples make the trapezoid window; the E and lemma columns parse back to energy_trace's
        rng = np.random.default_rng(17)
        grid = VelocityGrid(np.sort(np.r_[0.0, rng.uniform(0.0, critical_beta(), 38), critical_beta()]))
        cfg = FlowConfig(alpha=1.7, c=0.8)
        traj = integrate(grid, PI + rng.uniform(-1.0, 1.0, grid.n), cfg, 0.5, 0.05)
        flow = tmp_path / "flow.csv"
        with flow.open("w", encoding="utf-8") as fh:
            fh.write(f"# alpha = {cfg.alpha!r}\n# c = {cfg.c!r}\ntau,beta,C\n")
            for tau, profile in zip(traj.taus, traj.profiles):
                for beta, value in zip(grid.samples, profile):
                    fh.write("%.17g,%.17g,%.17g\n" % (tau, beta, value))
        out = tmp_path / "energy.csv"
        assert main(["energy", str(flow), "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        table = np.array([[float(f) for f in row] for row in rows[1:]])
        trace = energy_trace(traj)
        assert table[:, 1].tobytes() == trace.energies.tobytes()
        assert table[:, 3].tobytes() == trace.rates.tobytes()

    def test_missing_alpha_header_exits_one(self, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        traj.write_text("tau,beta,C\n0,0,3.5\n0,0.5,3.5\n1,0,3.5\n1,0.5,3.5\n", encoding="utf-8")
        assert main(["energy", str(traj)]) == EXIT_VALIDATION
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, message",
        [("# alpha = abc\n# c = 1\n", "alpha needs a number, got 'abc'"),
         ("# alpha = 1\n# c = fast\n", "c needs a number, got 'fast'")],
        ids=["alpha", "c"],
    )
    def test_bad_header_value_exits_one(self, tmp_path, capsys, header, message):
        traj = tmp_path / "traj.csv"
        traj.write_text(header + "tau,beta,C\n0,0,3.5\n0,0.9,3.5\n1,0,3.4\n1,0.9,3.4\n", encoding="utf-8")
        assert main(["energy", str(traj)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"deformflow: {traj}: {message}\n"

    def test_single_snapshot_exits_one(self, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        traj.write_text("# alpha = 1\n# c = 1\ntau,beta,C\n0,0,3.5\n0,0.5,3.5\n", encoding="utf-8")
        assert main(["energy", str(traj)]) == EXIT_VALIDATION

    def test_grid_not_reaching_critical_ratio_exits_one(self, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        traj.write_text(
            "# alpha = 1\n# c = 1\ntau,beta,C\n0,0,3.5\n0,0.5,3.5\n1,0,3.4\n1,0.5,3.4\n",
            encoding="utf-8",
        )
        assert main(["energy", str(traj)]) == EXIT_VALIDATION
        assert "critical" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,0,3.5\n0,0.9,3.5x\n", "malformed row '0,0.9,3.5x'"),
            ("0,0,3.5,1\n", "expected 'tau,beta,C' rows, got '0,0,3.5,1'"),
            # numpy sizes every row by the first, so alone it would blame the second row here
            ("0,0,3.5,1\n0,0.9,3.5\n1,0,3.4\n1,0.9,3.4\n", "expected 'tau,beta,C' rows, got '0,0,3.5,1'"),
            ("0,0,3.5\n0,0.9,3.5\n1,0,3.4\n1,0.8,3.4\n", "snapshot at tau = 1.0 has a different grid"),
            ("0,0,3.5\n0,0.9,3.5\n1,0,3.4\n", "snapshot at tau = 1.0 has a different grid"),
            ("1,0,3.5\n1,0.9,3.5\n0,0,3.4\n0,0.9,3.4\n", "snapshot times must be strictly increasing"),
            ("", "no data rows"),
            # only numpy parses the rows, so a spelling that float() alone takes is refused
            ("0,0,3.5\n0,0.9,3.5\n1,0,3.4\n1,0.9,3_4\n", "malformed row '1,0.9,3_4'"),
            # the header is the first line that is not a comment; a second one is a bad row
            ("0,0,3.5\n0,0.9,3.5\ntau,beta,C\n1,0,3.4\n1,0.9,3.4\n", "malformed row 'tau,beta,C'"),
            # comments are whole lines
            ("0,0,3.5 # x\n0,0.9,3.5\n1,0,3.4\n1,0.9,3.4\n", "malformed row '0,0,3.5 # x'"),
            # filterwarnings = error turns loadtxt's empty-input warning into a failure
            ("# note = 1\n   \n# more\n", "no data rows"),
        ],
        ids=["malformed", "field-count", "first-row-field-count", "different-grid", "short-snapshot",
             "non-increasing", "no-rows", "underscore-digits", "second-header", "trailing-comment", "comments-only"],
    )
    def test_bad_trajectory_exits_one(self, tmp_path, capsys, rows, message):
        traj = tmp_path / "traj.csv"
        traj.write_text("# alpha = 1\n# c = 1\ntau,beta,C\n" + rows, encoding="utf-8")
        assert main(["energy", str(traj)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"deformflow: {traj}: {message}\n"

    def test_unreadable_trajectory_exits_one(self, tmp_path, capsys):
        traj = str(tmp_path / "missing.csv")
        assert main(["energy", traj]) == EXIT_VALIDATION
        reason = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {traj!r}"
        assert capsys.readouterr().err == f"deformflow: cannot read trajectory {traj!r}: {reason}\n"

    @pytest.mark.parametrize(
        "head, tail, key",
        [("", "# alpha = 1\n# c = 1\n", "alpha"), ("# alpha = 1\n", "# c = 1\n", "c")],
        ids=["alpha", "c"],
    )
    def test_header_lines_after_the_rows_are_not_read(self, tmp_path, capsys, head, tail, key):
        traj = tmp_path / "traj.csv"
        rows = "0,0,3.5\n0,0.9,3.5\n1,0,3.4\n1,0.9,3.4\n"
        traj.write_text(head + "tau,beta,C\n" + rows + tail, encoding="utf-8")
        assert main(["energy", str(traj)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"deformflow: {traj}: missing '# {key} = ...' header\n"

    def test_table_read_holds_little_more_than_its_array(self, tmp_path):
        # 2^17 samples, 3 snapshots and a fitted-rate line per sample; a list of the lines peaked at 13.7x
        cfg, flow = tmp_path / "flow.cfg", tmp_path / "flow.csv"
        cfg.write_text(f"grid.n = {2**17}\n", encoding="utf-8")
        argv = ["flow", "--config", str(cfg), "--tau-end", "1", "--snapshot-every", "0.5", "--out", str(flow)]
        assert main(argv) == EXIT_OK
        tracemalloc.start()
        try:
            meta, rows = deformflow.cli._read_table(str(flow), "tau,beta,C", "trajectory")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (3 * 2**17, 3) and "fitted_rate_beta_0" not in meta
        assert peak <= 2 * rows.nbytes

    def test_bad_last_row_is_named_in_one_loadtxt_call(self, tmp_path, monkeypatch, capsys):
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: calls.append(1) or loadtxt(*args, **kw))
        traj = tmp_path / "traj.csv"
        good = "".join(f"{j // 2},{0.9 * (j % 2)},3.5\n" for j in range(1023))
        traj.write_text("# alpha = 1\n# c = 1\ntau,beta,C\n" + good + "511,0.9,3.5x\n", encoding="utf-8")
        assert main(["energy", str(traj)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"deformflow: {traj}: malformed row '511,0.9,3.5x'\n"
        assert len(calls) == 1

    @pytest.mark.parametrize("at", [0, 1, 8191, 8192, 8193, -1], ids=["first", "second", "8191", "8192", "8193", "last"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1,0.9,3.5x", "malformed row '1,0.9,3.5x'"),
            ("1,0.9,3.5,1", "expected 'tau,beta,C' rows, got '1,0.9,3.5,1'"),
            ("1,0.9", "expected 'tau,beta,C' rows, got '1,0.9'"),
            ("1,,3.5", "malformed row '1,,3.5'"),
            ("tau,beta,C", "malformed row 'tau,beta,C'"),
            ("1,0.9,3.5 # x", "malformed row '1,0.9,3.5 # x'"),
            ("1,0.9,3_4", "malformed row '1,0.9,3_4'"),
        ],
        ids=["bad-float", "extra-field", "missing-field", "empty-field", "second-header", "trailing-comment",
             "underscore-digits"],
    )
    def test_first_bad_row_is_named(self, tmp_path, capsys, at, bad, message):
        # a bad row at either end of 8200 rows or around the 8192nd, among comment and blank lines
        rows = [f"{j // 2},{0.9 * (j % 2)},3.5\n" for j in range(8200)]
        rows[at] = bad + "\n"
        traj = tmp_path / "traj.csv"
        text = "".join(row + ("# stats.x = 1\n\n" if j % 7 == 3 else "") for j, row in enumerate(rows))
        traj.write_text("# alpha = 1\n# c = 1\ntau,beta,C\n" + text, encoding="utf-8")
        assert main(["energy", str(traj)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"deformflow: {traj}: {message}\n"

    def test_undecodable_text_is_not_named_a_bad_row(self, tmp_path, capsys):
        # past the reader's first block of text, so the decode error rises while numpy parses
        traj = tmp_path / "traj.csv"
        good = "".join(f"{j // 2},{0.9 * (j % 2)},3.5\n" for j in range(4000))
        traj.write_bytes(b"# alpha = 1\n# c = 1\ntau,beta,C\n" + good.encode() + b"2000,0,3\xff\n")
        assert main(["energy", str(traj)]) == EXIT_VALIDATION
        assert "'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_skipped_lines_are_those_of_the_regex_rule(self, tmp_path, monkeypatch):
        skipped = re.compile(r"\s*(#|$)").match  # the rule as a regex, kept as the reference
        spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
        traj = tmp_path / "traj.csv"
        body = "".join(f"{ws}{tail}" for ws in spaces for tail in ("# x = 1\n", "\n", "0,0,3.5\n"))
        traj.write_text("tau,beta,C\n" + body, encoding="utf-8")
        with open(traj, encoding="utf-8") as fh:
            lines = list(fh)[1:]  # split as the reader splits them: '\r' ends a line too
        handed = []
        monkeypatch.setattr(np, "loadtxt", lambda rows, **kw: handed.extend(rows))
        deformflow.cli._read_table(str(traj), "tau,beta,C", "trajectory")
        assert len(handed) >= len(spaces)
        assert handed == [line for line in lines if not skipped(line)]

    def test_stats_comment_lines_are_ignored(self, tmp_path):
        traj = self.run_flow(tmp_path)
        lines = traj.read_text(encoding="utf-8").splitlines(keepends=True)
        noisy = tmp_path / "noisy.csv"
        noisy.write_text(
            "".join(line + ("# stats.x = 1\n" if i % 7 == 0 else "") for i, line in enumerate(lines)),
            encoding="utf-8",
        )
        plain_out, noisy_out = tmp_path / "plain.energy.csv", tmp_path / "noisy.energy.csv"
        assert main(["energy", str(traj), "--out", str(plain_out)]) == EXIT_OK
        assert main(["energy", str(noisy), "--out", str(noisy_out)]) == EXIT_OK
        assert noisy_out.read_bytes() == plain_out.read_bytes()


class TestRoundTrip:
    def test_energy_reproduces_initial_l2_energy(self, tmp_path):
        # E(0) from the re-read CSV must match l2_energy on the profile
        from deformflow import FlowState, VelocityGrid, critical_beta, l2_energy

        flow_out = tmp_path / "flow.csv"
        main(
            [
                "flow",
                "--initial",
                "uniform:4.25",
                "--tau-end",
                "0.2",
                "--snapshot-every",
                "0.1",
                "--out",
                str(flow_out),
            ]
        )
        energy_out = tmp_path / "energy.csv"
        assert main(["energy", str(flow_out), "--out", str(energy_out)]) == EXIT_OK
        _, rows = read_csv(energy_out)
        e0 = float(rows[1][1])
        grid = VelocityGrid.uniform(critical_beta(), 65)
        state = FlowState(0.0, (4.25,) * grid.n)
        direct = l2_energy(state, grid)
        np.testing.assert_allclose(e0, direct, rtol=0, atol=1e-12)

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["flow", "--tau-end", "0.3", "--snapshot-every", "0.1", "--seed", "11"]
        assert main(argv + ["--out", str(out1)]) == EXIT_OK
        assert main(argv + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


class TestInvariants:
    def test_default_is_unit_sphere(self, tmp_path):
        out = tmp_path / "inv.csv"
        assert main(["invariants", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert rows[0] == ["i1", "i2", "i3"]
        got = [float(x) for x in rows[1]]
        np.testing.assert_allclose(got, [12.0 * PI**2, 72.0 * PI**2, 24.0 * PI**2], rtol=1e-12)

    def test_conformal_factor_scales_by_square_root(self, tmp_path):
        # metric factor 4 = length factor 2: i1 doubles, i2 and i3 halve
        out = tmp_path / "inv.csv"
        assert main(["invariants", "--conformal-factor", "4.0", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        got = [float(x) for x in rows[1]]
        np.testing.assert_allclose(
            got, [24.0 * PI**2, 36.0 * PI**2, 12.0 * PI**2], rtol=1e-12
        )

    def test_nonpositive_factor_exits_one(self, capsys):
        assert main(["invariants", "--conformal-factor", "0"]) == EXIT_VALIDATION


class TestAudit:
    def test_table_on_stdout(self, capsys):
        assert main(["audit"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.splitlines()
        notes = [ln for ln in lines if ln.startswith("note:")]
        data = lines[2 : len(lines) - len(notes)]
        assert len(data) == 20
        assert len(notes) == 3
        assert "critical_speed_ratio" in out
        assert "DEVIATION" in out and "PASS" in out

    def test_csv_output(self, tmp_path):
        out = tmp_path / "audit.csv"
        assert main(["audit", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert rows[0] == ["label", "claimed", "computed", "abs_dev", "rel_dev", "status"]
        status = {r[0]: r[5] for r in rows[1:]}
        assert len(status) == 20
        assert status["unit_sphere_i3"] == "DEVIATION"
        assert status["halfpi_rescaled_curvature"] == "PASS"
        assert status["rescaled_i2_normalized_volume"] == "DEVIATION"


def fmt(x):
    return format(float(x), ".17g")


def reference_cv_rows(betas):
    """Per-row cv writer: one scalar compare and one format call per field."""
    rows = []
    for b in betas:
        row = compare(b)
        fields = [b, row.c_model, row.c_exact, row.c_first_order, row.dev_model, row.dev_first_order]
        gamma = "" if b == 1.0 else fmt(lorentz_gamma(b))
        rows.append(",".join([fmt(x) for x in fields] + [gamma]) + "\n")
    return "".join(rows)


def reference_flow_tail(traj, cfg, initial):
    """Per-row flow writer: data rows and the summary comments after them."""
    grid, states = traj.grid, traj.states
    lines = [
        f"{fmt(st.tau)},{fmt(b)},{fmt(cv)}\n" for st in states for b, cv in zip(grid.samples, st.profile)
    ]
    first, last = states[0], states[-1]
    linear = cfg.regime in LINEAR_REGIMES
    if linear:
        targets = [relaxation_target(b, cfg) for b in grid.samples]
        dev = max(abs(cv - t) for cv, t in zip(last.profile, targets))
        lines.append(f"# final_max_abs_dev_from_target = {fmt(dev)}\n")
        oracle = [analytic_linear(b, last.tau, c0, cfg) for b, c0 in zip(grid.samples, initial)]
    else:
        lines.append("# final_max_abs_dev_from_target = n/a\n")
        oracle = [
            second_order_solution(b, cfg.alpha, c0 - PI, last.tau) for b, c0 in zip(grid.samples, initial)
        ]
    lines.append(f"# oracle_max_abs_dev = {fmt(max(abs(cv - o) for cv, o in zip(last.profile, oracle)))}\n")
    for i, b in enumerate(grid.samples):
        rate = "n/a"
        if linear:
            d0, d1 = first.profile[i] - targets[i], last.profile[i] - targets[i]
            if d0 != 0.0 and d1 != 0.0 and (d0 > 0.0) == (d1 > 0.0):
                rate = fmt(math.log(abs(d0) / abs(d1)) / (last.tau - first.tau))
        lines.append(f"# fitted_rate_beta_{fmt(b)} = {rate}\n")
    return "".join(lines)


class TestArrayWriters:
    """The chunked '%.17g' writers against per-row reference writers."""

    def test_percent_format_is_format(self):
        edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0 - 2.0**-53, 1.0 + 2.0**-52,
                1e308, -1.7976931348623157e308, 1.0, 3.0, -42.0, 2.0**53, 2.0**53 + 2.0, 1e16, 123456789.0,
                0.1, 1.0 / 3.0, PI, 1e-5, 1e17, math.inf, -math.inf, math.nan]
        rng = np.random.default_rng(5)
        edge += (rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)).tolist()
        for x in edge:
            assert "%.17g" % x == format(x, ".17g")

    @pytest.mark.parametrize("chunk_rows", [8192, 20, 5])
    def test_cv_matches_per_row_writer(self, tmp_path, monkeypatch, chunk_rows):
        monkeypatch.setattr(deformflow.cli, "_CHUNK_ROWS", chunk_rows)
        out = tmp_path / "cv.csv"
        assert main(["cv", "--n", "101", "--out", str(out)]) == EXIT_OK
        text = out.read_text(encoding="utf-8")
        head = "# command = cv\nbeta,c_model,c_exact,c_first_order,dev_model,dev_first_order,gamma\n"
        assert text == head + reference_cv_rows(VelocityGrid.uniform(1.0, 101).samples)
        assert text.endswith("\n1,0,2,2.3561944901923448,2,-0.35619449019234484,\n")

    def test_cv_below_one_has_every_gamma(self, tmp_path):
        out = tmp_path / "cv.csv"
        assert main(["cv", "--beta-max", "0.9", "--n", "7", "--out", str(out)]) == EXIT_OK
        rows = out.read_text(encoding="utf-8").splitlines()[2:]
        assert rows == reference_cv_rows(VelocityGrid.uniform(0.9, 7).samples).splitlines()

    @pytest.mark.parametrize(
        "config, initial, chunk_rows",
        [
            ("alpha = 0.7\ndt = 0.01\ngrid.n = 9\n", "static", 8192),
            ("alpha = 0.7\ndt = 0.01\ngrid.n = 9\n", "static", 20),
            ("regime = supercritical-linear\nK = 1.5\ngrid.n = 7\ngrid.beta_max = 1\n", "uniform:4.0", 5),
            ("regime = second-order\nalpha = 3\ndt = 0.01\ngrid.n = 5\n", "uniform:4.0", 8192),
        ],
        ids=["linear", "linear-chunked", "supercritical-chunked", "second-order"],
    )
    def test_flow_matches_per_row_writer(self, tmp_path, monkeypatch, config, initial, chunk_rows):
        monkeypatch.setattr(deformflow.cli, "_CHUNK_ROWS", chunk_rows)
        cfg_path = tmp_path / "flow.cfg"
        cfg_path.write_text(config, encoding="utf-8")
        out = tmp_path / "flow.csv"
        argv = ["flow", "--config", str(cfg_path), "--initial", initial, "--tau-end", "1", "--out", str(out)]
        assert main(argv + ["--snapshot-every", "0.1"]) == EXIT_OK
        values = deformflow.cli.parse_config(str(cfg_path))
        cfg, grid = deformflow.cli._build_flow(values)
        init = deformflow.cli._resolve_initial(initial, grid)
        traj = integrate(grid, init, cfg, 1.0, 0.1)
        _, tail = out.read_text(encoding="utf-8").split("tau,beta,C\n")
        assert tail == reference_flow_tail(traj, cfg, init)

    @staticmethod
    def write_counting_tiles(monkeypatch, line, *columns, **kw):
        """The text _write_rows writes, and how many np.tile calls it made."""
        tiles = []

        class Spy:
            def __getattr__(self, name):
                return getattr(np, name)

            def tile(self, *args):
                tiles.append(args)
                return np.tile(*args)

        monkeypatch.setattr(deformflow.cli, "np", Spy())
        out = io.StringIO()
        deformflow.cli._write_rows(out, line, *columns, **kw)
        return out.getvalue(), len(tiles)

    def test_later_chunks_with_shorter_fields_and_fewer_gaps(self, monkeypatch):
        # one row buffer serves every chunk, so each chunk must write over all of the one before:
        # long fields and gaps first, then short fields and no gaps, in chunks of 4 rows
        monkeypatch.setattr(deformflow.cli, "_CHUNK_ROWS", 4)
        longest = [-1.2345678901234567e-300, -2.2250738585072014e-308, -0.00012345678901234567, -123456789.12345678]
        a = np.array(longest + [PI, -0.5, 1e22, 7.0, 1.0, 0.0, 2.0, 3.0, 0.0, 1.0])
        b = np.array([math.nan] * 4 + [math.nan, 2.5, math.nan, 1e-5] + [4.0] * 6)
        text, tiles = self.write_counting_tiles(monkeypatch, "{};{}\n", a, b, missing="-")
        assert text == "".join(f"{fmt(x)};{'-' if math.isnan(y) else fmt(y)}\n" for x, y in zip(a, b))
        assert tiles == 1

    def test_pieces_of_a_run_share_one_row_buffer(self, monkeypatch):
        # 7 samples a snapshot and chunks of 4 rows: pieces of 4 and 3 rows per snapshot
        monkeypatch.setattr(deformflow.cli, "_CHUNK_ROWS", 4)
        taus, samples = np.array([0.0, 0.125, 1e-300]), VelocityGrid.uniform(1.0, 7).samples
        profiles = np.array([samples * -1e300, samples + PI, np.ones(7)])
        text, tiles = self.write_counting_tiles(monkeypatch, "{},{},{}\n", taus[:, None], samples[None, :], profiles)
        want = [f"{fmt(t)},{fmt(b)},{fmt(c)}\n" for t, row in zip(taus, profiles) for b, c in zip(samples, row)]
        assert text == "".join(want)
        assert tiles == 1

    def test_flow_table_memory_does_not_grow_with_the_grid(self):
        # two snapshots of n rows each, then a fitted-rate line per sample, every other one n/a;
        # a whole snapshot per chunk peaked at 37 MiB and 150 MiB
        def peak(line, *columns, **kw):
            with open(os.devnull, "w", encoding="ascii") as out:
                tracemalloc.start()
                try:
                    deformflow.cli._write_rows(out, line, *columns, **kw)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        table, rates = [], []
        for n in (2**17, 2**19):
            samples = VelocityGrid.uniform(1.0, n).samples
            taus, profiles = np.array([0.0, 1.0]), np.stack([samples + PI, samples * PI])
            table.append(peak("{},{},{}\n", taus[:, None], samples[None, :], profiles))
            fitted = np.where(np.arange(n) % 2, samples * PI, math.nan)
            rates.append(peak("# fitted_rate_beta_{} = {}\n", samples, fitted, missing="n/a"))
        assert abs(table[1] / table[0] - 1.0) <= 0.1
        assert abs(rates[1] / rates[0] - 1.0) <= 0.1

    def test_energy_matches_per_snapshot_writer(self, tmp_path, monkeypatch):
        # second-order flow: E oscillates, so warn lines appear; 41 rows and their warn lines, chunked or not
        cfg_path = tmp_path / "flow.cfg"
        cfg_path.write_text("regime = second-order\nalpha = 40\ndt = 0.001\ngrid.n = 33\n", encoding="utf-8")
        flow, out = tmp_path / "flow.csv", tmp_path / "energy.csv"
        argv = ["flow", "--config", str(cfg_path), "--initial", "uniform:4.0", "--tau-end", "2"]
        assert main(argv + ["--snapshot-every", "0.05", "--out", str(flow)]) == EXIT_OK
        texts = set()
        for chunk_rows in (5, 20, 8192):
            monkeypatch.setattr(deformflow.cli, "_CHUNK_ROWS", chunk_rows)
            assert main(["energy", str(flow), "--out", str(out)]) == EXIT_OK
            texts.add(out.read_bytes())
        assert len(texts) == 1

        grid = VelocityGrid.uniform(critical_beta(), 33)
        states = {}
        for tau, beta, cv in read_csv(flow)[1][1:]:
            states.setdefault(float(tau), []).append(float(cv))
        taus = list(states)
        es = [l2_energy(FlowState(t, p), grid, 1.0) for t, p in states.items()]
        lemma = [l2_energy_rate(FlowState(t, p), grid, 40.0, 1.0) for t, p in states.items()]
        _, rows = read_csv(out)
        assert [float(r[0]) for r in rows[1:]] == taus
        for j, row in enumerate(rows[1:]):
            lo, hi = max(0, j - 1), min(len(taus) - 1, j + 1)
            slope = (es[hi] - es[lo]) / (taus[hi] - taus[lo])
            np.testing.assert_allclose([float(x) for x in row[1:]], [es[j], slope, lemma[j]], rtol=1e-12)
        warns = [line for line in out.read_text(encoding="utf-8").splitlines() if line.startswith("# warn")]
        want = [
            f"# warn_energy_increase_at_tau = {fmt(taus[j + 1])}"
            for j in range(len(taus) - 1)
            if es[j + 1] - es[j] > 1e-12 * (1.0 + abs(es[j]))
        ]
        assert warns == want and want


def kernel_texts(values):
    """The '%.17g' kernel's fields for values, one str each."""
    fields = deformflow.cli._g17_fields(np.asarray(values, dtype=float))
    rows = np.concatenate([fields, np.full((len(fields), 1), ord("\n"), np.uint8)], axis=1)
    return rows.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def assert_percent_g17(values):
    values = np.asarray(values, dtype=float)
    got = kernel_texts(values)
    bad = [(v, g) for v, g in zip(values.tolist(), got) if g != "%.17g" % v]
    assert len(got) == values.size and not bad[:5]


def near_halves():
    """Doubles whose 17-digit scaled value |x| 10**(16 - e) is within 2**-49 of a half-integer.

    Each x is m 2**q with m < 2**53, chosen by a modular inverse so that the
    scaled value is N + 1/2 + t 2**-j (small x) or N + 1/2 + t / (2 5**s)
    (large x).  10**(16 - e) is not a double for any of them, so the kernel's
    product is inexact exactly where rounding is closest to a tie.
    """
    found = []
    for k in range(23, 31):  # x below 1e-6: scaled by 10**k = 5**k 2**k
        five = 5**k
        for j in range(50, 57):
            inv = pow(five, -1, 2**j)
            for t in (-3, -1, 1, 3):
                m = (2 ** (j - 1) + t) * inv % 2**j
                if m < 2**53 and 10**16 * 2**j <= m * five < 10**17 * 2**j:
                    found.append(math.ldexp(m, -(j + k)))
    for s in range(22, 28):  # x above 1e38: scaled by 10**-s = 2**-s / 5**s
        five = 5**s
        for u in range(64):
            inv = pow(2**u, -1, five)
            for t in (-3, -1, 1, 3):
                m = (five + t) // 2 * inv % five
                if m < 2**53 and 10**16 * five <= m * 2**u < 10**17 * five:
                    found.append(math.ldexp(m, u + s))
    return found


class TestPercentG17Kernel:
    """The numpy '%.17g' kernel against Python's own formatter, byte for byte."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261018)
        total = 0
        for _ in range(8):
            x = rng.integers(0, 2**64 - 1, 2**17, dtype=np.uint64, endpoint=True).view(np.float64)
            x = x[np.isfinite(x)]
            assert (x < 0).any() and (x > 0).any()
            assert_percent_g17(x)
            total += x.size
        assert total >= 10**6

    def test_edge_values(self):
        edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.225073858507201e-308,
                1.0 - 2.0**-53, 2.0**53 + 2.0, 1e16, 1e17, 9.999999999999999e16, 1e-5,
                9.9999999999999995e-5, 1e22, 1e23, math.inf, -math.inf, math.nan, -math.nan,
                1.7976931348623157e308, 1.0, 10.0, 100.0, 120.0, 0.1, 0.5, -1.5, 1e-4, 1e-300, 1e300]
        powers = 10.0 ** np.arange(-320, 309)
        edge += [*powers, *np.nextafter(powers, 0.0), *np.nextafter(powers, np.inf)]
        edge += [m * 2.0**-24 for m in range(3, 17, 2)] + [2.0**-25, 3 * 2.0**-25]  # exact ties
        assert_percent_g17(edge)
        assert_percent_g17(-np.array(edge))

    def test_near_ties(self):
        values = near_halves()
        assert len(values) >= 40
        assert_percent_g17(values)

    def test_fixed_point_tables_are_exact(self):
        cli = deformflow.cli
        es = range(cli._E_MIN, cli._E_MAX + 2)
        assert cli._CEIL.size == len(es) == 22 and cli._SCALE.size == 21
        for e, ceil in zip(es, cli._CEIL.tolist()):  # the least double >= 10**e
            assert Fraction(math.nextafter(ceil, 0.0)) < Fraction(10) ** e <= Fraction(ceil)
        for e, scale, hi, lo in zip(es, cli._SCALE.tolist(), cli._SCALE_HI.tolist(), cli._SCALE_LO.tolist()):
            assert Fraction(scale) == 10 ** (16 - e) == Fraction(hi) + Fraction(lo)

    def test_every_fixed_point_value_is_settled(self):
        # '%g' writes 1e-4 <= |x| < 1e17 without an exponent: the numpy path spells every one, near ties too
        rng = np.random.default_rng(20261019)
        lo, hi = float("1e-4"), math.nextafter(1e17, 0.0)
        ends = [lo, math.nextafter(lo, 1.0), hi, math.nextafter(hi, 0.0)]
        x = np.clip(10.0 ** rng.uniform(-4.0, 17.0, 2**20), lo, hi) * rng.choice([-1.0, 1.0], 2**20)
        x = np.concatenate([x, ends, np.negative(ends)])
        assert_percent_g17(x)
        assert deformflow.cli._g17_round(x)[2].all()
        outside = [math.nextafter(lo, 0.0), 1e17, 0.0, math.inf, math.nan]
        assert not deformflow.cli._g17_round(np.array(outside + [-v for v in outside]))[2].any()

    def test_exact_ties_round_to_even(self):
        # |x| 10**k = m / 2 with m odd and k = 16 - e, so x = j / 2**(k + 1) with j odd: a double while j < 2**53
        rng = np.random.default_rng(17)
        ties = []
        for e in range(-4, 16):
            k = 16 - e
            low, high = (math.ceil(Fraction(10) ** d * 2 ** (k + 1)) for d in (e, e + 1))
            for j in [low, high - 1, *rng.integers(low, min(high, 2**53), 64).tolist()]:
                x = math.ldexp(j | 1, -(k + 1))
                if j | 1 < 2**53 and Fraction(10) ** e <= Fraction(x) < Fraction(10) ** (e + 1):
                    assert Fraction(x) * 10**k % 1 == Fraction(1, 2)
                    ties.append(x)
        assert len(ties) >= 20 * 64
        x = np.array([367447061059902.375, *ties, *np.negative(ties)])
        assert_percent_g17(x)
        assert deformflow.cli._g17_round(x)[2].all()
        assert kernel_texts(x[:1]) == ["367447061059902.38"]

    def test_shape_and_fallback_fields(self):
        x = np.array([[1.5, 0.0], [math.nan, -2.5e-7]])
        fields = deformflow.cli._g17_fields(x)
        assert fields.shape == (2, 2, deformflow.cli._FIELD) and fields.dtype == np.uint8
        assert kernel_texts(x.ravel()) == ["1.5", "0", "nan", "-2.4999999999999999e-07"]

    @pytest.mark.skipif(given is None, reason="needs Hypothesis")
    def test_hypothesis_floats(self):
        @given(st.lists(st.floats(), min_size=1, max_size=64))
        def check(values):
            assert kernel_texts(values) == ["%.17g" % v for v in values]

        check()


class TestWriterReaderRoundTrip:
    """_read_trajectory gives back exactly what the flow writer was given."""

    @pytest.mark.parametrize("method", ["rk4", "adaptive-rk"])
    @pytest.mark.parametrize("n, beta_max", [(65, critical_beta()), (2, 0.8)])
    def test_flow_csv_parses_back_bitwise(self, tmp_path, method, n, beta_max):
        cfg_path = tmp_path / "flow.cfg"
        cfg_path.write_text(
            f"regime = second-order\nalpha = 3\nmethod = {method}\ngrid.n = {n}\ngrid.beta_max = {beta_max!r}\n",
            encoding="utf-8",
        )
        out = tmp_path / "flow.csv"
        argv = ["flow", "--config", str(cfg_path), "--initial", "uniform:4.0", "--tau-end", "1.3"]
        assert main(argv + ["--snapshot-every", "0.1", "--out", str(out)]) == EXIT_OK
        values = deformflow.cli.parse_config(str(cfg_path))
        cfg, grid = deformflow.cli._build_flow(values)
        traj = integrate(grid, np.full(n, 4.0), cfg, 1.3, 0.1)

        _, taus, profiles, read_grid = deformflow.cli._read_trajectory(str(out))
        assert taus.tobytes() == traj.taus.tobytes()
        assert profiles.tobytes() == traj.profiles.tobytes()
        assert read_grid.samples.tobytes() == grid.samples.tobytes()

    def test_energy_csv_parses_back_bitwise(self, tmp_path):
        flow, out = tmp_path / "flow.csv", tmp_path / "energy.csv"
        argv = ["flow", "--initial", "uniform:4.25", "--tau-end", "3", "--snapshot-every", "0.05"]
        assert main(argv + ["--out", str(flow)]) == EXIT_OK
        assert main(["energy", str(flow), "--out", str(out)]) == EXIT_OK
        meta, taus, profiles, grid = deformflow.cli._read_trajectory(str(flow))
        cfg = FlowConfig(alpha=float(meta["alpha"]), c=float(meta["c"]))
        trace = energy_trace(Trajectory(grid, cfg, taus, profiles))

        _, rows = read_csv(out)
        table = np.array([[float(f) for f in row] for row in rows[1:]])
        assert table[:, 0].tobytes() == taus.tobytes()
        assert table[:, 1].tobytes() == np.array(trace.energies).tobytes()
        assert table[:, 3].tobytes() == np.array(trace.rates).tobytes()

