import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magprop as mp
import magprop.cli as cli
from magprop.errors import NumericalError, ValidationError


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


class TestPropagatorCommand:
    def test_reference_value(self, capsys):
        code, data, _ = run_json(capsys, ["propagator", "--t", "1.0", "--k", "1.0"])
        assert code == 0
        assert data["result"]["im"] == pytest.approx(-1 / (2 * np.pi * np.sin(1.0)), abs=1e-15)
        assert data["result"]["re"] == 0.0
        assert data["meta"]["variant"] == "k_over/plus"
        assert data["meta"]["tolerances"]["caustic_tol"] == 1e-6
        assert data["query"]["y3"] is None

    def test_matches_library(self, capsys):
        code, data, _ = run_json(
            capsys,
            ["propagator", "--t", "0.8", "--k", "0.6", "--y1", "0.3", "--y2", "-0.1",
             "--y3", "0.5"],
        )
        assert code == 0
        want = mp.propagator(mp.CPQuery(t=0.8, k=0.6, y1=0.3, y2=-0.1, y3=0.5))
        assert data["result"]["re"] == want.real
        assert data["result"]["im"] == want.imag

    def test_caustic_exit_code(self, capsys):
        code = cli.run(["propagator", "--t", repr(np.pi / 2), "--k", "1.0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "caustic" in captured.err

    def test_repeat_runs_are_byte_identical(self, capsys):
        argv = ["propagator", "--t", "0.9", "--k", "1.1", "--y1", "0.2"]
        cli.run(argv)
        first = capsys.readouterr().out
        cli.run(argv)
        second = capsys.readouterr().out
        assert first == second
        assert first.endswith("\n")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["propagator"],
            ["propagator", "--t", "1.0", "--k", "1.0", "--bogus"],
            ["det", "--t", "1.0", "--k", "1.0", "--method", "magic", "--order", "10"],
            ["det", "--t", "1.0", "--k", "1.0", "--order", "10"],
            ["no-such-command"],
            # option names still parse as options, not as values
            ["propagator", "--t", "1.0", "--k", "--y1", "0.5"],
            ["tgen", "--t", "1", "--k", "1", "--bump", "0", "-1e-1", "0.5", "--n"],
            ["propagator", "--t", "1.0", "--k", "-1e-3x"],
        ],
    )
    def test_exit_one_with_usage(self, capsys, argv):
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage error:")
        assert "usage:" in captured.err

    @pytest.mark.parametrize("argv, plain", [
        (["propagator", "--t", "1", "--k", "-1e-3"], ["propagator", "--t", "1", "--k", "-0.001"]),
        (["oracle", "--k", "-1E0"], ["oracle", "--k", "-1.0"]),
        (["tgen", "--t", "1", "--k", "1", "--bump", "0", "-1e-1", "0.5", "0.1"],
         ["tgen", "--t", "1", "--k", "1", "--bump", "0", "-0.1", "0.5", "0.1"]),
    ], ids=["propagator", "oracle", "tgen"])
    def test_every_float_token_is_a_value(self, capsys, argv, plain):
        # argparse alone takes only "-0.5"-style strings as negative numbers
        assert cli.run(argv) == 0
        out = capsys.readouterr().out
        assert cli.run(plain) == 0
        assert capsys.readouterr().out == out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.run(["--version"])
        assert excinfo.value.code == 0
        assert "magprop 0.1.0" in capsys.readouterr().out


class TestNumericalFailures:
    def test_exit_three_on_numerical_error(self, capsys, monkeypatch):
        def boom(q):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "propagator", boom)
        code = cli.run(["propagator", "--t", "1.0", "--k", "1.0"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "numerical error: synthetic failure" in captured.err

    def test_failed_adjudication_exits_three(self, capsys):
        code = cli.run(["oracle", "--slices", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "numerical error:" in captured.err


class TestSpectrumCommand:
    def test_structure_and_values(self, capsys):
        code, data, _ = run_json(
            capsys, ["spectrum", "--t", "1.0", "--k", "1.0", "--n", "256", "--count", "3"]
        )
        assert code == 0
        res = data["result"]
        assert res["multiplicities"] == [2, 2, 2]
        assert res["closed_form"][0] == pytest.approx(1 - 4 / np.pi**2, rel=1e-12)
        for ev, want in zip(res["eigenvalues"], res["closed_form"]):
            assert ev["re"] == pytest.approx(want, rel=1e-4)
            assert ev["im"] == 0.0
        assert data["meta"]["n"] == 256

    def test_bad_count_is_a_query_error(self, capsys):
        code = cli.run(["spectrum", "--t", "1.0", "--k", "1.0", "--n", "64", "--count", "0"])
        assert code == 2
        assert capsys.readouterr().out == ""


class TestDetCommand:
    def test_product_reference(self, capsys):
        code, data, _ = run_json(
            capsys, ["det", "--t", "1.0", "--k", "1.0", "--method", "product",
                     "--order", "10000"]
        )
        assert code == 0
        assert data["result"]["re"] == pytest.approx(np.cos(1.0) ** 2, rel=1e-6)
        assert data["result"]["im"] == 0.0

    @pytest.mark.parametrize("k, order, least", [("3", "1", 2), ("10", "1", 6), ("10", "2", 6),
                                                 ("10", "4", 6), ("-10", "5", 6)])
    def test_too_small_product_order_exits_two(self, capsys, k, order, least):
        code = cli.run(["det", "--t", "1.0", "--k", k, "--method", "product", "--order", order])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and f"needs order >= {least}" in captured.err

    def test_dense_matches_product(self, capsys):
        code, dense, _ = run_json(
            capsys, ["det", "--t", "0.9", "--k", "1.0", "--method", "dense",
                     "--order", "128"]
        )
        assert code == 0
        assert dense["result"]["re"] == pytest.approx(np.cos(0.9) ** 2, rel=1e-3)
        assert dense["meta"]["n"] == 128


class TestMMatrixCommand:
    def test_closed_only(self, capsys):
        code, data, _ = run_json(capsys, ["mmatrix", "--t", "1.0", "--k", "1.0"])
        assert code == 0
        closed = data["result"]["closed"]
        assert closed[0][0]["im"] == pytest.approx(np.tan(1.0), rel=1e-12)
        assert closed[0][1] == {"im": 0.0, "re": 0.0}
        assert "numerical" not in data["result"]

    def test_numerical_comparison(self, capsys):
        code, data, _ = run_json(capsys, ["mmatrix", "--t", "1.0", "--k", "1.0",
                                          "--n", "512"])
        assert code == 0
        assert data["result"]["max_abs_diff"] < 1e-5
        num = data["result"]["numerical"]
        assert num[0][0]["im"] == pytest.approx(np.tan(1.0), rel=1e-5)
        assert abs(num[1][0]["re"]) < 1e-7


class TestTgenCommand:
    def test_no_bumps_reduces_to_propagator(self, capsys):
        code, tgen, _ = run_json(
            capsys, ["tgen", "--t", "1.0", "--k", "1.0", "--y1", "0.2", "--y2", "0.1"]
        )
        assert code == 0
        _, prop, _ = run_json(
            capsys, ["propagator", "--t", "1.0", "--k", "1.0", "--y1", "0.2",
                     "--y2", "0.1"]
        )
        assert tgen["result"] == prop["result"]
        assert tgen["meta"]["det_NK"]["re"] == pytest.approx(np.cos(1.0) ** 2)

    def test_bump_moves_the_value(self, capsys):
        base = ["tgen", "--t", "1.0", "--k", "1.0", "--y1", "0.2", "--y2", "0.1"]
        _, plain, _ = run_json(capsys, base)
        code, bumped, _ = run_json(
            capsys, base + ["--bump", "0", "0.5", "0.4", "0.1"]
        )
        assert code == 0
        assert bumped["result"] != plain["result"]
        assert bumped["query"]["bumps"] == [[0, 0.5, 0.4, 0.1]]

    @pytest.mark.parametrize(
        "bump",
        [
            ["5", "1.0", "0.1", "0.05"],   # component out of range
            ["0", "abc", "0.1", "0.05"],   # unparseable amplitude
            ["0", "1.0", "2.0", "0.05"],   # center outside [0, t)
            ["0", "1.0", "0.1", "-0.05"],  # nonpositive width
        ],
    )
    def test_bad_bumps_are_query_errors(self, capsys, bump):
        code = cli.run(["tgen", "--t", "1.0", "--k", "1.0", "--bump", *bump])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""


class TestOracleCommand:
    def test_adjudicates(self, capsys):
        code, data, _ = run_json(capsys, ["oracle"])
        assert code == 0
        assert data["result"]["selected"] == "k_over/plus"
        assert len(data["meta"]["convergence"]) == 3
        assert data["meta"]["convergence"][-1][1] < 1e-2
        assert set(data["meta"]["short_time_defect"]) == {
            "k_over/plus", "k_over/minus", "kt_over/plus", "kt_over/minus"
        }

    def test_reports_the_n_table(self, capsys):
        code, data, _ = run_json(capsys, ["oracle"])
        assert code == 0
        meta = data["meta"]
        assert meta["slice_counts"] == [64, 128, 256]
        assert [len(col) for col in meta["n_table"]] == [3, 2, 1]
        assert meta["n_table"][0][-1] == data["result"]["slicing_value"]
        assert meta["n_table"][-1][0] == meta["extrapolated_value"]

    @pytest.mark.parametrize("t", ["3", "4"])
    def test_large_kt_is_certified(self, capsys, t):
        # the raw 256-slice value misses the 1% gate here; the N-extrapolated
        # one does not
        code = cli.run(["oracle", "--t", t, "--k", "1"])
        captured = capsys.readouterr()
        assert code == 0, captured.err

        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")

        data = json.loads(captured.out, parse_constant=reject)
        assert data["result"]["selected"] == "k_over/plus"
        assert data["meta"]["convergence"][-1][1] > 1e-2

    def test_over_budget_slices_exit_two(self, capsys):
        code = cli.run(["oracle", "--slices", str(10**12)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "budget" in captured.err

    @pytest.mark.parametrize("k", ["0", "1"])
    @pytest.mark.parametrize("bad", [["--slices", "1"], ["--eps0", "-5"]])
    def test_invalid_slicing_arguments_exit_two_at_every_k(self, capsys, k, bad):
        # k = 0 takes no sliced value, but validates its arguments all the same
        code = cli.run(["oracle", "--k", k, *bad])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestSweepCommand:
    def test_rows_and_ordering(self, capsys):
        code = cli.run([
            "sweep", "--t-min", "0.5", "--t-max", "1.0", "--t-steps", "3",
            "--k-min", "0.0", "--k-max", "1.0", "--k-steps", "2",
            "--y1", "0.3", "--y2", "-0.2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,k,re,im"
        assert len(lines) == 7
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        ts = [r[0] for r in rows]
        assert ts == sorted(ts)
        assert [r[1] for r in rows[:2]] == [0.0, 1.0]
        for t, k, re, im in rows:
            want = mp.propagator(mp.CPQuery(t=t, k=k, y1=0.3, y2=-0.2))
            assert re == want.real and im == want.imag

    def test_caustic_anywhere_suppresses_all_output(self, capsys):
        code = cli.run([
            "sweep", "--t-min", "1.0", "--t-max", repr(np.pi / 2), "--t-steps", "2",
            "--k-min", "1.0", "--k-max", "1.0", "--k-steps", "1",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "caustic" in captured.err

    def test_step_validation(self, capsys):
        code = cli.run([
            "sweep", "--t-min", "0.5", "--t-max", "1.0", "--t-steps", "0",
            "--k-min", "0.0", "--k-max", "1.0", "--k-steps", "2",
        ])
        assert code == 2

    def test_oversized_sweep_is_refused(self, capsys):
        # unguarded, np.linspace alone would ask for 80 TB here
        code = cli.run([
            "sweep", "--t-min", "0.5", "--t-max", "1.0", "--t-steps", str(10**13),
            "--k-min", "0.0", "--k-max", "1.0", "--k-steps", "1",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "10000000000000 rows would take about" in captured.err
        assert "MiB, over the 1024 MiB budget" in captured.err

    def test_the_guard_counts_rows_before_allocating(self):
        # the product of the axes is what counts: each axis alone is small
        cli._check_sweep(10**3, 10**3)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"10000000000 rows .* MiB, over the 1024"):
                cli._check_sweep(10**5, 10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_repeat_runs_are_byte_identical(self, capsys):
        argv = [
            "sweep", "--t-min", "0.5", "--t-max", "0.9", "--t-steps", "2",
            "--k-min", "0.2", "--k-max", "0.8", "--k-steps", "2",
        ]
        cli.run(argv)
        first = capsys.readouterr().out
        cli.run(argv)
        second = capsys.readouterr().out
        assert first == second


class TestEnvelope:
    @pytest.mark.parametrize("argv", [
        ["propagator", "--t", "0.8", "--k", "0.6", "--y1", "0.3", "--y3", "0.5"],
        ["spectrum", "--t", "1.0", "--k", "1.0", "--n", "64", "--count", "2"],
        ["det", "--t", "1.0", "--k", "1.0", "--method", "dense", "--order", "8"],
        ["mmatrix", "--t", "1.0", "--k", "1.0"],
        ["mmatrix", "--t", "1.0", "--k", "1.0", "--n", "16"],
        ["oracle", "--slices", "64"],
    ], ids=lambda argv: "-".join(argv[:1] + argv[-2:]))
    def test_query_is_the_parsed_arguments_minus_out(self, capsys, tmp_path, argv):
        target = tmp_path / "out.json"
        assert cli.run(argv + ["--out", str(target)]) == 0
        parsed = vars(cli._build_parser().parse_args(argv))
        del parsed["out"]
        data = json.loads(target.read_text())
        assert data["query"] == parsed
        assert set(data) == {"query", "result", "meta"}
        assert data["meta"]["version"] == mp.__version__

    def test_tgen_query_holds_the_parsed_bumps(self, capsys):
        argv = ["tgen", "--t", "1", "--k", "1", "--n", "16",
                "--bump", "0", "-1e-1", "0.5", "0.1", "--bump", "3", "2", "0.25", "0.5"]
        code, data, _ = run_json(capsys, argv)
        assert code == 0
        assert data["query"] == {"command": "tgen", "t": 1.0, "k": 1.0, "y1": 0.0, "y2": 0.0,
                                 "y3": None, "n": 16,
                                 "bumps": [[0, -0.1, 0.5, 0.1], [3, 2.0, 0.25, 0.5]]}


class TestOutFile:
    def test_out_writes_file_and_keeps_stdout_empty(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        argv = ["propagator", "--t", "1.0", "--k", "1.0"]
        code = cli.run(argv + ["--out", str(target)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        cli.run(argv)
        assert target.read_text() == capsys.readouterr().out

    def test_sweep_out(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code = cli.run([
            "sweep", "--t-min", "0.5", "--t-max", "0.5", "--t-steps", "1",
            "--k-min", "0.0", "--k-max", "0.0", "--k-steps", "1",
            "--out", str(target),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("t,k,re,im\n")


class TestDomainAndOutputFailures:
    # each argv once escaped with a NaN in the JSON, a traceback, or exit 0
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["det", "--t", "1.0", "--k", "nan", "--method", "product", "--order", "10"], 2),
            (["spectrum", "--t", "1.0", "--k", "inf", "--n", "64", "--count", "3"], 2),
            (["propagator", "--t", "1.0", "--k", "1.0", "--out", "{missing}/out.json"], 1),
            (["propagator", "--t", "1e308", "--k", "1e308"], 2),
            (["tgen", "--t", "1", "--k", "1", "--bump", "0", "nan", "0.5", "0.1"], 2),
            (["tgen", "--t", "1", "--k", "1", "--bump", "0", "inf", "0.5", "0.1"], 2),
            (["propagator", "--t", "-inf", "--k", "1"], 2),
            (["tgen", "--t", "1", "--k", "1", "--bump", "0", "-inf", "0.5", "0.1"], 2),
            (["tgen", "--t", "0.7", "--k", "1e308", "--n", "16",
              "--bump", "0", "0.5", "0.0", "0.1"], 3),
            (["oracle", "--t", "1e308", "--k", "1e-308", "--slices", "8"], 3),
            (["sweep", "--t-min", "0.7", "--t-max", "1.0", "--t-steps", "2",
              "--k-min", "1e308", "--k-max", "1.0", "--k-steps", "2"], 3),
            (["mmatrix", "--t", "1e308", "--k", "0.7", "--n", "16"], 3),
        ],
        ids=["det_k_nan", "spectrum_k_inf", "out_missing_dir", "propagator_1e308",
             "tgen_amp_nan", "tgen_amp_inf", "propagator_t_minus_inf", "tgen_amp_minus_inf",
             "tgen_k_1e308", "oracle_t_1e308", "sweep_k_1e308", "mmatrix_t_1e308"],
    )
    def test_exit_code_without_traceback(self, capsys, tmp_path, argv, code):
        argv = [a.format(missing=tmp_path / "missing") for a in argv]
        assert cli.run(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error:" if code == 3 else "error:")
        assert "Traceback" not in captured.err

    def test_unwritable_out_names_the_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.json"
        assert cli.run(["propagator", "--t", "1.0", "--k", "1.0", "--out", str(target)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {target}: No such file or directory\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--t", "1.0", "--k", "1e200", "--n", "64", "--count", "3"],
            ["det", "--t", "1.0", "--k", "1e200", "--method", "product", "--order", "10"],
        ],
        ids=["spectrum", "det"],
    )
    def test_non_finite_result_exits_three(self, capsys, argv):
        # k is finite, but (kt)^2 overflows to inf
        with np.errstate(all="ignore"):
            code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "non-finite" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["det", "--t", "1", "--k", "1e200", "--method", "product", "--order", "10"],
            ["spectrum", "--t", "1", "--k", "1e200", "--n", "16", "--count", "2"],
        ],
        ids=["det", "spectrum"],
    )
    def test_non_finite_result_prints_one_line(self, argv):
        # a separate process, so that a numpy RuntimeWarning would reach stderr
        src = str(Path(mp.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "magprop", *argv],
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default"),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error:"), proc.stderr


def test_import_leaves_scipy_sparse_out():
    # nor scipy.linalg or scipy.special: only the solves that use them load them
    src = str(Path(mp.__file__).resolve().parents[1])
    mods = ("scipy.sparse", "scipy.linalg", "scipy.special")
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, magprop.cli; print([m in sys.modules for m in {mods}])"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        check=True,
    )
    assert proc.stdout.strip() == "[False, False, False]"


def test_det_product_loads_no_scipy():
    src = str(Path(mp.__file__).resolve().parents[1])
    code = ("import sys, magprop.cli\n"
            "code = magprop.cli.run(['det', '--t', '1.0', '--k', '1.0', '--method', 'product',"
            " '--order', '10000'])\n"
            "print(code, any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules),"
            " file=sys.stderr)")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        check=True,
    )
    assert proc.stderr.split() == ["0", "False"]
    assert json.loads(proc.stdout)["query"]["command"] == "det"


_EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-308, -1e-308,
                             0.0, -1.0, -1e-3, 0.7])


def _argv(command, t, k, y, amp, n, order, steps, flag):
    """One small query of each subcommand: n <= 16, order <= 10, steps <= 2
    and 8 slices, so that no draw allocates much."""
    tk = ["--t", repr(t), "--k", repr(k)]
    if command == "propagator":
        return ["propagator", *tk, "--y1", repr(y), "--y2", repr(-y)] + (["--y3", repr(y)] if flag else [])
    if command == "spectrum":
        return ["spectrum", *tk, "--n", str(n), "--count", "2"]
    if command == "det":
        return ["det", *tk, "--method", "dense" if flag else "product", "--order", str(order)]
    if command == "mmatrix":
        return ["mmatrix", *tk] + (["--n", str(n)] if flag else [])
    if command == "tgen":
        return ["tgen", *tk, "--y1", repr(y), "--n", str(n), "--bump", "0", repr(amp), "0.0", "0.1"]
    if command == "oracle":
        return ["oracle", *tk, "--y1", repr(y), "--y2", repr(amp), "--slices", "8"]
    return ["sweep", "--t-min", repr(t), "--t-max", repr(amp), "--t-steps", str(steps),
            "--k-min", repr(k), "--k-max", repr(y), "--k-steps", str(3 - steps), "--y1", repr(y)]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("command", ["propagator", "spectrum", "det", "mmatrix", "tgen",
                                     "oracle", "sweep"])
@settings(max_examples=150)
@given(t=_EXTREMES, k=_EXTREMES, y=_EXTREMES, amp=_EXTREMES, n=st.integers(2, 16),
       order=st.integers(1, 10), steps=st.integers(1, 2), flag=st.booleans())
def test_extreme_values_end_in_a_documented_exit(command, t, k, y, amp, n, order, steps, flag):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(_argv(command, t, k, y, amp, n, order, steps, flag))
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == ""
    elif command == "sweep":
        lines = out.getvalue().splitlines()
        assert lines[0] == "t,k,re,im" and len(lines) == 3
        assert all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(","))
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
