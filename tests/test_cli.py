"""Tests for the trisplit command-line interface.

These call cli.main(argv) in-process (fast, capsys-friendly), and run the
module in a subprocess where stderr must be seen as a user sees it.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisplit import bench, checks, cli
from trisplit.bench import ALGOS
from trisplit.core import DivergenceError, InputError
from trisplit.splitting import TRACE_COLUMNS, EnvelopeUndefinedError
from trisplit.stepsize import PlanInfeasibleError


TINY = ["--n", "12", "--s", "40", "--rank", "3", "--seed", "7", "--max-iter", "4000"]


class TestPlanCommand:
    def test_json_output_keys_and_values(self, capsys):
        rc = cli.main(["plan", "--l1", "10", "--l2", "1", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "l1",
            "l2",
            "lam",
            "alpha",
            "alpha_bar",
            "eps1",
            "eps2",
            "gbar0",
            "gbar1",
            "gbar2",
            "gbar3",
            "gamma_upper",
            "gamma_ryu",
            "thm2_cap",
        ]
        assert payload["alpha_bar"] == pytest.approx(0.6180339887498949, rel=1e-12)
        assert payload["gamma_ryu"] == pytest.approx(0.004850206820383053, rel=1e-9)
        assert payload["thm2_cap"] == pytest.approx(0.01, rel=1e-12)

    def test_text_output_lists_every_field(self, capsys):
        rc = cli.main(["plan", "--l1", "10", "--l2", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        for field in ("alpha_bar", "eps1", "eps2", "gamma_upper", "gamma_ryu", "thm2_cap"):
            assert any(line.startswith(field) for line in out.splitlines()), field

    def test_infeasible_plan_exits_2(self, capsys):
        # alpha below the relaxation-dependent lower bound is rejected as input error
        rc = cli.main(["plan", "--l1", "10", "--l2", "1", "--alpha", "0.5"])
        assert rc == 2
        assert "input error" in capsys.readouterr().err


class TestSolveCommand:
    def test_solve_prints_report_line(self, capsys):
        rc = cli.main(["solve", "--algo", "dys", *TINY])
        assert rc == 0
        out = capsys.readouterr().out
        assert "algo=dys" in out and "converged" in out
        assert "n=12" in out and "s=40" in out

    def test_solve_writes_csv_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        rc = cli.main(["solve", "--algo", "dys", *TINY, "--trace", str(path)])
        assert rc == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(TRACE_COLUMNS)
        assert len(rows) > 1
        assert f"trace written to {path}" in capsys.readouterr().out

    def test_solve_writes_json_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        rc = cli.main(
            ["solve", "--algo", "ryu+", *TINY, "--trace", str(path), "--format", "json"]
        )
        assert rc == 0
        records = json.loads(path.read_text())
        assert [r["k"] for r in records] == list(range(1, len(records) + 1))
        assert set(records[0]) == set(TRACE_COLUMNS)
        out = capsys.readouterr().out
        iters = int(out.split("iters=")[1].split()[0])
        assert len(records) == iters

    def test_solve_gamma_override(self, capsys):
        rc = cli.main(["solve", "--algo", "dys", *TINY, "--gamma", "0.05"])
        assert rc == 0
        assert "converged" in capsys.readouterr().out
        assert not multiprocessing.active_children()  # the solve's one worker is joined

    @pytest.mark.parametrize("algo", ALGOS)
    def test_solve_trace_equals_bench_trace(self, algo, tmp_path, capsys):
        # a 300x300 spectral prox's bits depend on the BLAS thread count: the traces agree
        # because solve runs its task in a pinned worker, as bench does
        solve_trace = tmp_path / "solve.csv"
        rc = cli.main(
            ["solve", "--algo", algo, "--n", "300", "--s", "10000", "--seed", "0", "--max-iter", "5", "--trace", str(solve_trace)]
        )
        assert rc == 0
        rc = cli.main(["bench", "--sizes", "300:10000", "--seeds", "1", "--algos", algo, "--max-iter", "5", "--outdir", str(tmp_path)])
        assert rc == 0

        def untimed(path):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0][-1] == "time_ms" and len(rows) == 6  # the header and 5 iterations
            return [row[:-1] for row in rows]

        assert untimed(solve_trace) == untimed(tmp_path / f"trace_{algo}_300x300_s10000_seed0.csv")


class TestBenchCommand:
    def test_bench_writes_summary_and_traces(self, tmp_path, capsys):
        rc = cli.main(
            [
                "bench",
                "--sizes",
                "12:40",
                "--seeds",
                "2",
                "--rank",
                "3",
                "--algos",
                "dys",
                "--max-iter",
                "4000",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "dys" in out and "summary written" in out
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algo", "n", "s", "mean_iter", "mean_time_ms", "mean_obj", "conv_rate", "capped"]
        assert len(rows) == 2  # one grouped row: dys at 12x12/s=40
        for seed in (0, 1):
            header = (tmp_path / f"trace_dys_12x12_s40_seed{seed}.csv").read_text().splitlines()[0]
            assert header == "k,gamma,envelope,objective,residual,dz1,dz2,dx1,dx2,gap31,gap32,time_ms"
        reports = json.loads((tmp_path / "reports.json").read_text())
        assert [(r["algo"], r["seed"]) for r in reports] == [("dys", 0), ("dys", 1)]
        assert all("trace" not in r and r["converged"] for r in reports)

    def test_bench_bad_sizes_exits_2(self, capsys):
        rc = cli.main(["bench", "--sizes", "nonsense"])
        assert rc == 2
        assert "sizes must look like" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["bench", "--sizes", "12:40", "--seeds", "0"], "--seeds must be a positive integer, got 0", id="0"),
            pytest.param(["bench", "--sizes", "12:40", "--seeds", "-1"], "--seeds must be a positive integer, got -1", id="-1"),
            pytest.param(["bench", "--sizes", "0:40"], "--sizes n must be a positive integer, got 0", id="sizes-0"),
            pytest.param(["solve", "--algo", "dys", "--n", "0", "--s", "40"], "--n must be a positive integer, got 0", id="solve-n-0"),
        ],
    )
    def test_bench_without_seeds_exits_2(self, argv, message, capsys):
        # a count below 1 is an input error that names its flag, not a parameter behind it
        rc = cli.main([*argv, "--rank", "3"])
        assert rc == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_bare_bench_runs_the_protocol_and_bare_solve_its_size(self, monkeypatch):
        # the defaults are what the CLI hands run_benchmark; solve's size is
        # read from DEFAULT_SIZES, not restated
        class Handed(Exception):
            pass

        def capture(*args, **kwargs):
            raise Handed(args, kwargs)

        monkeypatch.setattr(cli, "run_benchmark", capture)
        with pytest.raises(Handed) as handed:
            cli.main(["bench"])
        sizes, seeds, algos = handed.value.args[0]
        assert sizes == [(100, 1000)] and list(seeds) == [0, 1, 2, 3, 4] and algos == list(ALGOS)
        monkeypatch.setattr(cli, "DEFAULT_SIZES", ((7, 30),))
        with pytest.raises(Handed) as handed:
            cli.main(["solve", "--algo", "dys"])
        sizes, seeds, algos = handed.value.args[0]
        assert sizes == [(7, 30)] and seeds == [0] and algos == ["dys"]

    def test_parse_sizes(self):
        assert cli._parse_sizes("100:1000,300:10000") == [(100, 1000), (300, 10000)]
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_sizes("100-1000")


class TestCheckCommand:
    def test_check_passes_and_prints_one_line_per_check(self, capsys):
        rc = cli.main(["check"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            f"PASS {name}"
            for name in (
                "gradient-oracles",
                "lipschitz-bounds",
                "prox-oracles",
                "spectral-prox",
                "stepsize-planner",
                "displacement-identities",
                "envelope-consistency",
                "sufficient-descent",
                "convex-sanity",
                "davis-yin-baseline",
            )
        ]

    def test_check_failure_exits_1(self, monkeypatch, capsys):
        def broken():
            raise AssertionError("margin -1")

        monkeypatch.setattr(checks, "ALL_CHECKS", (("broken", broken), ("fine", lambda: None)))
        assert cli.main(["check"]) == 1
        assert capsys.readouterr().out.splitlines() == ["FAIL broken: margin -1", "PASS fine"]


class TestExitCodes:
    def test_missing_subcommand_exits_2(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_algo_exits_2(self, capsys):
        assert cli.main(["solve", "--algo", "bogus"]) == 2
        capsys.readouterr()

    def test_nan_tau_exits_2(self, capsys):
        rc = cli.main(["solve", "--algo", "ryu", "--n", "12", "--s", "40", "--rank", "3", "--tau", "nan"])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, name", [("--tol", "tol"), ("--proxgamma", "prox_gamma")])
    def test_infinite_stopping_parameter_exits_2(self, flag, name, capsys):
        rc = cli.main(["solve", "--algo", "ryu", "--n", "12", "--s", "40", "--rank", "3", flag, "inf"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"input error: {name} must be positive and finite")

    def test_float_arithmetic_error_exits_3(self, capsys):
        # lam * alpha underflows to 0 inside the planner
        rc = cli.main(["plan", "--l1", "0.3", "--l2", "1e-3", "--lam", "1e-300", "--alpha", "1e-300"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_internal_overflow_exits_3(self, capsys):
        # a finite --proxgamma overflows inside the stopping residual
        rc = cli.main(
            ["solve", "--algo", "dys", "--n", "12", "--s", "40", "--rank", "3", "--proxgamma", "1e308", "--max-iter", "20"]
        )
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")

    def test_negative_seed_exits_2(self, capsys):
        rc = cli.main(["solve", "--algo", "dys", *TINY, "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error: seed must be a non-negative integer")

    @pytest.mark.parametrize("alpha", ["nan", "5", "-1"])
    @pytest.mark.parametrize(
        "command",
        [["solve", "--algo", "dys", *TINY], ["bench", "--sizes", "12:40", "--seeds", "1", "--rank", "3", "--algos", "dys"]],
        ids=["solve", "bench"],
    )
    def test_alpha_outside_unit_interval_exits_2_for_dys(self, command, alpha, capsys):
        # dys has no alpha, but a bad one is still bad input
        rc = cli.main([*command, "--max-iter", "5", f"--alpha={alpha}"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error: alpha must lie in (0, 1]")

    def test_unwritable_trace_path_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "trace.csv"
        rc = cli.main(["solve", "--algo", "dys", *TINY, "--max-iter", "5", "--trace", str(path)])
        assert rc == 2
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error: ") and str(path) in err[0]
        assert "algo=" not in out  # the path is opened before the solve, not after

    def test_rejected_solve_keeps_an_existing_trace(self, tmp_path, capsys):
        path = tmp_path / "existing.csv"
        path.write_bytes(b"an earlier run's trace\n")
        rc = cli.main(["solve", "--algo", "ryu", *TINY, "--alpha", "5", "--trace", str(path)])
        assert rc == 2
        assert path.read_bytes() == b"an earlier run's trace\n"
        rc = cli.main(["solve", "--algo", "dys", *TINY, "--max-iter", "2", "--trace", str(path)])
        assert rc == 0
        with open(path, newline="") as fh:
            assert [row[0] for row in csv.reader(fh)] == ["k", "1", "2"]

    @pytest.mark.parametrize(
        "argv, code",
        [
            pytest.param(["solve", "--algo", "ryu", "--rank", "0", "--trace", "new.csv"], 2, id="solve-rejected"),
            pytest.param(
                ["solve", "--algo", "dys", "--rank", "3", "--proxgamma", "1e308", "--max-iter", "20", "--trace", "new.csv"],
                3,
                id="solve-failed",
            ),
            pytest.param(
                ["bench", "--seeds", "1", "--rank", "3", "--algos", "dys", "--tol", "-1", "--outdir", "o1/sub"],
                2,
                id="bench-rejected-nested",
            ),
            pytest.param(["bench", "--seeds", "1", "--rank", "30", "--outdir", "o2"], 2, id="bench-rejected"),
            pytest.param(
                ["bench", "--seeds", "1", "--rank", "3", "--algos", "dys", "--outdir", "o3/" + "x" * 300],
                2,
                id="bench-rejected-long-name",
            ),
            pytest.param(["solve", "--algo", "dys", "--rank", "3", "--max-iter", "5", "--trace", ""], 2, id="solve-empty-trace"),
            pytest.param(
                ["bench", "--seeds", "1", "--rank", "3", "--algos", "dys", "--max-iter", "5", "--outdir", ""],
                2,
                id="bench-empty-outdir",
            ),
        ],
    )
    def test_rejected_or_failed_run_leaves_no_new_path(self, argv, code, tmp_path, monkeypatch, capsys):
        # the trace file and output directories are made before the run, and removed again if it fails
        monkeypatch.chdir(tmp_path)
        size = ["--n", "12", "--s", "40"] if argv[0] == "solve" else ["--sizes", "12:40"]
        assert cli.main([*argv, *size]) == code
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_trace_to_a_device(self, capsys):
        # a device cannot be truncated: the trace is written to it as it is
        rc = cli.main(["solve", "--algo", "dys", *TINY, "--max-iter", "5", "--trace", os.devnull])
        assert rc == 0
        assert f"trace written to {os.devnull}" in capsys.readouterr().out

    def test_bench_outdir_that_is_a_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        rc = cli.main(
            ["bench", "--sizes", "12:40", "--seeds", "1", "--rank", "3", "--algos", "dys", "--max-iter", "5", "--outdir", str(path)]
        )
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error: ") and str(path) in err[0]

    @pytest.mark.parametrize("error", [InputError, PlanInfeasibleError, EnvelopeUndefinedError, FileNotFoundError])
    def test_input_error_classes_exit_2(self, error, monkeypatch, capsys):
        def boom():
            raise error("bad input")

        monkeypatch.setattr(cli, "run_all_checks", boom)
        assert cli.main(["check"]) == 2
        assert capsys.readouterr().err == "input error: bad input\n"

    def test_numerical_failure_exits_3(self, monkeypatch, capsys):
        def boom():
            raise DivergenceError("iterates blew up")

        monkeypatch.setattr(cli, "run_all_checks", boom)
        rc = cli.main(["check"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


# Malformed and extreme arguments: every float flag is drawn from the edge
# values below or from ordinary magnitudes, or left at its default.
EXTREME = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e308"]
float_arg = st.one_of(st.sampled_from(EXTREME), st.floats(1e-3, 2.0).map(repr), st.floats(2.0, 1e3).map(repr))


def flags(required=(), optional=()):
    return st.fixed_dictionaries(
        {name: float_arg for name in required}, optional={name: float_arg for name in optional}
    ).map(lambda d: [f"{name}={value}" for name, value in d.items()])  # "=" lets "-inf" through


@st.composite
def instance_args(draw):
    """--n/--rank/--s, mostly consistent so that runs get past instance generation."""
    n = draw(st.integers(-1, 12))
    rank = draw(st.integers(-1, 4))
    s = draw(st.integers(-1, max(n, 1) ** 2 + 1))
    return ["--n", str(n), "--rank", str(rank), "--s", str(s)]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(argv)
    return rc, out.getvalue()


class TestArgumentFuzzing:
    @given(flags(required=["--l1", "--l2"], optional=["--lam", "--alpha"]), st.sampled_from(["text", "json"]))
    @settings(max_examples=300, deadline=None)
    def test_plan(self, argv, fmt):
        rc, _ = run_main(["plan", *argv, "--format", fmt])
        assert rc in (0, 2, 3)

    @given(
        st.sampled_from(ALGOS),
        instance_args(),
        st.integers(-1, 20),
        flags(
            optional=["--lam", "--alpha", "--lambda1", "--lambda2", "--tau", "--tol", "--proxgamma", "--gamma"]
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_solve(self, algo, instance, max_iter, argv):
        rc, out = run_main(["solve", "--algo", algo, *instance, "--max-iter", str(max_iter), *argv])
        assert rc in (0, 2, 3)
        if rc == 0:
            obj = float(out.split("obj=")[1].split()[0])
            residual = float(out.split("residual=")[1].split()[0])
            assert math.isfinite(obj) and math.isfinite(residual), out

    @given(
        st.lists(st.tuples(st.integers(-1, 8), st.integers(-1, 65)), min_size=1, max_size=2),
        st.integers(0, 2),
        st.integers(-1, 4),
        st.integers(-1, 5),
        flags(
            optional=["--lam", "--alpha", "--lambda1", "--lambda2", "--tau", "--tol", "--proxgamma", "--gamma"]
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_bench(self, sizes, seeds, rank, max_iter, argv):
        sizes_arg = ",".join(f"{n}:{s}" for n, s in sizes)
        rc, _ = run_main(
            ["bench", "--sizes", sizes_arg, "--seeds", str(seeds), "--rank", str(rank), "--max-iter", str(max_iter), *argv]
        )
        assert rc in (0, 2, 3)


def run_cli_subprocess(*argv):
    """Run the CLI in a fresh interpreter, where pytest does not capture warnings."""
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-m", "trisplit.cli", *argv], capture_output=True, text=True, env=env
    )


def test_extreme_input_prints_only_the_error_line():
    proc = run_cli_subprocess(
        "solve", "--algo", "dys", "--n", "12", "--s", "40", "--rank", "3",
        "--proxgamma", "1e308", "--max-iter", "20",
    )
    # the exit class of this overflow is not what is tested here, only that
    # no numpy warning precedes the one error line
    assert proc.returncode in (2, 3)
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(("input error: ", "numerical failure: ")), proc.stderr


def test_extreme_input_in_bench_prints_only_the_error_line():
    proc = run_cli_subprocess(
        "bench", "--sizes", "12:40", "--seeds", "2", "--rank", "3", "--algos", "dys",
        "--proxgamma", "1e308", "--max-iter", "20", "--jobs", "2",
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: "), proc.stderr


BENCH_TWO_WORKERS = ["bench", "--sizes", "12:40", "--seeds", "2", "--algos", "dys", "--jobs", "2"]


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        ([*BENCH_TWO_WORKERS, "--proxgamma", "1e308"], 3, "numerical failure: "),
        ([*BENCH_TWO_WORKERS, "--alpha", "nan"], 2, "input error: "),
        (["solve", "--algo", "dys", "--n", "12", "--s", "40", "--proxgamma", "1e308"], 3, "numerical failure: "),
    ],
    ids=["overflow", "bad-alpha", "solve-overflow"],
)
def test_failing_bench_worker_prints_only_the_error_line(argv, code, prefix, capfd):
    # in this process, so that the workers' stderr is captured with the
    # caller's and a worker left running would be this process's child
    rc = cli.main([*argv, "--rank", "3", "--max-iter", "20"])
    assert rc == code
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), lines
    assert not multiprocessing.active_children()


def dying_task(*args):
    """bench._run_task as a worker that dies mid-task, as one the OOM killer
    ends. It runs in a worker, whose bench module is not patched."""
    os._exit(1)


@pytest.mark.parametrize(
    "argv",
    [
        [*BENCH_TWO_WORKERS, "--outdir", "new"],
        ["solve", "--algo", "dys", "--n", "12", "--s", "40", "--trace", "new.csv"],
    ],
    ids=["bench", "solve"],
)
def test_a_dead_worker_is_one_line_and_exit_1(argv, tmp_path, monkeypatch, capfd):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench, "_run_task", dying_task)
    assert cli.main([*argv, "--rank", "3", "--max-iter", "20"]) == 1
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("worker failure: "), lines
    assert list(tmp_path.iterdir()) == []
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("algo", ["ryu", "ryu+"])
def test_infinite_gamma_is_an_input_error(algo):
    # rejected before the stepsize-cap warning could print
    proc = run_cli_subprocess(
        "solve", "--algo", algo, "--n", "12", "--s", "40", "--rank", "3", "--max-iter", "5", "--gamma=inf",
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ") and "positive and finite" in lines[0], proc.stderr


@pytest.mark.parametrize("gamma", ["nan", "-1"])
def test_bad_ryu_plus_gamma_names_the_gamma(gamma, capsys):
    rc = cli.main(["solve", "--algo", "ryu+", *TINY, "--max-iter", "5", "--gamma", gamma])
    assert rc == 2
    assert capsys.readouterr().err == f"input error: gamma must be positive and finite, got {float(gamma)}\n"


def test_stepsize_cap_warning_still_prints():
    proc = run_cli_subprocess(
        "solve", "--algo", "ryu", "--n", "12", "--s", "40", "--rank", "3", "--gamma", "1", "--max-iter", "5",
    )
    assert proc.returncode == 0
    assert "RuntimeWarning: stepsize 1 exceeds" in proc.stderr


def test_console_script_installed():
    proc = run_cli_subprocess("plan", "--l1", "1", "--l2", "1")
    assert proc.returncode == 0
    assert "gamma_ryu" in proc.stdout


def test_runs_without_scipy():
    # numpy is the only runtime dependency: with scipy unimportable, the
    # package imports, plans and solves
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import trisplit\n"
        "from trisplit import cli\n"
        "assert cli.main(['plan', '--l1', '10', '--l2', '1']) == 0\n"
        "assert cli.main(['solve', '--algo', 'ryu+', '--n', '12', '--s', '40', '--rank', '3', '--max-iter', '5']) == 0\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "gamma_ryu" in proc.stdout and "algo=ryu+" in proc.stdout
