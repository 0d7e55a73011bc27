import concurrent.futures
import csv
import math
import multiprocessing
import os
import subprocess
import sys
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import trisplit
import trisplit.bench as bench
from trisplit import (
    DivergenceError,
    InputError,
    IterRecord,
    MaskedQuadraticTerm,
    NonnegDistanceTerm,
    NumericalError,
    SpectralMCPTerm,
    StoppingRule,
    build_problem,
    composite_residual,
    evaluate_objective,
    generate_instance,
    plan,
    run_experiment,
    summarize,
)
from trisplit.bench import (
    ALGOS,
    default_gamma_dys,
    format_summary,
    run_benchmark,
    trace_filename,
    write_summary_csv,
)
from trisplit.checks import SMALL_BENCH

from bits import bits

SMALL_STOP = StoppingRule(tol=1e-3, max_iter=4000)


@pytest.fixture(scope="module")
def reports_by_algo(tiny_instance):
    return {
        algo: run_experiment(tiny_instance, algo, stop=SMALL_STOP)
        for algo in ("ryu", "ryu+", "dys")
    }


@pytest.fixture(scope="module")
def dys_reports():
    out = []
    for seed in (7, 11):
        inst = generate_instance(12, 9, 3, 40, seed=seed)
        out.append(run_experiment(inst, "dys", stop=SMALL_STOP))
    return out


class TestInstanceGeneration:
    def test_deterministic_per_seed(self):
        a = generate_instance(**SMALL_BENCH)
        b = generate_instance(**SMALL_BENCH)
        npt.assert_array_equal(a.target.data, b.target.data)
        npt.assert_array_equal(a.mask, b.mask)

    def test_seeds_differ(self):
        a = generate_instance(**SMALL_BENCH)
        b = generate_instance(**{**SMALL_BENCH, "seed": 8})
        assert not np.array_equal(a.target.data, b.target.data)

    def test_mask_has_exactly_s_entries(self):
        inst = generate_instance(**SMALL_BENCH)
        assert int(inst.mask.sum()) == SMALL_BENCH["s"]

    def test_target_has_requested_rank(self):
        inst = generate_instance(**SMALL_BENCH)
        sv = np.linalg.svd(inst.target.mat, compute_uv=False)
        assert (sv > 1e-9).sum() == SMALL_BENCH["r"]

    def test_validation(self):
        with pytest.raises(InputError):
            generate_instance(4, 4, 5, 10, seed=0)  # rank above min(m, n)
        with pytest.raises(InputError):
            generate_instance(4, 4, 2, 17, seed=0)  # more samples than entries
        for name, size in [("m", 4.0), ("n", 4.5), ("r", 3.5), ("s", 10.0), ("r", 0), ("m", -1), ("r", True)]:
            with pytest.raises(InputError, match=f"^{name} must be a positive integer"):
                generate_instance(**{**dict(m=4, n=4, r=2, s=10, seed=0), name: size})
        with pytest.raises(InputError, match="^seed must be a non-negative integer, got False"):
            generate_instance(True, True, True, True, seed=False)
        for name in ("lam1", "lam2"):
            for weight in (math.nan, math.inf, -1.0):
                with pytest.raises(InputError, match=f"^{name} must be finite and nonnegative"):
                    generate_instance(4, 4, 2, 10, seed=0, **{name: weight})
        for tau in (0.0, math.nan):
            with pytest.raises(InputError, match="^tau must be positive"):
                generate_instance(4, 4, 2, 10, seed=0, tau=tau)

    def test_seed_must_be_a_non_negative_integer(self):
        for seed in (-1, np.int64(-1), 1.5, True, False):
            with pytest.raises(InputError, match="seed"):
                generate_instance(4, 4, 2, 10, seed=seed)
        assert generate_instance(4, 4, 2, 10, seed=2**70).seed == 2**70

    def test_build_problem_wires_terms(self):
        inst = generate_instance(**SMALL_BENCH)
        p = build_problem(inst)
        assert isinstance(p.f1, NonnegDistanceTerm) and p.f1.lipschitz == inst.lam1
        assert isinstance(p.f2, MaskedQuadraticTerm) and p.f2.lipschitz == 1.0
        assert isinstance(p.f3, SpectralMCPTerm)
        assert p.f3.weight == inst.lam2 and p.f3.tau == inst.tau
        assert p.shape == (inst.m, inst.n)


class TestRunExperiment:
    def test_all_algorithms_converge_on_tiny_instance(self, reports_by_algo):
        for algo, rep in reports_by_algo.items():
            assert rep.converged, f"{algo} failed to converge"
            assert rep.residual < SMALL_STOP.tol
            assert not rep.capped and not rep.diverged

    def test_stepsize_selection_per_algorithm(self, reports_by_algo):
        gdys = default_gamma_dys(10.0, 1.0)
        assert gdys == pytest.approx(0.09)
        assert reports_by_algo["dys"].gamma == pytest.approx(gdys)
        assert reports_by_algo["ryu"].gamma == pytest.approx(0.004850206820383053, rel=1e-6)
        # adaptive run starts from 10x the baseline stepsize
        assert reports_by_algo["ryu+"].trace[0].gamma == pytest.approx(10 * gdys)

    def test_converged_objectives_agree_across_algorithms(self, reports_by_algo):
        objs = [rep.objective for rep in reports_by_algo.values() if rep.converged]
        assert max(objs) - min(objs) <= 0.02 * abs(objs[0])

    def test_ryu_envelope_recorded_and_monotone_on_tiny_instance(self, reports_by_algo):
        rep = reports_by_algo["ryu"]
        assert rep.envelope_monotone is True
        assert all(r.envelope is not None for r in rep.trace)

    def test_report_iterations_match_trace(self, reports_by_algo):
        for rep in reports_by_algo.values():
            assert rep.iterations == rep.trace[-1].k
            assert rep.objective == rep.trace[-1].objective

    def test_unknown_algo_rejected(self, tiny_instance):
        with pytest.raises(InputError):
            run_experiment(tiny_instance, "vanilla-gd")

    def test_gamma_override(self, tiny_instance):
        rep = run_experiment(tiny_instance, "dys", gamma=0.05, stop=SMALL_STOP)
        assert rep.gamma == pytest.approx(0.05)

    def test_capped_flag_when_budget_too_small(self, tiny_instance):
        rep = run_experiment(
            tiny_instance, "ryu", stop=StoppingRule(tol=1e-12, max_iter=5)
        )
        assert rep.capped and not rep.converged and not rep.diverged
        assert rep.iterations == 5

    def test_warns_when_stepsize_beyond_subsequential_cap(self, tiny_instance):
        with pytest.warns(RuntimeWarning):
            run_experiment(
                tiny_instance, "ryu", gamma=0.05, stop=StoppingRule(max_iter=2)
            )

    def test_stepsize_warning_claims_no_guarantee(self, tiny_instance):
        # the warning fires above thm2_cap, and every plan puts thm2_cap above
        # gamma_upper, the planner's certified descent cap
        with pytest.warns(RuntimeWarning, match="exceeds min") as caught:
            rep = run_experiment(tiny_instance, "ryu", gamma=0.05, stop=StoppingRule(max_iter=2))
        p = build_problem(tiny_instance)
        sp = plan(p.f1.lipschitz, p.f2.lipschitz)
        assert sp.gamma_upper < sp.thm2_cap < rep.gamma
        (msg,) = [str(w.message) for w in caught if "exceeds min" in str(w.message)]
        assert "holds" not in msg
        assert msg.endswith("neither the envelope-descent nor the subsequential-convergence guarantee applies")

    def test_start_at_tolerance_reports_the_start(self):
        # a tolerance the start already meets: no step runs, and the report
        # describes the start point that each solver's stop test looked at
        inst = generate_instance(12, 12, 3, 40, seed=0)
        p, stop = build_problem(inst), StoppingRule(tol=1e9)
        L1, L2 = p.f1.lipschitz, p.f2.lipschitz
        gdys, zero = default_gamma_dys(L1, L2), p.zeros()
        reports = {algo: run_experiment(inst, algo, stop=stop) for algo in ALGOS}
        for algo, rep in reports.items():
            assert rep.iterations == 0 and rep.trace == () and rep.time_ms == 0.0
            assert rep.converged and not rep.capped and not rep.diverged
            assert rep.envelope_monotone is None
            if algo == "dys":  # x3 from z = 0
                g = rep.gamma
                x_f = p.f2.prox(g, zero)
                x = p.f3.prox(g, 2.0 * x_f - g * p.f1.grad(x_f))
                assert g == gdys
            else:  # x3 from z1 = z2 = 0, at the planned stepsize or ryu+'s start
                g, alpha = rep.gamma, 0.99
                x1 = p.f1.prox(g, zero)
                x2 = p.f2.prox(g / alpha, x1)
                x = p.f3.prox(g, x1 + x2)
                assert g == (plan(L1, L2).gamma_ryu if algo == "ryu" else 10.0 * gdys)
            assert rep.objective == pytest.approx(evaluate_objective(p, x), rel=1e-12)
            assert rep.residual == composite_residual(p, stop.prox_gamma, x)
        pinned = run_benchmark([(12, 40)], [0], ALGOS, r=3, jobs=1, stop=stop)
        assert [bits(rep) for rep in pinned] == [bits(reports[algo]) for algo in ALGOS]

    def test_divergence_reported_not_raised(self, tiny_instance, monkeypatch):
        def blow_up(*args, **kwargs):
            err = DivergenceError("synthetic")
            err.trace = ()
            raise err

        monkeypatch.setattr(bench, "run_ryu", blow_up)
        rep = run_experiment(tiny_instance, "ryu", stop=SMALL_STOP)
        assert rep.diverged and not rep.converged and not rep.capped
        assert rep.objective == math.inf and rep.residual == math.inf


def record(k, gamma, envelope):
    return IterRecord(k=k, gamma=gamma, envelope=envelope, objective=0.0, residual=1.0, dz1=0.0, dx1=0.0, gap31=0.0, time_ms=0.0)


@pytest.mark.parametrize(
    "steps, monotone",
    [
        pytest.param([(0.1, 2.0), (0.1, 3.0)], False, id="rise-at-one-stepsize"),
        pytest.param([(0.2, 2.0), (0.1, 3.0), (0.1, 2.5)], True, id="rise-only-across-a-cut"),
        pytest.param([(0.2, 2.0), (0.1, 3.0), (0.1, 3.5)], False, id="rise-after-a-cut"),
        pytest.param([(0.2, 2.0), (0.1, 3.0)], None, id="no-pair-at-one-stepsize"),
        pytest.param([(0.1, None), (0.1, 2.0)], None, id="one-recorded"),
    ],
)
def test_envelope_monotone_compares_envelopes_at_one_stepsize(steps, monotone):
    # the envelope is a different function at each stepsize: descent holds at a fixed one
    trace = [record(k, gamma, envelope) for k, (gamma, envelope) in enumerate(steps, start=1)]
    assert bench._envelope_monotone(trace) is monotone


# 40 in-process iterations of each algorithm on the protocol instance
# (100:1000, seed 0), every objective and residual printed as float hex
BLAS_THREADS_SCRIPT = """
from trisplit import StoppingRule, generate_instance, run_experiment
inst = generate_instance(100, 100, 10, 1000, seed=0)
for algo in ("ryu", "ryu+", "dys"):
    report = run_experiment(inst, algo, stop=StoppingRule(max_iter=40))
    print(algo, *(f"{rec.objective.hex()} {rec.residual.hex()}" for rec in report.trace))
"""


def test_protocol_size_bits_do_not_depend_on_blas_threads():
    # The benchmark's traced rerun calls the solvers unpinned, in the caller's
    # process, and must repeat the bits of run_benchmark's one-thread workers.
    # numpy's syrk path for a.T @ a fails this at 100x100; gemm, eigh and the
    # SVD pass.
    src = os.path.dirname(os.path.dirname(trisplit.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_SCRIPT], capture_output=True, text=True, env=env, check=True
        )
        outputs.append(proc.stdout.splitlines())
    assert [line.split()[0] for line in outputs[0]] == list(ALGOS)
    assert all(len(line.split()) == 1 + 2 * 40 for line in outputs[0])
    assert outputs[0] == outputs[1]


class TestSummaries:
    def test_summarize_groups_and_averages(self, dys_reports):
        rows = summarize(dys_reports)
        assert len(rows) == 1
        row = rows[0]
        assert row.algo == "dys" and row.n == 9 and row.s == 40
        assert row.mean_iter == pytest.approx(
            np.mean([r.iterations for r in dys_reports])
        )
        assert row.conv_rate == 1.0
        assert row.capped is False

    def test_format_summary_marks_capped_groups(self, dys_reports):
        rows = summarize(dys_reports)
        text = format_summary(rows)
        assert "algo" in text.splitlines()[0]
        assert "*" not in text.splitlines()[2]
        capped_row = rows[0].__class__(**{**rows[0].__dict__, "capped": True})
        assert "*" in format_summary([capped_row]).splitlines()[2]

    def test_summary_csv_header(self, dys_reports, tmp_path):
        rows = summarize(dys_reports)
        path = tmp_path / "summary.csv"
        write_summary_csv(path, rows)
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["algo", "n", "s", "mean_iter", "mean_time_ms", "mean_obj", "conv_rate", "capped"]
        assert len(got) == 2

    def test_summarize_rejects_empty(self):
        with pytest.raises(InputError):
            summarize([])


class TestRunBenchmark:
    def test_trace_filename_pattern(self):
        assert trace_filename("ryu+", 100, 100, 1000, 3) == "trace_ryu+_100x100_s1000_seed3.csv"

    def test_parallel_matches_serial(self):
        kw = dict(sizes=[(12, 30)], seeds=[0, 1], algos=ALGOS, r=3, stop=SMALL_STOP)
        serial = run_benchmark(jobs=1, **kw)
        parallel = run_benchmark(jobs=2, **kw)
        assert [(r.seed, r.algo) for r in serial] == [(seed, algo) for seed in (0, 1) for algo in ALGOS]
        assert [bits(r) for r in parallel] == [bits(r) for r in serial]
        # at 300x300 a spectral prox's bits depend on the BLAS thread count
        kw = dict(sizes=[(300, 10000)], seeds=[0], algos=ALGOS, stop=StoppingRule(max_iter=3))
        serial = run_benchmark(jobs=1, **kw)
        parallel = run_benchmark(jobs=2, **kw)
        assert [r.iterations for r in serial] == [3, 3, 3]
        assert [bits(r) for r in parallel] == [bits(r) for r in serial]

    @pytest.mark.parametrize("one_shot", ["sizes", "seeds", "algos"])
    def test_one_shot_iterables_keep_every_task(self, one_shot):
        kw = dict(sizes=[(12, 30), (12, 40)], seeds=[0, 1], algos=["dys"], r=3, jobs=1, stop=StoppingRule(max_iter=2))
        kw[one_shot] = (item for item in kw[one_shot])
        assert [(r.s, r.seed, r.algo) for r in run_benchmark(**kw)] == [
            (30, 0, "dys"), (30, 1, "dys"), (40, 0, "dys"), (40, 1, "dys")
        ]

    @pytest.mark.parametrize("jobs", [0, -3, math.nan, 2.5, True])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(InputError, match="jobs"):
            run_benchmark(sizes=[(12, 30)], seeds=[0], algos=["dys"], r=3, jobs=jobs, stop=SMALL_STOP)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_tasks_run_in_worker_processes(self, jobs, monkeypatch):
        monkeypatch.setattr(bench, "_run_task", pid_spy)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = run_benchmark(
                sizes=[(12, 30)], seeds=[0, 1], algos=ALGOS, r=3, jobs=jobs, stop=StoppingRule(max_iter=2)
            )
        pids = [int(str(w.message).split()[-1]) for w in caught if str(w.message).startswith("task ran in pid")]
        assert len(pids) == len(reports) == 2 * len(ALGOS)
        assert os.getpid() not in pids
        assert len(set(pids)) <= min(jobs, len(reports), os.cpu_count())
        assert not multiprocessing.active_children()

    def test_environment_is_left_as_it_was(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        run_benchmark(sizes=[(12, 30)], seeds=[0], algos=["dys"], r=3, jobs=2, stop=StoppingRule(max_iter=2))
        assert dict(os.environ) == before

    def test_tasks_run_under_the_callers_numpy_error_state(self):
        # a finite prox_gamma that overflows inside the stopping residual
        kw = dict(sizes=[(12, 40)], seeds=[0], algos=["dys"], r=3, stop=StoppingRule(prox_gamma=1e308, max_iter=20))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            run_benchmark(**kw)
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            run_benchmark(**kw)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stepsize_cap_warning_reaches_the_caller(self, jobs):
        with pytest.warns(RuntimeWarning, match="exceeds min") as caught:
            run_benchmark(
                sizes=[(12, 30)], seeds=[0], algos=["ryu"], r=3, jobs=jobs,
                gamma=0.05, stop=StoppingRule(max_iter=2),
            )
        # the caller's set-up of the task checks its stepsize but does not warn
        assert sum("exceeds min" in str(w.message) for w in caught) == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_task_warnings_reach_the_caller_before_its_error(self, jobs):
        # a finite prox_gamma that overflows inside the stopping residual
        kw = dict(sizes=[(12, 40)], seeds=[0], algos=["dys"], r=3, stop=StoppingRule(prox_gamma=1e308, max_iter=20))
        with np.errstate(over="warn"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError):
                run_benchmark(jobs=jobs, **kw)
        assert any(w.category is RuntimeWarning and "overflow" in str(w.message) for w in caught)

    @pytest.mark.parametrize(
        "kw, error, match",
        [
            (dict(sizes=[(12, 40), (2, 4)]), InputError, r"^need 1 <= r"),
            (dict(sizes=[(12, 40), (4, 17)]), InputError, r"^need 1 <= s"),
            (dict(r=3.5), InputError, "^r must"),
            (dict(seeds=[0, -1]), InputError, "^seed must"),
            (dict(seeds=[True]), InputError, "^seed must"),
            (dict(sizes=(12, 40)), InputError, "^sizes must"),  # one pair, not a list of pairs
            (dict(algos=["dys", "bogus"]), InputError, "^algo must"),
            (dict(algos="dys"), InputError, "^algos must"),  # a name, not a list of names
            (dict(alpha=math.nan), InputError, "^alpha must"),
            (dict(lam=3.0), InputError, "^lam must"),
            (dict(algos=["ryu"], gamma=-1.0), InputError, "^gamma must"),
            (dict(gamma=0.1), InputError, "^gamma=0.1 must"),  # dys needs gamma < 1/L1 = 0.1
            (dict(lam1=math.nan), InputError, "^lam1 must"),
            (dict(lam2=-1.0), InputError, "^lam2 must"),
            (dict(tau=0.0), InputError, "^tau must"),
            (dict(gama=0.01), TypeError, "gama"),  # a misspelled override
        ],
        ids=[
            "r>n", "s>n^2", "r-float", "seed", "seed-bool", "sizes-pair", "algo", "algos-string",
            "alpha", "lam", "ryu-gamma", "dys-gamma", "lam1", "lam2", "tau", "override",
        ],
    )
    def test_bad_input_raises_before_any_worker_starts(self, kw, error, match, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was built for bad input")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        base = dict(sizes=[(12, 40)], seeds=[0], algos=["dys"], r=3, jobs=2, stop=StoppingRule(max_iter=2))
        with pytest.raises(error, match=match):
            run_benchmark(**{**base, **kw})

    def test_no_tasks_start_no_workers(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was built for no tasks")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert run_benchmark(seeds=[]) == []

    def test_jobs_default_without_an_affinity_set(self, monkeypatch):
        # os.sched_getaffinity is Linux-only
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert bench._usable_cpus() == (os.cpu_count() or 1)
        reports = run_benchmark(sizes=[(12, 30)], seeds=[0], algos=["dys"], r=3, stop=StoppingRule(max_iter=2))
        assert [(r.algo, r.seed) for r in reports] == [("dys", 0)]


def pid_spy(*args):
    """bench._run_task that also reports, as a warning, the process it ran in.
    It runs in a worker, whose bench module is not patched."""
    report, caught = bench._run_task(*args)
    return report, [*caught, (UserWarning(f"task ran in pid {os.getpid()}"), UserWarning, __file__, 1)]
