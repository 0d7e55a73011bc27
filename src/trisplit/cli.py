"""Command-line interface: solve one instance, print a stepsize plan,
run the benchmark protocol, or run the diagnostic suite.

Exit codes: 0 success, 1 diagnostic failure or a dead worker process, 2 input
error (including an output path that cannot be written), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from .bench import (
    ALGOS,
    DEFAULT_SIZES,
    format_summary,
    run_benchmark,
    summarize,
    trace_filename,
    write_summary_csv,
)
from .checks import run_all_checks
from .core import InputError, _validate_count
from .splitting import StoppingRule, write_trace_csv, write_trace_json
from .stepsize import plan


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    """Parse `100:1000,300:10000` into [(100, 1000), (300, 10000)]."""
    sizes = []
    try:
        for part in text.split(","):
            n, s = part.split(":")
            sizes.append((int(n), int(s)))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sizes must look like 100:1000,300:10000 — got {text!r}"
        ) from None
    return sizes


def _add_protocol_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rank", type=int, dest="r", metavar="RANK")
    sub.add_argument("--lam", type=float, help="relaxation of the z-update")
    sub.add_argument("--alpha", type=float, help="prox-step relaxation")
    sub.add_argument("--lambda1", type=float, dest="lam1", metavar="LAMBDA1", help="nonnegativity weight")
    sub.add_argument("--lambda2", type=float, dest="lam2", metavar="LAMBDA2", help="spectral penalty weight")
    sub.add_argument("--tau", type=float, help="MCP knee")
    sub.add_argument("--max-iter", type=int)
    sub.add_argument("--tol", type=float, help="composite-residual tolerance")
    sub.add_argument("--proxgamma", type=float, dest="prox_gamma", metavar="PROXGAMMA", help="residual prox stepsize")
    sub.add_argument("--gamma", type=float, help="stepsize override")


def _given(args, *names) -> dict:
    """The flags among `names` that the user gave; one left out is None and keeps the library's default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _protocol_keywords(args) -> dict:
    """The shared protocol flags, read once, as `run_benchmark` keywords."""
    stop = StoppingRule(**_given(args, "prox_gamma", "tol", "max_iter"))
    return dict(_given(args, "r", "lam1", "lam2", "tau", "lam", "alpha", "gamma"), stop=stop)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trisplit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_plan = subs.add_parser("plan", help="print the stepsize plan for given moduli")
    p_plan.add_argument("--l1", type=float, required=True, help="Lipschitz modulus of f1")
    p_plan.add_argument("--l2", type=float, required=True, help="Lipschitz modulus of f2")
    p_plan.add_argument("--lam", type=float)
    p_plan.add_argument("--alpha", type=float)
    p_plan.add_argument("--format", choices=("text", "json"), default="text")
    p_plan.set_defaults(func=cmd_plan)

    p_solve = subs.add_parser("solve", help="run one algorithm on one synthetic instance")
    p_solve.add_argument("--algo", choices=ALGOS, required=True)
    n, s = DEFAULT_SIZES[0]
    p_solve.add_argument("--n", type=int, default=n, help="matrix size (n x n)")
    p_solve.add_argument("--s", type=int, default=s, help="number of observed entries")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--trace", default=None, help="write the iteration trace here")
    p_solve.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_protocol_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = subs.add_parser("bench", help="run the benchmark protocol and print its table")
    p_bench.add_argument("--seeds", type=int, default=5, help="number of seeds (0..seeds-1)")
    p_bench.add_argument(
        "--sizes",
        type=_parse_sizes,
        default=list(DEFAULT_SIZES),
        help="comma-separated n:s pairs, e.g. 100:1000,300:10000",
    )
    p_bench.add_argument("--algos", nargs="+", choices=ALGOS, default=list(ALGOS))
    p_bench.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default: the usable CPUs)"
    )
    p_bench.add_argument(
        "--outdir", default=None, help="write traces, summary.csv and reports.json here"
    )
    _add_protocol_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_check = subs.add_parser("check", help="run the hermetic diagnostic suite")
    p_check.set_defaults(func=cmd_check)

    return parser


def _missing(path: str | None, flag: str) -> list[Path]:
    """`path` and those of its ancestors that do not exist yet, innermost first; none for no path.
    An empty path is InputError: solve would write nothing to it, and bench would write to the root."""
    if path == "":
        raise InputError(f"{flag} must name a path, got ''")
    return [] if path is None else [p for p in (Path(path), *Path(path).parents) if not os.path.lexists(p)]


@contextlib.contextmanager
def _removed_on_failure(made: list[Path]):
    """If the block raises, remove `made`, the new output file or empty
    directories, innermost first: a rejected or failed run leaves the disk as
    it found it. Best effort, so that the run's own error is the one raised."""
    try:
        yield
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                (os.rmdir if path.is_dir() else os.remove)(path)
        raise


def cmd_plan(args) -> int:
    sp = plan(args.l1, args.l2, **_given(args, "lam", "alpha"))
    fields = dataclasses.asdict(sp)
    if args.format == "json":
        print(json.dumps(fields, indent=1))
    else:
        width = max(len(k) for k in fields)
        for key, value in fields.items():
            print(f"{key:<{width}}  {value}")
    return 0


def cmd_solve(args) -> int:
    protocol_kw = _protocol_keywords(args)
    _validate_count(args.n, "--n")  # else generate_instance names it m
    made = _missing(args.trace, "--trace")
    # open the trace file before solving, so an unwritable path costs no solve,
    # but empty it only once there is a report, so a failed run keeps the old trace
    with open(args.trace, "a", newline="") if args.trace is not None else contextlib.nullcontext() as fh:
        with _removed_on_failure(made):
            [rep] = run_benchmark([(args.n, args.s)], [args.seed], [args.algo], jobs=1, **protocol_kw)
        if fh:
            if os.path.isfile(args.trace):  # not a device or pipe, which cannot be truncated
                fh.seek(0)
                fh.truncate()
            (write_trace_json if args.format == "json" else write_trace_csv)(fh, rep.trace)
    status = "diverged" if rep.diverged else ("converged" if rep.converged else "capped")
    print(
        f"algo={rep.algo} n={rep.n} s={rep.s} seed={rep.seed} {status} "
        f"iters={rep.iterations} obj={rep.objective:.4f} "
        f"residual={rep.residual:.3e} time_ms={rep.time_ms:.1f}"
    )
    if args.trace is not None:
        print(f"trace written to {args.trace}")
    return 3 if rep.diverged else 0


def cmd_bench(args) -> int:
    _validate_count(args.seeds, "--seeds")
    made = _missing(args.outdir, "--outdir")
    with _removed_on_failure(made):
        if args.outdir is not None:
            Path(args.outdir).mkdir(parents=True, exist_ok=True)
        protocol_kw = _protocol_keywords(args)
        for n, _ in args.sizes:
            _validate_count(n, "--sizes n")  # else generate_instance names it m
        reports = run_benchmark(args.sizes, range(args.seeds), args.algos, jobs=args.jobs, **protocol_kw)
    rows = summarize(reports)
    print(format_summary(rows))
    if args.outdir is not None:
        outdir = Path(args.outdir)
        for rep in reports:
            with open(outdir / trace_filename(rep.algo, rep.m, rep.n, rep.s, rep.seed), "w", newline="") as fh:
                write_trace_csv(fh, rep.trace)
        path = outdir / "summary.csv"
        write_summary_csv(path, rows)
        print(f"summary written to {path}")
        path = outdir / "reports.json"
        with open(path, "w") as fh:
            json.dump([{k: v for k, v in vars(r).items() if k != "trace"} for r in reports], fh, indent=1)
        print(f"reports written to {path}")
    return 0


def cmd_check(args) -> int:
    return 0 if run_all_checks() else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # numpy's floating-point warnings on extreme input would print ahead
        # of the error line below; non-finite results raise errors anyway.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (InputError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # NumericalError, ZeroDivisionError, OverflowError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenExecutor as exc:  # a bench worker died, e.g. killed for its memory
        print(f"worker failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
