#!/usr/bin/env python3
"""Map the stepsize-planner landscape to plot-ready CSV files.

Two sweeps for a given pair of smoothness moduli (L1, L2):

1. epsilon grid — for fixed (lam, alpha), tabulate the binding stepsize cap
   min{gbar1, gbar2, gbar3} over an (eps1, eps2) grid, so the ridge the
   planner climbs is visible; the planner's own choice is appended as the
   last row (marked planner=1).
2. alpha sweep — for each relaxation lam in --lams, sweep alpha across its
   admissible window (alpha_bar(lam), 1) and record the planned gamma_ryu,
   the unconstrained cap, and whether gamma_ryu also clears the stronger
   subsequential-convergence cap.

Outputs: <outdir>/epsilon_grid.csv and <outdir>/alpha_sweep.csv.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from trisplit import checks
from trisplit.stepsize import alpha_lower_bound, gamma_bounds, plan


def epsilon_grid(path, L1, L2, lam, alpha, side):
    sp = plan(L1, L2, lam, alpha)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eps1", "eps2", "min_cap", "planner"])
        for e1, e2, cap in checks.epsilon_grid(L1, L2, lam, alpha, side):
            w.writerow([f"{e1:.10g}", f"{e2:.10g}", f"{cap:.10g}", 0])
        ours = min(gamma_bounds(L1, L2, lam, alpha, sp.eps1, sp.eps2)[1:])
        w.writerow([f"{sp.eps1:.10g}", f"{sp.eps2:.10g}", f"{ours:.10g}", 1])
    return sp, ours


def alpha_sweep(path, L1, L2, lams, points):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lam", "alpha", "alpha_bar", "gamma_ryu", "gamma_upper", "thm2_cap",
                    "gamma_in_thm2_cap"])
        for lam in lams:
            abar = alpha_lower_bound(lam)
            for t in np.linspace(1e-3, 1.0 - 1e-3, points):
                alpha = abar + t * (1.0 - abar)
                sp = plan(L1, L2, lam, alpha)
                w.writerow([
                    f"{lam:.10g}", f"{alpha:.10g}", f"{abar:.10g}",
                    f"{sp.gamma_ryu:.10g}", f"{sp.gamma_upper:.10g}",
                    f"{sp.thm2_cap:.10g}", int(sp.gamma_in_thm2_cap),
                ])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--l1", type=float, default=10.0)
    ap.add_argument("--l2", type=float, default=1.0)
    ap.add_argument("--lam", type=float, default=1.0, help="relaxation for the epsilon grid")
    ap.add_argument("--alpha", type=float, default=0.99, help="prox relaxation for the grid")
    ap.add_argument("--side", type=int, default=160, help="epsilon grid resolution per axis")
    ap.add_argument("--lams", type=float, nargs="+", default=[0.5, 1.0, 1.5],
                    help="relaxations for the alpha sweep")
    ap.add_argument("--points", type=int, default=200, help="alpha samples per relaxation")
    ap.add_argument("--outdir", type=Path, default=Path("landscape"))
    args = ap.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    grid_path = args.outdir / "epsilon_grid.csv"
    sweep_path = args.outdir / "alpha_sweep.csv"

    sp, ours = epsilon_grid(grid_path, args.l1, args.l2, args.lam, args.alpha, args.side)
    print(f"epsilon grid ({args.side}x{args.side}) -> {grid_path}")
    print(f"  planner picks eps1={sp.eps1:.6g}, eps2={sp.eps2:.6g} "
          f"with binding cap {ours:.6g} (gamma_ryu={sp.gamma_ryu:.6g})")

    alpha_sweep(sweep_path, args.l1, args.l2, args.lams, args.points)
    print(f"alpha sweep ({len(args.lams)} relaxations x {args.points}) -> {sweep_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
