"""Smoke test of the runnable script under scripts/."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_stepsize_landscape_writes_both_csvs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stepsize_landscape.py"), "--outdir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr

    grid = read_csv(tmp_path / "epsilon_grid.csv")
    assert grid[0] == ["eps1", "eps2", "min_cap", "planner"]
    assert len(grid) == 1 + 160 * 160 + 1
    assert [row[3] for row in grid[1:]] == ["0"] * 160 * 160 + ["1"]
    # the planner's (eps1, eps2) is at least as good as every grid point
    planner_cap = float(grid[-1][2])
    assert planner_cap >= max(float(row[2]) for row in grid[1:-1]) * (1.0 - 1e-9)

    sweep = read_csv(tmp_path / "alpha_sweep.csv")
    assert sweep[0] == [
        "lam", "alpha", "alpha_bar", "gamma_ryu", "gamma_upper", "thm2_cap", "gamma_in_thm2_cap"
    ]
    assert len(sweep) == 1 + 3 * 200
    for row in sweep[1:]:
        lam, alpha, alpha_bar, gamma_ryu, gamma_upper, thm2_cap = map(float, row[:6])
        assert alpha_bar < alpha < 1.0
        assert 0.0 < gamma_ryu < gamma_upper
        assert row[6] == str(int(gamma_ryu <= thm2_cap))
