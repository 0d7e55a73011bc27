"""The README's quick-start example runs and prints the minimizer."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_start_prints_the_analytic_minimizer():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # per coordinate, (x-1)^2/2 + (x+1)^2 + |x|/2 is least at the soft threshold
    # of -1/3 by 0.5/3, that is -1/6
    printed = re.search(r"\[([^\]]*)\]", proc.stdout).group(1).split()
    assert len(printed) == 5
    assert all(abs(float(x) + 1.0 / 6.0) <= 1e-6 for x in printed), proc.stdout
