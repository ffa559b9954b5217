"""The CLI's import graph: scipy is loaded only by the commands that use it."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from scipy.stats import t as student_t

from trajkit.cli import main
from trajkit.stats import multi_seed_summary

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter and prints, after each stage, the scipy
# modules present in sys.modules.
PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

stages = {}
import trajkit.cli
stages["import"] = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    rc_wilson = trajkit.cli.main(["stats", "wilson", "3", "4"])
stages["wilson"] = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    rc_contingency = trajkit.cli.main(["stats", "contingency", "5531", "456", "1976", "2037"])
stages["contingency"] = scipy_modules()
print(json.dumps({"rc": [rc_wilson, rc_contingency], "stages": stages}))
"""


def test_cli_start_and_scipy_free_commands_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rc"] == [0, 0]
    assert result["stages"] == {"import": [], "wilson": [], "contingency": []}


def test_seeds_ci_uses_student_t_quantile(capsys):
    values = [0.1892, 0.1932, 0.1858, 0.1916, 0.1868, 0.1968, 0.1898, 0.1883]
    k = len(values)
    mean = sum(values) / k
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / (k - 1))
    half = float(student_t.ppf(0.975, k - 1)) * std / math.sqrt(k)

    summary = multi_seed_summary(values)
    assert summary.ci == (mean - half, mean + half)

    rc = main(["stats", "seeds", *map(str, values)])
    assert rc == 0
    assert capsys.readouterr().out == (
        f"mean {mean:.4f}  CI [{mean - half:.4f}, {mean + half:.4f}]\n")
