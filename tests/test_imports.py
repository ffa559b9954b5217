"""The CLI's import graph: numpy, yaml and the command-only trajkit modules
are loaded only by the commands that use them, and no command needs scipy."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.stats import t as student_t

from trajkit import synth
from trajkit.cli import build_parser, main
from trajkit.decisions import DBSCAN_EPSILON, DBSCAN_MIN_PTS
from trajkit.stats import multi_seed_summary

SRC = Path(__file__).resolve().parents[1] / "src"

COMMAND_ONLY = ("decisions", "judging", "reporting", "rewards", "semionline",
                "stats", "synth")

# Runs in a fresh interpreter, after a COMMAND_ONLY assignment, in a scratch
# directory, and prints after each stage its exit code and the watched
# modules loaded (a None entry in sys.modules blocks a module, not loads it).
PROBE = """
import contextlib, io, json, sys

def watched():
    return sorted(m for m, module in sys.modules.items() if module is not None
                  and (m.split(".")[0] in ("numpy", "scipy", "yaml")
                       or m.startswith("trajkit.") and m.split(".")[1] in COMMAND_ONLY))

B = "fx/episodes.jsonl"
COMMANDS = [
    ("make-fixture", ["make-fixture", "--out-dir", "fx", "--episodes", "2", "--steps", "3"]),
    ("eval", ["eval", "--benchmark", B, "--out-dir", "eval"]),
    ("soeval", ["soeval", "--benchmark", B, "--mock-policy", "alternating",
                "--out-dir", "so"]),
    ("report", ["report", "--run-dir", "eval", "--benchmark", B]),
    ("ingest", ["ingest", "--benchmark", B, "--out-dir", "ingest"]),
    ("reward-groups", ["reward", "--groups", "groups.jsonl", "--out", "adv.csv"]),
    ("reward-steps", ["reward", "--steps", "steps.jsonl", "--mode", "gaussian",
                      "--out", "steps.csv"]),
    ("wilson", ["stats", "wilson", "3", "4"]),
    ("contingency", ["stats", "contingency", "5531", "456", "1976", "2037"]),
    ("seeds", ["stats", "seeds", "0.1892", "0.1932", "0.1858"]),
    ("correlation", ["stats", "correlation", "--csv", "corr.csv", "--out", "corr_out.csv"]),
    ("config", ["eval", "--benchmark", B, "--config", "config.yaml",
                "--out-dir", "cfg_eval"]),
]

import trajkit.cli
trajkit.cli.build_parser()
stages = {"import": [0, watched()]}
for name, argv in COMMANDS:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = trajkit.cli.main(argv)
    stages[name] = [rc, watched()]
print(json.dumps(stages))
"""

LIGHT_COMMANDS = ("make-fixture", "eval", "soeval", "report", "ingest",
                  "reward-groups", "reward-steps", "wilson", "contingency", "seeds")

# Makes every import of scipy or of a scipy submodule fail.
BLOCK_SCIPY = 'import sys\nsys.modules["scipy"] = None\n'


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    return run_probe(tmp_path_factory.mktemp("probe"))


@pytest.fixture(scope="module")
def probe_without_scipy(tmp_path_factory):
    return run_probe(tmp_path_factory.mktemp("probe-no-scipy"), prelude=BLOCK_SCIPY)


def run_probe(work, prelude=""):
    """Runs PROBE in ``work``; every stage must exit 0. Returns ``work`` and
    each stage's watched modules."""
    (work / "groups.jsonl").write_text(
        json.dumps({"group_id": "g0", "rewards": [0.0, 1.0, 2.0]}) + "\n",
        encoding="utf-8")
    (work / "steps.jsonl").write_text(json.dumps({
        "id": "s0",
        "pred_kind": "CLICK", "pred_params": {"point": [150, 150]},
        "gt_kind": "CLICK", "gt_params": {"point": [150, 150]},
        "gt_bbox": {"x1": 100, "y1": 100, "x2": 300, "y2": 200},
    }) + "\n", encoding="utf-8")
    (work / "corr.csv").write_text(
        "online,m\n13.0,55.93\n47.6,62.84\n52.0,57.66\n65.9,76.16\n66.4,67.37\n",
        encoding="utf-8")
    (work / "config.yaml").write_text(
        "seed_list: [11, 22]\npolicy:\n  min_comparable: 0.8\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = prelude + f"COMMAND_ONLY = {COMMAND_ONLY!r}\n" + PROBE
    proc = subprocess.run([sys.executable, "-c", code],
                          env=env, cwd=work, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {name: rc for name, (rc, _) in stages.items()} == dict.fromkeys(stages, 0)
    return work, {name: modules for name, (_, modules) in stages.items()}


def test_cli_start_and_scipy_free_commands_load_no_scipy(probe):
    _, stages = probe
    for name in stages:
        assert [m for m in stages[name] if m.startswith("scipy")] == [], name


def test_stats_commands_load_no_scipy_stats(probe):
    # Stages run in one interpreter, so each list holds what every stage up
    # to it loaded.
    work, stages = probe
    assert (work / "corr_out.csv").exists()
    assert [m for m in stages["correlation"] if m.startswith("scipy")] == []
    assert "numpy" in stages["correlation"]
    assert [m for m in stages["seeds"] if m.split(".")[0] in ("numpy", "scipy")] == []


def test_every_command_runs_with_scipy_blocked(probe, probe_without_scipy):
    """The fixture asserts that every stage exits 0 with scipy unimportable;
    the commands also write what they write with scipy installed."""
    work, stages = probe_without_scipy
    assert stages == probe[1]
    for name in ("eval/records.jsonl", "so/records.jsonl", "adv.csv", "steps.csv",
                 "corr_out.csv", "cfg_eval/manifest.json"):
        assert (work / name).read_bytes() == (probe[0] / name).read_bytes(), name


def test_cli_start_loads_no_numpy_yaml_or_command_modules(probe):
    _, stages = probe
    assert stages["import"] == []


def test_light_commands_load_no_numpy(probe):
    _, stages = probe
    for name in LIGHT_COMMANDS:
        assert [m for m in stages[name] if m.split(".")[0] in ("numpy", "yaml")] == [], name


def test_yaml_loaded_only_for_config_and_applied(probe):
    work, stages = probe
    assert "yaml" in stages["config"]
    manifest = json.loads((work / "cfg_eval" / "manifest.json").read_text())
    assert manifest["seed_list"] == [11, 22]
    default = json.loads((work / "eval" / "manifest.json").read_text())
    assert manifest["config_hash"] != default["config_hash"]


def test_cluster_defaults_are_the_clustering_constants(capsys):
    parser = build_parser()
    args = parser.parse_args(["cluster", "--rollouts", "r.jsonl", "--out", "c.csv"])
    assert (args.epsilon, args.min_pts) == (DBSCAN_EPSILON, DBSCAN_MIN_PTS)
    with pytest.raises(SystemExit):
        parser.parse_args(["cluster", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"(default: {DBSCAN_EPSILON})" in text
    assert f"(default: {DBSCAN_MIN_PTS})" in text


def test_seeds_ci_uses_student_t_quantile(capsys):
    values = [0.1892, 0.1932, 0.1858, 0.1916, 0.1868, 0.1968, 0.1898, 0.1883]
    k = len(values)
    mean = sum(values) / k
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / (k - 1))
    half = float(student_t.ppf(0.975, k - 1)) * std / math.sqrt(k)

    summary = multi_seed_summary(values)
    assert summary.ci == pytest.approx((mean - half, mean + half), rel=1e-12, abs=0)

    rc = main(["stats", "seeds", *map(str, values)])
    assert rc == 0
    assert capsys.readouterr().out == (
        f"mean {mean:.4f}  CI [{mean - half:.4f}, {mean + half:.4f}]\n")

    for k in range(2, 41):
        values = [0.18 + 0.0013 * ((7 * i) % 11) for i in range(k)]
        mean = sum(values) / k
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / (k - 1))
        half = float(student_t.ppf(0.975, k - 1)) * std / math.sqrt(k)
        assert multi_seed_summary(values).ci == pytest.approx(
            (mean - half, mean + half), rel=1e-12, abs=0), k


HTTP_PROBE = """
import contextlib, io, json, sys
import trajkit.cli

with contextlib.redirect_stdout(io.StringIO()):
    rc = trajkit.cli.main(sys.argv[1:])
print(json.dumps([rc, sorted(m for m in sys.modules
                             if m.split(".")[0] in ("requests", "urllib3"))]))
"""


def test_http_eval_loads_no_requests(tmp_path, chat_server):
    synth.make_benchmark_file(tmp_path / "fx", n_episodes=2, steps_per_episode=3, seed=0)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", HTTP_PROBE, "eval", "--benchmark", "fx/episodes.jsonl",
         "--backend", "http", "--endpoint-url", chat_server.url, "--out-dir", "run"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0, []]
    assert len(chat_server.seen) == 6
    assert all(body for body in chat_server.bodies())


def test_no_source_or_test_imports_requests():
    root = SRC.parent
    imports = re.compile(r"^\s*(?:import|from)\s+requests\b", re.MULTILINE)
    files = [*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]
    assert files
    assert [str(f) for f in files if imports.search(f.read_text(encoding="utf-8"))] == []
