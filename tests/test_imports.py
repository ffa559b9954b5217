"""The CLI's import graph: each command, run in a fresh interpreter, loads
only the trajkit modules it runs, one command module among them, numpy and
yaml only where it uses them, and no scipy. Under ``python -m trajkit.cli``
no module is compiled twice. A parser built for one command reads as the
full one. The parser's written-out literals equal their sources, and it
copies no engine default."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.stats import t as student_t

import trajkit
from trajkit import cli, dialects, gateway, synth
from trajkit.actions import Action, ActionKind, Point
from trajkit.cli import SETTINGS, build_parser, main
from trajkit.decisions import DBSCAN_EPSILON, DBSCAN_MIN_PTS
from trajkit.stats import multi_seed_summary

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs one stage in a fresh interpreter, in a scratch directory, and prints
# its exit code and the modules it loaded (a None entry in sys.modules
# blocks a module, not loads it). A stage is ``package`` (``import
# trajkit``), ``parser`` (``import trajkit.cli`` and ``build_parser()``) or
# a command line.
PROBE = """
import contextlib, io, json, sys

rc = 0
if sys.argv[1] == "package":
    import trajkit
else:
    import trajkit.cli
    trajkit.cli.build_parser()
    if sys.argv[1] != "parser":
        with contextlib.redirect_stdout(io.StringIO()):
            rc = trajkit.cli.main(sys.argv[1:])
loaded = [m for m, module in sys.modules.items() if module is not None]
print(json.dumps([rc, loaded]))
"""

# A ``sitecustomize`` that prints the modules loaded as the interpreter exits.
AT_EXIT = """
import atexit, json, sys

atexit.register(lambda: print(json.dumps(
    [m for m, module in sys.modules.items() if module is not None])))
"""

B = "fx/episodes.jsonl"
# In order: later stages read what earlier ones wrote.
STAGES = [
    ("package", ["package"]),
    ("parser", ["parser"]),
    ("make-fixture", ["make-fixture", "--out-dir", "fx", "--episodes", "2", "--steps", "3"]),
    ("eval", ["eval", "--benchmark", B, "--out-dir", "eval"]),
    ("soeval", ["soeval", "--benchmark", B, "--mock-policy", "alternating",
                "--out-dir", "so"]),
    ("report", ["report", "--run-dir", "eval", "--benchmark", B]),
    ("report-live", ["report", "--run-dir", "so", "--benchmark", B]),
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
    ("rollout", ["rollout", "--benchmark", B, "--mock-policy", "noisy-oracle",
                 "--rounds", "2", "--samples", "4", "--concurrency", "1", "--out-dir", "ro"]),
    ("cluster", ["cluster", "--rollouts", "ro/rollouts.jsonl", "--benchmark", B,
                 "--out", "cells.csv"]),
    ("judge", ["judge", "--cases", "cases.jsonl", "--judges", "2", "--rollouts", "4",
               "--out", "verdicts.csv"]),
]

# The trajkit modules each stage loads, besides the package itself; every
# stage that starts the CLI also loads ``cli``, ``errors`` and ``settings``,
# and a command loads its one module of ``trajkit.commands``. An engine
# module that not every command of that module uses is imported inside the
# ``cmd_*`` that does.
CLI = {"cli", "errors", "settings"}


def command(module, *engine):
    return CLI | {"commands", f"commands.{module}", *engine}


REPLAY = ("actions", "dialects", "evaluate", "gateway", "reporting", "store", "synth")
LOADS = {
    "package": set(),
    "parser": CLI,
    "make-fixture": command("episodes", "actions", "store", "synth"),
    "eval": command("replay", *REPLAY),
    "soeval": command("replay", *REPLAY, "semionline"),
    "report": command("replay", "actions", "dialects", "evaluate", "reporting", "store"),
    "report-live": command("replay", "actions", "dialects", "evaluate", "reporting",
                           "semionline", "store"),
    "ingest": command("episodes", "actions", "reporting", "store"),
    "reward-groups": command("reward", "actions", "reporting", "rewards", "store"),
    "reward-steps": command("reward", "actions", "reporting", "rewards", "store"),
    "wilson": command("stats", "stats"),
    "contingency": command("stats", "stats"),
    "seeds": command("stats", "stats"),
    "correlation": command("stats", "reporting", "stats"),
    "config": command("replay", *REPLAY),
    "rollout": command("replay", "actions", "dialects", "evaluate", "gateway", "semionline",
                       "store", "synth"),
    "cluster": command("cluster", "actions", "decisions", "reporting", "store"),
    "judge": command("judge", "actions", "decisions", "dialects", "gateway", "judging",
                     "reporting", "stats", "store"),
}
# The stages that call a model (judge's scripted judges among them).
MODEL_STAGES = {"eval", "soeval", "config", "rollout", "judge"}

# The third-party packages whose loading is pinned.
THIRD_PARTY = {"numpy", "scipy", "yaml"}

# Makes every import of scipy or of a scipy submodule fail.
BLOCK_SCIPY = 'import sys\nsys.modules["scipy"] = None\n'


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    return run_probe(tmp_path_factory.mktemp("probe"))


@pytest.fixture(scope="module")
def probe_without_scipy(tmp_path_factory):
    return run_probe(tmp_path_factory.mktemp("probe-no-scipy"), prelude=BLOCK_SCIPY)


@pytest.fixture(scope="module")
def probe_as_main(tmp_path_factory):
    return run_probe(tmp_path_factory.mktemp("probe-as-main"), as_main=True)


def run_probe(work, prelude="", as_main=False):
    """Runs each stage of STAGES in its own interpreter in ``work``; every
    stage must exit 0. Returns ``work`` and, per stage, the third-party
    packages and the set of trajkit modules it loaded. With ``as_main``,
    each command runs as ``python -m trajkit.cli``."""
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
    trace = dialects.get_dialect("xml-toolcall").render_response(
        Action(ActionKind.CLICK, point=Point(200, 300)))
    (work / "cases.jsonl").write_text("".join(json.dumps({
        "case_id": f"c{i}", "instruction": "tap it", "reasoning_trace": trace,
        "executed_kind": "CLICK", "executed_params": {"point": point},
        "human_label": i == 0}) + "\n" for i, point in enumerate([[200, 300], [900, 900]])),
        encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if as_main:
        # The interpreter prints the modules a ``python -m`` run loaded as it exits.
        (work / "site").mkdir()
        (work / "site" / "sitecustomize.py").write_text(AT_EXIT, encoding="utf-8")
        env["PYTHONPATH"] = os.pathsep.join((str(work / "site"), env["PYTHONPATH"]))
    stages = {}
    for name, argv in STAGES:
        if as_main and name in ("package", "parser"):
            continue
        launch = ["-m", "trajkit.cli"] if as_main else ["-c", prelude + PROBE]
        proc = subprocess.run([sys.executable, *launch, *argv],
                              env=env, cwd=work, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (name, proc.stderr)
        loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        if not as_main:
            rc, loaded = loaded
            assert rc == 0, name
        stages[name] = (sorted({m.split(".")[0] for m in loaded} & THIRD_PARTY),
                        {m[len("trajkit."):] for m in loaded if m.startswith("trajkit.")})
    return work, stages


def test_each_stage_loads_its_trajkit_modules(probe):
    _, stages = probe
    assert {name: modules for name, (_, modules) in stages.items()} == LOADS


def test_cli_start_loads_no_numpy_yaml_or_command_modules(probe):
    _, stages = probe
    assert stages["package"] == ([], set())
    assert stages["parser"] == ([], CLI)


def test_each_command_loads_one_command_module(probe):
    _, stages = probe
    for name, (_, modules) in stages.items():
        loaded = {m for m in modules if m.startswith("commands.")}
        assert len(loaded) == (name not in ("package", "parser")), (name, loaded)


def test_run_as_main_loads_the_cli_once(probe, probe_as_main):
    """Under ``python -m trajkit.cli`` the CLI module runs as ``__main__``:
    no module imports it a second time as ``trajkit.cli``, and each command
    loads what it loads when ``main`` is called after an import."""
    _, stages = probe_as_main
    assert set(stages) == set(LOADS) - {"package", "parser"}
    for name, (packages, modules) in stages.items():
        assert "cli" not in modules, name
        assert (packages, modules) == (probe[1][name][0], probe[1][name][1] - {"cli"}), name


def test_stats_commands_load_no_scipy_stats(probe):
    work, stages = probe
    for name in ("wilson", "contingency", "seeds"):
        assert stages[name] == ([], command("stats", "stats")), name
    assert stages["correlation"][0] == ["numpy"]
    assert (work / "corr_out.csv").exists()


def test_ingest_loads_no_dialect_replay_or_gateway(probe):
    _, stages = probe
    assert stages["ingest"][1].isdisjoint({"dialects", "evaluate", "gateway"})


def test_only_commands_that_call_a_model_load_the_gateway(probe):
    _, stages = probe
    assert {name for name, (_, modules) in stages.items() if "gateway" in modules} \
        == MODEL_STAGES


def test_cli_start_and_scipy_free_commands_load_no_scipy(probe):
    _, stages = probe
    assert {name for name, (packages, _) in stages.items() if "scipy" in packages} == set()


def test_light_commands_load_no_numpy(probe):
    """``cluster`` and ``judge`` cluster decisions with the standard library."""
    work, stages = probe
    assert {name for name, (packages, _) in stages.items() if "numpy" in packages} \
        == {"correlation"}
    assert "decisions" in stages["cluster"][1] and "decisions" in stages["judge"][1]
    assert len((work / "cells.csv").read_text().splitlines()) == 1 + 2 * 3


def test_every_command_runs_with_scipy_blocked(probe, probe_without_scipy):
    """The fixture asserts that every stage exits 0 with scipy unimportable;
    the commands also write what they write with scipy installed."""
    work, stages = probe_without_scipy
    assert stages == probe[1]
    for name in ("eval/records.jsonl", "so/records.jsonl", "adv.csv", "steps.csv",
                 "corr_out.csv", "cfg_eval/manifest.json", "ro/rollouts.jsonl", "cells.csv",
                 "verdicts.csv"):
        assert (work / name).read_bytes() == (probe[0] / name).read_bytes(), name


def test_yaml_loaded_only_for_config_and_applied(probe):
    work, stages = probe
    assert {name for name, (packages, _) in stages.items() if "yaml" in packages} \
        == {"config"}
    manifest = json.loads((work / "cfg_eval" / "manifest.json").read_text())
    assert manifest["seed_list"] == [11, 22]
    default = json.loads((work / "eval" / "manifest.json").read_text())
    assert manifest["config_hash"] != default["config_hash"]


def test_parser_literals_equal_their_sources():
    assert list(cli.DIALECT_IDS) == dialects.dialect_ids()
    # A setting left unset takes the engine's default, so the CLI holds none.
    assert [dest for dest, row in SETTINGS.items() if row[3] is not None] == ["dialect"]
    # Endpoint keys are routed to the configs by field name.
    fields = {f.name for cls in (gateway.EndpointConfig, gateway.SamplingConfig)
              for f in dataclasses.fields(cls)}
    endpoint = [key for section, key, _, _ in SETTINGS.values() if section == "endpoint"]
    assert len(endpoint) == 11 and set(endpoint) <= fields


def test_package_names_resolve_lazily_and_are_listed():
    for name in trajkit.__all__:
        assert getattr(trajkit, name) is not None, name
    assert set(trajkit.__all__) <= set(dir(trajkit))
    assert trajkit.Action is sys.modules["trajkit.actions"].Action
    with pytest.raises(AttributeError):
        trajkit.no_such_name


COMMANDS = ("ingest", "make-fixture", "eval", "soeval", "rollout", "cluster", "judge",
            "sweep", "reward", "report", "stats")
# Command lines that print help or fail to parse, or that parse.
ONE_COMMAND_LINES = [
    *([name, *tail] for name in COMMANDS for tail in (
        [], ["-h"], ["--no-such-flag"], ["--config"], ["--dialect", "x"], ["--out", "o"],
        ["--benchmark", "b", "--rollouts", "r", "--cases", "c", "--pool", "p"])),
    *(["stats", stat, *tail] for stat in ("correlation", "contingency", "wilson", "seeds", "x")
      for tail in ([], ["-h"], ["1", "2"], ["--csv", "c.csv", "--no-such-flag"])),
    ["eval", "--benchmark", "b", "--limit-episodes", "x"],
    ["soeval", "--benchmark", "b", "--mode", "pool", "--pool", "p", "--no-thinking"],
    ["rollout", "--seed-list", "1,2", "--rounds", "2", "--concurrency", "0"],
    ["cluster", "--rollouts", "r", "--out", "o", "--epsilon", "-1e-3"],
]


def parsed(parser, argv, capsys):
    """What ``parser.parse_args(argv)`` returned or exited with, and printed."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", ONE_COMMAND_LINES, ids=" ".join)
def test_one_command_parser_reads_as_the_full_parser(argv, capsys):
    assert parsed(build_parser(argv[0]), argv, capsys) == parsed(build_parser(), argv, capsys)


@pytest.mark.parametrize("argv", [[], ["-h"], ["nope"], ["--no-such-flag", "eval"],
                                  ["--no-such-flag", "eval", "--benchmark", "b"]], ids=str)
def test_main_builds_every_command_unless_one_is_named_first(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == parsed(build_parser(), argv, capsys)


def test_one_command_parser_builds_no_other_command(capsys):
    assert parsed(build_parser("stats"), ["eval", "--benchmark", "b"], capsys)[0] == 2
    assert parsed(build_parser("eval"), ["eval", "--benchmark", "b"], capsys)[0]["benchmark"] \
        == "b"


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
