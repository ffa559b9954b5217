"""How the CLI resolves a setting, and what a run dir's manifest holds.

Every setting with a config key resolves one way: the flag when given, else
the ``--config`` YAML, else the default. So a run that sets a key only in
the YAML must match a run that sets only the flag (same manifest, same
endpoint configuration, same sweep configuration), and a run that sets both
must match the flag alone. Keys without a flag (the sampling parameters,
``timeout``, ``max_retries``) must reach the request body and the endpoint
configuration. The manifest is the run's configuration from the moment the
run dir is opened, so an interrupted run reports as the run it was.
"""

import json

import pytest

import trajkit.commands.replay as replay_cmds
import trajkit.gateway as gateway_module
import trajkit.semionline as semionline
from trajkit import synth
from trajkit.cli import main
from trajkit.gateway import DEFAULT_SEEDS, EndpointConfig, SamplingConfig
from trajkit.semionline import SweepConfig

# (flag, flag text, config section or None, key, the same value in YAML,
#  another YAML value)
EVAL_SETTINGS = [
    ("--dialect", "plain-json", None, "dialect", "plain-json", "thought-action"),
    ("--seed-list", "11,22", None, "seed_list", [11, 22], [33]),
    ("--model", "m1", "endpoint", "model_name", "m1", "m2"),
    ("--endpoint-url", "http://127.0.0.1:9/v1", "endpoint", "base_url",
     "http://127.0.0.1:9/v1", "http://127.0.0.1:8/v1"),
    ("--concurrency", "2", "endpoint", "max_in_flight", 2, 3),
    ("--min-comparable", "0.5", "policy", "min_comparable", 0.5, 0.8),
    ("--exclude-gt-kinds", "OPEN,CLICK", "policy", "exclude_gt_kinds",
     ["OPEN", "CLICK"], ["TYPE"]),
]

SWEEP_SETTINGS = [
    ("--kappa", "8", "schedule", "kappa", 8, 4),
    ("--grid", "3", "schedule", "grid", 3, 2),
    ("--samples-per-pair", "2", "schedule", "samples_per_pair", 2, 1),
    ("--concurrency", "2", "endpoint", "max_in_flight", 2, 3),
]


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    """Two benchmarks and a live run's pool."""
    root = tmp_path_factory.mktemp("settings")
    bench = synth.make_benchmark_file(root / "a", n_episodes=3, steps_per_episode=4, seed=3)
    other = synth.make_benchmark_file(root / "b", n_episodes=2, steps_per_episode=3, seed=4)
    assert main(["soeval", "--benchmark", str(bench), "--backend", "mock",
                 "--mock-policy", "alternating", "--out-dir", str(root / "live")]) == 0
    return {"bench": str(bench), "other": str(other),
            "pool": str(root / "live" / "pool.jsonl")}


@pytest.fixture
def seen(monkeypatch):
    """Records the endpoint configuration of every gateway the CLI builds,
    and the configuration of every sweep (the sweep itself does not run).
    Each command looks the gateway class up in its module when it runs."""
    got = {"endpoint": [], "sweep": []}
    real_gateway = gateway_module.ModelGateway

    def gateway(backend, cfg, *args, **kwargs):
        got["endpoint"].append(cfg)
        return real_gateway(backend, cfg, *args, **kwargs)

    def run_sweep(gateway, episodes, dialect, pool, config, **kwargs):
        got["sweep"].append(config)
        return []

    monkeypatch.setattr(gateway_module, "ModelGateway", gateway)
    monkeypatch.setattr(semionline, "run_sweep", run_sweep)
    return got


def write_config(path, section, key, value):
    # YAML is a superset of JSON.
    path.write_text(json.dumps({key: value} if section is None
                               else {section: {key: value}}), encoding="utf-8")
    return str(path)


def observe(seen, out, argv):
    """Runs ``argv``; returns what it was run under."""
    seen["endpoint"].clear()
    seen["sweep"].clear()
    assert main(argv) == 0, argv
    manifest = out / "manifest.json"
    return (json.loads(manifest.read_text(encoding="utf-8")) if manifest.exists() else None,
            list(seen["endpoint"]), list(seen["sweep"]))


def assert_flag_and_config_agree(tmp_path, capsys, seen, base, flag, text, section, key,
                                 same, other, out_flag):
    """Flag only, config only, and both (config set to another value)."""
    runs = {}
    for name, extra in (
        ("flag", [flag, text]),
        ("config", ["--config", write_config(tmp_path / "same.yaml", section, key, same)]),
        ("both", [flag, text,
                  "--config", write_config(tmp_path / "other.yaml", section, key, other)]),
    ):
        out = tmp_path / name
        argv = [*base, *extra]
        if out_flag:
            argv += [out_flag, str(out if out_flag == "--out-dir" else out.with_suffix(".csv"))]
        runs[name] = observe(seen, out, argv)
    capsys.readouterr()
    assert runs["config"] == runs["flag"]
    assert runs["both"] == runs["flag"]
    return runs["flag"]


@pytest.mark.parametrize("flag, text, section, key, same, other", EVAL_SETTINGS,
                         ids=[case[0] for case in EVAL_SETTINGS])
def test_eval_setting_from_config_equals_the_flag(tmp_path, capsys, seen, fixture_files,
                                                  flag, text, section, key, same, other):
    base = ["eval", "--benchmark", fixture_files["bench"], "--backend", "mock",
            "--mock-policy", "alternating"]
    manifest, endpoints, _ = assert_flag_and_config_agree(
        tmp_path, capsys, seen, base, flag, text, section, key, same, other, "--out-dir")
    assert len(endpoints) == 1
    default = observe(seen, tmp_path / "default",
                      [*base, "--out-dir", str(tmp_path / "default")])
    capsys.readouterr()
    assert (manifest, endpoints) != default[:2], "the setting changed nothing"


def test_benchmark_from_config_equals_the_flag(tmp_path, capsys, seen, fixture_files):
    base = ["eval", "--backend", "mock", "--mock-policy", "alternating"]
    manifest, _, _ = assert_flag_and_config_agree(
        tmp_path, capsys, seen, base, "--benchmark", fixture_files["bench"], None,
        "benchmark", fixture_files["bench"], fixture_files["other"], "--out-dir")
    assert manifest["benchmark"] == fixture_files["bench"]


@pytest.mark.parametrize("flag, text, section, key, same, other", SWEEP_SETTINGS,
                         ids=[case[0] for case in SWEEP_SETTINGS])
def test_sweep_setting_from_config_equals_the_flag(tmp_path, capsys, seen, fixture_files,
                                                   flag, text, section, key, same, other):
    base = ["sweep", "--benchmark", fixture_files["bench"], "--backend", "mock",
            "--mock-policy", "history-echo", "--pool", fixture_files["pool"]]
    _, endpoints, sweeps = assert_flag_and_config_agree(
        tmp_path, capsys, seen, base, flag, text, section, key, same, other, "--out")
    assert len(endpoints) == len(sweeps) == 1


def test_unset_settings_take_the_engine_defaults(tmp_path, capsys, seen, fixture_files):
    """With no flag and no config, the gateway and the sweep get the configs'
    own defaults, and the first of ``DEFAULT_SEEDS``."""
    base = ["--benchmark", fixture_files["bench"], "--backend", "mock"]
    manifest, endpoints, _ = observe(seen, tmp_path / "run",
                                     ["eval", *base, "--out-dir", str(tmp_path / "run")])
    assert endpoints == [EndpointConfig(sampling=SamplingConfig(seed=DEFAULT_SEEDS[0]))]
    assert manifest["seed_list"] == list(DEFAULT_SEEDS)
    _, endpoints, sweeps = observe(seen, tmp_path / "sweep",
                                   ["sweep", *base, "--pool", fixture_files["pool"],
                                    "--out", str(tmp_path / "sweep.csv")])
    assert endpoints == [EndpointConfig()]
    assert sweeps == [SweepConfig()]
    capsys.readouterr()


def test_sampling_settings_reach_the_request_body(tmp_path, capsys, seen, fixture_files,
                                                  chat_server):
    sampling = {"temperature": 0.5, "top_p": 0.9, "top_k": 5, "repetition_penalty": 1.1,
                "presence_penalty": 0.2, "max_tokens": 64}
    config = tmp_path / "sampling.yaml"
    config.write_text(json.dumps({"endpoint": {**sampling, "timeout": 30, "max_retries": 1}}),
                      encoding="utf-8")
    observe(seen, tmp_path / "run",
            ["eval", "--benchmark", fixture_files["bench"], "--backend", "http",
             "--endpoint-url", chat_server.url, "--config", str(config),
             "--out-dir", str(tmp_path / "run")])
    capsys.readouterr()
    cfg, = seen["endpoint"]
    assert (cfg.timeout, cfg.max_retries) == (30.0, 1)
    bodies = [json.loads(body) for body in chat_server.bodies()]
    assert len(bodies) == 12
    for body in bodies:
        assert {k: body[k] for k in sampling} == sampling


# --- documented changes: these fail before every setting had one resolution ---


def test_seed_list_written_as_text_in_the_config(tmp_path, capsys, seen, fixture_files):
    base = ["eval", "--benchmark", fixture_files["bench"], "--backend", "mock"]
    assert_flag_and_config_agree(tmp_path, capsys, seen, base, "--seed-list", "11,22",
                                 None, "seed_list", "11,22", "33", "--out-dir")


@pytest.mark.parametrize("content, reason", [
    (b"base_url: [unclosed\n", "line 2, column 1: expected ',' or ']', but got '<stream end>'"),
    (b"seed_list: [1]\n\tdialect: x\n",
     "line 2, column 1: found character '\\t' that cannot start any token"),
    (b"\x80" * 10, "'utf-8' codec can't decode byte 0x80 in position 0: invalid start byte"),
], ids=["unclosed", "tab", "binary"])
def test_malformed_config_is_one_error_line(tmp_path, capsys, fixture_files, content, reason):
    config = tmp_path / "bad.yaml"
    config.write_bytes(content)
    out = tmp_path / "run"
    assert main(["eval", "--benchmark", fixture_files["bench"], "--config", str(config),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"trajkit: error: {config}: {reason}"]
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, reason", [
    ("endpoint", "max_in_flight", 0, "must be an integer >= 1, got '0'"),
    ("policy", "min_comparable", "lots", "must be a finite number, got 'lots'"),
    ("policy", "exclude_gt_kinds", ["CLICK", "JUMP"], "JUMP"),
    (None, "dialect", "yaml-dialect", "yaml-dialect"),
    (None, "seed_list", "eleven", "eleven"),
])
def test_bad_config_value_is_one_error_line(tmp_path, capsys, fixture_files, section,
                                            key, value, reason):
    out = tmp_path / "run"
    config = write_config(tmp_path / "bad.yaml", section, key, value)
    assert main(["eval", "--benchmark", fixture_files["bench"], "--config", config,
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("trajkit: error: "), err
    assert key in err[0] and reason in err[0]
    assert not out.exists()


SCHEDULE_ERRORS = [
    ("--kappa", "kappa", "0", "must be a finite number > 0, got '0'"),
    ("--kappa", "kappa", "-1", "must be a finite number > 0, got '-1'"),
    ("--kappa", "kappa", "nan", "must be a finite number > 0, got 'nan'"),
    ("--kappa", "kappa", "inf", "must be a finite number > 0, got 'inf'"),
    ("--grid", "grid", "-2", "must be an integer >= 1, got '-2'"),
    ("--grid", "grid", "0", "must be an integer >= 1, got '0'"),
    ("--samples-per-pair", "samples_per_pair", "-1", "must be an integer >= 1, got '-1'"),
    ("--samples-per-pair", "samples_per_pair", "0", "must be an integer >= 1, got '0'"),
]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("flag, key, text, reason", SCHEDULE_ERRORS,
                         ids=[f"{case[0]} {case[2]}" for case in SCHEDULE_ERRORS])
def test_bad_schedule_setting_is_one_error_line(tmp_path, capsys, fixture_files, via, flag,
                                                key, text, reason):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--benchmark", fixture_files["bench"], "--backend", "mock",
            "--mock-policy", "history-echo", "--pool", fixture_files["pool"],
            "--out", str(out)]
    if via == "flag":
        argv += [flag, text]
        error = f"trajkit sweep: error: argument {flag}: {reason}"
    else:
        config = write_config(tmp_path / "bad.yaml", "schedule", key, text)
        argv += ["--config", config]
        error = f"trajkit: error: {config}: schedule.{key}: {reason}"
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert [line for line in capsys.readouterr().err.splitlines() if "error:" in line] == [
        error]
    assert not out.exists()


def test_interrupted_live_run_reports_as_the_run_it_was(tmp_path, capsys, monkeypatch,
                                                        fixture_files):
    real_backend = replay_cmds._backend

    def interrupted_backend(args, episodes, dialect):
        backend = real_backend(args, episodes, dialect)
        respond = backend.responder

        def responder(request, seed, n):
            if request.tag.startswith(episodes[2].id + "/"):
                raise KeyboardInterrupt
            return respond(request, seed, n)

        backend.responder = responder
        return backend

    monkeypatch.setattr(replay_cmds, "_backend", interrupted_backend)
    out = tmp_path / "live"
    with pytest.raises(KeyboardInterrupt):
        main(["soeval", "--benchmark", fixture_files["bench"], "--backend", "mock",
              "--mock-policy", "alternating", "--exclude-gt-kinds", "OPEN,CLICK",
              "--min-comparable", "0.5", "--out-dir", str(out)])
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert {k: manifest[k] for k in ("mode", "min_comparable", "exclude_gt_kinds",
                                     "benchmark")} == \
        {"mode": "live", "min_comparable": 0.5, "exclude_gt_kinds": ["CLICK", "OPEN"],
         "benchmark": fixture_files["bench"]}
    capsys.readouterr()

    assert main(["report", "--run-dir", str(out), "--benchmark", fixture_files["bench"]]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("OSR: ")
    with (out / "report.csv").open(encoding="utf-8") as fh:
        header, row = (line.split(",") for line in fh.read().splitlines())
    row = dict(zip(header, row))
    assert row["mode"] == "live"
    assert row["episodes"] == "2"
    # CLICK and OPEN steps are excluded, as in the run.
    assert int(row["steps"]) < 8


# Config hashes of runs made before the manifest held the whole config:
# ``eval`` under every default, and ``soeval`` (live) under
# ``--exclude-gt-kinds OPEN,CLICK --min-comparable 0.5``. Paths and the
# benchmark's content do not enter the hash.
OLD_FORMAT_RUNS = [
    (["eval"], "80677a1f9eba49dc"),
    (["soeval", "--mock-policy", "alternating", "--exclude-gt-kinds", "OPEN,CLICK",
      "--min-comparable", "0.5"], "7eabff3090ec191e"),
]


@pytest.mark.parametrize("argv, old_hash", OLD_FORMAT_RUNS, ids=["eval", "soeval"])
def test_run_dir_with_an_old_format_manifest_resumes(tmp_path, capsys, fixture_files,
                                                     argv, old_hash):
    out = tmp_path / "run"
    command = [*argv, "--benchmark", fixture_files["bench"], "--out-dir", str(out)]
    assert main(command) == 0
    records = (out / "records.jsonl").read_bytes()
    lines = records.splitlines(keepends=True)
    # Interrupted after one episode, with the manifest an interrupted run
    # used to leave.
    (out / "records.jsonl").write_bytes(b"".join(lines[:4]))
    (out / "manifest.json").write_text(
        json.dumps({"config_hash": old_hash, "seed_list": list(DEFAULT_SEEDS)}),
        encoding="utf-8")
    assert main(command) == 0
    assert (out / "records.jsonl").read_bytes() == records
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_hash"] == old_hash
    capsys.readouterr()


def test_run_dir_refuses_to_resume_under_another_sampling_setting(tmp_path, capsys,
                                                                   fixture_files):
    out = tmp_path / "run"
    command = ["eval", "--benchmark", fixture_files["bench"], "--out-dir", str(out)]
    warm = write_config(tmp_path / "warm.yaml", "endpoint", "temperature", 0.5)
    assert main([*command, "--config", warm]) == 0
    records = (out / "records.jsonl").read_bytes()
    capsys.readouterr()
    hot = write_config(tmp_path / "hot.yaml", "endpoint", "temperature", 1.5)
    assert main([*command, "--config", hot]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [err[0]] and err[0].startswith(f"trajkit: error: run dir {out} was "
                                                 "produced under a different configuration")
    assert (out / "records.jsonl").read_bytes() == records


@pytest.mark.parametrize("temperature", [None, 0.1], ids=["unset", "default"])
def test_sampling_at_its_defaults_keeps_the_default_hash(tmp_path, capsys, fixture_files,
                                                         temperature):
    out = tmp_path / "run"
    command = ["eval", "--benchmark", fixture_files["bench"], "--out-dir", str(out)]
    if temperature is not None:
        command += ["--config", write_config(tmp_path / "t.yaml", "endpoint", "temperature",
                                             temperature)]
    assert main(command) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_hash"] == OLD_FORMAT_RUNS[0][1] and "temperature" not in manifest
    capsys.readouterr()


def test_report_falls_back_to_the_manifest_key_by_key(tmp_path, capsys, fixture_files):
    out = tmp_path / "run"
    bench = fixture_files["bench"]
    assert main(["eval", "--benchmark", bench, "--mock-policy", "alternating",
                 "--exclude-gt-kinds", "OPEN,CLICK", "--min-comparable", "0.5",
                 "--out-dir", str(out)]) == 0
    scored = (out / "report.csv").read_bytes()
    config = write_config(tmp_path / "policy.yaml", "policy", "min_comparable", 0.5)
    assert main(["report", "--run-dir", str(out), "--benchmark", bench,
                 "--config", config]) == 0
    # exclude_gt_kinds, which the config does not set, comes from the manifest.
    assert (out / "report.csv").read_bytes() == scored
    capsys.readouterr()
