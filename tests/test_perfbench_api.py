"""The trajkit API the benchmark scripts under ``perfbench/`` call.

The benchmark runs only outside the test suite, so a change to ``src/``
that renames a function it imports, or changes what a ``*_benchmark``
function returns, would otherwise surface only there. This test imports
the benchmark's modules against ``src/`` in a fresh interpreter and builds
the soeval pool the sweep workload reads, on a 2x3 fixture.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
from pathlib import Path
from types import SimpleNamespace

sys.path[:0] = [sys.argv[1], sys.argv[2]]
import bench_inputs
import bench_traced  # noqa: F401
import trajkit
from trajkit import synth
from trajkit.store import load_episodes

root = Path(sys.argv[3])
fixture = synth.make_benchmark_file(root / "fixture", n_episodes=2, steps_per_episode=3,
                                    seed=4)
steps = [st for ep in load_episodes(fixture).episodes for st in ep.steps]
correct = {st.key: st.step_index != 1 for st in steps}
inp = SimpleNamespace(fixture=fixture, correct=correct, root=root)
bench_inputs.build_pool(inp)
print(json.dumps({"trajkit": trajkit.__file__, "pool": str(inp.pool),
                  "correct": sorted(k for k, v in correct.items() if v)}))
"""


def test_benchmark_modules_build_the_pool_against_src(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert Path(result["trajkit"]).is_relative_to(ROOT / "src")
    pool = Path(result["pool"])
    assert pool.is_file()
    keys = [json.loads(line)["key"] for line in pool.read_text(encoding="utf-8").splitlines()]
    # The live replay pools exactly the steps the scripted answers got right.
    assert keys == result["correct"]
