"""``scripts/pairs.py`` on two stub checkouts.

Each stub's ``perfbench/run.py`` prints fixed metrics as the real one
does (a JSON object on the last line), and logs its run so the test can
check the alternating order.
"""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower"},
    {"name": "nmi", "unit": "ratio", "better": "higher"},
]}

STUB = """
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
log = here.parent / "runs.log"
n = sum(1 for _ in open(log)) if log.exists() else 0
with open(log, "a") as f:
    f.write(here.name + "\\n")
setup = {setup!r}[n % 4 // 2]
print(json.dumps({{"correct": {correct!r}, "attempted": 3, "failed": 0,
                  "metrics": {{"setup_s": {{"value": setup, "unit": "s"}},
                              "nmi": {{"value": 0.5, "unit": "ratio"}}}}}}))
"""


def make_checkout(root: Path, name: str, setup, correct=True) -> Path:
    d = root / name
    (d / "perfbench").mkdir(parents=True)
    (d / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (d / "perfbench" / "run.py").write_text(
        STUB.format(setup=setup, correct=correct)
    )
    return d


def run_pairs(parent: Path, change: Path, pairs: int):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change),
         "--workload", "w", "--pairs", str(pairs), "--seconds", "1"],
        capture_output=True, text=True, timeout=120,
    )


def test_alternates_and_summarises(tmp_path):
    parent = make_checkout(tmp_path, "parent", (1.0, 1.2))
    change = make_checkout(tmp_path, "change", (0.5, 1.3))
    proc = run_pairs(parent, change, 3)
    assert proc.returncode == 0, proc.stderr
    order = (tmp_path / "runs.log").read_text().split()
    assert order == ["parent", "change", "change", "parent",
                     "parent", "change"]
    out = proc.stdout
    assert "w seed 1, 3 pairs" in out
    # setup_s per pair: parent 1.0, 1.2, 1.0 against change 0.5, 1.3, 0.5.
    assert "  parent 1 1.2 1\n  change 0.5 1.3 0.5\n" in out
    assert "change won 2 of 3" in out
    assert "nmi (higher is better)" in out
    assert "bitwise equal in every pair" in out


def test_fails_on_incorrect_run(tmp_path):
    parent = make_checkout(tmp_path, "parent", (1.0, 1.0))
    change = make_checkout(tmp_path, "change", (0.9, 0.9), correct=False)
    proc = run_pairs(parent, change, 1)
    assert proc.returncode != 0
    assert "correct: false" in proc.stderr
