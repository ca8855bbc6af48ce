"""Import budget: a command loads only the scipy modules that it runs.

Each command runs in a fresh interpreter, which then reports the scipy
subpackages in ``sys.modules``. ``scipy.stats`` is never needed, and
``scipy.optimize`` only where a model is fitted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from clinconv.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the CLI, then prints its exit code and the scipy subpackages loaded.
REPORT_MODULES = """
import json, sys
from clinconv.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exit:
    code = exit.code
loaded = sorted({name.split(".")[1] for name in sys.modules if name.startswith("scipy.")})
print(json.dumps({"code": code, "scipy": loaded}))
"""


def run_fresh(*argv) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", REPORT_MODULES, *map(str, argv)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_only_training_loads_scipy_optimize(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out-dir", str(corpus), "--n", "40", "--scale", "desk", "--seed", "5"]) == 0
    transcripts = corpus / "transcripts.jsonl"
    labels = tmp_path / "labels.jsonl"
    assert main(["derive-labels", "--transcripts", str(transcripts), "--notes",
                 str(corpus / "notes.jsonl"), "--task", "diagnosis", "--out", str(labels)]) == 0

    version = run_fresh("--version")
    assert version["code"] == 0
    assert {"stats", "optimize"}.isdisjoint(version["scipy"])

    train = run_fresh("train", "--transcripts", transcripts, "--labels", labels,
                      "--out", tmp_path / "pipe.json")
    assert train["code"] == 0
    assert "optimize" in train["scipy"] and "stats" not in train["scipy"]

    one_visit = tmp_path / "one.jsonl"
    one_visit.write_text(transcripts.read_text().splitlines()[0] + "\n")
    predict = run_fresh("predict", "--pipeline", tmp_path / "pipe.json", "--transcripts",
                        one_visit, "--out", tmp_path / "scores.jsonl")
    assert predict["code"] == 0
    assert {"stats", "optimize"}.isdisjoint(predict["scipy"])
    assert len((tmp_path / "scores.jsonl").read_text().splitlines()) == 1
