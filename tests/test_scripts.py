"""Smoke runs of the example scripts through their ``main`` functions."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from clinconv.metrics import METRIC_NAMES

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
HEADER = "| model | " + " | ".join(METRIC_NAMES) + " |"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table_rows(out: str) -> dict[str, list[float]]:
    rows = {}
    for line in out.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| ") and cells[0] != "model":
            rows[cells[0]] = [float(cell) for cell in cells[1:]]
    return rows


def test_compare_strategies_prints_every_strategy(capsys):
    assert load_script("compare_strategies").main(["--n", "80", "--task", "diagnosis"]) == 0
    out = capsys.readouterr().out
    assert out.count(HEADER) == 1
    rows = table_rows(out)
    assert list(rows) == [
        "prior",
        "none",
        "umls",
        "pred:all",
        "pred:diagnosis",
        "union:umls+pred:diagnosis",
        "f2k:umls+pred:diagnosis",
        "oracle",
    ]
    assert all(len(values) == len(METRIC_NAMES) for values in rows.values())
    assert rows["prior"][METRIC_NAMES.index("macro_auc")] == 0.5


def test_output_digests_do_not_depend_on_the_hash_seed(tmp_path):
    """Two runs of the chain, side by side under two string hash seeds,
    print the same digest for every file."""
    runs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(ROOT / "src")}
        command = [sys.executable, str(SCRIPTS / "output_digests.py"), str(tmp_path / seed)]
        runs.append(subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True))
    outputs = [run.communicate(timeout=600)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    lines = outputs[0].splitlines()
    assert len(lines) > 100 and any(line.endswith("full/f2k.indices.scores.jsonl") for line in lines)
    assert outputs[0] == outputs[1]


def test_count_calls_prints_both_pipelines(capsys):
    assert load_script("count_calls").main(["--n", "40", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "28 training, 12 held-out visits" in out
    rows = table_rows(out)
    assert list(rows) == ["none", "f2k:umls+pred:diagnosis"]
    for calls_and_collections in rows.values():
        calls, collections = calls_and_collections[:2], calls_and_collections[2:]
        assert min(calls) > 0
        assert len(collections) == 3 and all(n >= 0 and n == int(n) for n in collections)
