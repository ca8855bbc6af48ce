"""Smoke runs of the example scripts through their ``main`` functions."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from clinconv.metrics import METRIC_NAMES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
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
