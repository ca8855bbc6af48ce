"""Spread report: run workloads repeatedly and print each metric's quartiles.

    python3 bench/spread.py --workloads full_f2k_dx full_none_dx desk_cli_ros \
        --seeds 1 2 3 4 5 6 7 8 9 10

Runs ``bench/run.py`` once per (workload, seed), one run at a time, for the
``run_seconds`` that BENCHMARK.json gives, and prints
per metric the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the quartile spread as a
share of the median, and the metric's bound in BENCHMARK.json. The raw results
are appended to ``.bench_out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(workload: str, results: list[dict], limits: dict[str, float]) -> list[str]:
    lines = [f"## {workload}: {len(results)} runs, failed/attempted "
             f"{sorted({(r['failed'], r['attempted']) for r in results})[:3]}"]
    lines.append(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        share = (q3 - q1) / median if median else float("nan")
        bound = limits.get(name)
        flag = "" if bound is None or share < bound / 3 else (" over bound/3" if share <= bound else " OVER BOUND")
        lines.append(
            f"{name:28} {median:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} "
            f"{'' if bound is None else bound:>6}{flag}"
        )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    limits = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    log = ROOT / ".bench_out" / "spread.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds)
            results.append(result)
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        print("\n".join(report(workload, results, limits)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
