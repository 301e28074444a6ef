"""Fast self-test of the benchmark: a tiny version of every workload.

Runs ``run.py`` on each workload at 5% of its arrival window, untraced
and traced, and checks that each run passes its correctness checks,
that every end-to-end metric is printed by name with its unit, and
that the final JSON line carries exactly the metrics ``BENCHMARK.json``
declares, with the declared units, and that ``BENCHMARK.json`` names the
workloads, and their reasons, that ``worlds.py`` defines. Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, ROOT  # noqa: E402

SCALE = 0.05


def _check_run(workload: str, trace: int, declared: dict[str, str]) -> list[str]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
        "--scale", str(SCALE),
    ]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=300)
    where = f"{workload} trace={trace}"
    if completed.returncode != 0:
        return [f"{where}: exit {completed.returncode}\n{completed.stderr}"]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        errors.append(
            f"{where}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(declared))}"
        )
    for name, unit in declared.items():
        if name in metrics and metrics[name]["unit"] != unit:
            errors.append(f"{where}: {name} unit {metrics[name]['unit']} != {unit}")
    report = "\n".join(lines[:-1])
    printed = END_TO_END if not trace else PER_LAYER
    for name, unit, *_ in printed:
        if not re.search(rf"^\s+{re.escape(name)}\s.*\s{re.escape(unit)}, ", report, re.M):
            errors.append(f"{where}: {name} [{unit}] not printed")
    return errors


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from worlds import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    if declared != {name: w.why for name, w in WORKLOADS.items()}:
        errors.append("BENCHMARK.json workloads differ from worlds.WORKLOADS")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            errors += _check_run(workload, trace, declared)
            print(f"{workload} trace={trace}: {'ok' if not errors else 'FAILED'}", flush=True)
    for error in errors:
        print(f"SELFTEST FAILED: {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
