"""Self-test of the benchmark at toy size (8 MCMs, a few epochs).

    python3 perfbench/selftest.py

Runs every workload through ``run.py --size toy`` and checks that

* every end-to-end metric is printed with its unit, and the last line
  carries exactly the bounded ones;
* a perturbed epoch payload raises ``error_rate`` and fails the run;
* the traced per-layer rows plus ``unattributed`` add up to the traced
  wall time, and every per-layer metric is reported.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END, OUT, REPORTED, WORKLOADS  # noqa: E402


def run(workload: str, *extra: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--size", "toy", *extra],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def main() -> int:
    for workload in WORKLOADS:
        code, lines = run(workload, "--trace", "0")
        expect(code == 0, f"{workload}: clean run exits 0")
        for name, unit in REPORTED.items():
            expect(any(line.split()[:1] == [name]
                       and line.split()[-1] == unit for line in lines),
                   f"{workload}: prints {name} with unit {unit}")
        result = json.loads(lines[-1])
        expect(result["correct"] and result["failed"] == 0,
               f"{workload}: error_rate is 0")
        expect({k: v["unit"] for k, v in result["metrics"].items()}
               == END_TO_END, f"{workload}: last line has the bounded "
                              "metrics")

        code, lines = run(workload, "--trace", "0", "--perturb", "3")
        result = json.loads(lines[-1])
        record = json.loads((OUT / f"{workload}-seed0-trace0.json")
                            .read_text())
        expect(code == 1 and not result["correct"]
               and result["failed"] >= 1
               and record["metrics"]["error_rate"]["value"] > 0,
               f"{workload}: a perturbed epoch raises error_rate")

        code, lines = run(workload, "--trace", "1")
        expect(code == 0, f"{workload}: traced run exits 0")
        result = json.loads(lines[-1])
        expect(set(result["metrics"]) == set(PER_LAYER),
               f"{workload}: every per-layer metric is reported")
        record = json.loads((OUT / f"{workload}-seed0-trace1.json")
                            .read_text())
        rows = record["table"]
        expect(rows[-1]["layer"] == "unattributed",
               f"{workload}: table ends with the unattributed row")
        expect(math.isclose(sum(r["attributed_ms"] for r in rows),
                            record["wall_ms"], rel_tol=1e-9),
               f"{workload}: layer rows sum to the traced wall time")
        expect((OUT / f"{workload}.trace.json").exists(),
               f"{workload}: Chrome trace written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
