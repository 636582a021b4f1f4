"""Smoke run of the benchmark at toy sizes.

    python3 perfbench/smoke.py

Runs both workloads untraced and traced with --toy and checks that the
result line has exactly its four keys, that the run's correctness
checks pass, and that every metric BENCHMARK.json names is printed as a
number with its declared unit.  Exits 1 if any run fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def problems_of(result, declared) -> list:
    problems = []
    if set(result) != KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"checks failed: {result.get('failed')} of {result.get('attempted')}")
    got = result.get("metrics", {})
    for name in sorted(set(got) - set(declared)):
        problems.append(f"undeclared metric {name}")
    for name, unit in declared.items():
        m = got.get(name)
        if m is None:
            problems.append(f"missing metric {name}")
        elif m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, declared {unit!r}")
        elif not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value {m.get('value')!r} is not a number")
    return problems


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failed = False
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--toy"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if done.returncode != 0:
                problems = [f"exit {done.returncode}: {done.stderr.strip()[-500:]}"]
            else:
                result = json.loads(done.stdout.strip().splitlines()[-1])
                problems = problems_of(result, {m["name"]: m["unit"] for m in spec[kind]})
            status = "ok" if not problems else "FAIL"
            print(f"{status} {workload['name']} trace={trace}")
            for p in problems:
                print(f"    {p}")
            failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
