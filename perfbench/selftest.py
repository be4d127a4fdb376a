#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it
runs one untraced and one traced pass at tiny scale and asserts that
the run exits 0, its output checks pass, and every metric BENCHMARK.json
names is present, finite and carries its declared unit. It then runs
the fleet-churn engine cross-check (sequential vs sharded parallel
engine digests). Exits non-zero on the first failure.
"""
import json
import math
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Virtual time each tiny run needs for its output checks to have
# something to check (a fall takes ~20 s of script, see README.md).
TINY_SECONDS = {"paper-home": 1, "shared-home": 4, "fleet-churn": 3}


def run(args):
    command = [sys.executable, str(HERE / "run.py"), *args]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout


def check_result(label, code, stdout, metrics):
    if code != 0:
        sys.exit(f"FAIL {label}: exit {code}\n{stdout}")
    result = json.loads(stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        sys.exit(f"FAIL {label}: correct={result['correct']} "
                 f"attempted={result['attempted']}\n{stdout}")
    got = result["metrics"]
    for metric in metrics:
        name = metric["name"]
        if name not in got:
            sys.exit(f"FAIL {label}: metric {name} missing")
        value = got[name].get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"FAIL {label}: metric {name} = {value!r}")
        if got[name].get("unit") != metric["unit"]:
            sys.exit(f"FAIL {label}: metric {name} unit {got[name].get('unit')!r}")
    extra = set(got) - {m["name"] for m in metrics}
    if extra:
        sys.exit(f"FAIL {label}: unlisted metrics {sorted(extra)}")
    print(f"ok   {label}: {len(metrics)} metrics, checks pass")


def main():
    for workload in SPEC["workloads"]:
        name = workload["name"]
        for trace, metrics in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            code, stdout = run(["--workload", name, "--seed", "7", "--tiny",
                                "--seconds", str(TINY_SECONDS[name]),
                                "--trace", trace])
            check_result(f"{name} trace={trace}", code, stdout, metrics)
    code, stdout = run(["--verify-engines", "--seed", "7", "--tiny"])
    if code != 0:
        sys.exit(f"FAIL engine cross-check\n{stdout}")
    print("ok   engine cross-check: " + stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    main()
