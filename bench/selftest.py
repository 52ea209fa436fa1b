"""Self-test of the benchmark at toy sizes; a few seconds on one core.

    python3 bench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics run.py reports, that
every workload runs with every metric present, that traced self times add up
to the traced wall time, that a corrupted output counts as a failure, and
that the benchmark refuses to report anything when the sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time

import run
import workloads


def check(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def test_manifest() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        check(listed == list(ours), f"BENCHMARK.json {key} differs from run.py")
    check([w["name"] for w in spec["workloads"]] == list(workloads.NAMES), "workload list differs")


def test_workloads() -> None:
    for name in workloads.NAMES:
        for trace in (False, True):
            result, _ = run.run(name, seed=7, seconds=0.5, trace=trace, size="tiny")
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            check(result["correct"] and result["failed"] == 0, f"{name}: {result}")
            expected = run.PER_LAYER if trace else run.END_TO_END
            got = {n: (m["unit"], m["value"]) for n, m in result["metrics"].items()}
            check(list(got) == [n for n, _, _ in expected], f"{name}: metric names")
            for metric, unit, _ in expected:
                value = got[metric][1]
                check(got[metric][0] == unit, f"{name}: unit of {metric}")
                check(isinstance(value, (int, float)) and math.isfinite(value), f"{metric}={value}")
                if not trace:
                    check(value > 0, f"{name}: {metric} is {value}")


def test_self_times_account_for_wall() -> None:
    shares = ["cli.command", "report.render", "modular", "heights", "cayley"]
    for name in workloads.NAMES:
        workload = workloads.build(name, 5, "tiny")
        metrics = run._layer_metrics(run.run_round(workload, True, time.perf_counter() + 60))
        total = sum(metrics[s + ".self_pct"] for s in shares) + metrics["trace.harness_pct"]
        check(abs(total - 100) < 1e-6, f"{name}: self times and harness sum to {total}%")


def test_corrupted_output_fails() -> None:
    workload = workloads.build("point-heights", 3, "tiny")

    def tamper(index: int, out: str) -> str:
        return out.replace("1", "2") if index == 0 else out

    rnd = run.run_round(workload, False, time.perf_counter() + 60, tamper=tamper)
    check(rnd.failed == 1 and len(rnd.latencies) == len(workload.commands), "tamper not caught")


def test_refuses_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    argv = [sys.executable, "bench/run.py", "--workload", "class-scan", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    check(proc.returncode != 0, "ran without sources")
    check('"metrics"' not in proc.stdout, "printed a result without sources")


def main() -> int:
    for test in (test_manifest, test_workloads, test_self_times_account_for_wall,
                 test_corrupted_output_fails, test_refuses_without_sources):
        started = time.perf_counter()
        test()
        print(f"ok {test.__name__} ({time.perf_counter() - started:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
