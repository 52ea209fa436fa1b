"""Time whole projheight CLI commands, end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # every workload, untraced and traced

A run repeats rounds for about S seconds. A round is one fresh interpreter
(bench/child.py) that imports projheight and runs the workload's commands one
after another through projheight.cli.main: a closed loop with one client, the
next command sent only once the previous output is verified. No lru_cache
survives from one round to the next, as for a user running the CLI.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 rounds alternate untraced and traced and it holds the
per-layer metrics. Each run also writes its metadata, metrics and spans to
bench/out/. The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# A run must end within 180 s; stop everything well before that.
HARD_LIMIT_S = 160.0
SETUP_PROBES = 3

# name, unit, better: the end-to-end metrics, from runs without tracing.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("cmd_p50_s", "s", "lower"),
    ("cmd_p90_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# name, unit, better: the per-layer metrics, from traced rounds. A "<span>.self_pct"
# is that span's self time as a share of the traced round's wall time; a
# "<layer>.self_pct" sums the layer's spans.
PER_LAYER = (
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.harness_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
    ("cli.commands", "count", "higher"),
    ("cli.command.self_pct", "%", "lower"),
    ("cli.errors", "count", "lower"),
    ("report.render.self_pct", "%", "lower"),
    ("report.render.rows", "count", "higher"),
    ("report.render.bytes", "B", "lower"),
    ("report.errors", "count", "lower"),
    ("modular.self_pct", "%", "lower"),
    ("modular.enum.self_pct", "%", "lower"),
    ("modular.enum.classes", "count", "higher"),
    ("modular.enum.subsets", "count", "lower"),
    ("modular.enum.yield_ratio", "ratio", "higher"),
    ("modular.prime_checks", "count", "lower"),
    ("modular.set_canonical.calls", "count", "lower"),
    ("modular.canonicalize.calls", "count", "lower"),
    ("modular.canonicalize.self_pct", "%", "lower"),
    ("modular.errors", "count", "lower"),
    ("heights.self_pct", "%", "lower"),
    ("heights.height.calls", "count", "lower"),
    ("heights.height.self_pct", "%", "lower"),
    ("heights.line_table.calls", "count", "lower"),
    ("heights.line_table.self_pct", "%", "lower"),
    ("heights.line_table.cells", "count", "lower"),
    ("heights.line_table.cache_hit_ratio", "ratio", "higher"),
    ("heights.spectrum.self_pct", "%", "lower"),
    ("heights.spectrum.points", "count", "higher"),
    ("heights.gap_scan.self_pct", "%", "lower"),
    ("heights.errors", "count", "lower"),
    ("cayley.self_pct", "%", "lower"),
    ("cayley.beta_exact.calls", "count", "lower"),
    ("cayley.beta_exact.self_pct", "%", "lower"),
    ("cayley.beta_exact.states", "count", "lower"),
    ("cayley.beta_exact.table_mb", "MB", "lower"),
    ("cayley.beta_upper.self_pct", "%", "lower"),
    ("cayley.gamma.self_pct", "%", "lower"),
    ("cayley.shortest_cycle.self_pct", "%", "lower"),
    ("cayley.triangle_free.self_pct", "%", "lower"),
    ("cayley.edges.self_pct", "%", "lower"),
    ("cayley.css_check.self_pct", "%", "lower"),
    ("cayley.scan_css.self_pct", "%", "lower"),
    ("cayley.errors", "count", "lower"),
)


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Round:
    traced: bool
    setup_s: float
    wall_s: float = 0.0  # first command sent to last output verified
    latencies: tuple[float, ...] = ()  # per command: request sent to output received
    failed: int = 0
    problems: tuple[str, ...] = ()
    maxrss_mb: float = 0.0
    trace: dict | None = None


class Child:
    """A child interpreter that runs commands on request; see child.py."""

    def __init__(self, traced: bool, deadline: float):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        argv = [sys.executable, "-I", str(BENCH / "child.py"), str(SRC), str(int(traced))]
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        self._watchdog = threading.Timer(max(deadline - self.spawned, 0.0), self.proc.kill)
        self._watchdog.start()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def receive(self) -> tuple[dict, bytes]:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError("child process ended early (see its stderr above)")
        header = json.loads(line)
        return header, self.proc.stdout.read(header["size"])

    def request(self, message: dict) -> tuple[dict, bytes]:
        self.proc.stdin.write(json.dumps(message).encode() + b"\n")
        self.proc.stdin.flush()
        return self.receive()


def run_round(workload, traced: bool, deadline: float, tamper=None) -> Round:
    """One child: set-up, then every command in order, each verified before the next.

    tamper(index, output) -> output, when given, edits outputs before they are
    verified; the self-test uses it to show that a wrong output is caught.
    """
    with Child(traced, deadline) as child:
        child.receive()
        rnd = Round(traced, setup_s=time.perf_counter() - child.spawned)
        latencies, problems = [], []
        first = time.perf_counter()
        for index, command in enumerate(workload.commands):
            sent = time.perf_counter()
            header, payload = child.request({"argv": list(command.argv)})
            latencies.append(time.perf_counter() - sent)
            out = payload[: header["out"]].decode()
            if tamper is not None:
                out = tamper(index, out)
            problem = workloads.verify(command, header["code"], out)
            if problem is not None:
                stderr = payload[header["out"] :].decode().strip()
                problems.append(f"{' '.join(command.argv)}: {problem} {stderr}".strip())
        rnd.wall_s = time.perf_counter() - first
        header, payload = child.request({"end": True})
    rnd.latencies = tuple(latencies)
    rnd.failed = len(problems)
    rnd.problems = tuple(problems)
    rnd.maxrss_mb = header["maxrss_kb"] / 1024
    rnd.trace = json.loads(payload) if traced else None
    return rnd


def probe_setup(deadline: float) -> float:
    """Spawn a child, wait until projheight is imported, and end it."""
    with Child(False, deadline) as child:
        child.receive()
        setup_s = time.perf_counter() - child.spawned
        child.request({"end": True})
    return setup_s


def measure(workload, seconds: float, trace: bool) -> tuple[list[float], list[Round]]:
    """Rounds for about `seconds`: each starts only if the last one's length still fits.

    Without tracing a few bare set-ups come first, so set-up time has several
    samples even when rounds are long. With tracing rounds alternate untraced
    and traced.
    """
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    setups = [] if trace else [probe_setup(deadline) for _ in range(SETUP_PROBES)]
    rounds: list[Round] = []
    while True:
        began = time.perf_counter()
        rounds.append(run_round(workload, trace and len(rounds) % 2 == 1, deadline))
        now = time.perf_counter()
        if now + (now - began) > deadline:
            break
        if len(rounds) >= (2 if trace else 1) and now + (now - began) - start > seconds:
            break
    return setups, rounds


def _wall(rounds: list[Round]) -> float:
    return statistics.median(r.wall_s for r in rounds)


def end_to_end(workload, setups: list[float], rounds: list[Round]) -> dict[str, float]:
    """Medians over the run's rounds and set-ups."""
    wall = _wall(rounds)
    latencies = [statistics.median(per_round) for per_round in zip(*(r.latencies for r in rounds))]
    return {
        "wall_s": wall,
        "items_per_s": workload.items / wall,
        "cmd_p50_s": statistics.median(latencies),
        "cmd_p90_s": _p90(latencies),
        "setup_s": statistics.median(setups + [r.setup_s for r in rounds]),
        "peak_rss_mb": statistics.median(r.maxrss_mb for r in rounds),
    }


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer(rounds: list[Round]) -> dict[str, float]:
    """Median over traced rounds of each per-layer metric.

    trace.wall_s is the median traced round, as wall_s is the median untraced one.
    """
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    per_round = [_layer_metrics(r) for r in traced]
    out = {"trace.wall_s": _wall(traced), "trace.overhead_s": _wall(traced) - _wall(plain)}
    for name in per_round[0]:
        out[name] = statistics.median(m[name] for m in per_round)
    return out


def _layer_metrics(rnd: Round) -> dict[str, float]:
    payload = rnd.trace
    self_s, roots = spans.self_times(payload)
    counts = {**payload["counts"], **payload["maxima"]}
    wall = rnd.wall_s

    def value(name: str) -> float:
        stem, _, last = name.rpartition(".")
        if last == "self_pct":
            if stem in spans.LAYERS:
                return 100 * sum(t for n, t in self_s.items() if n.startswith(stem + ".")) / wall
            return 100 * self_s.get(stem, 0.0) / wall
        return counts.get(name, 0)

    enum_subsets = counts.get("modular.enum.subsets", 0)
    hits = counts.get("heights.line_table.hits", 0)
    looked_up = hits + counts.get("heights.line_table.misses", 0)
    special = {
        "trace.harness_pct": 100 * (wall - roots) / wall,
        "trace.spans": len(payload["spans"]),
        "cli.commands": counts.get("cli.command.calls", 0),
        "modular.enum.yield_ratio": counts.get("modular.enum.classes", 0) / enum_subsets
        if enum_subsets
        else 0.0,
        "heights.line_table.cache_hit_ratio": hits / looked_up if looked_up else 0.0,
    }
    names = [n for n, _, _ in PER_LAYER if n not in ("trace.wall_s", "trace.overhead_s")]
    return {n: special[n] if n in special else value(n) for n in names}


def metadata(workload, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": trace,
        "params": workload.params,
        "commands": len(workload.commands),
        "items": workload.items,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple[dict, dict]:
    """Build, measure and summarise one workload; returns the result and its metadata."""
    if not (SRC / "projheight" / "cli.py").is_file():
        raise BenchmarkError(f"no projheight sources under {SRC}")
    workload = workloads.build(name, seed, size)
    setups, rounds = measure(workload, seconds, trace)
    attempted = sum(len(r.latencies) for r in rounds)
    failed = sum(r.failed for r in rounds)
    metrics = per_layer(rounds) if trace else end_to_end(workload, setups, rounds)
    units = {n: u for n, u, _ in (PER_LAYER if trace else END_TO_END)}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    meta = metadata(workload, seconds, trace)
    meta.update(rounds=len(rounds), fail_ratio=failed / attempted)
    problems = [p for r in rounds for p in r.problems]
    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "result": result, "problems": problems}
    if trace:
        record["spans"] = [r.trace for r in rounds if r.traced]
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record))
    for problem in problems[:5]:
        print(f"FAILED {problem[:500]}", file=sys.stderr)
    return result, meta


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, printed as one table with fail_ratio."""
    summary = {}
    for name in workloads.NAMES:
        for trace in (False, True):
            result, _ = run(name, seed, seconds, trace)
            metrics = dict(result["metrics"])
            metrics["fail_ratio"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
            for metric, entry in metrics.items():
                print(f"{name:14} {metric:38} {entry['value']:>14.6g} {entry['unit']}")
            summary.setdefault(name, {}).update(metrics)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace))
            print("# meta " + json.dumps(meta))
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
