"""pru-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each case process (``child.py``) is a
fresh interpreter with BLAS pinned to one thread, because command-line
users pay every import and lazy cache on each invocation.  Processes run
one after another, in a closed loop, until the next one would end after
``--seconds``; at least one always runs.

``--trace 0`` first starts a few set-up-only processes, then times the
workload's cases with tracing off and reports the end-to-end metrics of
BENCHMARK.json as medians over the processes.  ``--trace 1`` alternates
untraced and traced processes of the same seed, requires byte-identical
canonical reports from both, and reports the per-layer metrics as
medians (counts must repeat exactly) plus the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The environment goes on the
line before it, and everything measured, per process, to
``.bench_out/`` in the checkout.  Exit status is 0 when a result is
printed and nonzero, with no result, when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5  # set-up-only processes per untraced run, for the setup_s median
HARD_LIMIT_S = 170.0  # every run ends well inside the 180 s allowed
# One BLAS thread; one hash seed for every process, so dict and set layouts
# (and their cost) do not vary from process to process.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}
# Per-layer metrics that are counts or ratios of counts, which must repeat exactly.
EXACT_SUFFIXES = ("_calls", "_pairs", "_samples", "_frac", "max_dense_bytes", "trace.spans")


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def spawn(workload: str, seed: int, mode: str, started: float, spans: str | None = None) -> dict:
    """Run one child process to completion and return its parsed result."""
    remaining = HARD_LIMIT_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("time limit reached before the run finished")
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--spawned-at", repr(spawned_at), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV}, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{mode} process exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{mode} process printed no result:\n{proc.stderr[-2000:]}") from exc
    out["elapsed_s"] = time.monotonic() - spawned_at
    return out


def _cases(children) -> tuple[int, int]:
    cases = [c for child in children for c in child["cases"]]
    return len(cases), sum(not c["ok"] for c in cases)


def _deterministic(children) -> bool:
    """Every process of one seed produced the same canonical report per case."""
    per_case = zip(*(child["cases"] for child in children))
    return all(len({c["sha256"] for c in group}) == 1 for group in per_case)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run the loop; return (result line, full record)."""
    started = time.monotonic()
    deadline = started + seconds

    def more(last: float) -> bool:
        return time.monotonic() + last <= deadline

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        probes = [spawn(workload, seed, "setup", started) for _ in range(SETUP_PROBES)]
        runs = []
        while True:
            runs.append(spawn(workload, seed, "run", started))
            if not more(runs[-1]["elapsed_s"]):
                break
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "setup_s": statistics.median(c["setup_s"] for c in probes + runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        attempted, failed = _cases(runs)
        correct = failed == 0 and _deterministic(runs)
        record.update(probes=probes, runs=runs, env=runs[0]["env"])
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        plain, traced = [], []
        while True:
            pair_start = time.monotonic()
            plain.append(spawn(workload, seed, "run", started))
            spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-{len(traced)}.jsonl")
            traced.append(spawn(workload, seed, "trace", started, spans))
            if not more(time.monotonic() - pair_start):
                break
        metrics = {}
        repeat = True
        for name in traced[0]["layers"]:
            values = [t["layers"][name] for t in traced]
            if name.endswith(EXACT_SUFFIXES):
                repeat &= len(set(values)) == 1
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        wall_traced = statistics.median(t["wall_s"] for t in traced)
        metrics["trace.wall_s"] = wall_traced
        metrics["trace.overhead_frac"] = wall_traced / statistics.median(p["wall_s"] for p in plain) - 1
        attempted, failed = _cases(plain + traced)
        correct = failed == 0 and repeat and _deterministic(plain + traced)
        record.update(plain=plain, traced=traced, env=traced[0]["env"], counts_repeat=repeat)
    record.update(metrics=metrics, attempted=attempted, failed=failed, correct=correct,
                  elapsed_s=time.monotonic() - started)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(ROOT, "src", "pru_lab", "__init__.py")):
            raise BenchError(f"no pru_lab sources under {ROOT}/src")
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"not measured, reported as 0: {missing}", file=sys.stderr)
    result["metrics"] = {
        m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)
    for metric, v in result["metrics"].items():
        print(f"{metric:40s} {v['value']:.6g} {v['unit']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
