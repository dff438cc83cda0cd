"""One case process of the pru-lab benchmark.

    python3 perfbench/child.py --workload NAME --seed N --spawned-at T --mode setup|run|trace
                               [--spans PATH]

``run.py`` starts this script in a fresh interpreter with BLAS pinned to
one thread, passing the ``time.monotonic()`` reading taken just before the
spawn (CLOCK_MONOTONIC is system-wide on Linux).  The script imports the
lab from ``src/`` of the checkout, generates the workload's argument lists,
drives each through ``pru_lab.cli.cli_main`` in-process, checks every
report and prints one JSON object on stdout.

Modes: ``setup`` stops after the import and argument generation; ``run``
times the cases with tracing off; ``trace`` runs them under the span
recorder and adds per-layer metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run_case(entry, argv, check_report, strip_timing_fields) -> dict:
    """Drive one argument list through the CLI and check its report."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entry(argv)
    except (Exception, SystemExit) as exc:  # a case that raises counts as failed
        return {"ok": False, "problems": [f"raised {type(exc).__name__}: {exc}"], "sha256": None}
    if code != 0:
        return {"ok": False, "problems": [f"exit code {code}: {err.getvalue()[-500:]}"], "sha256": None}
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError as exc:
        return {"ok": False, "problems": [f"report is not JSON: {exc}"], "sha256": None}
    try:
        problems = check_report(argv, report)
    except (KeyError, TypeError, ValueError) as exc:
        problems = [f"report lacks an expected field: {type(exc).__name__}: {exc}"]
    canonical = json.dumps(strip_timing_fields(report), sort_keys=True, indent=2)
    return {
        "ok": not problems,
        "problems": problems,
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--spans", default=None, help="write the spans here as JSON lines")
    args = p.parse_args(argv)

    sys.path[:0] = [SRC, HERE]
    import pru_lab
    from pru_lab.cli import cli_main
    from pru_lab.harness import strip_timing_fields

    import workloads

    if not os.path.abspath(pru_lab.__file__).startswith(SRC + os.sep):
        print(f"pru_lab imported from {pru_lab.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    argvs = workloads.cases(args.workload, args.seed)
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    entry = cli_main
    with contextlib.ExitStack() as stack:
        if args.mode == "trace":
            from tracer import Tracer

            tracer = stack.enter_context(Tracer())
            entry = tracer.wrap(cli_main, "cli.main")
        cases = []
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for i, case_argv in enumerate(argvs):
            if tracer is not None:
                tracer.case_id = i
            cases.append(run_case(entry, case_argv, workloads.report_problems, strip_timing_fields))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cases=cases,
        env=environment(),
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            with open(args.spans, "w") as fh:
                for record in tracer.span_records():
                    fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
