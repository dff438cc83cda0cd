"""Command-line entry point.

Subcommands:
  verify    run the named-check suite over a grid of register sizes
  security  one end-to-end trace-distance experiment with its bound chain
  twirl     apply a single channel to a described state and dump a summary
  sweep     run the security experiment over an (n, t) grid

Exit status: 0 when every reported check passed, 1 otherwise (an error,
a failing check, or a verify run that measures nothing), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .checks import run_lemma_suite
from .errors import CapacityError, DomainError, PruLabError
from .harness import (
    STATE_FAMILIES,
    ExperimentConfig,
    ExperimentReport,
    build_state,
    run_security_experiment,
)
from .operators import SupportOperator, register_dim, trace_distance
from .schur_weyl import ratio_report
from .twirls import (clifford_twirl, default_clifford_method, haar_twirl_exact, haar_twirl_mc,
                     pf_twirl, pf_twirl_mc)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pru-lab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, state=True):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", type=str, default=None, help="write the report here instead of stdout")
        if state:
            sp.add_argument("--state", choices=STATE_FAMILIES, default="random_pure")
            sp.add_argument("--dim-e", type=int, default=1)

    v = sub.add_parser("verify", help="run the named-check suite")
    v.add_argument("--n", type=int, action="append", help="qubit count per register (repeatable; default 1 2 3)")
    v.add_argument("--t", type=int, action="append", help="parallel queries (repeatable; default 2 3)")
    v.add_argument("--samples", type=int, default=10000, help="Clifford Monte-Carlo sample count")
    v.add_argument("--samples-unitary", type=int, default=100000, help="Haar/PF Monte-Carlo sample count")
    v.add_argument("--keys", type=int, default=1024, help="keyed-ensemble average size")
    v.add_argument("--check", type=str, action="append", default=None, help="restrict to named checks")
    common(v, state=False)

    s = sub.add_parser("security", help="end-to-end trace-distance experiment")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--t", type=int, required=True)
    s.add_argument("--samples", type=int, default=10000)
    s.add_argument("--keys", type=int, default=0)
    s.add_argument("--clifford", choices=("auto", "exact", "monte_carlo", "none"), default="auto")
    common(s)

    w = sub.add_parser("twirl", help="apply one channel to a described state")
    w.add_argument("--channel", choices=("haar", "pf", "clifford"), required=True)
    w.add_argument("--method", choices=("exact", "monte_carlo"), default="exact")
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--t", type=int, required=True)
    w.add_argument("--samples", type=int, default=10000)
    w.add_argument("--dump-operator", action="store_true", help="include the dense output entries")
    common(w)

    g = sub.add_parser("sweep", help="security experiment over an (n, t) grid")
    g.add_argument("--n", type=int, action="append", required=True)
    g.add_argument("--t", type=int, action="append", required=True)
    g.add_argument("--samples", type=int, default=10000)
    g.add_argument("--keys", type=int, default=0)
    common(g)
    return p


def _emit(report: ExperimentReport, args) -> None:
    text = report.to_json() + "\n" if args.format == "json" else report.to_csv()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise PruLabError(f"cannot write the report to {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    ns = args.n or [1, 2, 3]
    ts = args.t or [2, 3]
    report = run_lemma_suite(
        ds=[register_dim(n) for n in ns],
        ts=ts,
        seed=args.seed,
        samples_clifford=args.samples,
        samples_unitary=args.samples_unitary,
        check_names=args.check,
        num_keys=args.keys,
    )
    _emit(report, args)
    return 0 if report.passed else 1


def _experiment_config(args, n: int, t: int) -> ExperimentConfig:
    """The security experiment of ``security`` and of a ``sweep`` cell."""
    method = getattr(args, "clifford", "auto")  # ``sweep`` has no --clifford
    return ExperimentConfig(
        n=n,
        t=t,
        dim_e=args.dim_e,
        state_family=args.state,
        clifford_method=default_clifford_method(n) if method == "auto" else method,
        clifford_samples=args.samples,
        num_keys=args.keys,
        seed=args.seed,
    )


def _cmd_security(args) -> int:
    report = run_security_experiment(_experiment_config(args, args.n, args.t))
    _emit(report, args)
    return 0 if report.passed else 1


def _cmd_twirl(args) -> int:
    d = register_dim(args.n)
    psi = build_state(args.state, args.n, args.t, args.dim_e, args.seed)
    if args.channel == "haar":
        out = (
            haar_twirl_exact(psi, d, args.t)
            if args.method == "exact"
            else haar_twirl_mc(psi, d, args.t, args.samples, args.seed)
        )
    elif args.channel == "pf":
        out = (
            pf_twirl(psi, d, args.t)
            if args.method == "exact"
            else pf_twirl_mc(psi, d, args.t, args.samples, args.seed)
        )
    else:
        out = clifford_twirl(psi, args.n, args.t, method=args.method, samples=args.samples, seed=args.seed)

    try:
        distance = trace_distance(out, haar_twirl_exact(psi, d, args.t))
    except CapacityError:  # past the exact Haar twirl's t cap there is no reference
        distance = None
    held = out.values if isinstance(out, SupportOperator) else out.entries  # an exact output's support
    quantities = {
        "trace": float(out.diagonal().sum().real),
        "purity": float(np.vdot(held, held).real),  # Tr[X^2] = sum |x_ij|^2, as X is Hermitian
        "distance_to_haar_twirl": distance,
        "block_deficits": [
            {"partition": list(r.partition.parts), "deficit": float(r.deficit)}
            for r in ratio_report(d, args.t)
        ],
        "meta": out.meta or {},
    }
    if args.dump_operator:
        quantities["operator"] = {
            "dim": out.dim,
            "registers": [d**args.t, args.dim_e],
            "entries": [[float(z.real), float(z.imag)] for z in out.entries.reshape(-1)],
        }
    report = ExperimentReport(
        kind="twirl",
        config={
            "channel": args.channel,
            "method": args.method,
            "n": args.n,
            "t": args.t,
            "dim_e": args.dim_e,
            "state": args.state,
            "samples": args.samples,
            "seed": args.seed,
        },
        quantities=quantities,
        checks=[],
        seed=args.seed,
    )
    _emit(report, args)
    return 0


def _cmd_sweep(args) -> int:
    ns, ts = list(dict.fromkeys(args.n)), list(dict.fromkeys(args.t))  # a repeated value runs once
    combined = ExperimentReport(
        kind="sweep",
        config={
            "ns": ns,
            "ts": ts,
            "state": args.state,
            "dim_e": args.dim_e,
            "samples": args.samples,
            "keys": args.keys,
            "seed": args.seed,
        },
        seed=args.seed,
    )
    for n in ns:
        for t in ts:
            cell = run_security_experiment(_experiment_config(args, n, t))
            combined.checks.extend(cell.checks)
            combined.quantities[f"n{n}_t{t}"] = cell.quantities
            combined.timings[f"n{n}_t{t}_ms"] = cell.timings["total_ms"]
    _emit(combined, args)
    return 0 if combined.passed else 1


def cli_main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise DomainError(f"the seed must be at least 0, got {args.seed}")
        if args.out is not None:  # checked before the run, without creating or truncating the file
            target = args.out if os.path.exists(args.out) else os.path.dirname(os.path.abspath(args.out))
            if os.path.isdir(args.out) or not os.access(target, os.W_OK):
                raise PruLabError(f"cannot write the report to {args.out}: not a writable file path")
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "security":
            return _cmd_security(args)
        if args.command == "twirl":
            return _cmd_twirl(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
    except PruLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
