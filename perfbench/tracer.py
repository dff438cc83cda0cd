"""Outside-in span recorder for pru-lab.

The tracer rebinds names that the lab's modules look up at call time, so
nothing under ``src/`` changes: a module global such as
``pru_lab.harness.clifford_twirl``, the method ``CliffordElement.to_dense``
and the check functions held in ``checks.PER_T_CHECKS`` and
``checks.PER_CELL_CHECKS``.  Each wrapper records one span (stem, start,
end, parent span, case id) in memory; ``Tracer.close`` puts every
original back.

Only calls into a module's public functions are wrapped, and as a rule
only in the modules that import them.  Four targets are wrapped in their
home module too, because the layer they time is only reached from there:
``ensemble_twirl`` and ``pru_unitary`` (once per exact Clifford twirl and
once per key) and ``build_state`` and ``gentle_normalize`` (once or twice
per security experiment).  High-frequency helpers inside a module, such as
``hermitian_pauli``, are left alone: wrapping that one cost about 17% of
the run.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

LAB_MODULES = (
    "symgroup",
    "operators",
    "clifford",
    "schur_weyl",
    "twirls",
    "pru",
    "harness",
    "checks",
    "cli",
)


def _seed_key(args, kwargs):
    seed = kwargs["seed"] if "seed" in kwargs else args[1]
    return tuple(int(x) for x in seed) if isinstance(seed, (list, tuple)) else int(seed)


def _n_key(args, kwargs):
    return int(kwargs["n"] if "n" in kwargs else (args[0] if args else 1))


def _nonzero_pairs(args, kwargs):
    """Input basis pairs (a, b) of the system factor with a nonzero block,
    the pairs the exact PF twirl visits."""
    state, d, t = args[:3]
    n = d**t
    if hasattr(state, "amplitudes"):
        rows = np.count_nonzero(np.any(state.amplitudes.reshape(n, -1) != 0, axis=1))
        return int(rows) ** 2
    matrix = np.asarray(state.entries if hasattr(state, "entries") else state)
    arr = matrix.reshape(n, matrix.shape[0] // n, n, matrix.shape[0] // n)
    return int(np.count_nonzero(np.any(arr != 0, axis=(1, 3))))


def _samples(args, kwargs):
    return int(kwargs["samples"] if "samples" in kwargs else args[3])


# (home module, attribute, span stem, wrap in home module too, observer)
# An observer maps the call's arguments to a value: a set-valued observer
# feeds a distinct-count, an int-valued one a sum.
TARGETS = (
    ("clifford", "sample_clifford", "clifford.sample", False, ("distinct", _seed_key)),
    ("clifford", "CliffordElement.to_dense", "clifford.to_dense", False, None),
    ("clifford", "enumerate_cliffords", "clifford.enumerate", False, ("distinct", _n_key)),
    ("twirls", "clifford_twirl", "twirls.clifford", False, None),
    ("twirls", "ensemble_twirl", "twirls.ensemble", True, None),
    ("twirls", "distinct_overlap_after_clifford", "twirls.overlap", False, None),
    ("twirls", "pf_twirl", "twirls.pf_exact", False, ("sum", _nonzero_pairs)),
    ("twirls", "pf_twirl_distinct_formula", "twirls.pf_formula", False, None),
    ("twirls", "haar_twirl_exact", "twirls.haar_exact", False, None),
    ("twirls", "haar_twirl_schur_weyl", "twirls.haar_block", False, None),
    ("twirls", "haar_twirl_mc", "twirls.mc", False, ("sum", _samples)),
    ("twirls", "pf_twirl_mc", "twirls.mc", False, ("sum", _samples)),
    ("schur_weyl", "schur_weyl_basis", "schur_weyl.basis", False, None),
    ("schur_weyl", "verify_decomposition", "schur_weyl.verify", False, None),
    ("schur_weyl", "rotate_to_basis", "schur_weyl.rotate", False, None),
    ("schur_weyl", "rotate_from_basis", "schur_weyl.rotate", False, None),
    ("schur_weyl", "ratio_report", "schur_weyl.ratio_report", False, None),
    ("symgroup", "young_orthogonal_rep", "symgroup.irrep", False, None),
    ("symgroup", "character", "symgroup.character", False, None),
    ("operators", "trace_distance", "operators.trace_distance", False, None),
    ("operators", "haar_unitaries", "operators.haar_unitaries", False, None),
    ("pru", "pru_unitary", "pru.unitary", True, None),
    ("pru", "pru_average_state", "pru.average", False, None),
    ("harness", "build_state", "harness.state", True, None),
    ("harness", "gentle_normalize", "harness.gentle", True, None),
    ("harness", "run_security_experiment", "harness.experiment", False, None),
    ("checks", "run_lemma_suite", "checks.suite", False, None),
)


def _dense_bytes(obj) -> int:
    for attr in ("entries", "amplitudes"):
        arr = getattr(obj, attr, None)
        if isinstance(arr, np.ndarray):
            return arr.nbytes
    return obj.nbytes if isinstance(obj, np.ndarray) else 0


class Tracer:
    """Records spans around calls into the lab's layers while installed.

    Use as a context manager.  Set ``case_id`` to tag the spans of one
    case, and wrap the entry point with ``wrap(cli_main, "cli.main")`` so
    each case has one root span.
    """

    def __init__(self):
        self.spans: list = []  # (stem, start, end, parent index, case id)
        self.distinct: dict = defaultdict(set)
        self.sums: dict = defaultdict(int)
        self.max_dense_bytes = 0
        self.case_id = -1
        self._stack: list[int] = []
        self._restore: list = []  # (setter, original)
        self.check_names: list[str] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, fn, stem: str, observer=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observer is not None:
                kind, key = observer
                if kind == "distinct":
                    self.distinct[stem].add(key(args, kwargs))
                else:
                    self.sums[stem] += key(args, kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (stem, start, end, parent, self.case_id)
            size = max([_dense_bytes(out)] + [_dense_bytes(a) for a in args])
            if size > self.max_dense_bytes:
                self.max_dense_bytes = size
            return out

        return traced

    # -- installation -------------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.close()
            raise
        return self

    def _install(self):
        modules = {name: importlib.import_module(f"pru_lab.{name}") for name in LAB_MODULES}
        for home, attr, stem, in_home, observer in TARGETS:
            if "." in attr:  # a method: rebind it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(modules[home], cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(original, stem, observer), original)
                continue
            original = getattr(modules[home], attr)
            wrapped = self.wrap(original, stem, observer)
            for name, mod in modules.items():
                if (name != home or in_home) and mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapped, original)
        checks = modules["checks"]
        for registry in (checks.PER_T_CHECKS, checks.PER_CELL_CHECKS):
            for name, fn in list(registry.items()):
                self.check_names.append(name)
                registry[name] = self.wrap(fn, f"checks.{name}")
                self._restore.append((functools.partial(registry.__setitem__, name), fn))

    def _set(self, obj, attr, value, original):
        setattr(obj, attr, value)
        self._restore.append((functools.partial(setattr, obj, attr), original))

    def close(self) -> None:
        while self._restore:
            setter, original = self._restore.pop()
            setter(original)

    def __exit__(self, *exc):
        self.close()
        return False

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_metrics(self) -> dict:
        """Per-layer counts and times, keyed by the benchmark's metric names."""
        spans = self.spans
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        for i, (stem, start, end, parent, _) in enumerate(spans):
            calls[stem] += 1
            p = parent
            while p >= 0 and spans[p][0] != stem:  # count nested same-stem spans once
                p = spans[p][3]
            if p < 0:
                total[stem] += end - start
        self_by_layer: dict = defaultdict(float)
        for (stem, *_), s in zip(spans, self.self_times()):
            self_by_layer[stem.split(".")[0]] += s

        def frac(stem):
            return len(self.distinct[stem]) / calls[stem] if calls[stem] else 0.0

        m = {
            "clifford.sample_calls": calls["clifford.sample"],
            "clifford.sample_s": total["clifford.sample"],
            "clifford.to_dense_calls": calls["clifford.to_dense"],
            "clifford.to_dense_s": total["clifford.to_dense"],
            "clifford.sample_unique_frac": frac("clifford.sample"),
            "clifford.enumerate_calls": calls["clifford.enumerate"],
            "clifford.enumerate_s": total["clifford.enumerate"],
            "clifford.enumerate_unique_frac": frac("clifford.enumerate"),
            "twirls.clifford_s": total["twirls.clifford"],
            "twirls.ensemble_s": total["twirls.ensemble"],
            "twirls.overlap_s": total["twirls.overlap"],
            "twirls.pf_exact_s": total["twirls.pf_exact"],
            "twirls.pf_exact_pairs": self.sums["twirls.pf_exact"],
            "twirls.pf_formula_s": total["twirls.pf_formula"],
            "twirls.haar_exact_s": total["twirls.haar_exact"],
            "twirls.haar_block_s": total["twirls.haar_block"],
            "twirls.mc_s": total["twirls.mc"],
            "twirls.mc_samples": self.sums["twirls.mc"],
            "schur_weyl.basis_s": total["schur_weyl.basis"],
            "schur_weyl.verify_s": total["schur_weyl.verify"],
            "schur_weyl.rotate_calls": calls["schur_weyl.rotate"],
            "schur_weyl.rotate_s": total["schur_weyl.rotate"],
            "schur_weyl.ratio_report_s": total["schur_weyl.ratio_report"],
            "symgroup.irrep_s": total["symgroup.irrep"],
            "symgroup.character_calls": calls["symgroup.character"],
            "operators.trace_distance_calls": calls["operators.trace_distance"],
            "operators.trace_distance_s": total["operators.trace_distance"],
            "operators.haar_unitaries_s": total["operators.haar_unitaries"],
            "operators.max_dense_bytes": self.max_dense_bytes,
            "pru.unitary_calls": calls["pru.unitary"],
            "pru.unitary_s": total["pru.unitary"],
            "pru.average_s": total["pru.average"],
            "harness.state_s": total["harness.state"],
            "harness.gentle_s": total["harness.gentle"],
            "harness.experiment_s": total["harness.experiment"],
        }
        for layer in LAB_MODULES:
            m[f"{layer}.self_s"] = self_by_layer[layer]
        for name in self.check_names:
            m[f"checks.{name}_s"] = total[f"checks.{name}"]
        m["trace.spans"] = len(spans)
        return m

    def span_records(self):
        for stem, start, end, parent, case_id in self.spans:
            yield {"name": stem, "start": start, "end": end, "parent": parent, "case": case_id}
