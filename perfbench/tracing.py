"""Spans and counters for the traced run, recorded from outside the library.

``install`` rebinds every public ``factorcomm`` function, in every
``factorcomm`` module namespace that holds it, to a wrapper that records a
span (name, start, end, parent, op id).  The property functions in the
suite's tables are wrapped the same way.  The ``numpy.linalg`` and
``scipy.linalg`` decompositions are wrapped to count calls made while a
library span is open.  Spans stay in memory until the run writes them out.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

DECOMPOSITIONS = ("eigvals", "eigvalsh", "eigh", "svd", "solve", "det", "qr")
SUITE_PROPERTIES = (
    "adjoint-involution",
    "product-spectrum-swap",
    "polar-invariants",
    "hermitian-eig-reconstruction",
    "svd-reconstruction",
    "factor-scale-invariance",
    "factor-swap-inverse",
    "unique-spectral-checks",
    "nonunimodular-quasinilpotent",
    "psd-anticommutant-trivial",
    "commutant-relation",
    "measurement-forward",
    "gudder-nagy-random",
    "gudder-nagy-structured",
    "intertwiner-construction",
    "intertwiner-positive-case",
    "realization-declared-factor",
    "clock-shift-structure",
    "uq-relations",
    "q-bracket-symmetry",
    "jordan-uq-identification",
    "exact-projection-idempotent",
    "resolvent-identity",
    "resolvent-norm-equality",
    "transported-bound",
    "stone-oracle",
    "stone-first-order",
    "measurement-counterexample",
)
# Spans of these functions are named per matrix size, e.g. ".n64".
SIZE_KEYED = ("resolvent.stone_projection",)
MB = float(1 << 20)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("linalg.eigenvalues.calls", "count", "lower"),
    ("linalg.eigenvalues.busy_ms", "ms", "lower"),
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.svd.busy_ms", "ms", "lower"),
    ("linalg.classify_structure.calls", "count", "lower"),
    ("linalg.classify_structure.self_ms", "ms", "lower"),
    ("linalg.decompositions_per_op", "calls/op", "lower"),
    ("linalg.polar.busy_ms", "ms", "lower"),
    ("linalg.matrix_from_json.busy_ms", "ms", "lower"),
    ("linalg.matrix_to_json.busy_ms", "ms", "lower"),
    ("commutation.classify_pair.self_ms", "ms", "lower"),
    ("commutation.detect_factor.busy_ms", "ms", "lower"),
    ("commutation.trace_det_constraints.busy_ms", "ms", "lower"),
    ("commutation.spectrum_match.busy_ms", "ms", "lower"),
    ("commutation.constraints_per_op", "count/op", "lower"),
    ("intertwiner.construct_intertwiner.busy_ms", "ms", "lower"),
    ("intertwiner.check_norm_condition.busy_ms", "ms", "lower"),
    ("intertwiner.gudder_nagy_check.busy_ms", "ms", "lower"),
    ("resolvent.stone_projection.n16.busy_ms", "ms", "lower"),
    ("resolvent.stone_projection.n64.busy_ms", "ms", "lower"),
    ("resolvent.exact_projection.busy_ms", "ms", "lower"),
    ("resolvent.systems_solved", "count", "lower"),
    ("resolvent.max_solve_batch_mb", "MB", "lower"),
    ("realizations.builtin_pairs.calls", "count", "lower"),
    ("realizations.builtin_pairs.busy_ms", "ms", "lower"),
    ("sampling.busy_ms", "ms", "lower"),
    *[(f"suite.property.{name}.busy_ms", "ms", "lower") for name in SUITE_PROPERTIES],
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_factorcomm_ms", "ms", "lower"),
    ("cli.import.numpy_ms", "ms", "lower"),
    ("cli.import.scipy_linalg_ms", "ms", "lower"),
    ("cli.import.scipy_optimize_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.ops", "count", "higher"),
    ("oracle.failed_frac", "ratio", "lower"),
]


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.max_solve_bytes = 0

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        size_keyed = name in SIZE_KEYED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"{name}.n{np.shape(args[0])[0]}" if size_keyed else name
            record = [label, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if name == "commutation.classify_pair":
                self.counts["commutation.constraints"] += len(out.constraints)
            return out

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.stack:
                self.counts[f"decomposition.{name}"] += 1
                if name == "solve" and any(self.spans[i][0].startswith("resolvent.") for i in self.stack):
                    a = np.asarray(args[0])
                    self.counts["resolvent.systems"] += int(np.prod(a.shape[:-2], dtype=np.int64))
                    self.max_solve_bytes = max(self.max_solve_bytes, a.nbytes + np.asarray(out).nbytes)
            return out

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _traced_functions():
    """(span name, function) for the public API, the samplers and cli.main."""
    import factorcomm
    from factorcomm import cli, sampling

    found = {}
    for name, obj in vars(factorcomm).items():
        if inspect.isfunction(obj) and obj.__module__.startswith("factorcomm."):
            found[obj] = f"{obj.__module__.split('.')[1]}.{name}"
    for name, obj in vars(sampling).items():
        if inspect.isfunction(obj) and obj.__module__ == sampling.__name__ and name != "splitmix64":
            found[obj] = f"sampling.{name}"
    found[cli.main] = "cli.main"
    return found


def install(tracer):
    """Wrap the library for ``tracer``; returns a function that undoes it."""
    import scipy.linalg
    from factorcomm import suite

    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    wrappers = {fn: tracer.span(name, fn) for fn, name in _traced_functions().items()}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "factorcomm" or mod_name.startswith("factorcomm."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    rebind(module, attr, wrappers[value])
    for table in (suite.RANDOMIZED_PROPERTIES, suite.FIXED_PROPERTIES):
        for i, (name, fn) in enumerate(table):
            table[i] = (name, tracer.span(f"suite.property.{name}", fn))
        undo.append((table, None, None))
    for name in DECOMPOSITIONS:
        rebind(np.linalg, name, tracer.counter(name, getattr(np.linalg, name)))
    rebind(scipy.linalg, "schur", tracer.counter("schur", scipy.linalg.schur))

    def restore():
        for owner, attr, old in reversed(undo):
            if attr is None:
                owner[:] = [(name, getattr(fn, "__wrapped__", fn)) for name, fn in owner]
            else:
                setattr(owner, attr, old)

    return restore


# ---------------------------------------------------------------------------
# arithmetic on the recorded spans
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, record in enumerate(spans):
        if record[3] >= 0:
            children[record[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def busy_ms(spans, match, candidates=None) -> float:
    """Total time in spans whose name matches, in ms, leaving out spans
    nested in another match so that no interval is counted twice.
    ``candidates`` optionally limits the search to those span indices."""
    total = 0.0
    for i in range(len(spans)) if candidates is None else candidates:
        if not match(spans[i][0]):
            continue
        parent = spans[i][3]
        while parent >= 0 and not match(spans[parent][0]):
            parent = spans[parent][3]
        if parent < 0:
            total += spans[i][2] - spans[i][1]
    return 1e3 * total


def layer_metrics(tracer, ops, extra) -> dict:
    """Every PER_LAYER metric from a traced pass of ``ops`` ops.

    ``extra`` supplies the values measured outside the spans (process
    start-up, overhead, oracle and constraint counts).
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, record in enumerate(spans):
        by_name[record[0]].append(i)

    def busy(*targets):
        return busy_ms(spans, lambda name: name in targets, [i for t in targets for i in by_name[t]])

    def self_ms(target):
        return 1e3 * sum(selfs[i] for i in by_name[target])

    calls = Counter({name: len(indices) for name, indices in by_name.items()})
    sampling = [i for name, indices in by_name.items() if name.startswith("sampling.") for i in indices]
    decompositions = sum(v for k, v in tracer.counts.items() if k.startswith("decomposition."))
    values = {
        "linalg.eigenvalues.calls": calls["linalg.eigenvalues"],
        "linalg.eigenvalues.busy_ms": busy("linalg.eigenvalues"),
        "linalg.svd.calls": calls["linalg.svd"],
        "linalg.svd.busy_ms": busy("linalg.svd"),
        "linalg.classify_structure.calls": calls["linalg.classify_structure"],
        "linalg.classify_structure.self_ms": self_ms("linalg.classify_structure"),
        "linalg.decompositions_per_op": decompositions / max(ops, 1),
        "linalg.polar.busy_ms": busy("linalg.polar"),
        "linalg.matrix_from_json.busy_ms": busy("linalg.matrix_from_json"),
        "linalg.matrix_to_json.busy_ms": busy("linalg.matrix_to_json"),
        "commutation.constraints_per_op": tracer.counts["commutation.constraints"]
        / max(calls["commutation.classify_pair"], 1),
        "commutation.classify_pair.self_ms": self_ms("commutation.classify_pair"),
        "commutation.detect_factor.busy_ms": busy("commutation.detect_factor"),
        "commutation.trace_det_constraints.busy_ms": busy("commutation.trace_det_constraints"),
        "commutation.spectrum_match.busy_ms": busy(
            "commutation.spectrum_swap_check", "commutation.spectrum_rotation_check"
        ),
        "intertwiner.construct_intertwiner.busy_ms": busy("intertwiner.construct_intertwiner"),
        "intertwiner.check_norm_condition.busy_ms": busy("intertwiner.check_norm_condition"),
        "intertwiner.gudder_nagy_check.busy_ms": busy("intertwiner.gudder_nagy_check"),
        "resolvent.stone_projection.n16.busy_ms": busy("resolvent.stone_projection.n16"),
        "resolvent.stone_projection.n64.busy_ms": busy("resolvent.stone_projection.n64"),
        "resolvent.exact_projection.busy_ms": busy("resolvent.exact_projection"),
        "resolvent.systems_solved": tracer.counts["resolvent.systems"],
        "resolvent.max_solve_batch_mb": tracer.max_solve_bytes / MB,
        "realizations.builtin_pairs.calls": calls["realizations.builtin_pairs"],
        "realizations.builtin_pairs.busy_ms": busy("realizations.builtin_pairs"),
        "sampling.busy_ms": busy_ms(spans, lambda name: name.startswith("sampling."), sampling),
        "cli.main.self_ms": self_ms("cli.main"),
    }
    for name in SUITE_PROPERTIES:
        values[f"suite.property.{name}.busy_ms"] = busy(f"suite.property.{name}")
    values.update(extra)
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in PER_LAYER}
