"""Per-layer tracing from outside the program.

``Tracer`` replaces each traced public function of ``qregparam`` on every
``qregparam`` module attribute that binds it (so ``from .statevector import
apply`` is caught too), records one span per call and puts the originals back
on exit.  Spans stay in memory as ``[name, start, end, parent, selection]``;
a span's self time is its duration minus the durations of its direct
children.  Counters are computed from call arguments and results, never from
timing, so they repeat exactly for the same inputs.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Self time of these spans is time inside a pipeline that no traced layer
# function covers; it is reported as the unattributed remainder.
PIPELINE = "pipeline"


def _state_amps(counters, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    counters["statevector.apply.amps"] += 1 << state.num_qubits


def _peak_qubits(counters, args, kwargs, result):
    q = args[0].num_qubits
    counters["statevector.peak_qubits"] = max(counters["statevector.peak_qubits"], q)


def _ae_bits(counters, args, kwargs, result):
    n_bits = args[1] if len(args) > 1 else kwargs["n_bits"]
    counters["amplitude.ae_bits.sum"] += n_bits
    counters["amplitude.ae_bits.max"] = max(counters["amplitude.ae_bits.max"], n_bits)


def _dh_queries(counters, args, kwargs, result):
    counters["search.durr_hoyer_min.queries"] += result.queries_used


# (module, attribute, span name, counter hook); "Class.method" patches a class.
TARGETS = (
    ("statevector", "apply", "statevector.apply", _state_amps),
    ("statevector", "qpe_forward", "statevector.qpe", None),
    ("statevector", "qpe_inverse", "statevector.qpe", None),
    ("statevector", "phase_estimation", "statevector.qpe", None),
    ("statevector", "StateVector.__post_init__", "statevector.validate", _peak_qubits),
    ("statevector", "UnitaryOp.__post_init__", "statevector.validate", None),
    ("amplitude", "estimate_theta", "amplitude.estimate_theta", _ae_bits),
    ("hhl", "hhl_solution_state", "hhl.solution_state", None),
    ("hhl", "apply_A_state", "hhl.apply_A_state", None),
    ("hhl", "residual_state", "hhl.residual_state", None),
    ("linalg", "compute_svd", "linalg.compute_svd", None),
    ("linalg", "build_extended", "linalg.build_extended", None),
    ("linalg", "tikhonov_solve", "linalg.oracle", None),
    ("linalg", "gcv_value", "linalg.oracle", None),
    ("search", "classical_select", "linalg.oracle", None),
    ("search", "durr_hoyer_min", "search.durr_hoyer_min", _dh_queries),
    ("search", "principal_singular_values", "search.principal_singular_values", None),
    ("search", "lcurve_pipeline", PIPELINE, None),
    ("search", "gcv_pipeline", PIPELINE, None),
    ("mmio", "load_matrix", "mmio.load", None),
    ("mmio", "load_vector", "mmio.load", None),
    ("problems", "generate_problem", "problems.generate_problem", None),
    ("cli", "run", "cli.run", None),
)

# numpy eigensolvers whose calls from qregparam are counted (not timed)
EIGH = ("eigh", "eigvalsh")

LAYERS = ("statevector", "amplitude", "hhl", "linalg", "search", "mmio", "problems",
          "cli")
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS if name != PIPELINE))
# inclusive time (span plus everything it calls) of the composite stages
INCLUSIVE = ("amplitude.estimate_theta", "hhl.solution_state", "hhl.apply_A_state",
             "hhl.residual_state", "search.principal_singular_values")


class Tracer:
    """Spans and counters for the calls made while the tracer is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.selection: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.selection]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def _count_eigh(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("qregparam"):
                counters["linalg.eigh.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        import numpy.linalg

        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "qregparam" or name.startswith("qregparam.")]
        for module, attr, name, hook in TARGETS:
            home = sys.modules[f"qregparam.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, method, self._wrap(cls.__dict__[method], name, hook))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for attr in EIGH:
            self._patch(numpy.linalg, attr, self._count_eigh(getattr(numpy.linalg, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self, walls: dict[int, float]):
        """Per-layer metrics, time shares and attribution errors.

        Metrics cover every recorded span.  ``walls`` maps each selection id
        to its wall time measured around the ``cli.run`` call; shares are
        fractions of their sum (``total_s``).  The unattributed remainder is
        that sum minus the self times of all layer spans, so it holds the
        pipelines' own time and the time outside ``cli.run``.  A span whose
        children outlast it, or a selection whose self times do not add up to
        its root span, is an attribution error.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, sel in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, incl_s = Counter(), Counter(), Counter()
        layer_s, own_by_selection, root_by_selection = Counter(), Counter(), Counter()
        errors = []
        for idx, (name, start, end, parent, sel) in enumerate(spans):
            own = end - start - child[idx]
            if own < -1e-9:
                errors.append(f"span {idx} ({name}) has children longer than itself")
            calls[name] += 1
            self_s[name] += own
            if name in INCLUSIVE and not _has_ancestor(spans, idx, name):
                incl_s[name] += end - start
            if sel is None:
                continue
            own_by_selection[sel] += own
            if parent < 0:
                root_by_selection[sel] += end - start
            if name != PIPELINE:
                layer_s[name.split(".")[0]] += own
        for sel, root in root_by_selection.items():
            if abs(own_by_selection[sel] - root) > 1e-9 * max(1.0, len(spans)):
                errors.append(f"selection {sel}: self times {own_by_selection[sel]:.9f} s "
                              f"do not add up to its root span {root:.9f} s")

        m: dict[str, float] = {}
        for name in SPAN_NAMES:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = self_s[name]
        for name in INCLUSIVE:
            m[f"{name}.incl_s"] = incl_s[name]
        c = self.counters
        for name in ("statevector.apply.amps", "statevector.peak_qubits",
                     "amplitude.ae_bits.max", "amplitude.ae_bits.sum",
                     "linalg.eigh.calls", "search.durr_hoyer_min.queries"):
            m[name] = c[name]
        m["statevector.apply.amps_per_s"] = (c["statevector.apply.amps"]
                                             / max(self_s["statevector.apply"], 1e-12))
        total = sum(walls.values())
        m["unattributed.s"] = total - sum(layer_s.values())
        shares = {"total_s": total}
        shares.update((layer, layer_s[layer] / total) for layer in LAYERS)
        shares["unattributed"] = m["unattributed.s"] / total
        shares.update((f"{name} (inclusive)", incl_s[name] / total) for name in INCLUSIVE)
        return m, shares, errors


def _has_ancestor(spans, idx, name) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
