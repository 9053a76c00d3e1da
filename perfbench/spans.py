"""Per-layer tracing installed from outside the library.

``Tracer.install()`` replaces the public calls of each ``refinable``
layer with timing wrappers and ``restore()`` puts the originals back.
Every wrapped call is a span: its self time is its duration minus the
time covered by wrapped calls made inside it.  Hot leaf arithmetic
(``exactreal`` and ``polyq``) is only aggregated per name; every other
span is also kept as a record (id, parent id, item, name, start,
duration) and written out by ``write()`` when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from refinable import exactreal, polyq, powermod, qtrig, refinery, splinecore

POLYQ_FUNCTIONS = (
    "pnorm", "pdeg", "padd", "psub", "pscale", "pmul", "pdivmod", "pgcd",
    "pcompose_power", "ppow", "peval", "peval_fraction", "pderiv",
    "squarefree_part", "sturm_chain", "sturm_root_count", "isolate_real_roots",
)


def _divide_sizes(tracer, args, out):
    terms_in = len(args[0])
    tracer.counts["qtrig.divide.terms_in"] += terms_in
    if isinstance(out, qtrig.QTrigPoly):
        peak = max(terms_in, len(out))
    else:
        peak = terms_in
        tracer.counts["qtrig.divide.witnesses"] += 1
    tracer.counts["qtrig.divide.peak_terms"] = max(
        tracer.counts["qtrig.divide.peak_terms"], peak)


def _mul_size(tracer, args, out):
    tracer.counts["qtrig.mul.terms_out"] += len(out)


def _probe_count(tracer, args, out):
    tracer.counts["refinery.probes"] += len(out)


def _certified_depth(tracer, args, out):
    tracer.counts["powermod.certified_depth"] += out.guaranteed_depth


# (owner, attribute, span name, leaf, after-call hook)
_CLASS_TARGETS = (
    (exactreal.FieldElement, "__mul__", "exactreal.mul", True, None),
    (exactreal.FieldElement, "__rmul__", "exactreal.mul", True, None),
    (exactreal.FieldElement, "__truediv__", "exactreal.div", True, None),
    (exactreal.FieldElement, "__rtruediv__", "exactreal.div", True, None),
    (exactreal.FieldElement, "inverse", "exactreal.div", True, None),
    (exactreal.FieldElement, "sign", "exactreal.sign", True, None),
    (exactreal.FieldElement, "floor", "exactreal.floor", True, None),
    (qtrig.QTrigPoly, "__mul__", "qtrig.mul", False, _mul_size),
    (qtrig.QTrigPoly, "_divide_binomial_classes", "qtrig.divide", False, _divide_sizes),
    (qtrig.QTrigPoly, "eval_ball", "qtrig.eval_ball", False, None),
    (refinery.MvQTrigPoly, "divide_binomial", "refinery.mv_divide", False, None),
)

_FUNCTION_TARGETS = (
    (powermod, "erdos_construct", "powermod.construct", False, _certified_depth),
    (powermod, "erdos_verify", "powermod.verify", False, None),
    (splinecore, "cascade_solve", "splinecore.cascade", False, None),
    (splinecore, "fourier_product_f64", "splinecore.fourier", False, None),
    (refinery, "decide_univariate", "refinery.decide", False, None),
    (refinery, "mask_construct_detailed", "refinery.mask", False, None),
    (refinery, "condition_B", "refinery.structure", False, None),
    (refinery, "chain_structure", "refinery.structure", False, None),
    (refinery, "verify_mask_identity", "refinery.identity", False, None),
    (refinery, "multivariate_decide", "refinery.mv_decide", False, None),
    (refinery, "admissible_probes", "refinery.admissible_probes", False, _probe_count),
    (refinery, "decay_probe", "refinery.decay", False, None),
) + tuple((polyq, name, "polyq.isolate" if name == "isolate_real_roots" else "polyq." + name,
              True, None) for name in POLYQ_FUNCTIONS)

# Per-layer metrics in report order: name -> unit.  "<span>.calls" sums
# the calls of the spans named <span> or <span>.*, "<span>.self_s" their
# self time; the other names are counters kept by the hooks above.
PER_LAYER_UNITS = {
    "exactreal.mul.calls": "count",
    "exactreal.div.calls": "count",
    "exactreal.sign.calls": "count",
    "exactreal.floor.calls": "count",
    "exactreal.self_s": "s",
    "qtrig.mul.calls": "count",
    "qtrig.mul.terms_out": "count",
    "qtrig.divide.calls": "count",
    "qtrig.divide.terms_in": "count",
    "qtrig.divide.peak_terms": "count",
    "qtrig.divide.witnesses": "count",
    "qtrig.eval_ball.calls": "count",
    "qtrig.self_s": "s",
    "polyq.calls": "count",
    "polyq.isolate.calls": "count",
    "polyq.self_s": "s",
    "powermod.construct.self_s": "s",
    "powermod.verify.self_s": "s",
    "powermod.certified_depth": "count",
    "splinecore.cascade.self_s": "s",
    "splinecore.fourier.self_s": "s",
    "refinery.mask.self_s": "s",
    "refinery.structure.self_s": "s",
    "refinery.identity.self_s": "s",
    "refinery.decay.self_s": "s",
    "bench.check.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# The s-variate path, which only decide-2d takes: printed, but not in the
# result line, since BENCHMARK.json does not gate decide-2d.
EXTRA_UNITS = {
    "refinery.mv_decide.self_s": "s",
    "refinery.mv_divide.calls": "count",
    "refinery.probes": "count",
}


class Tracer:
    """Span collector; one per traced pass."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(int)
        self.records: list[tuple] = []
        self.item = None
        self.recording = True
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 1
        self._saved: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def _wrap(self, fn, name: str, leaf: bool, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else 0
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                st = tracer.stats[name]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if not leaf:
                    tracer.records.append((span_id, parent, tracer.item, name, t0, dt))
            if hook is not None:
                hook(tracer, args, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _OwnSpan(self, name)

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for cls, attr, name, leaf, hook in _CLASS_TARGETS:
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, name, leaf, hook))
        modules = [m for key, m in sys.modules.items()
                   if key == "refinable" or key.startswith("refinable.")]
        for owner, attr, name, leaf, hook in _FUNCTION_TARGETS:
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name, leaf, hook)
            # rebind every module-level alias (refinery imports from powermod)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results -----------------------------------------------------------

    def _sum(self, prefix: str, field: int) -> float:
        return sum(st[field] for name, st in self.stats.items()
                   if name == prefix or name.startswith(prefix + "."))

    def _value(self, name: str):
        if name.endswith(".calls"):
            return int(self._sum(name[:-len(".calls")], 0))
        if name.endswith(".self_s"):
            return self._sum(name[:-len(".self_s")], 2)
        return self.counts[name]

    def metrics(self, overhead_ratio: float) -> dict:
        return {name: {"value": overhead_ratio if name == "trace.overhead_ratio"
                       else self._value(name), "unit": unit}
                for name, unit in PER_LAYER_UNITS.items()}

    def extra_metrics(self) -> dict:
        return {name: {"value": self._value(name), "unit": unit}
                for name, unit in EXTRA_UNITS.items()}

    def write(self, path: str) -> None:
        """Span records as JSON lines, then one line of per-name totals."""
        with open(path, "w") as fh:
            for span_id, parent, item, name, t0, dt in self.records:
                fh.write(json.dumps({"id": span_id, "parent": parent, "item": item,
                                     "name": name, "start": t0, "end": t0 + dt}) + "\n")
            fh.write(json.dumps({"totals": {
                name: {"calls": st[0], "total_s": st[1], "self_s": st[2]}
                for name, st in sorted(self.stats.items())}}) + "\n")


class _OwnSpan:
    """A span around the benchmark's own work.  Library calls inside it
    are not recorded, so their time counts as this span's self time."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        self.was_recording = self.tracer.recording
        self.tracer.recording = False
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self.t0
        self.tracer.recording = self.was_recording
        st = self.tracer.stats[self.name]
        st[0] += 1
        st[1] += dt
        st[2] += dt
        return False
