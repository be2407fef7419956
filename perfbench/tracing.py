"""Per-layer tracing for the benchmark's traced run, and the package's caches.

Tracer.install wraps each traced function at every module binding of that
function object (and the traced methods on their classes), so calls made
inside the package are seen as well as the benchmark's own.  A span records
its name, start, end, parent span and operation id, on the same clock as
the runner's (process CPU time); self time is the span's duration minus the
time its child spans cover.  Aggregates are kept for
every span; the span records themselves stay in memory up to SPAN_CAP and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

from cmcurve import adele, approx, cli, galois, matrices, numth, qforms, serialize, shimura, tori

# (layer name, owner, attribute): owner is a module (function bound at every
# module that imports it) or a class (method)
TRACED = [
    ("cli.main", cli, "main"),
    ("serialize.point_from_json", serialize, "point_from_json"),
    ("serialize.point_to_json", serialize, "point_to_json"),
    ("serialize.shadow_from_json", serialize, "shadow_from_json"),
    ("matrices.Mat2.mul", matrices.Mat2, "__mul__"),
    ("matrices.Mat2.inv", matrices.Mat2, "inv"),
    ("matrices.Mat2.mod", matrices.Mat2, "mod"),
    ("matrices.ModMat.mul", matrices.ModMat, "__mul__"),
    ("matrices.ModMat.inv", matrices.ModMat, "inv"),
    ("matrices.sl2_lift", matrices, "sl2_lift"),
    ("qforms.form_of", qforms, "form_of"),
    ("qforms.reduce_form", qforms, "reduce_form"),
    ("qforms.automorphs", qforms, "automorphs"),
    ("adele.mul", adele, "mul"),
    ("adele.unit_rightmul", adele, "unit_rightmul"),
    ("adele.reduce_level", adele, "reduce_level"),
    ("adele.AdelicMatrix.rational_primes", adele.AdelicMatrix, "rational_primes"),
    ("adele.shape_test", adele, "shape_test"),
    ("shimura.point_eq_witness", shimura, "point_eq_witness"),
    ("shimura.rigid_witnesses", shimura, "rigid_witnesses"),
    ("shimura.is_fixed", shimura, "is_fixed"),
    ("galois.shadow_act", galois, "shadow_act"),
    ("galois.surjective_common_det", galois, "surjective_common_det"),
    ("galois.norm_residue_witness", galois, "norm_residue_witness"),
    ("approx.pair_witnesses", approx, "pair_witnesses"),
    ("approx.relation_witness", approx, "relation_witness"),
    ("approx.lift_automorphism", approx, "lift_automorphism"),
    ("numth.sqrt_mod", numth, "sqrt_mod"),
    ("numth.crt", numth, "crt"),
    ("tori.span_subgroup", tori, "span_subgroup"),
    ("tori.goursat", tori, "goursat"),
    ("tori.hnf_columns", tori, "hnf_columns"),
    ("tori.stable_saturation", tori, "stable_saturation"),
]
# called millions of times by span_subgroup: counted, not timed
COUNTED = [("tori.FiniteAbelianGroup.add", tori.FiniteAbelianGroup, "add")]
# jsonschema.validate as the CLI calls it, through its module attribute
SCHEMA_VALIDATE = "cli.schema_validate"
OBSTRUCTIONS = ("PrecisionObstruction", "LevelObstruction", "NormObstruction", "RViolation")
SPAN_CAP = 200_000
# layers whose cost is also reported per level N (the cost-against-N table)
LEVEL_TABLE = (
    "approx.pair_witnesses", "approx.relation_witness", "approx.lift_automorphism",
    "adele.shape_test", "galois.surjective_common_det", "galois.norm_residue_witness",
    "numth.sqrt_mod", "numth.crt",
)


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cmcurve" or name.startswith("cmcurve."))]


class Caches:
    """Every functools cache bound at module level in the package, found by
    introspection.  reset() clears them and keeps running totals, since
    cache_clear() also zeroes cache_info()."""

    def __init__(self):
        found = {}
        for mod in package_modules():
            for attr, obj in vars(mod).items():
                if callable(getattr(obj, "cache_info", None)) and callable(getattr(obj, "cache_clear", None)):
                    owner = getattr(obj, "__module__", mod.__name__).rsplit(".", 1)[-1]
                    found.setdefault(id(obj), (f"{owner}.{obj.__name__}", obj))
        self.caches = sorted(found.values())
        self.totals = {name: [0, 0, 0] for name, _ in self.caches}  # hits, misses, largest size
        self.base = {name: (0, 0) for name, _ in self.caches}

    def _fold(self):
        for name, fn in self.caches:
            info = fn.cache_info()
            t = self.totals[name]
            t[0] += info.hits
            t[1] += info.misses
            t[2] = max(t[2], info.currsize)

    def reset(self):
        self._fold()
        for _, fn in self.caches:
            fn.cache_clear()

    def mark(self):
        """Count hits and misses from here on (after an untimed warm-up)."""
        self.base = {name: (h, m) for name, (h, m, _) in self.stats().items()}

    def stats(self):
        """{name: (hits, misses, largest size)} since mark(), including the
        live state."""
        out = {}
        for name, fn in self.caches:
            info = fn.cache_info()
            h, m, size = self.totals[name]
            h0, m0 = self.base[name]
            out[name] = (h + info.hits - h0, m + info.misses - m0, max(size, info.currsize))
        return out


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.by_level = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self.stack = []
        self.next_id = 1
        self.op_id = 0
        self.level = None
        self.shape_attempts = 0
        self.shape_accepts = 0
        self._undo = []

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        tracer = self
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else 0
            frame = [tracer.next_id, 0.0]
            tracer.next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_exception(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                for agg in (tracer.stats[name], tracer.by_level[(name, tracer.level)]):
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[1]
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[0], parent, name, start, end, tracer.op_id))
                else:
                    tracer.dropped += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _note_exception(self, exc):
        if not getattr(exc, "_perfbench_counted", False):
            try:
                exc._perfbench_counted = True
            except AttributeError:
                return
            self.counts["raised." + type(exc).__name__] += 1

    def _shape_result(self, result):
        self.shape_attempts += 1
        self.shape_accepts += bool(result[0])

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        for name, owner, attr in TRACED + COUNTED:
            orig = getattr(owner, attr)
            if (name, owner, attr) in COUNTED:
                new = self._counter(name, orig)
            else:
                hook = self._shape_result if name == "adele.shape_test" else None
                new = self._span(name, orig, hook)
            if isinstance(owner, type):
                self._replace(owner, attr, new)
                continue
            for mod in package_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, new)
        import jsonschema

        self._replace(jsonschema, "validate", self._span(SCHEMA_VALIDATE, jsonschema.validate))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------------------

    def metrics(self, wall, ops):
        """Per-layer metrics: for every traced layer, calls per operation and
        self time as a share of the traced busy time; counts per operation;
        the shape-test accept ratio."""
        out = {}
        for name in [t[0] for t in TRACED] + [SCHEMA_VALIDATE]:
            calls, _, self_s = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls_per_op"] = calls / ops
            out[f"{name}.self_share"] = self_s / wall
        for name, _, _ in COUNTED:
            out[f"{name}.calls_per_op"] = self.counts.get(name, 0) / ops
        out["adele.shape_test.accept_ratio"] = (
            self.shape_accepts / self.shape_attempts if self.shape_attempts else 0.0
        )
        for kind in OBSTRUCTIONS:
            out[f"raised.{kind}.per_op"] = self.counts.get("raised." + kind, 0) / ops
        return out

    def table(self):
        """(name, level, calls, total ms, self ms) rows, busiest first."""
        rows = [(name, None, c, t * 1e3, s * 1e3) for name, (c, t, s) in self.stats.items()]
        rows += [(name, None, c, None, None) for name, c in self.counts.items()]
        rows.sort(key=lambda r: -(r[4] or 0))
        return rows

    def level_rows(self, names):
        return sorted(
            (name, level, c, t * 1e3, s * 1e3)
            for (name, level), (c, t, s) in self.by_level.items()
            if name in names and level is not None
        )

    def write_spans(self, path):
        """One JSON object per span, gzip-compressed; times in CPU seconds from
        the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": round(start - t0, 9), "end": round(end - t0, 9),
                                     "op": op}) + "\n")
        return len(self.spans)


def cache_metrics(caches: Caches, ops):
    out = {}
    for name, (hits, misses, size) in caches.stats().items():
        out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out[f"{name}.misses_per_op"] = misses / ops
        out[f"{name}.currsize"] = size
    return out

