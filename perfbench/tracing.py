"""Per-layer tracing from outside the library.

`Tracer.install()` replaces logzono's public functions with timing wrappers,
in every logzono module that holds them, so calls made inside the library
are caught too. Each wrapper adds to its function's call count, its total
time and its self time (total minus the time of wrapped calls nested in it).
Calls the benchmark makes directly, one level under an operation, are also
kept as spans (operation id, parent, name, start, end) and written out at
the end; the hot calls nested deeper are only aggregated, because they run
hundreds of thousands of times per operation.

The DSL evaluators recurse through their own module-level name; that name is
left alone so a call counts once per expression, not once per node.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import ExitStack, contextmanager

# Layers are the modules of src/logzono, minus cli (see README.md).
LAYERS = ("gf2", "explicit", "zonotope", "matrix_zonotope", "dsl", "reach", "casestudies")

# Plain module functions: (layer, function name).
FUNCTIONS = (
    ("gf2", "gf2_solve"), ("gf2", "from_columns"), ("gf2", "stp"),
    ("zonotope", "mink_and"), ("zonotope", "mink_or"), ("zonotope", "mink_nand"),
    ("zonotope", "mink_nor"), ("zonotope", "mink_xor"), ("zonotope", "mink_xnor"),
    ("zonotope", "mink_not"), ("zonotope", "contains"), ("zonotope", "reduce"),
    ("zonotope", "evaluate"),
    ("matrix_zonotope", "mink_stp"), ("matrix_zonotope", "evaluate_matrix"),
    ("dsl", "parse_system"), ("dsl", "eval_point"), ("dsl", "eval_zonotope"),
    ("reach", "check_containment"),
    ("casestudies", "key_search"), ("casestudies", "lfsr_keystream"),
    ("casestudies", "encrypt"),
)
RECURSIVE = {"eval_point", "eval_zonotope"}
BITVEC_OPS = ("__xor__", "__and__", "__or__", "__invert__")

# Every timed name: the functions above, BitVec's operators as one entry,
# ExplicitSet.from_words, and reach() split by backend.
TIMED = tuple(f"{layer}.{fn}" for layer, fn in FUNCTIONS) + (
    "gf2.bitvec_ops", "explicit.from_words", "reach.reach_zonotope", "reach.reach_explicit")

COUNTERS = {
    "zonotope.mink_and.gens_out": "count",
    "zonotope.reduce.kept_ratio": "ratio",
    "zonotope.evaluate.points_out": "count",
    "reach.check_containment.points_checked": "count",
    "reach.explicit.fixed_point_ratio": "ratio",
    "reach.steps": "count",
    "explicit.points_built": "count",
    "casestudies.key_search.combs_pruned_ratio": "ratio",
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in sorted(TIMED):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    units.update(COUNTERS)
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "ratio"
    units["trace.op_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _modules():
    return [m for name, m in sys.modules.items()
            if name == "logzono" or name.startswith("logzono.")]


@contextmanager
def patched(module_name: str, attr: str, replacement):
    """Swap `logzono.<module_name>.<attr>` in every logzono module holding it.

    Functions in RECURSIVE keep their own module's name unwrapped.
    """
    original = getattr(sys.modules[f"logzono.{module_name}"], attr)
    undo = []
    for m in _modules():
        if m.__name__ == f"logzono.{module_name}" and attr in RECURSIVE:
            continue
        for name, value in list(vars(m).items()):
            if value is original:
                undo.append((m, name))
                setattr(m, name, replacement)
    try:
        yield original
    finally:
        for m, name in undo:
            setattr(m, name, original)


@contextmanager
def _class_attr(cls, name: str, value):
    old = cls.__dict__[name]
    setattr(cls, name, value)
    try:
        yield
    finally:
        setattr(cls, name, old)


class Tracer:
    """Counts, self and total times per wrapped function; spans per operation."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in TIMED}   # calls, self, total
        self.counts = {"gens_out": 0, "reduce_in": 0, "reduce_kept": 0,
                       "points_out": 0, "points_checked": 0, "explicit_steps": 0,
                       "explicit_skipped": 0, "steps": 0, "points_built": 0}
        self.stack = []            # one [child time] cell per open call
        self.spans = []
        self.op_span = None

    # -- operations

    def begin_op(self, op_id: int):
        self.op_span = {"id": len(self.spans), "op": op_id, "parent": None,
                        "name": "operation", "start": time.perf_counter()}
        self.spans.append(self.op_span)
        self.stack.append([0.0])

    def end_op(self):
        self.op_span["end"] = time.perf_counter()
        self.stack.pop()

    # -- wrappers

    def _timed(self, fn, name_of, after=None):
        """Wrap fn; name_of(args, kwargs) picks the entry it is counted under."""
        stack, spans, stats, clock = self.stack, self.spans, self.stats, time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:              # outside an operation: input making, checks
                return fn(*args, **kwargs)
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                name = name_of(args, kwargs)
                stat = stats[name]
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt - cell[0]
                stat[2] += dt
                stack[-1][0] += dt
                if len(stack) == 1:
                    op = self.op_span
                    spans.append({"id": len(spans), "op": op["op"], "parent": op["id"],
                                  "name": name, "start": t0, "end": t1})
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _after(self, name):
        c = self.counts

        def mink_and(result, args):
            c["gens_out"] += result.gamma

        def reduce(result, args):
            c["reduce_in"] += args[0].gamma
            c["reduce_kept"] += result.gamma

        def evaluate(result, args):
            c["points_out"] += len(result)

        def check_containment(result, args):
            c["points_checked"] += sum(len(s.joint) for s in args[1].steps)

        def from_words(result, args):
            c["points_built"] += len(result)

        return {"mink_and": mink_and, "reduce": reduce, "evaluate": evaluate,
                "check_containment": check_containment,
                "from_words": from_words}.get(name)

    def _after_reach(self, result, args):
        c = self.counts
        c["steps"] += len(result.steps)
        if result.backend == "explicit":
            # fixed-point steps are recorded with time_s == 0.0
            c["explicit_steps"] += result.horizon
            c["explicit_skipped"] += sum(1 for s in result.steps[1:] if s.time_s == 0.0)

    @contextmanager
    def install(self):
        """Wrap every traced function for the duration of the block."""
        import logzono as lz
        with ExitStack() as stack:
            for layer, fn_name in FUNCTIONS:
                fn = getattr(sys.modules[f"logzono.{layer}"], fn_name)
                name = f"{layer}.{fn_name}"
                wrapper = self._timed(fn, lambda a, k, n=name: n, self._after(fn_name))
                stack.enter_context(patched(layer, fn_name, wrapper))

            def reach_name(args, kwargs):
                backend = args[2] if len(args) > 2 else kwargs.get("backend", "zonotope")
                return f"reach.reach_{backend}"

            reach_fn = sys.modules["logzono.reach"].reach
            stack.enter_context(patched("reach", "reach",
                                        self._timed(reach_fn, reach_name, self._after_reach)))

            for op in BITVEC_OPS:
                wrapper = self._timed(lz.BitVec.__dict__[op], lambda a, k: "gf2.bitvec_ops")
                stack.enter_context(_class_attr(lz.BitVec, op, wrapper))

            raw = lz.ExplicitSet.__dict__["from_words"].__func__
            wrapper = self._timed(raw, lambda a, k: "explicit.from_words",
                                  self._after("from_words"))
            stack.enter_context(_class_attr(lz.ExplicitSet, "from_words", classmethod(wrapper)))
            yield self

    # -- report

    def metrics(self, op_s: float, combs: int, pruned: int) -> dict:
        """Per-layer metrics (without trace.overhead_ratio)."""
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name in sorted(TIMED):
            calls, self_s, total_s = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
            layer_self[name.split(".")[0]] += self_s
        c = self.counts
        out["zonotope.mink_and.gens_out"] = c["gens_out"]
        out["zonotope.reduce.kept_ratio"] = _ratio(c["reduce_kept"], c["reduce_in"])
        out["zonotope.evaluate.points_out"] = c["points_out"]
        out["reach.check_containment.points_checked"] = c["points_checked"]
        out["reach.explicit.fixed_point_ratio"] = _ratio(c["explicit_skipped"],
                                                         c["explicit_steps"])
        out["reach.steps"] = c["steps"]
        out["explicit.points_built"] = c["points_built"]
        out["casestudies.key_search.combs_pruned_ratio"] = _ratio(pruned, combs)
        for layer in LAYERS:
            out[f"{layer}.self_share"] = _ratio(layer_self[layer], op_s)
        out["trace.op_s"] = op_s
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den) -> float:
    """num / den, or 0.0 when nothing was counted (den is reported beside it)."""
    return num / den if den else 0.0

