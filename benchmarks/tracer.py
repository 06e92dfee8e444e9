"""Per-layer tracing of the engine from outside its source.

``install`` replaces the public functions of the ``poly``, ``algebroid``,
``doubled``, ``axioms`` and ``cli`` modules with timing wrappers, in every
module namespace that imported them, so calls between modules are traced
too.  Nothing under ``src/`` is edited.

Each wrapper opens a span on a shared stack.  A span's self time is its
duration minus the durations of the spans it opened directly.  Spans are
aggregated on the fly into one ``Stat`` per group (calls, inclusive time,
self time) instead of being stored: a corpus pass opens about a million
of them.  Inclusive time is added only at the outermost active span of a
group, so recursion is not counted twice.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Public functions wrapped per layer, and the group each is counted under.
_POLY_METHODS = {
    "__mul__": "poly.mul",
    "__rmul__": "poly.mul",
    "__add__": "poly.add",
    "__sub__": "poly.add",
    "partial": "poly.partial",
    "subs_params": "poly.subs",
    "subs_coords": "poly.subs",
}
_FUNCTIONS = {
    "poly": {"poly_sum": "poly.sum"},
    "algebroid": {
        "algebroid_bracket": "algebroid.op",
        "d_differential": "algebroid.op",
        "interior_product": "algebroid.op",
        "lie_derivative": "algebroid.op",
        "schouten": "algebroid.op",
        "validate_lie_algebroid": "algebroid.validate",
    },
    "doubled": {
        "c_bracket": "doubled.c_bracket",
        "twisted_c_bracket": "doubled.twisted_c_bracket",
        "pairing": "doubled.pairing",
        "D_op": "doubled.D_op",
    },
    "cli": {
        "load_scenario": "cli.parse",
        "parse_scenario": "cli.parse",
        "run": "cli.run",
        "emit_report": "cli.emit",
    },
}
# Check functions of ``axioms``: each call is counted under the check id it
# decides.  V1 and V2 are aliases of C3 and C5 and are counted as those.
_AXIOM_ALIASES = {"V1": "C3", "V2": "C5"}
_STRONG_IDS = {"functions": "strong-fn", "vectors": "strong-vec", "forms": "strong-form"}
_CHECKS = {
    "check_axiom": lambda args, kwargs: _AXIOM_ALIASES.get(args[1], args[1]),
    "classify": lambda args, kwargs: "classify",
    "check_derivation_condition": lambda args, kwargs: "derivation",
    "check_strong_constraint": lambda args, kwargs: _STRONG_IDS.get(args[1], args[1]),
    "check_anchor_antisymmetry": lambda args, kwargs: "anchor-antisym",
    "check_twist_conditions": lambda args, kwargs: "twist",
    "check_bianchi": lambda args, kwargs: "bianchi",
    "quadratic_lie_algebra_check": lambda args, kwargs: "quadratic",
}
# The only checks that consult ``DoubledRealization.check_cache``.
_CACHED_CHECKS = ("check_axiom", "check_derivation_condition")

# Check ids the axioms layer can report, in report order.
CHECK_IDS = (
    "C1", "C2", "C3", "C4", "C5", "classify", "derivation", "strong-fn",
    "strong-vec", "strong-form", "anchor-antisym", "twist", "bianchi", "quadratic",
)


class Stat:
    __slots__ = ("calls", "incl", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Span aggregation state for one traced pass."""

    def __init__(self):
        # stack[-1] accumulates the time of the spans opened directly by the
        # innermost open span; stack[0] is the root, outside every span.
        self.stack = [0.0]
        self.stats: dict[str, Stat] = {}
        self.products = 0
        self.out_terms = 0
        self.max_terms = 0
        self.cache_calls = 0
        self.cache_hits = 0
        self.report_bytes = 0

    def stat(self, group: str) -> Stat:
        if group not in self.stats:
            self.stats[group] = Stat()
        return self.stats[group]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, stat: Stat, sized: bool):
        stack = self.stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            stat.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                if not stat.depth:
                    stat.incl += dt
                stack[-1] += dt
            if sized and result is not NotImplemented and len(result.terms) > self.max_terms:
                self.max_terms = len(result.terms)
            return result

        return traced

    def _wrap_mul(self, fn, stat: Stat):
        stack = self.stack

        def traced(a, b):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(a, b)
            finally:
                dt = perf_counter() - t0
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                stat.incl += dt
                stack[-1] += dt
            if result is not NotImplemented:
                self.products += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
                n = len(result.terms)
                self.out_terms += n
                if n > self.max_terms:
                    self.max_terms = n
            return result

        return traced

    def _wrap_check(self, fn, name: str, key_fn):
        stack = self.stack
        cached = name in _CACHED_CHECKS

        def traced(*args, **kwargs):
            stat = self.stat("axioms." + key_fn(args, kwargs))
            cache = args[0].check_cache if cached else None
            before = len(cache) if cached else 0
            stack.append(0.0)
            stat.depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                if not stat.depth:
                    stat.incl += dt
                stack[-1] += dt
                if cached:
                    self.cache_calls += 1
                    self.cache_hits += len(cache) == before

        return traced

    def _wrap_emit(self, fn):
        inner = self._wrap(fn, self.stat("cli.emit"), sized=False)

        def traced(*args, **kwargs):
            payload = inner(*args, **kwargs)
            self.report_bytes += len(payload)
            return payload

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions in every loaded module of the engine."""
        mods = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
                if name.split(".", 1)[0] == "doubled_algebroids"}
        poly_cls = mods["poly"].PolyExpr
        for attr, group in _POLY_METHODS.items():
            original = poly_cls.__dict__[attr]
            if group == "poly.mul":
                wrapped = self._wrap_mul(original, self.stat(group))
            else:
                wrapped = self._wrap(original, self.stat(group), sized=True)
            setattr(poly_cls, attr, wrapped)
        replacements = {}
        for layer, names in _FUNCTIONS.items():
            for name, group in names.items():
                original = getattr(mods[layer], name)
                if group == "cli.emit":
                    replacements[original] = self._wrap_emit(original)
                else:
                    sized = group == "poly.sum"
                    replacements[original] = self._wrap(original, self.stat(group), sized)
        for name, key_fn in _CHECKS.items():
            original = getattr(mods["axioms"], name)
            replacements[original] = self._wrap_check(original, name, key_fn)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in replacements:
                    setattr(mod, attr, replacements[value])

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, keyed by name (times in seconds)."""
        out: dict[str, float] = {}
        s = self.stat
        out["poly.mul.calls"] = s("poly.mul").calls
        out["poly.mul.products"] = self.products
        out["poly.mul.out_terms"] = self.out_terms
        out["poly.mul.self_s"] = s("poly.mul").self_s
        for part in ("add", "sum", "partial", "subs"):
            out[f"poly.{part}.calls"] = s(f"poly.{part}").calls
            out[f"poly.{part}.self_s"] = s(f"poly.{part}").self_s
        out["poly.max_terms"] = self.max_terms
        out["algebroid.calls"] = s("algebroid.op").calls
        out["algebroid.self_s"] = s("algebroid.op").self_s
        out["algebroid.validate_s"] = s("algebroid.validate").incl
        for op in ("c_bracket", "twisted_c_bracket", "pairing", "D_op"):
            out[f"doubled.{op}.calls"] = s(f"doubled.{op}").calls
            out[f"doubled.{op}.s"] = s(f"doubled.{op}").incl
        out["doubled.c_bracket.self_s"] = s("doubled.c_bracket").self_s
        for check in CHECK_IDS:
            out[f"axioms.{check}.calls"] = s(f"axioms.{check}").calls
            out[f"axioms.{check}.s"] = s(f"axioms.{check}").incl
        out["axioms.self_s"] = sum(
            st.self_s for group, st in self.stats.items() if group.startswith("axioms.")
        )
        out["axioms.cache_hit_ratio"] = (
            self.cache_hits / self.cache_calls if self.cache_calls else 0.0
        )
        out["cli.parse_s"] = s("cli.parse").incl
        out["cli.run_s"] = s("cli.run").incl
        out["cli.emit_s"] = s("cli.emit").incl
        out["cli.report_bytes"] = self.report_bytes
        return out
