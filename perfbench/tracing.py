"""Spans and algebra counters for the traced benchmark run.

Everything here works from outside the package, by replacing attributes and
putting them back afterwards.

* Spans: each function in SPAN_TARGETS is replaced in its own module and
  under every name another heunops module imported it as (``catalog`` does
  ``from .diffop import compose``, so ``heunops.catalog.compose`` is replaced
  too).  A span records its name, its parent span, the verdict it belongs
  to, and its start and end.  Spans stay in memory until the run writes them
  out.  A span's self time is its duration minus the time its child spans
  cover.
* Counters: scalar, polynomial, rational-function and expression operations
  are counted in a pass of their own with no spans installed, so the cost of
  counting never lands in a span's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

#: function -> span name; two functions may share one span name
SPAN_TARGETS = {
    "catalog.verify_case": "catalog.verify_case",
    "catalog.draw_env": "catalog.draw_env",
    "catalog.resolve_env": "catalog.resolve_env",
    "catalog.build_case": "catalog.build_case",
    "catalog.diff_printed_l": "catalog.diff_printed",
    "catalog.diff_printed_q": "catalog.diff_printed",
    "cli.main": "cli.main",
    "diffop.compose": "diffop.compose",
    "diffop.commutator": "diffop.commutator",
    "diffop.gauge_transform": "diffop.gauge_transform",
    "funcalg.apply_op": "funcalg.apply_op",
    "funcalg.wronskian_numeric": "funcalg.wronskian_numeric",
    "ratfunc.partial_fractions": "ratfunc.partial_fractions",
    "semicommute.build_q1": "semicommute.build_q",
    "semicommute.build_q2": "semicommute.build_q",
    "semicommute.residual": "semicommute.residual",
    "series.frobenius_series": "series.frobenius_series",
    "series.series_residual": "series.series_residual",
}

ROOT = "verdict"


def _heunops_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "heunops" or name.startswith("heunops."))]


class Patches:
    """Attribute replacements, undone in reverse order by close()."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement):
        """Replace original under every name a heunops module binds it to."""
        for module in _heunops_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def close(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class SpanTracer:
    def __init__(self):
        # [name, parent index, verdict index, start, end, returned normally]
        self.spans: list = []
        self._stack: list = []
        self._verdict = -1

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self._verdict,
                    clock(), 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[5] = True
                return result
            finally:
                stack.pop()
                span[4] = clock()
        return wrapper

    def install(self, patches: Patches):
        from heunops import families

        for target, name in SPAN_TARGETS.items():
            module, func = target.split(".")
            original = getattr(sys.modules[f"heunops.{module}"], func)
            patches.everywhere(original, self._wrap(name, original))
        for cls in families.FAMILIES.values():
            patches.set(cls, "build", self._wrap("families.build", cls.build))

    def verdict(self, index: int, run):
        """Call run() as the root span of verdict `index`."""
        self._verdict = index
        return self._wrap(ROOT, run)()

    def summary(self, wall: float) -> dict:
        """Per-span-name self time and calls, and the time no layer span
        covers: root self time plus the gaps between verdicts."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        roots = 0.0
        for i, (name, parent, _, start, end, _) in enumerate(self.spans):
            own = end - start - child[i]
            if own < -1e-6:
                raise AssertionError(f"span {name} ends before its children")
            self_s[name] += own
            calls[name] += 1
            if parent < 0:
                roots += end - start
        unattributed = self_s.pop(ROOT, 0.0) + (wall - roots)
        calls.pop(ROOT, None)
        # accepted draws over the resolve_env attempts draw_env made
        draws = {i for i, s in enumerate(self.spans)
                 if s[0] == "catalog.draw_env"}
        accepted = sum(1 for i in draws if self.spans[i][5])
        attempts = sum(1 for s in self.spans
                       if s[0] == "catalog.resolve_env" and s[1] in draws)
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "unattributed_s": unattributed,
            "draw_accept_ratio": accepted / attempts if attempts else 0.0,
        }

    def write(self, path, labels):
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, parent, verdict, start, end, ok) in \
                    enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "verdict": labels[verdict], "start_s": start - origin,
                    "end_s": end - origin, "returned": ok}) + "\n")


def _rational(value) -> bool:
    return getattr(value, "d", None) is None and getattr(value, "ai", 0) == 0


def _bits(poly) -> int:
    best = 0
    for c in poly.coeffs:
        for part in (c.ar, c.ai, c.br, c.bi):
            best = max(best, part.numerator.bit_length(),
                       part.denominator.bit_length())
    return best


class AlgebraCounters:
    """Counts of field, poly, ratfunc and exprs operations."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.gcd_max_degree = 0
        self.coeff_max_bits = 0

    def install(self, patches: Patches):
        from heunops import exprs
        from heunops.field import FieldElement
        from heunops.poly import Polynomial
        from heunops.ratfunc import RationalFunction

        counts = self.counts

        def counted(key, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        fe_mul = FieldElement.__mul__

        def field_mul(a, b):
            counts["field.mul.calls"] += 1
            if _rational(a) and _rational(b):
                counts["field.mul.rational"] += 1
            return fe_mul(a, b)

        poly_mul, poly_divmod, poly_gcd = (Polynomial.__mul__,
                                           Polynomial.divmod, Polynomial.gcd)

        def mul(a, b):
            counts["poly.mul.calls"] += 1
            out = poly_mul(a, b)
            self.coeff_max_bits = max(self.coeff_max_bits, _bits(out))
            return out

        def divmod_(a, b):
            counts["poly.divmod.calls"] += 1
            quot, rem = poly_divmod(a, b)
            self.coeff_max_bits = max(self.coeff_max_bits, _bits(quot),
                                      _bits(rem))
            return quot, rem

        def gcd(a, b):
            counts["poly.gcd.calls"] += 1
            out = poly_gcd(a, b)
            if out.degree == 0:
                counts["poly.gcd.trivial"] += 1
            self.gcd_max_degree = max(self.gcd_max_degree, a.degree, b.degree)
            return out

        for name, fn in (("__mul__", field_mul), ("__rmul__", field_mul),
                         ("inverse", counted("field.inverse.calls",
                                             FieldElement.inverse))):
            patches.set(FieldElement, name, fn)
        for name, fn in (("__mul__", mul), ("__rmul__", mul),
                         ("divmod", divmod_), ("gcd", gcd)):
            patches.set(Polynomial, name, fn)
        rf_add = counted("ratfunc.add.calls", RationalFunction.__add__)
        rf_mul = counted("ratfunc.mul.calls", RationalFunction.__mul__)
        for name, fn in (("__add__", rf_add), ("__radd__", rf_add),
                         ("__mul__", rf_mul), ("__rmul__", rf_mul),
                         ("derivative",
                          counted("ratfunc.derivative.calls",
                                  RationalFunction.derivative))):
            patches.set(RationalFunction, name, fn)
        for name in ("eval_scalar", "eval_ratfunc", "eval_exponent"):
            original = getattr(exprs, name)
            patches.everywhere(original, counted("exprs.eval.calls", original))

    def summary(self) -> dict:
        c = self.counts
        return {
            "poly.gcd.calls": c["poly.gcd.calls"],
            "poly.gcd.trivial_share": (c["poly.gcd.trivial"]
                                       / c["poly.gcd.calls"]
                                       if c["poly.gcd.calls"] else 0.0),
            "poly.gcd.max_degree": self.gcd_max_degree,
            "poly.coeff_max_bits": self.coeff_max_bits,
            "poly.mul.calls": c["poly.mul.calls"],
            "poly.divmod.calls": c["poly.divmod.calls"],
            "ratfunc.add.calls": c["ratfunc.add.calls"],
            "ratfunc.mul.calls": c["ratfunc.mul.calls"],
            "ratfunc.derivative.calls": c["ratfunc.derivative.calls"],
            "field.mul.calls": c["field.mul.calls"],
            "field.mul.rational_share": (c["field.mul.rational"]
                                         / c["field.mul.calls"]
                                         if c["field.mul.calls"] else 0.0),
            "field.inverse.calls": c["field.inverse.calls"],
            "exprs.eval.calls": c["exprs.eval.calls"],
        }
