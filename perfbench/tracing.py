"""Spans around the public functions of each ``blowup`` layer.

Tracing lives entirely in the benchmark: ``Tracer`` swaps each traced
function for a wrapper in every namespace that holds it (module globals,
including modules that imported the name directly, and class
attributes), and puts the originals back on exit.  Each span is kept in
memory as (name, start, end, parent); the parent is the span open when
it started, so the spans of one operation hang off that operation's root
span.  Self time is a span's duration minus the time its direct children
cover.  Per-sample helpers are only counted, since a span per sample would
cost more than the work it measures.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np

# (metric prefix, module, attribute path).  Each gives <prefix>.calls and
# <prefix>.self_ms.  integrate_ball and verify_annulus_pushforward are
# split by scheme into .gauss and .mc variants.
SPANS = (
    ("exact_field.TauRat", "blowup.exact_field", "TauRat.__init__"),
    ("exact_field.poly_gcd", "blowup.exact_field", "poly_gcd"),
    ("exact_field.TauPoly.mul", "blowup.exact_field", "TauPoly.__mul__"),
    ("exact_field.TauPoly.divmod", "blowup.exact_field", "TauPoly.__divmod__"),
    ("exact_field.eval_at", "blowup.exact_field", "eval_at"),
    ("exact_field.parse_rational", "blowup.exact_field", "parse_rational"),
    ("period.class_order", "blowup.period", "class_order"),
    ("weinstein.lift_value_circle", "blowup.weinstein", "lift_value_circle"),
    ("weinstein.ball_integral_closed_form", "blowup.weinstein", "ball_integral_closed_form"),
    ("rank.certify_rank", "blowup.rank", "certify_rank"),
    ("rank.relation_kernel", "blowup.rank", "relation_kernel"),
    ("rank.integer_kernel", "blowup.rank", "integer_kernel"),
    ("cli.load_manifest", "blowup.cli", "load_manifest"),
    ("cli.cmd_lift", "blowup.cli", "cmd_lift"),
    ("cli.cmd_order", "blowup.cli", "cmd_order"),
    ("cli.cmd_rank", "blowup.cli", "cmd_rank"),
    ("cli.cmd_eval", "blowup.cli", "cmd_eval"),
    ("cli.cmd_verify", "blowup.cli", "cmd_verify"),
    ("local_model.LocalModelParams", "blowup.local_model", "LocalModelParams.__init__"),
    ("local_model.s1_invariance_check", "blowup.local_model", "s1_invariance_check"),
    ("local_model.divisor_continuity_check", "blowup.local_model", "divisor_continuity_check"),
    ("local_model.symplectic_pullback_check", "blowup.local_model", "symplectic_pullback_check"),
    ("local_model.vector_field_relation_check", "blowup.local_model", "vector_field_relation_check"),
    ("local_model.beta_profile", "blowup.local_model", "beta_profile"),
    ("quadrature.integrate_ball", "blowup.quadrature", "integrate_ball"),
    ("quadrature.verify_annulus_pushforward", "blowup.quadrature", "verify_annulus_pushforward"),
    ("quadrature.verify_normalized_lemma", "blowup.quadrature", "verify_normalized_lemma"),
)
# Positional index of the scheme argument for the split functions.
SCHEME_ARG = {"quadrature.integrate_ball": 3, "quadrature.verify_annulus_pushforward": 2}
COUNTS = (
    ("local_model.f_rho", "blowup.local_model", "f_rho"),
    ("local_model.UnitaryLoop.vector_field", "blowup.local_model", "UnitaryLoop.vector_field"),
    ("local_model.LocalHamiltonian.value", "blowup.local_model", "LocalHamiltonian.value"),
)
MC_METRICS = (("quadrature.mc.samples", "count", "lower"),
              ("quadrature.mc.ns_per_sample", "ns", "lower"),
              ("quadrature.mc.accept_ratio", "ratio", "higher"))


def span_names():
    names = []
    for prefix, _, _ in SPANS:
        if prefix in SCHEME_ARG:
            names += [prefix + ".gauss", prefix + ".mc"]
        else:
            names.append(prefix)
    return names


def per_layer_spec():
    """(name, unit, better) for every per-layer metric, in report order."""
    spec = []
    for name in span_names():
        spec += [(name + ".calls", "count", "lower"), (name + ".self_ms", "ms", "lower")]
    spec += [(prefix + ".calls", "count", "lower") for prefix, _, _ in COUNTS]
    spec += list(MC_METRICS)
    spec.append(("trace_overhead_frac", "ratio", "lower"))
    return spec


def _ball_share(n):
    """Volume of the ball over its bounding cube in R^(2n): pi^n/(n! 4^n)."""
    return math.pi ** n / (math.factorial(n) * 4 ** n)


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self):
        self.names = span_names() + ["op"]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts = {prefix: 0 for prefix, _, _ in COUNTS}
        self.mc_samples = 0
        self.mc_accepted = 0.0  # expected accepted proposals, from geometry
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id):
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(index)
        self.start[index] = time.perf_counter_ns()
        return index

    def _close(self, index):
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def op(self, fn, *args):
        """Run one benchmark operation under a root span."""
        index = self._open(self._ids["op"])
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _span_wrapper(self, prefix, fn):
        if prefix in SCHEME_ARG:
            return self._scheme_wrapper(prefix, fn)
        name_id = self._ids[prefix]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def _scheme_wrapper(self, prefix, fn):
        position = SCHEME_ARG[prefix]
        gauss, mc = self._ids[prefix + ".gauss"], self._ids[prefix + ".mc"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            scheme = kwargs.get("scheme", args[position] if len(args) > position
                                else "product-gauss")
            index = self._open(mc if scheme == "monte-carlo" else gauss)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if scheme == "monte-carlo":
                self._count_mc(prefix, args, kwargs, result)
            return result
        return wrapper

    def _count_mc(self, prefix, args, kwargs, result):
        if prefix == "quadrature.integrate_ball":
            samples = result.samples_or_order
            self.mc_samples += samples
            n = kwargs.get("n", args[2] if len(args) > 2 else None)
            self.mc_accepted += samples * _ball_share(int(n))
        else:
            params = kwargs.get("params", args[1] if len(args) > 1 else None)
            share = _ball_share(params.n)
            annulus = 1.0 - (params.rho / params.r) ** (2 * params.n)
            self.mc_samples += result.left.samples_or_order + result.right.samples_or_order
            self.mc_accepted += (result.left.samples_or_order * share
                                 + result.right.samples_or_order * share * annulus)

    def _count_wrapper(self, prefix, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[prefix] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing --------------------------------------------------------

    def _install(self, module_name, path, wrapper_for):
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        wrapper = wrapper_for(original)
        # Replace every binding of the original: aliases such as
        # __rmul__ = __mul__ on the class, and names imported with
        # "from ... import" into other blowup modules.
        holders = [owner] if owner_name else [
            m for name, m in sys.modules.items()
            if m is not None and (name == "blowup" or name.startswith("blowup."))]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._saved.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def __enter__(self):
        for prefix, module_name, path in SPANS:
            self._install(module_name, path,
                          functools.partial(self._span_wrapper, prefix))
        for prefix, module_name, path in COUNTS:
            self._install(module_name, path,
                          functools.partial(self._count_wrapper, prefix))
        return self

    def __exit__(self, *exc):
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()
        return False

    # -- results -----------------------------------------------------------

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start_ns": np.frombuffer(self.start, dtype=np.int64),
                "end_ns": np.frombuffer(self.end, dtype=np.int64),
                "names": np.array(self.names)}

    def metrics(self):
        """Per-run totals by metric name (overhead is added by the caller)."""
        spans = self.arrays()
        duration = (spans["end_ns"] - spans["start_ns"]).astype(float)
        parent = spans["parent"]
        child = np.bincount(parent[parent >= 0], weights=duration[parent >= 0],
                            minlength=len(duration))
        self_ns = duration - child
        size = len(self.names)
        calls = np.bincount(spans["name"], minlength=size)
        self_total = np.bincount(spans["name"], weights=self_ns, minlength=size)
        out = {}
        for name in span_names():
            i = self._ids[name]
            out[name + ".calls"] = int(calls[i])
            out[name + ".self_ms"] = float(self_total[i]) / 1e6
        for prefix, count in self.counts.items():
            out[prefix + ".calls"] = count
        mc_ms = out["quadrature.integrate_ball.mc.self_ms"] + \
            out["quadrature.verify_annulus_pushforward.mc.self_ms"]
        out["quadrature.mc.samples"] = self.mc_samples
        out["quadrature.mc.ns_per_sample"] = (
            mc_ms * 1e6 / self.mc_samples if self.mc_samples else 0.0)
        out["quadrature.mc.accept_ratio"] = (
            self.mc_accepted / self.mc_samples if self.mc_samples else 0.0)
        return out
