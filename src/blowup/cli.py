"""Command-line front end over a JSON manifest.

The manifest describes the ambient manifold, the circle-type loops, and
optionally the numerical local model:

    {
      "manifold": {"n": 2, "volume": "1", "period": "1",
                   "gromov_width": 3.2},
      "loops": [{"name": "main", "weights": [1, 2], "C": "1/2"}],
      "local_model": {"rho": 0.4, "delta": 0.2, "r": 1.0},
      "seed": 0
    }

Rationals travel as strings ("p/q" or "p") so the exact computations see
no floats; rho enters exact results only through the formal variable t,
and a numeric rho is used solely for evaluation and the numerical checks.

Exit codes: 0 success, 1 a verification exceeded its tolerance, 2 usage
or manifest error.  The verify command prints one text line per check and
finishes with a single-line JSON array of rows
{check, samples, max_deviation, tolerance, pass}.  A closed stdout pipe
cuts the output short and nothing else: every command computes its exit
code before its first print, and nothing goes to stderr.  lift, order and
rank render their whole output before printing it, so a result holding an
integer past the int-to-string digit limit exits 2 with stdout empty.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact_field import eval_at, parse_rational
from .local_model import (
    CheckResult,
    LocalHamiltonian,
    LocalModelParams,
    beta_profile,
    divisor_continuity_check,
    s1_invariance_check,
    symplectic_pullback_check,
    vector_field_relation_check,
    _slope_candidates,
)
from .period import class_order
from .quadrature import (
    _relative_deviation,
    verify_annulus_pushforward,
    verify_normalized_lemma,
)
from .rank import certify_rank
from .weinstein import (
    CircleLoopSpec,
    ManifoldSpec,
    ball_integral_closed_form,
    circle_loop_order,
    lift_value_circle,
)

__all__ = ["Manifest", "ManifestError", "load_manifest", "main"]

VERIFY_GROUPS = ("beta", "s1", "pullback", "vector-field", "integrals")


class ManifestError(ValueError):
    """Raised for any schema or consistency problem in a manifest."""


@dataclass
class Manifest:
    manifold: ManifoldSpec
    loops: list
    local_model: dict | None
    seed: int

    def find_loop(self, name):
        for loop in self.loops:
            if loop.name == name:
                return loop
        return None


def _require_keys(mapping, required, optional, where):
    if not isinstance(mapping, dict):
        raise ManifestError("%s must be an object" % where)
    for key in required:
        if key not in mapping:
            raise ManifestError("%s is missing '%s'" % (where, key))
    for key in mapping:
        if key not in required and key not in optional:
            raise ManifestError("unknown key '%s' in %s" % (key, where))


def _as_int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ManifestError("%s must be an integer" % where)
    return value


def _as_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ManifestError("%s must be a number" % where)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ManifestError("%s must be finite" % where)
    return number


def _reject_constant(name):
    raise ManifestError("manifest holds the non-finite number %s" % name)


def _as_rational(value, where):
    if not isinstance(value, str):
        raise ManifestError("%s must be a rational string like '3/4'" % where)
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise ManifestError("%s: %s" % (where, exc)) from None


def _require_below_width(rho, width):
    """Refuse a blow-up weight whose area pi*rho^2 reaches a width bound."""
    # rho * rho, not rho ** 2: a float ** raises OverflowError where *
    # rounds to inf, and inf reaches every bound
    area = math.pi * (rho * rho)
    if width is not None and area >= width:
        raise ManifestError(
            "blow-up weight pi*rho^2 = %.6g reaches the Gromov width "
            "bound %.6g" % (area, width))


def load_manifest(path):
    """Parse and validate a manifest file; raises ManifestError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise ManifestError("cannot read manifest: %s" % exc) from None
    except ManifestError:
        raise
    except json.JSONDecodeError as exc:
        raise ManifestError("manifest is not valid JSON: %s" % exc) from None
    except ValueError as exc:
        # bytes that are not UTF-8, or an integer past the interpreter's
        # int-to-string digit limit
        raise ManifestError("manifest cannot be read: %s" % exc) from None
    except RecursionError:
        raise ManifestError("manifest is nested too deeply") from None
    _require_keys(raw, ("manifold",), ("loops", "local_model", "seed"),
                  "manifest")
    mani = raw["manifold"]
    _require_keys(mani, ("n", "volume", "period"), ("gromov_width",),
                  "manifold")
    n = _as_int(mani["n"], "manifold.n")
    width = None
    if "gromov_width" in mani:
        width = _as_number(mani["gromov_width"], "manifold.gromov_width")
    try:
        manifold = ManifoldSpec(
            n=n,
            V=_as_rational(mani["volume"], "manifold.volume"),
            a=_as_rational(mani["period"], "manifold.period"),
            gromov_width_bound=width,
        )
    except ValueError as exc:
        raise ManifestError(str(exc)) from None

    entries = raw.get("loops", [])
    if not isinstance(entries, list):
        raise ManifestError("loops must be a list")
    loops = []
    seen = set()
    for index, entry in enumerate(entries):
        where = "loops[%d]" % index
        _require_keys(entry, ("name", "weights", "C"), (), where)
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise ManifestError("%s.name must be a nonempty string" % where)
        if name in seen:
            raise ManifestError("duplicate loop name '%s'" % name)
        seen.add(name)
        weights = entry["weights"]
        if not isinstance(weights, list) or len(weights) != n:
            raise ManifestError("%s.weights must list %d integers"
                                % (where, n))
        weights = tuple(weights)
        if not all(type(m) is int for m in weights):
            # the label is formatted only for a weight that fails
            for m in weights:
                _as_int(m, "%s.weights" % where)
        loops.append(CircleLoopSpec(
            weights=weights,
            C=_as_rational(entry["C"], "%s.C" % where),
            name=name,
        ))

    local_model = None
    if "local_model" in raw:
        _require_keys(raw["local_model"], ("rho", "delta", "r"), (),
                      "local_model")
        local_model = {key: _as_number(raw["local_model"][key],
                                       "local_model.%s" % key)
                       for key in ("rho", "delta", "r")}
        _require_below_width(local_model["rho"], width)

    seed = 0
    if "seed" in raw:
        seed = _as_int(raw["seed"], "seed")
        if seed < 0:
            raise ManifestError("seed must be nonnegative")
    return Manifest(manifold=manifold, loops=loops, local_model=local_model,
                    seed=seed)


def _lookup_loop(manifest, name):
    loop = manifest.find_loop(name)
    if loop is None:
        known = ", ".join(l.name for l in manifest.loops) or "(none)"
        raise ManifestError("unknown loop '%s' (manifest has: %s)"
                            % (name, known))
    return loop


def _numeric_weight(manifest, override=None):
    if override is not None:
        return override
    if manifest.local_model is not None:
        return manifest.local_model["rho"]
    return None


def _evaluate(value, rho):
    """(t, base, lifted) at t = pi*rho^2, each value rounded once."""
    tau0 = math.pi * rho * rho
    try:
        return (tau0, eval_at(value.base_value, tau0),
                eval_at(value.lifted_value, tau0))
    except ZeroDivisionError:
        raise ManifestError(
            "evaluation at pole: the blow-up of weight rho = %g swallows "
            "the whole volume (V = t^n)" % rho) from None
    except OverflowError:
        raise ManifestError("the values at rho = %g do not fit in a float"
                            % rho) from None


@contextlib.contextmanager
def _printable():
    """Refuse a result that str() cannot write in decimal.

    str() of an integer past the interpreter's int-to-string digit limit
    raises ValueError; inside this block that becomes a manifest error.
    The limit is never raised.  Commands render their whole output in the
    block, before the first print, so such a result prints nothing.
    """
    try:
        yield
    except ValueError:
        raise ManifestError(
            "the result holds an integer of more than %d digits, past the "
            "interpreter's int-to-string limit"
            % sys.get_int_max_str_digits()) from None


def cmd_lift(manifest, loop_name):
    loop = _lookup_loop(manifest, loop_name)
    value = lift_value_circle(loop, manifest.manifold)
    rho = _numeric_weight(manifest)
    with _printable():
        lines = [
            "loop %s: weights %s, C = %s" % (loop.name, list(loop.weights), loop.C),
            "base:    %s" % value.base_value,
            "lifted:  %s" % value.lifted_value,
            "lattice: Z<%s> + Z<t>" % manifest.manifold.a,
        ]
    if rho is not None:
        tau0, base, lifted = _evaluate(value, rho)
        lines.append("at rho = %g (t = %.12g): base = %.12g, lifted = %.12g"
                     % (rho, tau0, base, lifted))
    print("\n".join(lines))
    return 0


def cmd_order(manifest, loop_name):
    loop = _lookup_loop(manifest, loop_name)
    base_order = circle_loop_order(loop, manifest.manifold)
    value = lift_value_circle(loop, manifest.manifold)
    lifted_order = class_order(value.lifted_class())
    shown = "infinite" if lifted_order is None else lifted_order
    with _printable():
        lines = ["base order %s, lifted order %s" % (base_order, shown)]
    if lifted_order is None:
        reduced = value.lifted_value
        lines.append("certificate: the reduced value has numerator degree %d "
                     "and denominator degree %d; every nonzero integer "
                     "multiple keeps that shape, and the lattice only absorbs "
                     "degree-one polynomials"
                     % (reduced.num.degree, reduced.den.degree))
    print("\n".join(lines))
    return 0


def cmd_rank(manifest):
    if not manifest.loops:
        raise ManifestError("rank needs at least one loop in the manifest")
    certificate = certify_rank(manifest.loops, manifest.manifold)
    with _printable():
        report = certificate.report()
    print(report)
    return 0


def _beta_invariants_check(params):
    """Endpoint exactness and slope bounds as one report row.

    One profile call on s = 0, s = r and s = delta + w u for each band
    position u of _slope_candidates: the band edges delta and r - delta,
    and the critical points of the slope quartic g, where the
    constructor's margin is taken.  On the band beta' is g(u) over 2 beta,
    so it is positive exactly when g is positive at these points; beta' <=
    1 holds everywhere, as chi' <= 0 and beta >= s.  The slope bounds are
    read at every radius but 0, where beta' is 0.
    """
    radii = [0.0, params.r] + [
        params.delta + params.width * u
        for u in _slope_candidates(params.rho, params.width)]
    value, slope = beta_profile(np.array(radii), params)
    slope = slope[1:]
    deviation = np.max([abs(value[0] - params.rho), abs(value[1] - params.r),
                        np.max(slope) - 1.0, -np.min(slope), 0.0])
    return CheckResult(check="beta-profile", samples=len(radii),
                       max_deviation=float(deviation), tolerance=1e-12)


def _float_hamiltonian(loop, r):
    """H(r z) / r^2, the loop's Hamiltonian on the unit model, in floats.

    Its constant C/r^2 is rounded once; every check evaluates it on the
    unit ball, where |H| <= h.bound(1.0), which must be finite.
    """
    try:
        h = LocalHamiltonian(weights=loop.weights,
                             c=loop.C / Fraction(r) ** 2)
        size = h.bound(1.0)
    except OverflowError:
        raise ManifestError("loop '%s': weights and C/r^2 must fit in a "
                            "float for verify" % loop.name) from None
    if not math.isfinite(size):
        raise ManifestError("loop '%s': pi*max|w| + |C|/r^2 must fit in a "
                            "float for verify" % loop.name)
    return h


def _verify_rows(manifest, params, which):
    """The rows of a verify group, every one run on the unit model.

    (rho, delta, r, C) -> (rho/r, delta/r, 1, C/r^2) is an exact symmetry
    of the local model, and this is the one place the scale enters.
    """
    r = params.r  # validated, so positive
    try:
        unit = LocalModelParams(params.n, params.rho / r, params.delta / r, 1)
    except ValueError as exc:  # a bound that the division rounds across
        raise ManifestError(str(exc)) from None
    rows = []
    seed = manifest.seed
    if which in ("beta", "all"):
        rows.append(_beta_invariants_check(unit))
    for loop in manifest.loops:
        h = _float_hamiltonian(loop, r)
        label = ":" + loop.name
        if which in ("s1", "all"):
            row = s1_invariance_check(h, samples=500, seed=seed, params=unit)
            row.check += label
            rows.append(row)
            row = divisor_continuity_check(h, unit, seed=seed)
            row.check += label
            rows.append(row)
        if which in ("pullback", "all"):
            row = symplectic_pullback_check(h.phases(0.37), unit, grid=150,
                                            seed=seed)
            row.check += label
            rows.append(row)
        if which in ("vector-field", "all"):
            row = vector_field_relation_check(h, unit, samples=120,
                                              seed=seed)
            row.check += label
            rows.append(row)
        if which in ("integrals", "all"):
            annulus = verify_annulus_pushforward(h, unit)
            rows.append(CheckResult(
                check="annulus-pushforward" + label,
                samples=annulus.left.samples_or_order,
                max_deviation=annulus.deviation,
                tolerance=1e-4,
            ))
            row = verify_normalized_lemma(h, unit)
            row.check += label
            rows.append(row)
            # _ball_mean and h.bound of H - c: C is not in the closed form's
            # t^(n+1) coefficient, and c would only add rounding
            got = (-math.pi * (h.weight_sum / (unit.n + 1))
                   * (unit.rho * unit.rho))
            size = math.pi * unit.rho * unit.rho * max(map(abs, h.weights))
            # the closed form's t^(n+1) coefficient over the ball's volume
            # t^n/n! gives the mean, that coefficient times n! times t
            closed = ball_integral_closed_form(
                CircleLoopSpec(weights=loop.weights), manifest.manifold)
            expected = (float(closed.num.coeff(unit.n + 1)
                              * math.factorial(unit.n))
                        * (math.pi * unit.rho * unit.rho))
            rows.append(CheckResult(
                check="ball-closed-form" + label,
                samples=1,  # the one-node rule of the ball mean
                max_deviation=_relative_deviation(got, expected, size),
                tolerance=1e-5,
            ))
    return rows


def cmd_verify(manifest, which):
    if manifest.local_model is None:
        raise ManifestError("verify needs a local_model section")
    try:
        params = LocalModelParams(n=manifest.manifold.n,
                                  **manifest.local_model)
    except ValueError as exc:
        raise ManifestError(str(exc)) from None
    rows = _verify_rows(manifest, params, which)
    status = 0 if all(row.passed for row in rows) else 1
    try:
        for row in rows:
            print(row.line())
        print(json.dumps([row.as_dict() for row in rows]))
    except BrokenPipeError as exc:
        exc.status = status  # main exits with it
        raise
    return status


def cmd_eval(manifest, loop_name, rho):
    loop = _lookup_loop(manifest, loop_name)
    rho = _numeric_weight(manifest, rho)
    if rho is None:
        raise ManifestError(
            "no weight given: pass --rho or add local_model to the manifest")
    if not 0 < rho < math.inf:
        raise ManifestError("weight must be positive and finite")
    _require_below_width(rho, manifest.manifold.gromov_width_bound)
    tau0, base, lifted = _evaluate(lift_value_circle(loop, manifest.manifold),
                                   rho)
    print("rho = %g, t = %.12g" % (rho, tau0))
    print("base = %.12g" % base)
    print("lifted = %.12g" % lifted)
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared after it.

    Sharing is safe: nothing in it depends on argv or the environment,
    parse_args returns a fresh Namespace, and usage errors go to the
    sys.stderr of the moment.
    """
    parser = argparse.ArgumentParser(
        prog="blowup",
        description="Exact loop invariants on symplectic one-point blow-ups, "
                    "with numerical verification of the local model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lift = sub.add_parser("lift", help="exact base and lifted loop invariants")
    lift.add_argument("manifest")
    lift.add_argument("--loop", required=True)

    order = sub.add_parser("order", help="orders of the base and lifted classes")
    order.add_argument("manifest")
    order.add_argument("--loop", required=True)

    rank = sub.add_parser("rank", help="relation lattice among all lifted loops")
    rank.add_argument("manifest")

    verify = sub.add_parser("verify", help="numerical checks of the local model")
    verify.add_argument("manifest")
    verify.add_argument("--check", default="all",
                        choices=("all",) + VERIFY_GROUPS)

    evaluate = sub.add_parser("eval", help="numeric value of a lift at a weight")
    evaluate.add_argument("manifest")
    evaluate.add_argument("--loop", required=True)
    evaluate.add_argument("--rho", type=float, default=None)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    status = 0
    try:
        manifest = load_manifest(args.manifest)
        if args.command == "lift":
            status = cmd_lift(manifest, args.loop)
        elif args.command == "order":
            status = cmd_order(manifest, args.loop)
        elif args.command == "rank":
            status = cmd_rank(manifest)
        elif args.command == "verify":
            status = cmd_verify(manifest, args.check)
        else:
            status = cmd_eval(manifest, args.loop, args.rho)
        sys.stdout.flush()  # where a block-buffered stdout meets the pipe
    except ManifestError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # stdout to os.devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return getattr(exc, "status", status)
    return status


if __name__ == "__main__":
    sys.exit(main())
