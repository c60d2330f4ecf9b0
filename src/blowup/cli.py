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
{check, samples, max_deviation, tolerance, pass}.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .exact_field import eval_at, parse_rational
from .local_model import (
    CheckResult,
    LocalHamiltonian,
    LocalModelParams,
    UnitaryLoop,
    beta_profile,
    divisor_continuity_check,
    s1_invariance_check,
    symplectic_pullback_check,
    vector_field_relation_check,
)
from .period import class_order
from .quadrature import (
    integrate_ball,
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


def load_manifest(path):
    """Parse and validate a manifest file; raises ManifestError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise ManifestError("cannot read manifest: %s" % exc) from None
    except json.JSONDecodeError as exc:
        raise ManifestError("manifest is not valid JSON: %s" % exc) from None
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

    loops = []
    seen = set()
    for index, entry in enumerate(raw.get("loops", [])):
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
        weights = tuple(_as_int(m, "%s.weights" % where) for m in weights)
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
        if width is not None and math.pi * local_model["rho"] ** 2 >= width:
            raise ManifestError(
                "blow-up weight pi*rho^2 = %.6g reaches the Gromov width "
                "bound %.6g" % (math.pi * local_model["rho"] ** 2, width))

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


def cmd_lift(manifest, loop_name, out=None):
    out = out if out is not None else sys.stdout
    loop = _lookup_loop(manifest, loop_name)
    value = lift_value_circle(loop, manifest.manifold)
    print("loop %s: weights %s, C = %s"
          % (loop.name, list(loop.weights), loop.C), file=out)
    print("base:    %s" % value.base_value, file=out)
    print("lifted:  %s" % value.lifted_value, file=out)
    print("lattice: Z<%s> + Z<t>" % manifest.manifold.a, file=out)
    rho = _numeric_weight(manifest)
    if rho is not None:
        tau0, base, lifted = _evaluate(value, rho)
        print("at rho = %g (t = %.12g): base = %.12g, lifted = %.12g"
              % (rho, tau0, base, lifted), file=out)
    return 0


def cmd_order(manifest, loop_name, out=None):
    out = out if out is not None else sys.stdout
    loop = _lookup_loop(manifest, loop_name)
    base_order = circle_loop_order(loop, manifest.manifold)
    value = lift_value_circle(loop, manifest.manifold)
    lifted_order = class_order(value.lifted_class())
    shown = "infinite" if lifted_order is None else str(lifted_order)
    print("base order %s, lifted order %s" % (base_order, shown), file=out)
    if lifted_order is None:
        reduced = value.lifted_value
        print("certificate: the reduced value has numerator degree %d and "
              "denominator degree %d; every nonzero integer multiple keeps "
              "that shape, and the lattice only absorbs degree-one "
              "polynomials" % (reduced.num.degree, reduced.den.degree),
              file=out)
    return 0


def cmd_rank(manifest, out=None):
    out = out if out is not None else sys.stdout
    if not manifest.loops:
        raise ManifestError("rank needs at least one loop in the manifest")
    certificate = certify_rank(manifest.loops, manifest.manifold)
    if certificate.kernel_basis:
        rendered = "; ".join(
            "(" + ",".join(str(c) for c in vector) + ")"
            for vector in certificate.kernel_basis)
        print("rank %d, kernel basis %s" % (certificate.rank, rendered),
              file=out)
    else:
        print("rank %d, kernel trivial" % certificate.rank, file=out)
    print(certificate.report(), file=out)
    return 0


def _beta_invariants_check(params, grid=10_000):
    """Endpoint exactness and slope bounds as one report row."""
    value0, _ = beta_profile(0.0, params)
    value_r, _ = beta_profile(params.r, params)
    s = np.linspace(params.r / grid, params.r, grid)
    _, slope = beta_profile(s, params)
    deviation = np.max([abs(value0 - params.rho), abs(value_r - params.r),
                        np.max(slope) - 1.0, -np.min(slope), 0.0])
    return CheckResult(check="beta-profile", samples=grid,
                       max_deviation=float(deviation), tolerance=1e-12)


def _require_float_range(loop):
    """The numerical checks read a loop's weights and C as floats."""
    try:
        for value in loop.weights + (loop.C,):
            float(value)
    except OverflowError:
        raise ManifestError("loop '%s': weights and C must fit in a float "
                            "for verify" % loop.name) from None


def _verify_rows(manifest, params, which):
    rows = []
    seed = manifest.seed
    loops = manifest.loops
    if which in ("beta", "all"):
        rows.append(_beta_invariants_check(params))
    for loop in loops:
        _require_float_range(loop)
        h = LocalHamiltonian(weights=loop.weights, c=float(loop.C))
        unitary = UnitaryLoop.diagonal(loop.weights)
        label = ":" + loop.name
        if which in ("s1", "all"):
            row = s1_invariance_check(h, samples=500, seed=seed, params=params)
            row.check += label
            rows.append(row)
            row = divisor_continuity_check(h, params, seed=seed)
            row.check += label
            rows.append(row)
        if which in ("pullback", "all"):
            row = symplectic_pullback_check(
                unitary.matrix(0.37), params, grid=150, seed=seed)
            row.check += label
            rows.append(row)
        if which in ("vector-field", "all"):
            row = vector_field_relation_check(unitary, params, samples=120,
                                              seed=seed)
            row.check += label
            rows.append(row)
        if which in ("integrals", "all"):
            # refuse a ball integral too large for a float before any
            # quadrature overflows on it
            quadratic = CircleLoopSpec(weights=loop.weights, C=0,
                                       name=loop.name)
            symbolic = ball_integral_closed_form(quadratic, manifest.manifold)
            try:
                expected = eval_at(symbolic, math.pi * params.rho ** 2)
            except OverflowError:
                raise ManifestError("loop '%s': its ball integral does not "
                                    "fit in a float" % loop.name) from None
            annulus = verify_annulus_pushforward(h, params)
            rows.append(CheckResult(
                check="annulus-pushforward" + label,
                samples=annulus.left.samples_or_order,
                max_deviation=annulus.deviation,
                tolerance=1e-4,
                skipped=annulus.skipped,
            ))
            row = verify_normalized_lemma(h, params)
            row.check += label
            rows.append(row)
            got = integrate_ball(LocalHamiltonian(weights=loop.weights),
                                 params.rho, params.n)
            scale = max(abs(expected), 1e-12)
            rows.append(CheckResult(
                check="ball-closed-form" + label,
                samples=got.samples_or_order,
                max_deviation=abs(got.value - expected) / scale,
                tolerance=1e-5,
            ))
    return rows


def cmd_verify(manifest, which, out=None):
    out = out if out is not None else sys.stdout
    if manifest.local_model is None:
        raise ManifestError("verify needs a local_model section")
    try:
        params = LocalModelParams(n=manifest.manifold.n,
                                  **manifest.local_model)
    except ValueError as exc:
        raise ManifestError(str(exc)) from None
    rows = _verify_rows(manifest, params, which)
    for row in rows:
        print(row.line(), file=out)
    print(json.dumps([row.as_dict() for row in rows]), file=out)
    return 0 if all(row.passed for row in rows) else 1


def cmd_eval(manifest, loop_name, rho, out=None):
    out = out if out is not None else sys.stdout
    loop = _lookup_loop(manifest, loop_name)
    rho = _numeric_weight(manifest, rho)
    if rho is None:
        raise ManifestError(
            "no weight given: pass --rho or add local_model to the manifest")
    if not 0 < rho < math.inf:
        raise ManifestError("weight must be positive and finite")
    tau0, base, lifted = _evaluate(lift_value_circle(loop, manifest.manifold),
                                   rho)
    print("rho = %g, t = %.12g" % (rho, tau0), file=out)
    print("base = %.12g" % base, file=out)
    print("lifted = %.12g" % lifted, file=out)
    return 0


def _build_parser():
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
    try:
        manifest = load_manifest(args.manifest)
        if args.command == "lift":
            return cmd_lift(manifest, args.loop)
        if args.command == "order":
            return cmd_order(manifest, args.loop)
        if args.command == "rank":
            return cmd_rank(manifest)
        if args.command == "verify":
            return cmd_verify(manifest, args.check)
        return cmd_eval(manifest, args.loop, args.rho)
    except ManifestError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
