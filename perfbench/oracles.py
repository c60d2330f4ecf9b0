"""Output checks that do not use the code they check.

Each check takes the raw output of one operation and the inputs that
produced it, and returns True only when the output is right.  Nothing
here imports ``blowup``: expected values come from the closed forms in
the paper's construction, evaluated with ``fractions`` or sympy.  A
malformed output is a failure, never an exception that escapes.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

# The benchmark's own ceiling for each verify row; a row whose deviation
# is not finite, or above this, fails whatever the program reports.
VERIFY_TOLERANCE = {
    "beta-profile": 1e-12,
    "s1-invariance": 1e-12,
    "divisor-continuity": 1e-8,
    "symplectic-pullback": 1e-8,
    "vector-field-relation": 1e-6,
    "annulus-pushforward": 1e-4,
    "normalized-lemma": 1e-4,
    "ball-closed-form": 1e-5,
}
PER_LOOP_CHECKS = tuple(name for name in VERIFY_TOLERANCE if name != "beta-profile")
MC_SIGMAS = 5.0


def _loop_data(manifest, loop_name):
    mani = manifest["manifold"]
    loop = next(l for l in manifest["loops"] if l["name"] == loop_name)
    return (mani["n"], Fraction(mani["volume"]), Fraction(mani["period"]),
            Fraction(loop["C"]), sum(loop["weights"]))


def _field(text, prefix):
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise ValueError("no %r line" % (prefix,))


def _sympy_lifted(n, V, C, K):
    import sympy
    t = sympy.Symbol("t")
    C, V = sympy.Rational(C.numerator, C.denominator), sympy.Rational(V.numerator, V.denominator)
    ball = -K * t ** (n + 1) / sympy.factorial(n + 1) + C * t ** n
    return t, C + ball / (V - t ** n)


def check_lift(text, manifest, loop_name):
    """Printed base equals C and printed lifted value equals
    C + (-K t^(n+1)/(n+1)! + C t^n)/(V - t^n), exactly (sympy)."""
    import sympy
    n, V, _, C, K = _loop_data(manifest, loop_name)
    try:
        base = Fraction(_field(text, "base:"))
        lifted = _field(text, "lifted:")
        t, expected = _sympy_lifted(n, V, C, K)
        got = sympy.parse_expr(lifted.replace("^", "**"), local_dict={"t": t})
    except Exception:  # sympy's parser raises many types; any of them is a mismatch
        return False
    return base == C and sympy.cancel(got - expected) == 0


def check_order(text, manifest, loop_name):
    """Base order is the denominator of C/a; the lifted order is 1 exactly
    when C = 0 and K = 0, and infinite otherwise."""
    _, _, a, C, K = _loop_data(manifest, loop_name)
    match = re.search(r"^base order (\d+), lifted order (\w+)$", text, re.M)
    if match is None:
        return False
    lifted = "1" if C == 0 and K == 0 else "infinite"
    return int(match.group(1)) == (C / a).denominator and match.group(2) == lifted


def _parse_kernel(text):
    first = text.splitlines()[0] if text else ""
    match = re.match(r"^rank (\d+), kernel (trivial|basis (.*))$", first)
    if match is None:
        raise ValueError("no rank line")
    vectors = []
    if match.group(3) is not None:
        for part in match.group(3).split("; "):
            if not (part.startswith("(") and part.endswith(")")):
                raise ValueError("malformed kernel vector %r" % (part,))
            vectors.append([int(x) for x in part[1:-1].split(",")])
    return int(match.group(1)), vectors


def _rational_rank(rows):
    """Rank over Q of a 2 x k matrix with Fraction entries."""
    first, second = rows
    if not any(first):
        return 1 if any(second) else 0
    pivot = next(j for j, x in enumerate(first) if x != 0)
    ratio = second[pivot] / first[pivot]
    return 1 if all(s == ratio * f for f, s in zip(first, second)) else 2


def check_rank(text, manifest):
    """Every kernel vector zeroes both forms sum c*C/a and sum c*K, and the
    kernel has k - rank_Q[C/a; K] vectors, with rank = k - that number."""
    period = Fraction(manifest["manifold"]["period"])
    base = [Fraction(l["C"]) / period for l in manifest["loops"]]
    sums = [sum(l["weights"]) for l in manifest["loops"]]
    k = len(base)
    try:
        rank, vectors = _parse_kernel(text)
    except ValueError:
        return False
    scale = math.lcm(*(f.denominator for f in base))
    scaled = [int(f * scale) for f in base]
    for vector in vectors:
        if len(vector) != k or not any(vector):
            return False
        if sum(c * x for c, x in zip(vector, scaled)) != 0:
            return False
        if sum(c * x for c, x in zip(vector, sums)) != 0:
            return False
    nullity = k - _rational_rank((base, [Fraction(s) for s in sums]))
    return len(vectors) == nullity and rank == k - nullity


def _exact_lifted_at(n, V, C, K, tau0):
    t = Fraction(tau0)
    ball = -K * t ** (n + 1) / math.factorial(n + 1) + C * t ** n
    return float(C + ball / (V - t ** n))


def check_eval(text, manifest, loop_name, rho):
    """Printed values match the closed form evaluated exactly at the float
    t = pi*rho^2, to well within the 12 printed digits."""
    n, V, _, C, K = _loop_data(manifest, loop_name)
    try:
        base = float(_field(text, "base ="))
        lifted = float(_field(text, "lifted ="))
    except ValueError:
        return False
    expected = _exact_lifted_at(n, V, C, K, math.pi * rho * rho)
    close = lambda got, want: math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    return close(base, float(C)) and close(lifted, expected)


def check_verify(code, text, manifest):
    """Exit 0, one beta row plus seven rows per loop, every deviation
    finite and within the benchmark's own tolerance for its check."""
    if code != 0 or not text:
        return False
    try:
        rows = json.loads(text.splitlines()[-1])
        names = [row["check"] for row in rows]
        deviations = [float(row["max_deviation"]) for row in rows]
    except (ValueError, TypeError, KeyError):
        return False
    expected = ["beta-profile"] + ["%s:%s" % (check, loop["name"])
                                   for loop in manifest["loops"]
                                   for check in PER_LOOP_CHECKS]
    if sorted(names) != sorted(expected):
        return False
    for name, deviation in zip(names, deviations):
        if not (math.isfinite(deviation)
                and deviation <= VERIFY_TOLERANCE[name.split(":")[0]]):
            return False
    return True


def _within_sigmas(a, b, sigma):
    return (math.isfinite(a) and math.isfinite(b) and math.isfinite(sigma)
            and abs(a - b) <= MC_SIGMAS * sigma + 1e-12 * max(abs(a), abs(b)))


def lebesgue_ball_integral(n, K, c, radius):
    """Integral of -pi*sum m_j|z_j|^2 + c over the radius ball, Lebesgue
    measure: -K t^(n+1)/(n+1)! + c t^n/n! with t = pi*radius^2."""
    t = math.pi * radius * radius
    return -K * t ** (n + 1) / math.factorial(n + 1) + c * t ** n / math.factorial(n)


def check_mc_ball(value, stderr, op):
    """Monte-Carlo ball integral within 5 sigma of the closed form."""
    expected = lebesgue_ball_integral(op["n"], sum(op["weights"]), op["c"], op["rho"])
    return _within_sigmas(value, expected, stderr)


def check_mc_pushforward(left, left_err, right, right_err):
    """Both sides of the pushforward identity within 5 combined sigma."""
    return _within_sigmas(left, right, math.hypot(left_err, right_err))
