"""Exact arithmetic in the rational-function field Q(t).

The indeterminate t stands for the blow-up weight pi*rho^2.  The weight is
transcendental over Q, so it is kept formal in every exact code path: two
values are equal exactly when they are equal as rational functions, and
comparing coefficients of powers of t is a legitimate proof step.  No float
ever enters this module except through eval_at.

Representation invariants:
  * TauPoly holds a dense tuple of Fraction coefficients, entry i being the
    coefficient of t**i.  The highest-index entry is nonzero; the zero
    polynomial holds the empty tuple.
  * TauRat holds a pair (num, den) of TauPoly in canonical form: num and den
    coprime, den monic.  Canonical forms are unique, so structural equality
    decides mathematical equality and values hash consistently.

Serialization: rationals as "p/q" strings, rational functions as
"(t^2 + t + 1)/(2*t + 2)" where both polynomials are scaled by a common
positive rational so every printed coefficient is an integer and the
printed coefficients have no common factor.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "TauPoly",
    "TauRat",
    "TAU",
    "canonicalize",
    "membership_in_lattice",
    "eval_at",
    "eval_exact",
    "poly_gcd",
    "parse_taurat",
    "parse_rational",
    "format_rational",
]


class TauPoly:
    """Dense univariate polynomial over Fraction in the indeterminate t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, value):
        return cls((Fraction(value),))

    @classmethod
    def monomial(cls, coeff, power):
        coeff = Fraction(coeff)
        if coeff == 0:
            return cls()
        return cls((Fraction(0),) * power + (coeff,))

    @property
    def degree(self):
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def monic(self):
        if self.is_zero or self.lead == 1:
            return self
        return self * (Fraction(1) / self.lead)

    def evaluate(self, x):
        """Horner evaluation; exact for Fraction x, floating for float x."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return TauPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return TauPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return TauPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return TauPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = TauPoly((Fraction(1),))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        nd, dd = self.degree, other.degree
        if nd < dd:
            return TauPoly(), self
        dlead = other.lead
        quo = [Fraction(0)] * (nd - dd + 1)
        rem = list(self.coeffs)
        for k in range(nd - dd, -1, -1):
            c = rem[dd + k] / dlead
            if c == 0:
                continue
            quo[k] = c
            for i, oc in enumerate(other.coeffs):
                rem[i + k] -= c * oc
        return TauPoly(quo), TauPoly(rem)

    def __floordiv__(self, other):
        q, _ = divmod(self, other)
        return q

    def __mod__(self, other):
        _, r = divmod(self, other)
        return r

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("TauPoly", self.coeffs))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        return _poly_str(self.coeffs)

    def __repr__(self):
        return "TauPoly(%r)" % (list(self.coeffs),)


def _as_poly(value):
    if isinstance(value, TauPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return TauPoly((Fraction(value),))
    return NotImplemented


def poly_gcd(p, q):
    """Monic greatest common divisor of two polynomials over Q."""
    while not q.is_zero:
        p, q = q, p % q
        if not q.is_zero:
            q = q.monic()  # keep coefficient growth in check
    if p.is_zero:
        return p
    return p.monic()


class TauRat:
    """Element of Q(t), stored as a coprime pair with monic denominator.

    Arithmetic always re-canonicalizes, so == and hash see exactly one
    representative per field element.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        num = _as_poly(num)
        den = _as_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("TauRat requires TauPoly, int, or Fraction parts")
        if den.is_zero:
            raise ZeroDivisionError("division by zero")
        if num.is_zero:
            num, den = TauPoly(), TauPoly((Fraction(1),))
        else:
            if den.degree > 0:  # a nonzero constant is coprime to every num
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num, den = num // g, den // g
            lead = den.lead
            if lead != 1:
                inv = Fraction(1) / lead
                num, den = num * inv, den * inv
        self.num = num
        self.den = den

    @classmethod
    def from_fraction(cls, value):
        return cls(TauPoly.constant(value))

    @property
    def is_zero(self):
        return self.num.is_zero

    def __add__(self, other):
        other = _as_taurat(other)
        if other is NotImplemented:
            return NotImplemented
        return TauRat(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        result = object.__new__(TauRat)
        result.num = -self.num  # negating num keeps the canonical form
        result.den = self.den
        return result

    def __sub__(self, other):
        other = _as_taurat(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_taurat(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_taurat(other)
        if other is NotImplemented:
            return NotImplemented
        return TauRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_taurat(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        return TauRat(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_taurat(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return TauRat(1) / self ** (-k)
        return TauRat(self.num ** k, self.den ** k)

    def __eq__(self, other):
        other = _as_taurat(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("TauRat", self.num.coeffs, self.den.coeffs))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        if self.is_zero:
            return "0"
        if self.num.degree == 0 and self.den.degree == 0:
            return format_rational(self.num.coeffs[0])
        ncs, dcs = _joint_integer_coeffs(self.num, self.den)
        if len(dcs) == 1 and dcs[0] == 1:
            return _poly_str(ncs)
        return "(%s)/(%s)" % (_poly_str(ncs), _poly_str(dcs))

    def __repr__(self):
        return "TauRat[%s]" % (self,)


TAU = TauRat(TauPoly((Fraction(0), Fraction(1))))


def _as_taurat(value):
    if isinstance(value, TauRat):
        return value
    if isinstance(value, (int, Fraction)):
        return TauRat(TauPoly((Fraction(value),)))
    if isinstance(value, TauPoly):
        return TauRat(value)
    return NotImplemented


def canonicalize(num, den):
    """Return num/den as the unique coprime, monic-denominator TauRat."""
    return TauRat(num, den)


def membership_in_lattice(x, a):
    """Decide whether x = A*a + B*t for some integers A, B.

    Returns the pair (A, B) when it exists, None otherwise.  Any member of
    the group Z<a> + Z<t> inside Q(t) is a polynomial of degree at most one,
    so after canonicalization x must have trivial denominator and its two
    coefficients must solve A = x_0/a, B = x_1 in integers.  Both conditions
    are decided exactly.
    """
    a = Fraction(a)
    if a == 0:
        raise ValueError("degenerate period generator")
    x = _as_taurat(x)
    if x is NotImplemented:
        raise TypeError("membership_in_lattice expects a TauRat")
    if x.den.degree != 0:  # canonical monic denominator of degree 0 is 1
        return None
    if x.num.degree > 1:
        return None
    A = x.num.coeff(0) / a
    B = x.num.coeff(1)
    if A.denominator != 1 or B.denominator != 1:
        return None
    return (int(A), int(B))


def eval_at(x, tau0):
    """Floating evaluation of x at t = tau0; raises at a pole."""
    x = _as_taurat(x)
    if x is NotImplemented:
        raise TypeError("eval_at expects a TauRat")
    den_value = float(x.den.evaluate(float(tau0)))
    if den_value == 0.0:
        raise ZeroDivisionError("evaluation at pole")
    return float(x.num.evaluate(float(tau0))) / den_value


def eval_exact(x, tau0):
    """Exact evaluation of x at a rational point tau0."""
    x = _as_taurat(x)
    tau0 = Fraction(tau0)
    den_value = x.den.evaluate(tau0)
    if den_value == 0:
        raise ZeroDivisionError("evaluation at pole")
    return Fraction(x.num.evaluate(tau0)) / den_value


# -- textual form ------------------------------------------------------------

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
# parse_taurat stores polynomials densely, so a larger exponent would
# allocate that many coefficients before any check could refuse it.
MAX_PARSE_DEGREE = 10_000


def format_rational(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def parse_rational(text):
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError("not a rational literal: %r" % (text,))
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None


def _joint_integer_coeffs(num, den):
    """Scale num and den by one positive rational to joint integer content 1."""
    entries = [c for c in num.coeffs + den.coeffs if c != 0]
    scale = Fraction(math.lcm(*(c.denominator for c in entries)),
                     math.gcd(*(abs(c.numerator) for c in entries)))
    ncs = [int(c * scale) for c in num.coeffs]
    dcs = [int(c * scale) for c in den.coeffs]
    return ncs, dcs


def _poly_str(coeffs):
    if not any(coeffs):
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = format_rational(mag) if isinstance(mag, Fraction) else str(mag)
        else:
            stem = "t" if i == 1 else "t^%d" % i
            if mag == 1:
                body = stem
            else:
                coeff_str = format_rational(mag) if isinstance(mag, Fraction) else str(mag)
                body = "%s*%s" % (coeff_str, stem)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def _parse_poly(text):
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    s = s.replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    coeffs = {}
    for term in s.split("+"):
        if not term:
            raise ValueError("malformed polynomial: %r" % (text,))
        if "t" in term:
            head, _, tail = term.partition("t")
            if head in ("", "-"):
                coeff = Fraction(head + "1")
            elif head.endswith("*"):
                coeff = parse_rational(head[:-1])
            else:
                raise ValueError("malformed term: %r" % (term,))
            if tail == "":
                power = 1
            elif tail.startswith("^") and tail[1:].isdigit():
                power = int(tail[1:])
            else:
                raise ValueError("malformed term: %r" % (term,))
            if power > MAX_PARSE_DEGREE:
                raise ValueError("degree %d exceeds the parser's cap of %d"
                                 % (power, MAX_PARSE_DEGREE))
        else:
            coeff = parse_rational(term)
            power = 0
        coeffs[power] = coeffs.get(power, Fraction(0)) + coeff
    out = [Fraction(0)] * (max(coeffs) + 1)
    for power, coeff in coeffs.items():
        out[power] = coeff
    return TauPoly(out)


def parse_taurat(text):
    """Parse the textual rendering back into a canonical TauRat."""
    s = text.strip()
    if not s:
        raise ValueError("empty rational-function literal")
    if s.startswith("("):
        close = s.index(")")
        num = _parse_poly(s[1:close])
        rest = s[close + 1:].strip()
        if not (rest.startswith("/") and rest[1:].strip().startswith("(")
                and rest.rstrip().endswith(")")):
            raise ValueError("malformed rational-function literal: %r" % (text,))
        inner = rest[1:].strip()
        den = _parse_poly(inner[1:-1])
        if den.is_zero:
            raise ValueError("zero denominator in %r" % (text,))
        return TauRat(num, den)
    return TauRat(_parse_poly(s))
