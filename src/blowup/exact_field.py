"""Exact arithmetic in the rational-function field Q(t).

The indeterminate t stands for the blow-up weight pi*rho^2.  The weight is
transcendental over Q, so it is kept formal in every exact code path: two
values are equal exactly when they are equal as rational functions, and
comparing coefficients of powers of t is a legitimate proof step.  No float
ever enters this module except through eval_at.

Representation invariants:
  * TauPoly holds a dense tuple of Python ints over one positive int
    denominator: ints (a_0, ..., a_m) and den stand for sum_i a_i/den t**i.
    gcd(den, a_0, ..., a_m) == 1 and a_m != 0; the zero polynomial is
    ((), 1).  Every operation works on the ints and normalizes its result
    with a single gcd, so no Fraction arises inside +, *, divmod or monic;
    Fractions appear only in the constructor and the coeffs, coeff and
    lead accessors.
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
    "membership_in_lattice",
    "eval_at",
    "eval_exact",
    "poly_gcd",
    "parse_taurat",
    "parse_rational",
    "format_rational",
]


class TauPoly:
    """Dense univariate polynomial over Q in the indeterminate t.

    Held as integer numerators over one positive integer denominator; the
    Fraction coefficients exist only at the API edge (the constructor and
    the coeffs, coeff and lead accessors).
    """

    __slots__ = ("_ints", "_den")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # over the lcm of reduced denominators the numerators have no
        # factor in common with it, so the pair is already canonical
        den = math.lcm(*(c.denominator for c in cs))
        self._ints = tuple(c.numerator * (den // c.denominator) for c in cs)
        self._den = den

    @classmethod
    def monomial(cls, coeff, power):
        coeff = Fraction(coeff)
        if coeff == 0:
            return cls()
        return _raw((0,) * power + (coeff.numerator,), coeff.denominator)

    @property
    def coeffs(self):
        """The coefficients as Fractions, entry i for t**i."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._ints)

    @property
    def degree(self):
        return len(self._ints) - 1  # zero polynomial has degree -1

    @property
    def is_zero(self):
        return not self._ints

    @property
    def lead(self):
        if not self._ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._ints[-1], self._den)

    def coeff(self, i):
        if 0 <= i < len(self._ints):
            return Fraction(self._ints[i], self._den)
        return Fraction(0)

    def monic(self):
        ints = self._ints
        if not ints or ints[-1] == self._den:
            return self
        # A/d divided by its leading coefficient A_m/d is A/A_m
        return _canonical(list(ints), ints[-1])

    def evaluate(self, x):
        """Exact value at the rational x, as a Fraction."""
        x = Fraction(x)
        value, scale = _horner(self._ints, x.numerator, x.denominator)
        return Fraction(value, self._den * scale)

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, d = self._ints, self._den
        b, e = other._ints, other._den
        if not b:
            return self
        if not a:
            return other
        if d != e:  # bring both over lcm(d, e)
            g = math.gcd(d, e)
            if e != g:
                a = [c * (e // g) for c in a]
            if d != g:
                b = [c * (d // g) for c in b]
            d = d // g * e
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _canonical(out, d)

    __radd__ = __add__

    def __neg__(self):
        return _raw(tuple(-c for c in self._ints), self._den)

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
        a, b = self._ints, other._ints
        if not a or not b:
            return TauPoly()
        terms = [(j, y) for j, y in enumerate(b) if y]
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in terms:
                    out[i + j] += x * y
        return _canonical(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = _raw((1,), 1)
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
        return _divide(self, other, True)

    def __floordiv__(self, other):
        q, _ = divmod(self, other)
        return q

    def __mod__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _divide(self, other, False)[1]

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._ints == other._ints and self._den == other._den

    def __hash__(self):
        return hash(("TauPoly", self._ints, self._den))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        return _poly_str(self._ints if self._den == 1 else self.coeffs)

    def __repr__(self):
        return "TauPoly(%r)" % (list(self.coeffs),)


def _raw(ints, den):
    """The TauPoly ints/den, for a pair already in canonical form."""
    p = object.__new__(TauPoly)
    p._ints = ints
    p._den = den
    return p


def _canonical(ints, den):
    """The TauPoly ints/den for a list ints and any nonzero int den.

    Drops trailing zeros, then divides out gcd(den, *ints), signed so the
    denominator comes out positive.
    """
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return _raw((), 1)
    g = math.gcd(den, *ints)
    if den < 0:
        g = -g
    if g != 1:
        ints = [c // g for c in ints]
        den //= g
    return _raw(tuple(ints), den)


def _as_poly(value):
    if isinstance(value, TauPoly):
        return value
    if isinstance(value, int):
        return _raw((value,), 1) if value else _raw((), 1)
    if isinstance(value, Fraction):
        return _raw((value.numerator,), value.denominator) if value else _raw((), 1)
    return NotImplemented


def _horner(ints, p, q):
    """(v, q**m) with sum_i ints[i] * (p/q)**i = v / q**m, m the degree.

    A run of zero coefficients costs one power of p and one of q, so
    V - t**n takes O(log n) products, not n.
    """
    if not ints:
        return 0, 1
    value, scale, run = ints[-1], 1, 0
    for i in range(len(ints) - 2, -1, -1):
        run += 1
        if ints[i]:
            scale *= q ** run
            value = value * p ** run + ints[i] * scale
            run = 0
    if run:
        scale *= q ** run
        value *= p ** run
    return value, scale


def _divide(p, q, want_quotient):
    """(quotient, remainder) of p by q over Q; quotient None unless wanted.

    Pseudo-division over Z (Knuth, TAOCP vol. 2, 4.6.1) of p's integers A
    by q's integers B of degree m and lead v.  The step at t**k cancels
    the top entry u = A[k+m] by A <- (v/g)*A - (u/g)*B*t**k, g = gcd(u, v),
    so nothing is scaled while v divides u, as it always does when v = 1.
    A scale v/g (negative when v is) touches only the m entries A[k:k+m] under B; an entry
    below them takes the product of all scales so far once, as it enters.
    The remainder of p by q does not depend on q's denominator, and the
    quotient is formed only when wanted.  Without it, a linear q gives the
    remainder as p's value at q's root, by _horner, which takes the lift's
    Euclid step on V - t**n in O(log n) products.
    """
    B = q._ints
    if not B:
        raise ZeroDivisionError("division by zero")
    m = len(B) - 1
    A = list(p._ints)
    if len(A) <= m:
        return (TauPoly() if want_quotient else None), p
    v = B[-1]
    if m == 1 and not want_quotient:
        value, scale = _horner(A, -B[0], v)
        return None, _canonical([value], p._den * scale)
    terms = [(j, y) for j, y in enumerate(B[:m]) if y]
    scale = 1
    steps = []
    for k in range(len(A) - 1 - m, -1, -1):
        if scale != 1:
            A[k] *= scale  # entry k joins the window
        top = A[k + m]
        if not top:
            if want_quotient:
                steps.append((0, 1))
            continue
        g = math.gcd(top, v)
        mult, c = v // g, top // g
        if mult != 1:
            for i in range(k, k + m):
                A[i] *= mult
            scale *= mult
        for j, y in terms:
            A[k + j] -= c * y
        if want_quotient:
            steps.append((c, mult))
    den = p._den * scale
    remainder = _canonical(A[:m], den)
    if not want_quotient:
        return None, remainder
    # scale * A = Q' * B + R': the step-k quotient entry c is multiplied by
    # every later step's mult; p // q is then q._den * Q' / den
    quo = []
    later = q._den
    for c, mult in reversed(steps):
        quo.append(c * later)
        later *= mult
    return _canonical(quo, den), remainder


# the product of three word-size primes
_MODULUS = (2 ** 61 - 1) * (2 ** 32 - 5) * (2 ** 31 - 1)


def _root_residue(ints, p, q):
    """_horner's value sum_i ints[i] p**i q**(m-i) modulo _MODULUS."""
    value, scale, run = ints[-1], 1, 0
    for i in range(len(ints) - 2, -1, -1):
        run += 1
        if ints[i]:
            scale = scale * pow(q, run, _MODULUS) % _MODULUS
            value = (value * pow(p, run, _MODULUS) + ints[i] * scale) % _MODULUS
            run = 0
    return value * pow(p, run, _MODULUS) % _MODULUS


def poly_gcd(p, q):
    """Monic greatest common divisor of two polynomials over Q."""
    while not q.is_zero:
        # by a linear q a nonzero residue of p(root) leaves the gcd 1
        if (q.degree == 1 and p._ints
                and _root_residue(p._ints, -q._ints[0], q._ints[1])):
            return _raw((1,), 1)
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
            num, den = TauPoly(), _raw((1,), 1)
        else:
            if den.degree > 0:  # a nonzero constant is coprime to every num
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num, den = num // g, den // g
            lead, scale = den._ints[-1], den._den
            if lead != scale:
                # divide both by den's leading coefficient lead/scale
                num = _canonical([c * scale for c in num._ints], num._den * lead)
                den = den.monic()
        self.num = num
        self.den = den

    @property
    def is_zero(self):
        return self.num.is_zero

    def __add__(self, other):
        """Sum, with no gcd when one summand is a polynomial.

        With b/1 + a/d the pair (a + b*d, d) is already canonical: d is
        monic and gcd(a + b*d, d) = gcd(a, d) = 1.  Equal denominators
        add numerators over d and cancel from there (Knuth, TAOCP vol. 2,
        4.5.1); any other pair is cross-multiplied.
        """
        other = _as_taurat(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.degree == 0 or other.den.degree == 0:
            poly, frac = (self, other) if self.den.degree == 0 else (other, self)
            num = frac.num + poly.num * frac.den
            if num.is_zero:
                return TauRat()
            result = object.__new__(TauRat)
            result.num = num
            result.den = frac.den
            return result
        if self.den == other.den:
            return TauRat(self.num + other.num, self.den)
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
        return hash(("TauRat", self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        if self.is_zero:
            return "0"
        if self.num.degree == 0 and self.den.degree == 0:
            return format_rational(self.num.lead)
        ncs, dcs = _joint_integer_coeffs(self.num, self.den)
        if len(dcs) == 1 and dcs[0] == 1:
            return _poly_str(ncs)
        return "(%s)/(%s)" % (_poly_str(ncs), _poly_str(dcs))

    def __repr__(self):
        return "TauRat[%s]" % (self,)


TAU = TauRat(_raw((0, 1), 1))


def _as_taurat(value):
    if isinstance(value, TauRat):
        return value
    if isinstance(value, (int, Fraction)):
        return TauRat(_as_poly(value))
    if isinstance(value, TauPoly):
        return TauRat(value)
    return NotImplemented


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
    """Value of x at the float t = tau0, correctly rounded; raises at a pole.

    A float is an exact dyadic rational, so x is evaluated exactly at
    Fraction(tau0) and rounded once.  A value too large for a float
    raises OverflowError.
    """
    return float(eval_exact(x, Fraction(tau0)))


def eval_exact(x, tau0):
    """Exact evaluation of x at a rational point tau0."""
    x = _as_taurat(x)
    if x is NotImplemented:
        raise TypeError("eval_exact expects a TauRat")
    tau0 = Fraction(tau0)
    p, q = tau0.numerator, tau0.denominator
    num, num_scale = _horner(x.num._ints, p, q)
    den, den_scale = _horner(x.den._ints, p, q)
    if den == 0:
        raise ZeroDivisionError("evaluation at pole")
    # num(tau0) = num / (x.num._den * num_scale), and likewise for den
    return Fraction(num * x.den._den * den_scale, den * x.num._den * num_scale)


# -- textual form ------------------------------------------------------------

_RATIONAL_RE = re.compile(r"^([+-]?)(\d+)(?:/(\d+))?$")
# parse_taurat stores polynomials densely, so a larger exponent would
# allocate that many coefficients before any check could refuse it.
MAX_PARSE_DEGREE = 10_000


def format_rational(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def parse_rational(text):
    """The Fraction written "p/q" or "p", with an optional sign and
    surrounding whitespace.

    The match groups give the integers directly, numerator digits before
    denominator digits as Fraction(str) reads them, so a literal past the
    interpreter's int-to-string digit limit fails with the same ValueError.
    """
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise ValueError("not a rational literal: %r" % (text,))
    sign, num, den = match.groups()
    numerator = int(num)
    denominator = int(den) if den is not None else 1
    if denominator == 0:
        raise ValueError("zero denominator in %r" % (text,))
    return Fraction(-numerator if sign == "-" else numerator, denominator)


def _joint_integer_coeffs(num, den):
    """Scale num and den by one positive rational to joint integer content 1.

    num = A/d and den = B/e times d*e are the integers A*e and B*d, which
    then lose their joint content.
    """
    ncs = [c * den._den for c in num._ints]
    dcs = [c * num._den for c in den._ints]
    g = math.gcd(*ncs, *dcs)
    return [c // g for c in ncs], [c // g for c in dcs]


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
