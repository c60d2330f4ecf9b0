"""Period groups of the base manifold and its one-point blow-up.

The base period group is the cyclic subgroup Z<a> of the reals with a > 0
rational.  Blowing up a point of weight rho adds the generator t = pi*rho^2,
giving Z<a> + Z<t>.  Because t is transcendental over Q, membership and
element order in the quotient R / lattice are decided exactly by coefficient
comparison in Q(t); no search with a cutoff is ever needed, and "infinite"
comes with a symbolic certificate rather than a timeout.

class_order returns a positive integer or None, None meaning infinite order.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact_field import TauRat, _as_taurat, membership_in_lattice

__all__ = ["PeriodLattice", "QuotientClass", "blowup_lattice", "class_order"]


class PeriodLattice:
    """The subgroup Z<a> of R, extended by Z<t> when includes_tau is set."""

    __slots__ = ("a", "includes_tau")

    def __init__(self, a, includes_tau=False):
        a = Fraction(a)
        if a <= 0:
            raise ValueError("period generator must be positive")
        self.a = a
        self.includes_tau = bool(includes_tau)

    def decompose(self, x):
        """Integer coordinates (A, B) with x = A*a + B*t, or None.

        For a base lattice the t-coordinate must vanish, so members come
        back as (A, 0).
        """
        coords = membership_in_lattice(x, self.a)
        if coords is None:
            return None
        if not self.includes_tau and coords[1] != 0:
            return None
        return coords

    def __contains__(self, x):
        return self.decompose(x) is not None

    def __eq__(self, other):
        if not isinstance(other, PeriodLattice):
            return NotImplemented
        return self.a == other.a and self.includes_tau == other.includes_tau

    def __hash__(self):
        return hash((self.a, self.includes_tau))

    def __repr__(self):
        if self.includes_tau:
            return "PeriodLattice(Z<%s> + Z<t>)" % (self.a,)
        return "PeriodLattice(Z<%s>)" % (self.a,)


def blowup_lattice(base):
    """Extend the base period group by the blow-up weight generator t."""
    if base.includes_tau:
        raise ValueError("already extended")
    return PeriodLattice(base.a, includes_tau=True)


class QuotientClass:
    """A class [value] in R / lattice, equality decided by exact membership."""

    __slots__ = ("value", "lattice")

    def __init__(self, value, lattice):
        value = _as_taurat(value)
        if value is NotImplemented:
            raise TypeError("QuotientClass value must be a TauRat")
        self.value = value
        self.lattice = lattice

    def __add__(self, other):
        if not isinstance(other, QuotientClass) or other.lattice != self.lattice:
            return NotImplemented
        return QuotientClass(self.value + other.value, self.lattice)

    def __neg__(self):
        return QuotientClass(-self.value, self.lattice)

    def __eq__(self, other):
        if not isinstance(other, QuotientClass):
            return NotImplemented
        if other.lattice != self.lattice:
            return False
        return (self.value - other.value) in self.lattice

    def __hash__(self):
        # Hash a canonical representative.  Split value = q + r/den with r/den
        # proper; a lattice shift A*a + B*t moves only the t^0 and t^1
        # coefficients of q, so reducing those mod a and (when t is in the
        # lattice) mod 1 gives the same data for every member of the class.
        q, r = divmod(self.value.num, self.value.den)
        c1 = q.coeff(1) % 1 if self.lattice.includes_tau else q.coeff(1)
        reduced = (q.coeff(0) % self.lattice.a, c1) + q.coeffs[2:]
        return hash(("QuotientClass", reduced, r.coeffs, self.value.den.coeffs,
                     self.lattice))

    def order(self):
        return class_order(self)

    def __repr__(self):
        return "QuotientClass(%s mod %r)" % (self.value, self.lattice)


def class_order(x):
    """Smallest k >= 1 with k*[x] = 0 in R / lattice, or None for infinite.

    Scaling by a nonzero rational k cannot change the canonical denominator
    or the set of degrees present in a rational function, so a class of
    finite order must already be a polynomial A + B*t with rational A, B
    (and B = 0 over a base lattice).  What remains is the pair of
    divisibility conditions k*A/a and k*B integral, whose least solution is
    a lcm of two denominators.  This is a certificate, not a search.
    """
    value, lattice = x.value, x.lattice
    if value.den.degree != 0:
        return None  # denominator survives every integer multiple
    if value.num.degree > 1:
        return None  # a t^j term with j >= 2 is never a lattice member
    c0 = value.num.coeff(0)
    c1 = value.num.coeff(1)
    if c1 != 0 and not lattice.includes_tau:
        return None
    base_mult = (c0 / lattice.a).denominator
    tau_mult = c1.denominator
    return math.lcm(base_mult, tau_mult)
