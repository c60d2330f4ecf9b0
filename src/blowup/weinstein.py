"""Lifting loop invariants to the one-point blow-up, exactly.

A circle-type loop near the blown-up point is generated by a Hamiltonian
of the form -pi * sum_j m_j |z_j|^2 + c_t on the standard ball.  Its data
here is the integer weight vector (m_1 .. m_n) together with the time
average C of c_t; the weight sum K = m_1 + ... + m_n is derived.  The loop
invariant of the base loop is the class [C] in R/Z<a>.

Writing t for the blow-up weight pi*rho^2, the invariant of the lifted
loop lives in R/(Z<a> + Z<t>) and is computed from two exact quantities:

  * the ball integral of the Hamiltonian over one period,
        -K * t^(n+1)/(n+1)! + C * t^n,
  * the blow-up volume V - t^n, where V is the volume of the base.

The lifted representative is  base + ball_integral/(V - t^n),  and the
Calabi-type invariant shifts by -(1/n!) times the same ball integral with
no quotient taken.  All values are elements of Q(t) in canonical form, so
downstream order and rank decisions are exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .exact_field import TauPoly, TauRat, _as_taurat
from .period import PeriodLattice, QuotientClass, blowup_lattice

__all__ = [
    "CircleLoopSpec",
    "ManifoldSpec",
    "WeinsteinValue",
    "ball_integral_closed_form",
    "lift_value_general",
    "lift_value_circle",
    "circle_loop_order",
    "calabi_lift",
]


@dataclass(frozen=True)
class CircleLoopSpec:
    """Weights and time-averaged constant of a circle-type loop.

    Weights of any integer type are read as ints; others raise ValueError.
    """

    weights: tuple
    C: Fraction = Fraction(0)
    name: str = ""

    def __post_init__(self):
        # a tuple of ints and a Fraction, as a manifest gives them, are kept
        weights = self.weights
        if type(weights) is not tuple or not all(type(m) is int for m in weights):
            try:
                weights = tuple(operator.index(m) for m in weights)
            except TypeError:
                raise ValueError("loop weights must be integers") from None
            object.__setattr__(self, "weights", weights)
        if type(self.C) is not Fraction:
            object.__setattr__(self, "C", Fraction(self.C))

    @property
    def weight_sum(self):
        return sum(self.weights)


@dataclass(frozen=True)
class ManifoldSpec:
    """Ambient data: half-dimension n, volume V, period generator a."""

    n: int
    V: Fraction
    a: Fraction
    gromov_width_bound: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "V", Fraction(self.V))
        object.__setattr__(self, "a", Fraction(self.a))
        if self.n < 2:
            raise ValueError("ambient dimension must exceed two (n >= 2)")
        if self.V <= 0:
            raise ValueError("volume must be positive")
        if self.a <= 0:
            raise ValueError("period generator must be positive")
        if self.gromov_width_bound is not None and self.gromov_width_bound <= 0:
            raise ValueError("width bound must be positive")

    def base_lattice(self):
        return PeriodLattice(self.a)

    def check_loop(self, loop):
        if len(loop.weights) != self.n:
            raise ValueError("loop has %d weights, manifold needs %d"
                             % (len(loop.weights), self.n))


@dataclass(frozen=True)
class WeinsteinValue:
    """Exact base and lifted loop invariants over the blow-up lattice."""

    base_value: TauRat
    lifted_value: TauRat
    lattice: PeriodLattice

    def base_class(self):
        return QuotientClass(self.base_value, PeriodLattice(self.lattice.a))

    def lifted_class(self):
        return QuotientClass(self.lifted_value, self.lattice)


def ball_integral_closed_form(loop, manifold):
    """Exact time-averaged integral of the loop Hamiltonian over the ball.

    Equals -K * t^(n+1)/(n+1)! + C * t^n with K the weight sum, on the
    ball of radius rho with t = pi*rho^2.  The two terms use different
    measures:

      * the K term is the Lebesgue integral of -pi * sum_j m_j |z_j|^2
        over the ball;
      * the C term C * t^n is n! times C times the Lebesgue volume
        t^n/n! of the ball, i.e. C times the volume in the normalization
        where the ball of weight t has volume t^n.

    Against one measure the terms differ by that factor n!.  Which
    convention is meant is an open question; the values are kept as they
    are, and tests pin both terms against quadrature.integrate_ball.
    """
    manifold.check_loop(loop)
    n = manifold.n
    K = Fraction(loop.weight_sum)
    return TauRat(TauPoly.monomial(-K / math.factorial(n + 1), n + 1)
                  + TauPoly.monomial(loop.C, n))


def lift_value_general(base, time_integral, manifold):
    """Lift an arbitrary loop invariant given its ball integral.

    lifted = base + time_integral / (V - t^n); the denominator is the
    blow-up volume, nonzero as a polynomial in t.
    """
    base = _as_taurat(base)
    time_integral = _as_taurat(time_integral)
    volume = TauRat(manifold.V - TauPoly.monomial(1, manifold.n))
    lifted = base + time_integral / volume
    return WeinsteinValue(
        base_value=base,
        lifted_value=lifted,
        lattice=blowup_lattice(manifold.base_lattice()),
    )


def lift_value_circle(loop, manifold):
    """Lift of a circle-type loop: base [C], lifted via the ball integral."""
    manifold.check_loop(loop)
    return lift_value_general(
        TauRat(loop.C), ball_integral_closed_form(loop, manifold), manifold
    )


def circle_loop_order(loop, manifold):
    """Order of the base class [C] in R/Z<a>: the denominator of C/a."""
    return (loop.C / manifold.a).denominator


def calabi_lift(base_cal, loop, manifold):
    """Calabi-type invariant of the lift; real-valued, no quotient.

    Returns base_cal - (1/n!) * ball_integral_closed_form(loop, manifold).
    """
    base_cal = _as_taurat(base_cal)
    shift = Fraction(1, math.factorial(manifold.n)) * ball_integral_closed_form(loop, manifold)
    return base_cal - shift
