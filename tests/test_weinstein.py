"""Exact lift formulas for circle-type loops and the Calabi variant."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup.exact_field import TAU, TauRat, eval_at, eval_exact
from blowup.period import QuotientClass, class_order
from blowup.weinstein import (
    CircleLoopSpec,
    ManifoldSpec,
    ball_integral_closed_form,
    calabi_lift,
    circle_loop_order,
    lift_value_circle,
    lift_value_general,
)

ONE = TauRat(1)
M2 = ManifoldSpec(n=2, V=1, a=1)


def test_ball_integral_weighted():
    loop = CircleLoopSpec(weights=(1, 2), C=0)
    assert ball_integral_closed_form(loop, M2) == Fraction(-1, 2) * TAU ** 3


def test_ball_integral_constant_only():
    c = Fraction(5, 7)
    loop = CircleLoopSpec(weights=(0, 0), C=c)
    assert ball_integral_closed_form(loop, M2) == c * TAU ** 2


def test_ball_integral_three_weights():
    m3 = ManifoldSpec(n=3, V=1, a=1)
    loop = CircleLoopSpec(weights=(1, 1, 1), C=Fraction(1, 3))
    expected = Fraction(-1, 8) * TAU ** 4 + Fraction(1, 3) * TAU ** 3
    assert ball_integral_closed_form(loop, m3) == expected


def test_lift_general_zero():
    value = lift_value_general(TauRat(0), TauRat(0), M2)
    assert value.lifted_value.is_zero
    assert value.lattice.includes_tau


def test_lift_general_canonical_example():
    # the full ball integral for C=1/2, weights (1,2):  t^2/2 - t^3/2
    integral = Fraction(1, 2) * TAU ** 2 - Fraction(1, 2) * TAU ** 3
    value = lift_value_general(TauRat(Fraction(1, 2)), integral, M2)
    expected = (ONE + TAU + TAU ** 2) / (2 * (ONE + TAU))
    assert value.lifted_value == expected
    for t0 in (Fraction(2), Fraction(3)):
        direct = Fraction(1, 2) + (t0 ** 2 - t0 ** 3) / Fraction(2 * (1 - t0 ** 2))
        assert eval_exact(value.lifted_value, t0) == direct


def test_lift_circle_matches_weight_form():
    # lifted = C + (C t^n - K t^(n+1)/(n+1)!) / (V - t^n)
    #        = C V/(V - t^n) - (K/(n+1)!) t^(n+1)/(V - t^n)
    loop = CircleLoopSpec(weights=(1, 2), C=Fraction(1, 2))
    value = lift_value_circle(loop, M2)
    V = TauRat(M2.V)
    expected = (Fraction(1, 2) * V - Fraction(3, 6) * TAU ** 3) / (V - TAU ** 2)
    assert value.lifted_value == expected
    assert value.lifted_value == (ONE + TAU + TAU ** 2) / (2 * (ONE + TAU))
    assert value.base_value == TauRat(Fraction(1, 2))


def test_lift_circle_zero_loop():
    value = lift_value_circle(CircleLoopSpec(weights=(0, 0), C=0), M2)
    assert value.lifted_value.is_zero


def test_lift_rejects_weight_length_mismatch():
    with pytest.raises(ValueError, match="weights"):
        lift_value_circle(CircleLoopSpec(weights=(1,), C=0), M2)


@pytest.mark.parametrize("weights", [(1.5, 2.9), (1, "3"), (None, 1),
                                     (1, 2.0)])
def test_circle_loop_refuses_weights_that_are_not_integers(weights):
    # (1.5, 2.9) was read as (1, 2), so order and rank decided on weights
    # that the caller never gave
    with pytest.raises(ValueError, match="integers"):
        CircleLoopSpec(weights=weights)


def test_circle_loop_reads_integer_types_as_plain_ints():
    import numpy as np

    loop = CircleLoopSpec(weights=[np.int64(3), np.uint8(1), True])
    assert loop.weights == (3, 1, 1)
    assert all(type(m) is int for m in loop.weights)
    # a tuple of ints, as a manifest gives it, is kept as it is
    weights = (1, 2)
    assert CircleLoopSpec(weights=weights).weights is weights


def test_manifold_spec_validation():
    with pytest.raises(ValueError):
        ManifoldSpec(n=1, V=1, a=1)
    with pytest.raises(ValueError):
        ManifoldSpec(n=2, V=0, a=1)
    with pytest.raises(ValueError):
        ManifoldSpec(n=2, V=1, a=-1)


@pytest.mark.parametrize(
    "C,a,expected",
    [
        (Fraction(1, 2), Fraction(1), 2),
        (Fraction(3, 4), Fraction(1, 2), 2),
        (Fraction(0), Fraction(1), 1),
    ],
)
def test_circle_loop_order(C, a, expected):
    loop = CircleLoopSpec(weights=(1, 1), C=C)
    manifold = ManifoldSpec(n=2, V=1, a=a)
    assert circle_loop_order(loop, manifold) == expected
    if expected > 1:
        k = expected
        assert (k * C / a).denominator == 1
        for j in range(1, k):
            assert (j * C / a).denominator != 1


def test_calabi_identity_shift():
    loop = CircleLoopSpec(weights=(0, 0), C=0)
    base = TauRat(Fraction(3, 5))
    assert calabi_lift(base, loop, M2) == base


def test_calabi_weighted():
    loop = CircleLoopSpec(weights=(1, 2), C=0)
    assert calabi_lift(TauRat(0), loop, M2) == Fraction(1, 4) * TAU ** 3


def test_calabi_constant():
    loop = CircleLoopSpec(weights=(0, 0), C=1)
    assert calabi_lift(TauRat(1), loop, M2) == ONE - Fraction(1, 2) * TAU ** 2


# -- randomized structure ----------------------------------------------------

def loop_specs(n):
    return st.builds(
        CircleLoopSpec,
        weights=st.tuples(*([st.integers(min_value=-9, max_value=9)] * n)),
        C=st.fractions(min_value=-4, max_value=4, max_denominator=12),
    )


def manifold_specs():
    return st.builds(
        ManifoldSpec,
        n=st.integers(min_value=2, max_value=4),
        V=st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=6),
        a=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3)]),
    )


def assert_prints_as_sympy_cancel(value, expected, t):
    """str(value) is the reduced form of expected: coprime parts scaled by
    one positive rational to integers with no common factor, as the
    denominator is monic before scaling."""
    sympy = pytest.importorskip("sympy")
    text = str(value)
    if expected == 0:
        assert text == "0"
        return
    num, den = sympy.fraction(expected)
    num = sympy.Poly(num, t, domain="QQ")
    den = sympy.Poly(den, t, domain="QQ")
    num, den = num.quo_ground(den.LC()), den.monic()
    coeffs = [c for c in num.all_coeffs() + den.all_coeffs() if c]
    scale = sympy.Rational(math.lcm(*(int(c.q) for c in coeffs)),
                           math.gcd(*(int(c.p) for c in coeffs)))
    if text.startswith("("):
        num_text, den_text = text[1:-1].split(")/(")
    else:
        num_text, den_text = text, "1"

    def parse(part):
        return sympy.Poly(sympy.parse_expr(part.replace("^", "**"), {"t": t}),
                          t, domain="QQ")

    assert parse(num_text) == num * scale
    assert parse(den_text) == den * scale


@given(st.integers(min_value=2, max_value=12),
       st.sampled_from(["free", "cancelling", "K = 0", "C = 0"]), st.data())
@settings(max_examples=80, deadline=None)
def test_circle_lift_consistent_with_general(n, case, data):
    sympy = pytest.importorskip("sympy")
    weights = list(data.draw(st.lists(st.integers(min_value=-9, max_value=9),
                                      min_size=n, max_size=n)))
    if case == "K = 0":
        weights[-1] -= sum(weights)
    K = sum(weights)
    C = data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=12))
    V = data.draw(st.fractions(min_value=Fraction(1, 4), max_value=9,
                               max_denominator=6))
    if case == "cancelling":
        # t = u is a root of both V - t^n and C*t^n - K*t^(n+1)/(n+1)!
        u = data.draw(st.fractions(min_value=Fraction(1, 4), max_value=3,
                                   max_denominator=6))
        V, C = u ** n, u * K / math.factorial(n + 1)
    elif case == "C = 0":
        C = Fraction(0)
    manifold = ManifoldSpec(
        n=n, V=V, a=data.draw(st.sampled_from([Fraction(1), Fraction(2, 3)])))
    loop = CircleLoopSpec(weights=tuple(weights), C=C)
    via_circle = lift_value_circle(loop, manifold)
    via_general = lift_value_general(
        TauRat(loop.C), ball_integral_closed_form(loop, manifold), manifold
    )
    assert via_circle.lifted_value == via_general.lifted_value
    assert via_circle.base_value == via_general.base_value
    if case == "cancelling" and K != 0:
        assert via_circle.lifted_value.den.degree == n - 1

    t = sympy.Symbol("t")
    C, V = sympy.Rational(C), sympy.Rational(V)
    integral = -K * t ** (n + 1) / sympy.factorial(n + 1) + C * t ** n
    expected = sympy.cancel(C + integral / (V - t ** n))
    assert_prints_as_sympy_cancel(via_circle.lifted_value, expected, t)


@given(manifold_specs(), st.data())
@settings(max_examples=40)
def test_lift_depends_only_on_local_data(manifold, data):
    loop = data.draw(loop_specs(manifold.n))
    renamed = CircleLoopSpec(weights=loop.weights, C=loop.C, name="other")
    assert lift_value_circle(loop, manifold).lifted_value == \
        lift_value_circle(renamed, manifold).lifted_value


@given(manifold_specs(), st.data())
@settings(max_examples=40)
def test_degenerate_weight_limit_recovers_base(manifold, data):
    loop = data.draw(loop_specs(manifold.n))
    value = lift_value_circle(loop, manifold)
    lifted = eval_at(value.lifted_value, 1e-6)
    base = eval_at(value.base_value, 1e-6)
    assert abs(lifted - base) <= 1e-4


@given(manifold_specs(), st.data())
@settings(max_examples=60)
def test_lifted_class_has_infinite_order(manifold, data):
    loop = data.draw(loop_specs(manifold.n))
    value = lift_value_circle(loop, manifold)
    order = class_order(value.lifted_class())
    if loop.C == 0 and loop.weight_sum == 0:
        assert order == 1  # the lift of the trivial local datum
    else:
        assert order is None


@given(
    manifold_specs(),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
    st.data(),
)
@settings(max_examples=40)
def test_quotient_well_definedness(manifold, A, B, data):
    # shifting the base representative by a lattice member of the blow-up
    # lattice shifts the lift by the same member: classes agree
    loop = data.draw(loop_specs(manifold.n))
    value = lift_value_circle(loop, manifold)
    shift = A * manifold.a + B * TAU
    shifted = lift_value_general(
        TauRat(loop.C) + shift,
        ball_integral_closed_form(loop, manifold),
        manifold,
    )
    lhs = QuotientClass(shifted.lifted_value, value.lattice)
    rhs = QuotientClass(value.lifted_value + shift, value.lattice)
    assert lhs == rhs
    assert lhs == value.lifted_class()
