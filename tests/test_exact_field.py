"""Exact arithmetic in Q(t): canonical forms, lattice membership, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup.exact_field import (
    MAX_PARSE_DEGREE,
    TAU,
    TauPoly,
    TauRat,
    canonicalize,
    eval_at,
    eval_exact,
    format_rational,
    membership_in_lattice,
    parse_rational,
    parse_taurat,
    poly_gcd,
)

ONE = TauRat(1)


def test_canonicalize_removes_common_factor():
    # (1 - t^3) / (2 - 2t^2) reduces by the factor 1 - t
    num = TauPoly([1, 0, 0, -1])
    den = TauPoly([2, 0, -2])
    x = canonicalize(num, den)
    assert x.num == TauPoly([Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)])
    assert x.den == TauPoly([1, 1])
    # the reduced pair must evaluate identically to the raw pair
    for t0 in (Fraction(2), Fraction(3), Fraction(5)):
        raw = Fraction(num.evaluate(t0)) / den.evaluate(t0)
        assert eval_exact(x, t0) == raw


def test_canonicalize_zero_numerator():
    x = canonicalize(TauPoly(), TauPoly([1, 7]))
    assert x.is_zero
    assert x.den == TauPoly([1])


def test_canonicalize_constant_cancellation():
    x = canonicalize(TauPoly([0, 3]), TauPoly([3]))
    assert x == TAU


def test_canonicalize_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        canonicalize(TauPoly([1]), TauPoly())


def test_membership_direct_readoff():
    x = TauRat(TauPoly([Fraction(3, 2), 2]))
    assert membership_in_lattice(x, Fraction(1, 2)) == (3, 2)


def test_membership_fails_for_fractional_constant():
    x = TauRat(TauPoly([Fraction(1, 2)]))
    assert membership_in_lattice(x, 1) is None
    # cross-check against brute force on a box of candidate pairs
    for A in range(-10, 11):
        for B in range(-10, 11):
            assert x != TauRat(TauPoly([A, B]))


def test_membership_zero():
    assert membership_in_lattice(TauRat(0), 1) == (0, 0)


def test_membership_degenerate_generator():
    with pytest.raises(ValueError, match="degenerate period generator"):
        membership_in_lattice(TAU, 0)


def test_eval_power():
    import math
    x = TAU ** 2
    assert eval_at(x, math.pi * 0.25) == pytest.approx((math.pi / 4) ** 2)


def test_eval_pole():
    x = ONE / (ONE - TAU)
    with pytest.raises(ZeroDivisionError, match="evaluation at pole"):
        eval_at(x, 1)


def test_eval_exact_rational_point():
    x = (ONE + TAU + TAU ** 2) / (2 * (ONE + TAU))
    assert eval_exact(x, 2) == Fraction(7, 6)
    assert eval_at(x, 2.0) == pytest.approx(7 / 6)


# -- randomized algebra ------------------------------------------------------

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def taupolys(max_degree=4, nonzero=False):
    base = st.lists(rationals, min_size=0, max_size=max_degree + 1).map(TauPoly)
    if nonzero:
        return base.filter(lambda p: not p.is_zero)
    return base


def taurats(max_degree=3):
    return st.builds(
        lambda n, d: TauRat(n, d),
        taupolys(max_degree),
        taupolys(max_degree, nonzero=True),
    )


@given(taurats(), taupolys(nonzero=True))
def test_canonical_form_unique(x, g):
    assert canonicalize(x.num * g, x.den * g) == x


@given(taurats(2), taurats(2), taurats(2))
@settings(max_examples=60)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero:
        assert x * (ONE / x) == ONE


@given(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
    st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6),
)
def test_membership_recovers_constructed_members(A0, B0, a):
    x = TauRat(TauPoly([A0 * a, B0]))
    assert membership_in_lattice(x, a) == (A0, B0)


@given(taurats(2), st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4))
@settings(max_examples=40)
def test_membership_agrees_with_brute_force(x, a):
    got = membership_in_lattice(x, a)
    brute = None
    for A in range(-20, 21):
        for B in range(-20, 21):
            if x == TauRat(TauPoly([A * a, B])):
                brute = (A, B)
                break
        if brute:
            break
    if brute is not None:
        assert got == brute
    elif got is not None:
        A, B = got
        assert not (-20 <= A <= 20 and -20 <= B <= 20)


@given(taurats(2), taurats(2))
@settings(max_examples=60)
def test_eval_is_multiplicative(x, y):
    t0 = 1.7254  # generic point, avoids the small rational poles above
    try:
        ex, ey, exy = eval_at(x, t0), eval_at(y, t0), eval_at(x * y, t0)
    except ZeroDivisionError:
        return
    scale = max(1.0, abs(ex) * abs(ey))
    assert abs(exy - ex * ey) <= 1e-12 * scale


@given(taupolys(nonzero=True), taupolys(nonzero=True))
@settings(max_examples=60)
def test_poly_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    assert (p % g).is_zero
    assert (q % g).is_zero
    assert g.lead == 1


# -- textual form ------------------------------------------------------------

def test_render_matches_grammar():
    x = (ONE + TAU + TAU ** 2) / (2 * (ONE + TAU))
    assert str(x) == "(t^2 + t + 1)/(2*t + 2)"
    assert str(TauRat(0)) == "0"
    assert str(TAU) == "t"
    assert str(TauRat(Fraction(1, 2))) == "1/2"


def test_parse_examples():
    assert parse_taurat("(t^2 + t + 1)/(2*t + 2)") == \
        (ONE + TAU + TAU ** 2) / (2 * (ONE + TAU))
    assert parse_taurat("0") == TauRat(0)
    assert parse_taurat("3/2") == TauRat(Fraction(3, 2))
    assert parse_taurat("-t^2 + 1") == ONE - TAU ** 2


@given(taurats())
@settings(max_examples=80)
def test_render_parse_round_trip(x):
    assert parse_taurat(str(x)) == x


@pytest.mark.parametrize("text", [
    "(t)/(0)", "(t)/(t - t)", "1/0", "(t)/(1/0*t)",
    "1e400*t", "1.5", "t^%d" % (MAX_PARSE_DEGREE + 1),
    "(1)/(t^%d + 1)" % (MAX_PARSE_DEGREE + 1),
])
def test_parse_rejects_malformed_literal(text):
    with pytest.raises(ValueError):
        parse_taurat(text)


def test_parse_accepts_degree_at_cap():
    assert parse_taurat("t^%d" % MAX_PARSE_DEGREE).num.degree == MAX_PARSE_DEGREE


@given(taurats(), taupolys(max_degree=2, nonzero=True))
@settings(max_examples=40, deadline=None)
def test_canonical_form_matches_sympy_cancel(x, g):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def to_sympy(p):
        return sum((sympy.Rational(c.numerator, c.denominator) * t ** i
                    for i, c in enumerate(p.coeffs)), sympy.Integer(0))

    def from_sympy(expr):
        coeffs = sympy.Poly(expr, t).all_coeffs()[::-1]
        return TauPoly([Fraction(int(c.p), int(c.q)) for c in coeffs])

    num, den = sympy.fraction(sympy.cancel(to_sympy(x.num * g) / to_sympy(x.den * g)))
    lead = sympy.Poly(den, t).LC()
    got = TauRat(x.num * g, x.den * g)
    assert got.num == from_sympy(sympy.expand(num / lead))
    assert got.den == from_sympy(sympy.expand(den / lead))


def test_rational_strings():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert format_rational(Fraction(8, 4)) == "2"
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("3/0")
