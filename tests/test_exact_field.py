"""Exact arithmetic in Q(t): canonical forms, lattice membership, evaluation."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blowup import exact_field
from blowup.exact_field import (
    MAX_PARSE_DEGREE,
    TAU,
    TauPoly,
    TauRat,
    eval_at,
    eval_exact,
    format_rational,
    membership_in_lattice,
    parse_rational,
    parse_taurat,
    poly_gcd,
)
from blowup.weinstein import CircleLoopSpec, ManifoldSpec, lift_value_circle

ONE = TauRat(1)


def test_canonicalize_removes_common_factor():
    # (1 - t^3) / (2 - 2t^2) reduces by the factor 1 - t
    num = TauPoly([1, 0, 0, -1])
    den = TauPoly([2, 0, -2])
    x = TauRat(num, den)
    assert x.num == TauPoly([Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)])
    assert x.den == TauPoly([1, 1])
    # the reduced pair must evaluate identically to the raw pair
    for t0 in (Fraction(2), Fraction(3), Fraction(5)):
        raw = Fraction(num.evaluate(t0)) / den.evaluate(t0)
        assert eval_exact(x, t0) == raw


def test_canonicalize_zero_numerator():
    x = TauRat(TauPoly(), TauPoly([1, 7]))
    assert x.is_zero
    assert x.den == TauPoly([1])


def test_canonicalize_constant_cancellation():
    x = TauRat(TauPoly([0, 3]), TauPoly([3]))
    assert x == TAU


def test_canonicalize_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        TauRat(TauPoly([1]), TauPoly())


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
    assert TauRat(x.num * g, x.den * g) == x


@given(taurats(2), taurats(2), taurats(2))
@settings(max_examples=60)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero:
        assert x * (ONE / x) == ONE


def cross_multiplied_sum(x, y):
    return TauRat(x.num * y.den + y.num * x.den, x.den * y.den)


@given(taurats(), taupolys(),
       st.sampled_from(["equal", "polynomial", "cancelling"]))
# 1/(t^2 - 1) + t/(t^2 - 1) = 1/(t - 1): an equal-denominator sum that
# cancels a factor of the denominator
@example(TauRat(1, TauPoly([-1, 0, 1])), TauPoly([0, 1]), "equal")
@settings(max_examples=80, deadline=None)
def test_sum_shortcuts_match_cross_multiplied_sum(x, p, kind):
    if kind == "equal":
        # y keeps x's denominator unless p shares a factor with it
        y = TauRat(p, x.den)
        assume(y.den == x.den)
    elif kind == "polynomial":
        y = TauRat(p)
    else:
        y = -x + TauRat(p)
    # == compares the canonical parts, so this also pins the zero's den 1
    assert x + y == y + x == cross_multiplied_sum(x, y)
    assert x - x == TauRat()


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


def test_poly_gcd_by_a_linear_divisor_decides_on_residues(monkeypatch):
    # a remainder by t - a is p(a): its residues settle a nonzero one, and
    # only a value that vanishes modulo every prime is formed exactly
    formed = []
    horner = exact_field._horner
    monkeypatch.setattr(exact_field, "_horner",
                        lambda *args: formed.append(args) or horner(*args))
    a = Fraction(3, 2)
    root = TauPoly([-a, 1])
    cofactor = TauPoly([7 ** 90, 0, 0, -5, 11 ** 40])
    assert poly_gcd(root * cofactor, 2 * root) == root
    assert len(formed) == 1
    formed.clear()
    assert poly_gcd(root * cofactor + 1, root) == TauPoly([1])
    assert formed == []
    # p(3) is the product of the primes, so its residue is 0 and the exact
    # value decides
    shifted = TauPoly([-3, 1]) * cofactor + exact_field._MODULUS
    assert poly_gcd(shifted, TauPoly([-3, 1])) == TauPoly([1])
    assert len(formed) == 1


def test_lift_at_n_1500_forms_no_linear_remainder(monkeypatch):
    # the last Euclid step of V - t^n by a linear remainder meets the
    # root's n-th power, thousands of digits long: residues decide it
    formed = []
    horner = exact_field._horner
    monkeypatch.setattr(exact_field, "_horner",
                        lambda *args: formed.append(args) or horner(*args))
    n = 1500
    lifted = lift_value_circle(CircleLoopSpec(weights=(1,) * n,
                                              C=Fraction(1, 3)),
                               ManifoldSpec(n=n, V=Fraction(2), a=Fraction(1)))
    assert lifted.lifted_value.den.degree == n
    assert formed == []


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


wide_rationals = st.fractions(min_value=-10**6, max_value=10**6,
                              max_denominator=10**4)


def wide_taupolys(max_degree, nonzero=False):
    base = st.lists(st.one_of(st.just(Fraction(0)), rationals, wide_rationals),
                    max_size=max_degree + 1).map(TauPoly)
    return base.filter(lambda p: not p.is_zero) if nonzero else base


def sympy_poly(p):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly([sympy.Rational(c) for c in reversed(p.coeffs)] or [0],
                      sympy.Symbol("t"), domain="QQ")


@given(wide_taupolys(7), wide_taupolys(3, nonzero=True),
       st.one_of(rationals, wide_rationals))
@settings(max_examples=120, deadline=None)
def test_kernel_matches_sympy_poly(p, q, x):
    sympy = pytest.importorskip("sympy")
    P, Q = sympy_poly(p), sympy_poly(q)
    assert sympy_poly(p + q) == P + Q
    assert sympy_poly(p - q) == P - Q
    assert sympy_poly(p * q) == P * Q
    quo, rem = divmod(p, q)
    assert (sympy_poly(quo), sympy_poly(rem)) == sympy.div(P, Q)
    assert p % q == rem
    assert sympy_poly(poly_gcd(p, q)) == sympy.gcd(P, Q)
    assert sympy_poly(q.monic()) == Q.monic()
    assert p.evaluate(x) == Fraction(str(P.eval(sympy.Rational(x))))


@given(wide_taupolys(5, nonzero=True),
       st.fractions(min_value=-10**4, max_value=10**4).filter(bool))
def test_proportional_polynomials_share_one_canonical_form(p, s):
    scaled = TauPoly([s * c for c in p.coeffs])
    assert scaled.monic() == p.monic()
    assert hash(scaled.monic()) == hash(p.monic())
    back = scaled * (1 / s)
    assert back == p
    assert hash(back) == hash(p)
    assert (scaled == p) == (s == 1)


def test_rational_strings():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert format_rational(Fraction(8, 4)) == "2"
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("3/0")


_OLD_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def old_parse_rational(text):
    """The parser as it was: its regex, then Fraction(str) on the match."""
    s = text.strip()
    if not _OLD_RATIONAL_RE.match(s):
        raise ValueError("not a rational literal: %r" % (text,))
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None


def parse_outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return "ValueError: %s" % exc
    assert type(value) is Fraction
    return value


# ASCII digits, Arabic-Indic three, fullwidth zero, double-struck one; then
# superscript two and an underscore, which \d and int() both refuse
_DIGITS = "0123456789\u0663\uff10\U0001d7d9"
_NOT_DIGITS = "\u00b2_."
_SPACE = st.sampled_from(["", " ", "\t", "\n ", "\u3000", "\xa0"])
_SIGN = st.sampled_from(["", "+", "-", "--", "+-"])
_DIGIT_RUN = st.text(alphabet=_DIGITS + _NOT_DIGITS, max_size=6)
_LITERALS = st.one_of(
    st.text(max_size=12),
    st.text(alphabet=_DIGITS + "+-/ ", max_size=12),
    st.builds(lambda lead, sign, num, den, trail: lead + sign + num + den + trail,
              _SPACE, _SIGN, _DIGIT_RUN,
              st.one_of(st.just(""), st.just("/"), _DIGIT_RUN.map("/".__add__)),
              _SPACE),
    # around int()'s 4,300-digit limit, in either part
    st.builds(lambda sign, digit, count, den: sign + digit * count + den,
              _SIGN, st.sampled_from("07\u0663"),
              st.integers(min_value=4_290, max_value=4_310),
              st.sampled_from(["", "/3", "/0", "/" + "9" * 5_000])),
)


@given(_LITERALS)
@example("")
@example("/")
@example("   ")
@example("0007/0004")
@example(" -12/0 ")
@example("3/" + "1" * 5_000)
@example("1" * 5_000 + "/0")
@settings(max_examples=300)
def test_parse_rational_matches_the_regex_and_fraction_parser(text):
    assert parse_outcome(parse_rational, text) == parse_outcome(old_parse_rational, text)
