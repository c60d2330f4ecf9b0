"""Period lattices and exact order decisions in R / lattice."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup.exact_field import TAU, TauPoly, TauRat, membership_in_lattice
from blowup.period import PeriodLattice, QuotientClass, blowup_lattice, class_order
from blowup.weinstein import CircleLoopSpec, ManifoldSpec, lift_value_circle

ONE = TauRat(1)


@pytest.mark.parametrize("a", [1, Fraction(1, 2)])
def test_blowup_lattice_extends(a):
    base = PeriodLattice(a)
    extended = blowup_lattice(base)
    assert extended.a == a
    assert extended.includes_tau
    assert not base.includes_tau


def test_blowup_lattice_rejects_double_extension():
    with pytest.raises(ValueError, match="already extended"):
        blowup_lattice(PeriodLattice(1, includes_tau=True))


def test_lattice_generator_positive():
    with pytest.raises(ValueError):
        PeriodLattice(0)
    with pytest.raises(ValueError):
        PeriodLattice(Fraction(-1, 2))


def test_base_lattice_rejects_tau_terms():
    base = PeriodLattice(1)
    assert TauRat(TauPoly([2])) in base
    assert TAU not in base
    assert blowup_lattice(base).decompose(TAU) == (0, 1)


def test_order_denominator_readoff():
    x = QuotientClass(TauRat(Fraction(1, 3)), PeriodLattice(1))
    assert class_order(x) == 3


def test_order_infinite_for_lift_shaped_value():
    # value (a/n_j) V/(V - t^n) - (K/(n+1)!) t^(n+1)/(V - t^n)
    # with n=2, a=1, V=2, n_j=2, K=1
    V = TauRat(2)
    x_val = Fraction(1, 2) * V / (V - TAU ** 2) - Fraction(1, 6) * TAU ** 3 / (V - TAU ** 2)
    lattice = PeriodLattice(1, includes_tau=True)
    assert class_order(QuotientClass(x_val, lattice)) is None
    # cross-check: no small multiple lands in the lattice
    for k in range(1, 101):
        assert membership_in_lattice(k * x_val, 1) is None


def test_order_one_for_lattice_member():
    lattice = PeriodLattice(1, includes_tau=True)
    x = QuotientClass(5 * ONE + 7 * TAU, lattice)
    assert class_order(x) == 1


def test_order_mixed_denominators():
    lattice = PeriodLattice(Fraction(1, 2), includes_tau=True)
    x = QuotientClass(TauRat(Fraction(3, 4)) + Fraction(1, 3) * TAU, lattice)
    # k*(3/4) in Z/2 needs k = 2 mod ...; k*(1/3) in Z needs 3 | k
    k = class_order(x)
    assert k == 6
    assert membership_in_lattice(k * x.value, lattice.a) is not None
    for j in range(1, k):
        coords = membership_in_lattice(j * x.value, lattice.a)
        assert coords is None


@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=8),
    st.fractions(min_value=-5, max_value=5, max_denominator=8),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
)
def test_order_invariant_under_lattice_shifts(c0, c1, A, B):
    lattice = PeriodLattice(1, includes_tau=True)
    x = QuotientClass(TauRat(TauPoly([c0, c1])), lattice)
    shifted = QuotientClass(x.value + TauRat(TauPoly([A, B])), lattice)
    assert class_order(x) == class_order(shifted)


@given(
    st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8),
    st.fractions(min_value=-6, max_value=6, max_denominator=10),
    st.fractions(min_value=-6, max_value=6, max_denominator=10),
)
@settings(max_examples=60)
def test_finite_order_certificate_is_minimal(a, c0, c1):
    lattice = PeriodLattice(a, includes_tau=True)
    x = QuotientClass(TauRat(TauPoly([c0, c1])), lattice)
    k = class_order(x)
    assert k is not None
    assert membership_in_lattice(k * x.value, a) is not None
    for j in range(1, min(k, 60)):
        assert membership_in_lattice(j * x.value, a) is None


def test_quotient_class_equality():
    lattice = PeriodLattice(Fraction(1, 2), includes_tau=True)
    x = QuotientClass(TauRat(Fraction(1, 3)), lattice)
    y = QuotientClass(TauRat(Fraction(1, 3)) + Fraction(3, 2) + 2 * TAU, lattice)
    z = QuotientClass(TauRat(Fraction(1, 4)), lattice)
    assert x == y
    assert x != z


lift_values = st.builds(
    lambda weights, C, V: lift_value_circle(
        CircleLoopSpec(weights=weights, C=C),
        ManifoldSpec(n=len(weights), V=V, a=1)).lifted_value,
    st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.fractions(min_value=Fraction(1, 3), max_value=8, max_denominator=5),
)
polynomial_values = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=8), max_size=4,
).map(lambda cs: TauRat(TauPoly(cs)))


@given(
    st.one_of(polynomial_values, lift_values),
    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3)]),
    st.booleans(),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
)
@settings(max_examples=80, deadline=None)
def test_equal_classes_hash_equal(value, a, includes_tau, A, B):
    lattice = PeriodLattice(a, includes_tau=includes_tau)
    shift = TauRat(TauPoly([A * a, B if includes_tau else 0]))
    x = QuotientClass(value, lattice)
    shifted = QuotientClass(value + shift, lattice)
    assert x == shifted
    assert hash(x) == hash(shifted)


def test_distinct_classes_spread_over_hashes():
    lattice = PeriodLattice(50, includes_tau=True)
    classes = [QuotientClass(TauRat(j), lattice) for j in range(50)]
    assert len({hash(c) for c in classes}) == 50
    assert len(set(classes)) == 50
    assert len({QuotientClass(TauRat(j) + 3 * TAU, lattice) for j in range(0, 500, 50)}) == 1
