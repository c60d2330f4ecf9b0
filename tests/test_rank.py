"""Integer relation lattices and rank certificates for lifted classes."""

import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup.exact_field import membership_in_lattice
from blowup.period import class_order
from blowup.rank import (
    _pairwise_coprime,
    certify_rank,
    integer_kernel,
    lemma_num_check,
    relation_kernel,
)
from blowup.weinstein import CircleLoopSpec, ManifoldSpec, lift_value_circle

M2 = ManifoldSpec(n=2, V=1, a=1)


def order_loop(order, weight_sum, n=2):
    """A loop whose base class has the given order and weight sum."""
    weights = (weight_sum - (n - 1) * 0,) + (0,) * (n - 1)
    return CircleLoopSpec(weights=weights, C=Fraction(1, order))


# -- integer kernel core -----------------------------------------------------

def brute_force_kernel_members(rows, box):
    k = len(rows[0])
    members = []
    for c in product(range(-box, box + 1), repeat=k):
        if all(sum(r * x for r, x in zip(row, c)) == 0 for row in rows):
            members.append(c)
    return members


def in_lattice(vector, basis):
    """Exact test that vector lies in the integer span of basis."""
    if not basis:
        return all(v == 0 for v in vector)
    rows = [list(b) for b in basis]
    target = list(vector)
    # solve sum x_i * basis_i = vector over Q, then check integrality;
    # basis vectors from integer_kernel are independent
    import fractions
    cols = len(target)
    aug = [[fractions.Fraction(rows[i][j]) for i in range(len(rows))] + [fractions.Fraction(target[j])]
           for j in range(cols)]
    # gaussian elimination on the cols x len(rows) system
    pivot_row = 0
    pivots = []
    for col in range(len(rows)):
        sel = next((r for r in range(pivot_row, cols) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[pivot_row], aug[sel] = aug[sel], aug[pivot_row]
        factor = aug[pivot_row][col]
        aug[pivot_row] = [v / factor for v in aug[pivot_row]]
        for r in range(cols):
            if r != pivot_row and aug[r][col] != 0:
                scale = aug[r][col]
                aug[r] = [v - scale * p for v, p in zip(aug[r], aug[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    for r in range(pivot_row, cols):
        if aug[r][-1] != 0:
            return False
    solution = [fractions.Fraction(0)] * len(rows)
    for row_index, col in enumerate(pivots):
        solution[col] = aug[row_index][-1]
    return all(v.denominator == 1 for v in solution)


def densify(basis, k):
    """integer_kernel's sparse (index, value) vectors as dense k-tuples."""
    dense = []
    for pairs in basis:
        vector = [0] * k
        for i, v in pairs:
            vector[i] = v
        dense.append(tuple(vector))
    return dense


def test_integer_kernel_single_row():
    basis = densify(integer_kernel([[3, 2]]), 2)
    assert len(basis) == 1
    assert basis[0] in ((2, -3), (-2, 3))
    assert 3 * basis[0][0] + 2 * basis[0][1] == 0


def test_integer_kernel_saturated_for_nullity_two():
    # (1, 1, 1) solves [2, -1, -1]; a gcd-scaled rational basis misses it
    basis = densify(integer_kernel([[2, -1, -1]]), 3)
    assert len(basis) == 2
    assert in_lattice((1, 1, 1), basis)
    for c in brute_force_kernel_members([[2, -1, -1]], 4):
        assert in_lattice(c, basis)


def test_integer_kernel_zero_matrix():
    basis = densify(integer_kernel([[0, 0, 0]]), 3)
    assert len(basis) == 3
    for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert in_lattice(c, basis)


def _orient(vector):
    """Flip sign so the first nonzero entry is positive."""
    for v in vector:
        if v > 0:
            return vector
        if v < 0:
            return tuple(-x for x in vector)
    return vector


def first_nonzero_positive(vector):
    return next(v for v in vector if v) > 0


def dense_integer_kernel(rows):
    """Row-major reference: the same column operations on a dense identity."""
    k = len(rows[0])
    work = [[int(v) for v in row] for row in rows]
    unimod = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def swap_cols(i, j):
        for row in work + unimod:
            row[i], row[j] = row[j], row[i]

    def add_multiple(dst, src, q):
        for row in work + unimod:
            row[dst] -= q * row[src]

    pivot_col = 0
    for r in range(len(work)):
        if pivot_col >= k:
            break
        lead = next((j for j in range(pivot_col, k) if work[r][j] != 0), None)
        if lead is None:
            continue
        swap_cols(pivot_col, lead)
        for j in range(pivot_col + 1, k):
            while work[r][j] != 0:
                if work[r][pivot_col] == 0 or abs(work[r][j]) < abs(work[r][pivot_col]):
                    swap_cols(pivot_col, j)
                if work[r][pivot_col] != 0 and work[r][j] != 0:
                    add_multiple(j, pivot_col, work[r][j] // work[r][pivot_col])
        pivot_col += 1
    return [_orient(tuple(unimod[i][j] for i in range(k))) for j in range(pivot_col, k)]


@given(
    st.integers(min_value=2, max_value=4).flatmap(lambda k: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=k, max_size=k),
        min_size=1,
        max_size=3,
    ))
)
@settings(max_examples=80, deadline=None)
def test_integer_kernel_matches_brute_force(rows):
    sparse = integer_kernel(rows)
    for pairs in sparse:
        indices = [i for i, _ in pairs]
        assert indices == sorted(set(indices))
        assert all(v != 0 for _, v in pairs)
    basis = densify(sparse, len(rows[0]))
    assert basis == dense_integer_kernel(rows)
    for vector in basis:
        assert first_nonzero_positive(vector)
        assert all(sum(r * x for r, x in zip(row, vector)) == 0 for row in rows)
    for c in brute_force_kernel_members(rows, 3):
        assert in_lattice(c, basis)


# -- relation kernels --------------------------------------------------------

def test_single_loop_has_trivial_kernel():
    certificate = relation_kernel([CircleLoopSpec(weights=(1, 2), C=Fraction(1, 3))], M2)
    assert certificate.rank == 1
    assert certificate.kernel_basis == ()


def test_coprime_orders_independent_weights():
    loops = [
        CircleLoopSpec(weights=(1, 0), C=Fraction(1, 2)),
        CircleLoopSpec(weights=(1, 0), C=Fraction(1, 3)),
    ]
    certificate = relation_kernel(loops, M2)
    assert certificate.orders == (2, 3)
    assert certificate.weight_sums == (1, 1)
    assert certificate.rank == 2
    assert certificate.kernel_basis == ()


def test_dependent_forms_drop_rank():
    loops = [
        CircleLoopSpec(weights=(2, 1), C=Fraction(1, 2)),
        CircleLoopSpec(weights=(1, 1), C=Fraction(1, 3)),
    ]
    certificate = relation_kernel(loops, M2)
    assert certificate.orders == (2, 3)
    assert certificate.weight_sums == (3, 2)
    assert certificate.rank == 1
    assert certificate.kernel_basis == ((2, -3),)
    # soundness: the relation reduces to an exact lattice member
    combo = 2 * lift_value_circle(loops[0], M2).lifted_value \
        - 3 * lift_value_circle(loops[1], M2).lifted_value
    assert membership_in_lattice(combo, M2.a) is not None
    assert combo.is_zero


def test_certify_rank_three_coprime():
    # all lifted values lie in one rational plane, so three generators
    # always satisfy one relation; here it is 4*x1 - 9*x2 + 5*x3 = 0
    loops = [
        CircleLoopSpec(weights=(1, 0), C=Fraction(1, 2)),
        CircleLoopSpec(weights=(1, 0), C=Fraction(1, 3)),
        CircleLoopSpec(weights=(1, 0), C=Fraction(1, 5)),
    ]
    certificate = certify_rank(loops, M2)
    assert certificate.orders == (2, 3, 5)
    assert certificate.rank == 2
    assert certificate.kernel_basis == ((4, -9, 5),)
    combo = sum(
        (c * lift_value_circle(loop, M2).lifted_value
         for c, loop in zip((4, -9, 5), loops)),
        start=0 * lift_value_circle(loops[0], M2).lifted_value,
    )
    assert combo.is_zero
    # yet no single generator is expressible through the other two
    assert certificate.generators_independent == (True, True, True)
    assert certificate.orders_pairwise_coprime
    assert all(certificate.generator_orders_infinite)
    assert certificate.report().splitlines()[0] == "rank 2, kernel basis (4,-9,5)"


def test_certify_rank_equal_orders_flagged():
    loops = [
        CircleLoopSpec(weights=(1, 0), C=Fraction(1, 2)),
        CircleLoopSpec(weights=(0, 1), C=Fraction(1, 2)),
    ]
    certificate = certify_rank(loops, M2)
    assert certificate.rank == 1
    assert certificate.kernel_basis == ((1, -1),)
    assert not certificate.orders_pairwise_coprime
    assert "pairwise coprime: no" in certificate.report()


def test_certify_rank_coprime_but_dependent_is_noted():
    cases = [
        ([CircleLoopSpec(weights=(2, 1), C=Fraction(1, 2)),
          CircleLoopSpec(weights=(1, 1), C=Fraction(1, 3))], True),
        # kernel basis (1, 0): generator 0 is expressible through the
        # others, so a relation with a unit coefficient exists
        ([CircleLoopSpec(weights=(1, -1), C=Fraction(0)),
          CircleLoopSpec(weights=(1, 1), C=Fraction(1, 2))], False),
    ]
    for loops, noted in cases:
        certificate = certify_rank(loops, M2)
        assert certificate.rank == 1
        assert certificate.orders_pairwise_coprime
        assert all(certificate.generators_independent) is noted
        assert ("non-unit coefficients" in certificate.report()) is noted


def dense_relation_line(certificate):
    """The relation line as report() wrote it from dense basis vectors."""
    if certificate.kernel_basis:
        relations = "; ".join(
            "(%s)" % ",".join([str(c) if c else "0" for c in vector])
            for vector in certificate.kernel_basis)
        return "rank %d, kernel basis %s" % (certificate.rank, relations)
    return "rank %d, kernel trivial" % certificate.rank


@given(
    st.integers(min_value=1, max_value=12).flatmap(lambda k: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=k, max_size=k),
        min_size=2,
        max_size=2,
    ))
)
@example(rows=[[0], [0]])
@settings(max_examples=80, deadline=None)
def test_sparse_relation_line_matches_dense_rendering(rows):
    # C_j = rows[0][j] over a = 1 and K_j = rows[1][j], so the relation
    # matrix is rows itself
    loops = [CircleLoopSpec(weights=(w, 0), C=c) for c, w in zip(*rows)]
    certificate = certify_rank(loops, M2)
    k = len(rows[0])
    assert list(certificate.kernel_basis) == densify(certificate.relations, k)
    assert list(certificate.kernel_basis) == dense_integer_kernel(rows)
    assert certificate.report().splitlines()[0] == dense_relation_line(certificate)
    hash(certificate)


def test_single_zero_column_prints_unit_relation():
    certificate = certify_rank([CircleLoopSpec(weights=(0, 0), C=0)], M2)
    assert certificate.relations == (((0, 1),),)
    assert certificate.kernel_basis == ((1,),)
    assert certificate.report().splitlines()[0] == "rank 0, kernel basis (1)"
    assert hash(certificate) == hash(certify_rank(
        [CircleLoopSpec(weights=(0, 0), C=0)], M2))


def all_pairs_coprime(orders):
    return all(math.gcd(orders[i], orders[j]) == 1
               for i in range(len(orders)) for j in range(i + 1, len(orders)))


@given(st.one_of(
    st.lists(st.integers(min_value=1, max_value=60), max_size=12),
    st.lists(st.sampled_from([1, 2, 3, 4, 5, 7, 9, 25, 49]), max_size=12),
    st.lists(st.just(1), max_size=20),
))
@example(orders=[])
@example(orders=[1, 1, 1])
@example(orders=[7, 7])
@example(orders=[2, 3, 5, 7, 11, 13, 2])
@settings(max_examples=200)
def test_pairwise_coprime_matches_all_pairs(orders):
    assert _pairwise_coprime(orders, math.lcm(*orders)) == all_pairs_coprime(orders)
    loops = [CircleLoopSpec(weights=(1, 0), C=Fraction(1, n)) for n in orders]
    if loops:
        certificate = relation_kernel(loops, M2)
        assert certificate.orders == tuple(orders)
        assert certificate.orders_pairwise_coprime == all_pairs_coprime(orders)


def test_pairwise_coprime_of_many_unit_orders_is_one_pass():
    # all pairs would be 5e9 gcds; one pass is 1e5 products
    orders = (1,) * 100_000
    start = time.perf_counter()
    assert _pairwise_coprime(orders, math.lcm(*orders))
    assert time.perf_counter() - start < 1.0


def test_relation_kernel_rejects_empty():
    with pytest.raises(ValueError):
        relation_kernel([], M2)


# -- kernel completeness against the quotient --------------------------------

@given(st.data())
@settings(max_examples=15, deadline=None)
def test_kernel_completeness_small_boxes(data):
    k = data.draw(st.integers(min_value=1, max_value=3))
    loops = [
        CircleLoopSpec(
            weights=data.draw(st.tuples(st.integers(min_value=-4, max_value=4),
                                        st.integers(min_value=-4, max_value=4))),
            C=data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=6)),
        )
        for _ in range(k)
    ]
    certificate = relation_kernel(loops, M2)
    lifts = [lift_value_circle(loop, M2).lifted_value for loop in loops]
    # every c in the box with sum c_j * lift_j, in product order; each
    # level adds one lift's precomputed multiples to the partial sums
    combos = [((), 0 * lifts[0])]
    for lift in lifts:
        multiples = [(coeff, coeff * lift) for coeff in range(-6, 7)]
        combos = [(c + (coeff,), partial + multiple)
                  for c, partial in combos for coeff, multiple in multiples]
    for c, combo in combos:
        is_member = membership_in_lattice(combo, M2.a) is not None
        assert is_member == in_lattice(c, certificate.kernel_basis)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_generic_rank_saturates_at_two(data):
    # orders pairwise coprime, weights chosen off the proportional-forms
    # locus: the 2 x k system then has nullity exactly k - 2, so the rank
    # is min(k, 2); with k <= 2 the kernel is trivial and rank = k
    k = data.draw(st.integers(min_value=1, max_value=4))
    pool = [2, 3, 5, 7, 11, 13]
    orders = data.draw(st.permutations(pool).map(lambda p: tuple(p[:k])))
    weight_sums = [data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(k)]
    # the two forms (1/n_j) and (K_j) are proportional iff K_i*n_i is
    # constant in i; nudge one entry off that locus
    if k >= 2 and len({orders[i] * weight_sums[i] for i in range(k)}) == 1:
        weight_sums[0] += 1
    loops = [
        CircleLoopSpec(weights=(w, 0), C=Fraction(1, n))
        for w, n in zip(weight_sums, orders)
    ]
    certificate = certify_rank(loops, M2)
    assert certificate.rank == min(k, 2), (orders, weight_sums)
    assert len(certificate.kernel_basis) == k - min(k, 2)
    assert all(certificate.generator_orders_infinite)
    # soundness of every reported relation, checked in the quotient
    lifts = [lift_value_circle(loop, M2).lifted_value for loop in loops]
    for vector in certificate.kernel_basis:
        combo = sum((c * lift for c, lift in zip(vector, lifts)),
                    start=0 * lifts[0])
        assert membership_in_lattice(combo, M2.a) is not None


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_every_generator_infinite_order(data):
    n = data.draw(st.integers(min_value=2, max_value=4))
    manifold = ManifoldSpec(
        n=n,
        V=data.draw(st.fractions(min_value=Fraction(1, 3), max_value=8, max_denominator=5)),
        a=data.draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3)])),
    )
    weights = data.draw(st.tuples(*([st.integers(min_value=-9, max_value=9)] * n)))
    C = data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=12))
    loop = CircleLoopSpec(weights=weights, C=C)
    if C == 0 and sum(weights) == 0:
        return  # trivial local datum lifts to the zero class
    value = lift_value_circle(loop, manifold)
    assert class_order(value.lifted_class()) is None


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_certified_order_flags_match_generic_lift(data):
    # C = 0 and K = 0 are drawn often: those loops lift to the zero class,
    # which the generic path reports as order 1, not infinite
    n = data.draw(st.integers(min_value=2, max_value=6))
    manifold = ManifoldSpec(
        n=n,
        V=data.draw(st.fractions(min_value=Fraction(1, 3), max_value=8, max_denominator=5)),
        a=data.draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(5)])),
    )
    loops = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        weights = list(data.draw(st.tuples(*([st.integers(min_value=-9, max_value=9)] * n))))
        if data.draw(st.booleans()):
            weights[-1] -= sum(weights)  # K = 0
        C = Fraction(0)
        if data.draw(st.booleans()):
            C = data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=12))
        loops.append(CircleLoopSpec(weights=weights, C=C))
    certificate = certify_rank(loops, manifold)
    expected = tuple(
        class_order(lift_value_circle(loop, manifold).lifted_class()) is None
        for loop in loops
    )
    assert certificate.generator_orders_infinite == expected


def test_certify_rank_two_hundred_generators():
    rng = random.Random(2015)
    manifold = ManifoldSpec(n=3, V=Fraction(7, 2), a=Fraction(2, 3))
    loops = []
    for j in range(200):
        weights = [rng.randint(-9, 9) for _ in range(3)]
        if j % 7 == 0:
            weights[-1] -= sum(weights)  # K = 0
        C = Fraction(0) if j % 11 == 0 else Fraction(rng.randint(-30, 30), rng.randint(1, 40))
        loops.append(CircleLoopSpec(weights=weights, C=C))
    certificate = certify_rank(loops, manifold)
    base_row, weight_row = certificate.reduction
    # some 2 x 2 minor of the relation matrix is nonzero, so its rank is 2
    assert any(base_row[i] * weight_row[j] != base_row[j] * weight_row[i]
               for i in range(200) for j in range(i))
    assert certificate.rank == 2
    assert len(certificate.kernel_basis) == 200 - certificate.rank
    for vector in certificate.kernel_basis:
        assert first_nonzero_positive(vector)
        assert sum(c * x for c, x in zip(vector, base_row)) == 0
        assert sum(c * x for c, x in zip(vector, weight_row)) == 0
    # the r-th coordinates of the kernel form d*Z; generator r is
    # independent of the others unless d = 1
    gcds = []
    for r in range(200):
        coords = [abs(v[r]) for v in certificate.kernel_basis if v[r] != 0]
        gcds.append(math.gcd(*coords) if coords else 0)
    assert certificate.generators_independent == tuple(d != 1 for d in gcds)
    scale = math.lcm(*(f.denominator for f in base_row))
    int_rows = [[int(f * scale) for f in base_row], [int(w) for w in weight_row]]
    assert list(certificate.kernel_basis) == dense_integer_kernel(int_rows)
    expected = tuple(
        class_order(lift_value_circle(loop, manifold).lifted_class()) is None
        for loop in loops
    )
    assert certificate.generator_orders_infinite == expected
    assert not all(expected)


# -- coprime non-vanishing check ----------------------------------------------

def test_lemma_num_basic():
    assert lemma_num_check([2, 3], [1]) == Fraction(1, 6)


def test_lemma_num_exhaustive_235():
    for a1 in range(-5, 6):
        for a2 in range(-5, 6):
            assert lemma_num_check([2, 3, 5], [a1, a2]) != 0


def test_lemma_num_rejects_shared_factor():
    # without coprimality the value 1/2 - 2/4 would vanish
    with pytest.raises(ValueError, match="hypothesis violated"):
        lemma_num_check([2, 4], [2])


def test_lemma_num_rejects_bad_shapes():
    with pytest.raises(ValueError, match="hypothesis violated"):
        lemma_num_check([1, 3], [1])
    with pytest.raises(ValueError, match="hypothesis violated"):
        lemma_num_check([2, 3], [1, 2])


@given(st.data())
@settings(max_examples=80)
def test_lemma_num_never_zero_on_valid_input(data):
    n1 = data.draw(st.integers(min_value=2, max_value=12))
    rest = data.draw(
        st.lists(
            st.integers(min_value=2, max_value=30).filter(lambda n: math.gcd(n, n1) == 1),
            min_size=1,
            max_size=3,
        )
    )
    alpha = data.draw(
        st.lists(st.integers(min_value=-10, max_value=10),
                 min_size=len(rest), max_size=len(rest))
    )
    assert lemma_num_check([n1] + rest, alpha) != 0
