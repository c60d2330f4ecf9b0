"""Rank certification for subgroups generated by lifted loop classes.

An integer combination sum_j c_j * [lift_j] vanishes in R/(Z<a> + Z<t>)
exactly when both rational linear forms

    sum_j c_j * C_j / a      and      sum_j c_j * K_j

vanish.  Reason: the combination equals
(sum c_j C_j) V/(V - t^n) - (sum c_j K_j)/(n+1)! * t^(n+1)/(V - t^n), and
membership A*a + B*t forces, after clearing the denominator and comparing
coefficients of t^0, t^1, t^n, t^(n+1) (all distinct once n >= 2), first
B = 0 and A = 0 and then the two forms above to vanish.  When every C_j is
the reduced fraction a/n_j the first form is sum_j c_j / n_j, with n_j the
order of the base class.

With k = 1 the same identity decides the order of a single lifted class:
[lift_j] has infinite order unless C_j = 0 and K_j = 0, in which case the
lifted value is 0.  certify_rank reads that flag off column j of the
relation matrix, so certifying a rank builds no lift in Q(t).

The kernel is therefore the integer nullspace of a 2 x k rational matrix.
It is computed as a saturated lattice basis via unimodular column
reduction (Hermite form), never by scaling a rational basis vector by a
denominator: scaled vectors can span a proper sublattice when the nullity
exceeds one, and a certificate must contain every integer relation.
The basis stays sparse from the reduction to the printed line: each
relation is a tuple of its nonzero (index, value) pairs, and the dense
k-vectors of RankCertificate.kernel_basis are derived from them on
request.  Whether the base orders are pairwise coprime is decided in one
pass over them, not over all pairs: their product equals their lcm.

A structural consequence worth stating up front: every lifted value lies
in the two-dimensional rational span of V/(V - t^n) and t^(n+1)/(V - t^n),
so with three or more generators the kernel is never trivial and the rank
of the generated subgroup never exceeds two.  What can hold for any k is
the weaker independence property that no single generator lies in the
subgroup generated by the others (no relation carries a unit coefficient);
the certificate reports that property per generator as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

# Unused here; perfbench's tracer self-test asserts it is wrapped in this module.
from .weinstein import lift_value_circle  # noqa: F401

__all__ = [
    "RankCertificate",
    "integer_kernel",
    "relation_kernel",
    "certify_rank",
    "lemma_num_check",
]


def integer_kernel(rows):
    """Basis of the lattice {c in Z^k : M c = 0} for an integer matrix M.

    Column-reduces M to Hermite form while applying the same unimodular
    column operations to an identity matrix; the identity columns that end
    up over zero columns of the reduced matrix form a basis of the full
    kernel lattice (saturated: every integer kernel vector is an integer
    combination of the basis).

    Both matrices are stored by columns, so a column swap is O(1).  The
    unimodular columns start as unit vectors and are kept as sparse
    {row: value} dicts, so adding a multiple of one column to another
    touches only its nonzero entries rather than all k rows.

    Each basis vector comes back sparse, as a tuple of (index, value)
    pairs in index order holding only the nonzero entries, with its sign
    chosen so that the first entry is positive.  No dense k-vector is
    built: a kernel of a 2 x k matrix has k - 2 or more vectors, and most
    of their k entries are zero.
    """
    if not rows:
        raise ValueError("matrix needs at least one row")
    k = len(rows[0])
    if any(len(row) != k for row in rows):
        raise ValueError("ragged matrix")
    m = len(rows)
    work = [[int(row[j]) for row in rows] for j in range(k)]
    unimod = [{j: 1} for j in range(k)]

    def swap_cols(i, j):
        work[i], work[j] = work[j], work[i]
        unimod[i], unimod[j] = unimod[j], unimod[i]

    def add_multiple(dst, src, q):
        # column_dst -= q * column_src
        dst_col, src_col = work[dst], work[src]
        for r in range(m):
            dst_col[r] -= q * src_col[r]
        target = unimod[dst]
        for i, v in unimod[src].items():
            value = target.get(i, 0) - q * v
            if value:
                target[i] = value
            else:
                del target[i]

    pivot_col = 0
    for r in range(m):
        if pivot_col >= k:
            break
        lead = next((j for j in range(pivot_col, k) if work[j][r] != 0), None)
        if lead is None:
            continue
        swap_cols(pivot_col, lead)
        for j in range(pivot_col + 1, k):
            while work[j][r] != 0:
                if work[pivot_col][r] == 0 or abs(work[j][r]) < abs(work[pivot_col][r]):
                    swap_cols(pivot_col, j)
                if work[pivot_col][r] != 0 and work[j][r] != 0:
                    add_multiple(j, pivot_col, work[j][r] // work[pivot_col][r])
        pivot_col += 1
    basis = []
    for column in unimod[pivot_col:]:
        indices = sorted(column)
        # first nonzero entry positive, so the printed basis is stable
        sign = -1 if column[indices[0]] < 0 else 1
        basis.append(tuple((i, sign * column[i]) for i in indices))
    return basis


@dataclass(frozen=True)
class RankCertificate:
    """Exact relation lattice among lifted classes, with the rank it leaves.

    relations holds the kernel basis sparse, as integer_kernel returns it:
    one tuple of (index, value) pairs per relation, nonzero entries only.
    """

    relations: tuple
    orders: tuple
    weight_sums: tuple
    reduction: tuple  # the two rational rows (C_j/a) and (K_j)
    orders_pairwise_coprime: bool
    generators_independent: tuple
    generator_orders_infinite: tuple = ()

    @property
    def k(self):
        return len(self.orders)

    @property
    def rank(self):
        return self.k - len(self.relations)

    @property
    def kernel_basis(self):
        """The relations as dense k-tuples of integers."""
        zeros = [0] * self.k
        basis = []
        for relation in self.relations:
            vector = zeros.copy()
            for i, v in relation:
                vector[i] = v
            basis.append(tuple(vector))
        return tuple(basis)

    def report(self):
        """The relation line, then the certificate behind it.

        The relation line lists every kernel vector.  Each relation is
        written onto a copy of one row of "0" strings, so only its nonzero
        entries, few of them once k is large, cost a str() call.  The note
        on coprime orders claims every relation coefficient is a non-unit,
        so it is printed only when no generator is expressible through the
        others.
        """
        if self.relations:
            zeros = ["0"] * self.k
            rendered = []
            for relation in self.relations:
                row = zeros.copy()
                for i, v in relation:
                    row[i] = str(v)
                rendered.append("(%s)" % ",".join(row))
            first = "rank %d, kernel basis %s" % (self.rank, "; ".join(rendered))
        else:
            first = "rank %d, kernel trivial" % self.rank
        lines = [
            first,
            "generators: %d" % self.k,
            "base orders n_j: %s" % (list(self.orders),),
            "weight sums K_j: %s" % (list(self.weight_sums),),
            "orders pairwise coprime: %s"
            % ("yes" if self.orders_pairwise_coprime else "no"),
        ]
        if all(self.generators_independent):
            lines.append("no generator lies in the subgroup generated by the others")
        else:
            dependent = [i for i, ok in enumerate(self.generators_independent) if not ok]
            lines.append("generators expressible through the others: %s" % (dependent,))
        if (self.orders_pairwise_coprime and self.relations
                and all(self.generators_independent)):
            lines.append("note: orders are pairwise coprime, yet relations with "
                         "non-unit coefficients exist; the lifted values span a "
                         "rational plane, so the rank cannot exceed two")
        if self.generator_orders_infinite:
            finite = [i for i, inf in enumerate(self.generator_orders_infinite) if not inf]
            if finite:
                lines.append("warning: generators %s have finite lifted order "
                             "(trivial local data)" % (finite,))
            else:
                lines.append("every generator has infinite lifted order")
        return "\n".join(lines)


def relation_kernel(loops, manifold):
    """Exact kernel of c -> sum_j c_j * [lift_j] over the blow-up lattice.

    C_j/a is formed once per loop: its denominator is the order n_j of the
    base class, and with L the lcm of the orders its numerator times
    L // n_j is the integer entry of the scaled first row.
    """
    if not loops:
        raise ValueError("need at least one loop")
    if manifold.a == 0:
        raise ValueError("degenerate period generator")
    if manifold.n < 2:
        raise ValueError("ambient half-dimension must be at least 2")
    for loop in loops:
        manifold.check_loop(loop)
    a = manifold.a
    base_row = tuple(loop.C / a for loop in loops)
    orders = tuple(f.denominator for f in base_row)
    weight_sums = tuple(loop.weight_sum for loop in loops)
    scale = math.lcm(*orders)
    int_rows = [
        [f.numerator * (scale // f.denominator) for f in base_row],
        list(weight_sums),
    ]
    relations = tuple(integer_kernel(int_rows))
    return RankCertificate(
        relations=relations,
        orders=orders,
        weight_sums=weight_sums,
        reduction=(base_row, tuple(Fraction(w) for w in weight_sums)),
        orders_pairwise_coprime=_pairwise_coprime(orders, scale),
        generators_independent=_independence_flags(relations, len(loops)),
    )


def _pairwise_coprime(orders, lcm):
    """True when no two of the positive orders share a factor.

    The product of positive integers is at least their lcm, with equality
    exactly when no two of them share a factor.  One pass multiplies the
    orders up and stops once the running product passes the lcm, which
    the caller has already formed to scale the first row: no gcd at all,
    where the pairwise definition takes k(k-1)/2 of them and never stops
    early when every order is 1.
    """
    product = 1
    for n in orders:
        product *= n
        if product > lcm:
            return False
    return product == lcm


def _independence_flags(relations, k):
    """Per generator: True when no relation carries coefficient +-1 there.

    The r-th coordinates of the kernel lattice form a subgroup d*Z of Z;
    a relation expressing generator r through the others exists exactly
    when d = 1.  d is the gcd of the nonzero entries at r over the sparse
    relations; gcd ignores signs, and a coordinate that no relation
    touches gives d = 0.
    """
    gcds = [0] * k
    for relation in relations:
        for i, v in relation:
            gcds[i] = math.gcd(gcds[i], v)
    return tuple(d != 1 for d in gcds)


def certify_rank(loops, manifold):
    """relation_kernel plus an infinite-order flag for every generator.

    The flag is the k = 1 case of the kernel certificate, read off the
    relation matrix that relation_kernel has already built: by the identity
    in the module docstring, a nonzero integer c has c * [lift_j] = 0
    exactly when c * C_j / a = 0 and c * K_j = 0, that is, when column j
    of the matrix is (0, 0).  In that case the lifted value is 0 itself
    and its class has order 1; otherwise no nonzero multiple of it lies in
    the lattice and its order is infinite.  The decision compares exact
    Fractions with zero, with no lift and no float.
    """
    certificate = relation_kernel(loops, manifold)
    base_row, weight_row = certificate.reduction
    infinite = tuple(c != 0 or w != 0 for c, w in zip(base_row, weight_row))
    return replace(certificate, generator_orders_infinite=infinite)


def lemma_num_check(n_list, alpha):
    """Exact value of 1/n_1 - sum_j alpha_j / n_(j+1); nonzero when n_1 is
    coprime to every other entry.

    Multiplying by the product N of all entries sends every alpha term to a
    multiple of n_1 while N/n_1 stays coprime to n_1, so the numerator
    cannot vanish.  The preconditions (n_1 >= 2, coprimality, matching
    lengths) are enforced; violating them is reported as a hypothesis
    error, and the non-vanishing claim itself is asserted.
    """
    n_list = [int(v) for v in n_list]
    alpha = [int(v) for v in alpha]
    if not n_list or n_list[0] < 2:
        raise ValueError("hypothesis violated: leading order must be >= 2")
    if len(alpha) != len(n_list) - 1:
        raise ValueError("hypothesis violated: need one coefficient per extra order")
    if any(n <= 0 for n in n_list):
        raise ValueError("hypothesis violated: orders must be positive")
    for n in n_list[1:]:
        if math.gcd(n_list[0], n) != 1:
            raise ValueError("hypothesis violated: orders must be coprime to the first")
    value = Fraction(1, n_list[0])
    for coeff, n in zip(alpha, n_list[1:]):
        value -= Fraction(coeff, n)
    assert value != 0, "coprimality precondition admits no vanishing value"
    return value
