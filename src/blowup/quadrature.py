"""Numerical integration over balls and annuli in R^(2n) = C^n.

All integrals here are taken against Lebesgue measure, the normalization
in which the ball of radius rho in C^n has volume pi^n rho^(2n) / n! and
the quadratic moment of each |z_j|^2 over it is pi^n rho^(2n+2) / (n+1)!.
The unnormalized volume-form value is n! times the Lebesgue one; callers
comparing against conventions that count the ball volume as pi^n rho^(2n)
must scale accordingly.

Two schemes are provided.  product-gauss exploits circle invariance: a
quadratic Hamiltonian -pi sum m_j |z_j|^2 + c has sphere average
-pi (K/n) s^2 + c at radius s with K the weight sum, so the whole
integral collapses to a one-dimensional radial Gauss-Legendre rule that
is exact for these polynomial integrands.  monte-carlo draws uniform cube
samples with a fixed seed and deterministic block partitioning, so
results are bit-stable; one sampling loop serves every region, each
caller passing an integrand that masks its samples.

The pushforward checks integrate the same Hamiltonian twice: once on the
annulus directly and once pulled back through the radial chart map, with
the chart Jacobian determinant obtained by central finite differences
rather than its closed form, so the two sides are independent; its
nodes and determinants are cached per chart and order.  The chart map,
its finite-difference Jacobian, the coordinate helpers and the batched
Hamiltonian are the shared kernel of local_model.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .local_model import (CheckResult, LocalModelParams, _chart, _complexify,
                          _jacobian, _profile_raw)

__all__ = [
    "IntegralResult",
    "AnnulusComparison",
    "integrate_ball",
    "verify_annulus_pushforward",
    "verify_normalized_lemma",
    "MC_SEED",
]

MC_SEED = 0xC0FFEE
_MC_BLOCKS = 16


@dataclass(frozen=True)
class IntegralResult:
    """A numeric integral with a nonnegative error estimate.

    For product-gauss the estimate is the order-halving difference plus a
    roundoff floor; for monte-carlo it is one standard error.
    """

    value: float
    error_estimate: float
    scheme: str
    samples_or_order: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error estimate must be nonnegative")


class AnnulusComparison(NamedTuple):
    left: IntegralResult
    right: IntegralResult
    deviation: float
    skipped: int


def _sphere_area(n):
    # area of the unit sphere in R^(2n)
    return 2.0 * math.pi ** n / math.factorial(n - 1)


@functools.lru_cache(maxsize=32)
def _legendre_rule(order):
    """Gauss-Legendre nodes and weights on [-1, 1], cached read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_nodes(a, b, order):
    x, w = _legendre_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _radial_average(h, s):
    """Sphere average of the Hamiltonian at radius s (array-friendly)."""
    n = len(h.weights)
    return -math.pi * (h.weight_sum / n) * s * s + h.constant()


def _gauss_shell(h, a, b, n, order):
    """Integral of H over a <= |z| <= b; a = 0 gives the ball."""
    s, w = _gauss_nodes(a, b, order)
    integrand = _radial_average(h, s) * _sphere_area(n) * s ** (2 * n - 1)
    return float(np.sum(w * integrand))


def _gauss_result(value, coarse, order):
    """Product-gauss result whose error compares against the coarse rule."""
    error = abs(value - coarse) + 1e-15 * abs(value)
    return IntegralResult(value, error, "product-gauss", order)


def _monte_carlo(integrand, half_width, dim, samples, seed):
    """Block-deterministic Monte-Carlo over the cube [-half_width, half_width]^dim.

    The samples split into _MC_BLOCKS blocks, each drawn from its own child
    of SeedSequence(seed), so results are bit-stable.  integrand maps a
    (block, dim) array of cube samples to (values, tally); the tallies are
    summed.  Returns (value, stderr, count, tally).
    """
    if samples < 1:
        raise ValueError("monte-carlo needs a positive sample count")
    children = np.random.SeedSequence(seed).spawn(_MC_BLOCKS)
    base, extra = divmod(samples, _MC_BLOCKS)
    total = 0.0
    total_sq = 0.0
    tally = 0
    for index, child in enumerate(children):
        block = base + 1 if index < extra else base
        if block == 0:
            continue
        rng = np.random.default_rng(child)
        coords = rng.uniform(-half_width, half_width, size=(block, dim))
        values, hits = integrand(coords)
        total += float(np.sum(values))
        total_sq += float(np.sum(values * values))
        tally += hits
    cube_volume = (2.0 * half_width) ** dim
    mean = total / samples
    variance = max(total_sq / samples - mean * mean, 0.0)
    return (cube_volume * mean, cube_volume * math.sqrt(variance / samples),
            samples, tally)


def integrate_ball(h, radius, n, scheme="product-gauss", order=32,
                   samples=200_000, seed=MC_SEED):
    """Lebesgue integral of a quadratic Hamiltonian over the radius-ball.

    product-gauss is exact for these integrands up to roundoff; its error
    estimate compares against the half-order rule.  monte-carlo reports
    one standard error and raises if fewer than 10 proposals land inside
    the ball.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    n = int(n)
    if n < 1:
        raise ValueError("need at least one complex coordinate")
    if len(h.weights) != n:
        raise ValueError("weight count must match n")
    if scheme == "product-gauss":
        return _gauss_result(_gauss_shell(h, 0.0, radius, n, order),
                             _gauss_shell(h, 0.0, radius, n, max(order // 2, 2)),
                             order)
    if scheme == "monte-carlo":
        def ball(coords):
            points = _complexify(coords)
            inside = np.einsum("ij,ij->i", coords, coords) <= radius * radius
            values = np.where(inside, h.values(points), 0.0)
            return values, int(np.count_nonzero(inside))

        value, stderr, count, accepted = _monte_carlo(ball, radius, 2 * n,
                                                      samples, seed)
        if accepted < 10:
            raise ValueError(
                "fewer than 10 effective samples landed in the ball; "
                "raise the sample count or lower the dimension")
        return IntegralResult(value, stderr, "monte-carlo", count)
    raise ValueError("scheme must be 'product-gauss' or 'monte-carlo'")


@functools.lru_cache(maxsize=32)
def _pullback_rule(n, rho, delta, r, order):
    """Nodes, weights, panel indices, beta(s), det DF and skipped count.

    The part of _gauss_pullback that no Hamiltonian enters, cached
    read-only, so every check on one chart builds one Jacobian per order.
    """
    params = LocalModelParams(n, rho, delta, r)
    cuts = (0.0, delta, r - delta, r)
    # all panels share one Jacobian call; each panel still sums on its own
    s, w = np.concatenate([_gauss_nodes(a, b, order)
                           for a, b in zip(cuts[:-1], cuts[1:])], axis=1)
    panel = np.repeat(np.arange(len(cuts) - 1), order)
    keep = s >= 1e-8
    s, w, panel = s[keep], w[keep], panel[keep]
    beta, _ = _profile_raw(s, params)
    coords = np.zeros((len(s), 2 * n))
    coords[:, 0] = s
    dets = np.linalg.det(_jacobian(lambda x: _chart(x, params), coords))
    for array in (s, w, panel, beta, dets):
        array.flags.writeable = False
    return s, w, panel, beta, dets, int(np.count_nonzero(~keep))


def _gauss_pullback(h, params, order):
    """Integral of (H o F) |det DF| over the ball of radius r.

    Radial-angular factorization: the sphere average of H o F at radius s
    is the sphere average of H at radius beta(s), and det DF is constant
    on spheres by unitary equivariance, so one finite-difference
    determinant per radial node (at the point (s, 0, ..., 0)) suffices.
    Panels split at the smoothstep kinks, where the profile is only C^2.
    """
    n = params.n
    area = _sphere_area(n)
    s, w, panel, beta, dets, skipped = _pullback_rule(
        n, params.rho, params.delta, params.r, order)
    values = w * _radial_average(h, beta) * dets * area * s ** (2 * n - 1)
    total = sum(float(np.sum(values[panel == k])) for k in range(3))
    return total, skipped


def verify_annulus_pushforward(h, params, scheme="product-gauss", order=32,
                               samples=200_000, seed=MC_SEED):
    """Both sides of the chart change-of-variables identity, plus deviation.

    Left: integral of (H o F) against the finite-difference chart Jacobian
    over the punctured ball of radius r.  Right: integral of H over the
    annulus rho < |z| <= r, computed with no reference to the chart.  The
    two parameterizations agree up to quadrature and finite-difference
    error; the returned deviation is relative to the right side's scale.
    """
    if len(h.weights) != params.n:
        raise ValueError("weight count must match n")
    if scheme == "product-gauss":
        half = max(order // 2, 2)
        left_value, skipped = _gauss_pullback(h, params, order)
        left = _gauss_result(left_value, _gauss_pullback(h, params, half)[0],
                             order)
        shell = lambda k: _gauss_shell(h, params.rho, params.r, params.n, k)
        right = _gauss_result(shell(order), shell(half), order)
    elif scheme == "monte-carlo":
        # both sides draw from the same cube, so they stay independent only
        # through their integrands
        chart = lambda x: _chart(x, params)

        def pullback(coords):
            radii = np.linalg.norm(coords, axis=1)
            keep = (radii <= params.r) & (radii >= 1e-8)
            skipped = int(np.count_nonzero(radii < 1e-8))
            values = np.zeros(len(coords))
            inside = coords[keep]
            images = _complexify(chart(inside))
            dets = np.linalg.det(_jacobian(chart, inside))
            values[keep] = h.values(images) * dets
            return values, skipped

        def annulus(coords):
            radii = np.linalg.norm(coords, axis=1)
            keep = (radii <= params.r) & (radii > params.rho)
            return np.where(keep, h.values(_complexify(coords)), 0.0), 0

        dim = 2 * params.n
        lv, le, lc, skipped = _monte_carlo(pullback, params.r, dim, samples,
                                           seed)
        rv, re, rc, _ = _monte_carlo(annulus, params.r, dim, samples, seed + 1)
        left = IntegralResult(lv, le, "monte-carlo", lc)
        right = IntegralResult(rv, re, "monte-carlo", rc)
    else:
        raise ValueError("scheme must be 'product-gauss' or 'monte-carlo'")
    scale = max(abs(right.value), 1e-12)
    deviation = abs(left.value - right.value) / scale
    return AnnulusComparison(left, right, deviation, skipped)


def verify_normalized_lemma(h, params, order=32):
    """Chart form of the lifted-integral identity, as a relative deviation.

    The full identity subtracts the ball term from the total integral; for
    Hamiltonians supported in the radius-r ball the complement of the ball
    contributes identically to both sides and cancels, so the check
    reduces to: pulled-back integral over the punctured r-ball equals the
    r-ball integral minus the rho-ball integral.  That cancellation also
    removes the total-volume term, so no volume enters the deviation, and
    both sides are deterministic product-gauss rules.
    """
    left, skipped = _gauss_pullback(h, params, order)
    outer = integrate_ball(h, params.r, params.n, order=order)
    inner = integrate_ball(h, params.rho, params.n, order=order)
    right = outer.value - inner.value
    scale = max(abs(right), 1e-12)
    return CheckResult(
        check="normalized-lemma",
        samples=order,
        max_deviation=abs(left - right) / scale,
        tolerance=1e-4,
        skipped=skipped,
    )
