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
is exact for these polynomial integrands.  monte-carlo draws uniform
points in the region itself, a ball or an annulus, so none is rejected;
a fixed seed and deterministic block partitioning keep results
bit-stable, and one sampling loop serves every region, each caller
passing its integrand.  For a square-integrable integrand its default
count never has a larger standard error than the 200k cube draws it
replaced (_default_samples).

The pushforward checks integrate the same Hamiltonian twice: once on the
annulus directly and once pulled back through the radial chart map, with
the chart Jacobian determinant obtained by central finite differences of
the chart rather than its closed form, so the two sides are independent.
Both schemes take it by one rule, _radial_jacobian: the chart is
unitary-equivariant, so DF at radius s is conjugate by a unitary to DF
at the axis point (s, 0, ..., 0), where it is diagonal, and det DF is
exactly radial * tangential^(2n-1) there and on the whole sphere.  No
sample builds a 2n x 2n Jacobian or factors one.  product-gauss folds
the volume factor in as radial * (s * tangential)^(2n-1), which is
s^(2n-1) det DF and stays below r^(2n-1) where det DF itself overflows
(near the origin at n = 60), and caches it per chart and order.  The
chart map on real rows, its axis derivatives, the coordinate helpers,
the batched Hamiltonian and the ball-and-shell sampler are the shared
kernel of local_model.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .local_model import (CheckResult, LocalModelParams, _chart, _complexify,
                          _profile_raw, _radial_jacobian, _shell_samples)

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


def _monte_carlo(integrand, n, radius, samples, seed, inner=0.0):
    """Block-deterministic Monte-Carlo over inner <= |x| <= radius in R^(2n).

    The samples, _default_samples(n) when None, split into _MC_BLOCKS
    blocks, each drawing exactly its own count from its own child of
    SeedSequence(seed), so results are bit-stable.  integrand maps a
    (block, 2n) array of shell points to their values; the mean is scaled
    by the shell volume.
    """
    samples = _default_samples(n) if samples is None else samples
    if samples < 1:
        raise ValueError("monte-carlo needs a positive sample count")
    children = np.random.SeedSequence(seed).spawn(_MC_BLOCKS)
    base, extra = divmod(samples, _MC_BLOCKS)
    total = 0.0
    total_sq = 0.0
    for index, child in enumerate(children):
        block = base + 1 if index < extra else base
        if block == 0:
            continue
        values = integrand(_shell_samples(np.random.default_rng(child), block,
                                          n, radius, inner))
        total += float(np.sum(values))
        total_sq += float(np.sum(values * values))
    volume = (math.pi ** n / math.factorial(n)
              * (radius ** (2 * n) - inner ** (2 * n)))
    mean = total / samples
    variance = max(total_sq / samples - mean * mean, 0.0)
    return IntegralResult(volume * mean, volume * math.sqrt(variance / samples),
                          "monte-carlo", samples)


def _default_samples(n):
    """Points that land in the ball out of 200k cube draws, on average.

    Drawing them in the ball itself never gives a larger standard error
    than the 200k cube draws, for any square-integrable f.  The ball
    fills the share p = pi^n / (n! 4^n) of its bounding cube, V_b = p V_c;
    with E the mean over the ball, M = p N ball draws have variance
    V_c^2 (p E f^2 - p (E f)^2) / N, and N cube draws, which are zero
    outside, have V_c^2 (p E f^2 - p^2 (E f)^2) / N, never smaller as
    p <= 1.  An annulus inside the ball fills a smaller share of the cube,
    so the same count bounds its error as well.  The pulled-back integrand
    is square-integrable only at n = 1, as det DF grows like
    (rho/|x|)^(2n-2) at the origin; from n = 2 on neither sampler has a
    finite variance there, and its stderr is that of the sample.
    """
    return math.ceil(200_000 * math.pi ** n / (math.factorial(n) * 4 ** n))


def integrate_ball(h, radius, n, scheme="product-gauss", order=32,
                   samples=None, seed=MC_SEED):
    """Lebesgue integral of a quadratic Hamiltonian over the radius-ball.

    product-gauss is exact for these integrands up to roundoff; its error
    estimate compares against the half-order rule.  monte-carlo draws
    uniform points in the ball, _default_samples(n) of them unless told,
    and reports one standard error.
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
        return _monte_carlo(lambda x: h.values(_complexify(x)), n, radius,
                            samples, seed)
    raise ValueError("scheme must be 'product-gauss' or 'monte-carlo'")


@functools.lru_cache(maxsize=32)
def _pullback_rule(n, rho, delta, r, order):
    """Nodes, weights, panel indices, beta(s), pullback weights and skipped.

    The part of _gauss_pullback that no Hamiltonian enters, cached
    read-only, so every check on one chart takes one set of chart
    derivatives per order.  The pullback weight at node s is
    s^(2n-1) det DF, formed as radial * (s * tangential)^(2n-1) from
    _radial_jacobian: s * tangential is about beta(s) <= r, so no factor
    overflows, where det DF alone grows like (rho/s)^(2n-2) at the origin.
    """
    params = LocalModelParams(n, rho, delta, r)
    cuts = (0.0, delta, r - delta, r)
    # all panels share one chart call; each panel still sums on its own
    s, w = np.concatenate([_gauss_nodes(a, b, order)
                           for a, b in zip(cuts[:-1], cuts[1:])], axis=1)
    panel = np.repeat(np.arange(len(cuts) - 1), order)
    keep = s >= 1e-8
    s, w, panel = s[keep], w[keep], panel[keep]
    beta = _profile_raw(s, params)
    radial, tangential = _radial_jacobian(s, params)
    pulled = radial * (s * tangential) ** (2 * n - 1)
    for array in (s, w, panel, beta, pulled):
        array.flags.writeable = False
    return s, w, panel, beta, pulled, int(np.count_nonzero(~keep))


def _gauss_pullback(h, params, order):
    """Integral of (H o F) |det DF| over the ball of radius r.

    Radial-angular factorization: the sphere average of H o F at radius s
    is the sphere average of H at radius beta(s), and det DF is constant
    on spheres by unitary equivariance, so one axis derivative pair per
    radial node (_radial_jacobian at (s, 0, ..., 0)) gives it, folded with
    s^(2n-1) into the cached pullback weight.  Panels split at the
    smoothstep kinks, where the profile is only C^2.
    """
    s, w, panel, beta, pulled, skipped = _pullback_rule(
        params.n, params.rho, params.delta, params.r, order)
    values = w * _radial_average(h, beta) * pulled * _sphere_area(params.n)
    total = sum(float(np.sum(values[panel == k])) for k in range(3))
    return total, skipped


def verify_annulus_pushforward(h, params, scheme="product-gauss", order=32,
                               samples=None, seed=MC_SEED):
    """Both sides of the chart change-of-variables identity, plus deviation.

    Left: integral of (H o F) det DF over the punctured ball of radius r,
    det DF taken by the axis rule of _radial_jacobian at each node's or
    sample's radius, which equivariance makes exact on the whole sphere.
    Right: integral of H over the annulus rho < |z| <= r, computed with no
    reference to the chart.  The
    two parameterizations agree up to quadrature and finite-difference
    error; the returned deviation is relative to the right side's scale.
    monte-carlo draws each side in its own region, with its own seed, and
    _default_samples(n) points unless told.
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
        skipped = 0

        def pullback(coords):
            nonlocal skipped
            radii = np.linalg.norm(coords, axis=1)
            near = radii < 1e-8
            skipped += int(np.count_nonzero(near))
            values = np.zeros(len(coords))
            radial, tangential = _radial_jacobian(radii[~near], params)
            dets = radial * tangential ** (2 * params.n - 1)
            images = _chart(coords[~near], params)
            values[~near] = h.values(_complexify(images)) * dets
            return values

        left = _monte_carlo(pullback, params.n, params.r, samples, seed)
        right = _monte_carlo(lambda x: h.values(_complexify(x)), params.n,
                             params.r, samples, seed + 1, inner=params.rho)
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
