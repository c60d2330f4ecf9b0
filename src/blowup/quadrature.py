"""Numerical integration over balls and annuli in R^(2n) = C^n.

All integrals here are taken against Lebesgue measure, the normalization
in which the ball of radius rho in C^n has volume pi^n rho^(2n) / n! and
the quadratic moment of each |z_j|^2 over it is pi^n rho^(2n+2) / (n+1)!.
The unnormalized volume-form value is n! times the Lebesgue one; callers
comparing against conventions that count the ball volume as pi^n rho^(2n)
must scale accordingly.

Two schemes are provided.  Both rest on the radial-angular factorization
of the circle-type Hamiltonians H = -pi sum m_j |z_j|^2 + c: at a point
s*u with |u| = 1, H is -pi s^2 q + c with q = sum m_j |u_j|^2 the
weighted moment of the direction (_sphere_values).  product-gauss
replaces q by its sphere average K/n, K the weight sum, so the whole
integral collapses to a one-dimensional radial Gauss-Legendre rule of
GAUSS_ORDER nodes per panel that is exact for these polynomial
integrands.  monte-carlo samples the region itself, a ball or an
annulus, so no draw is rejected, and hands each integrand the radii and
moments of uniform points without forming them (_shell_moments): n
exponentials give the squared moduli of a uniform direction, one
uniform its radius.  A fixed seed and deterministic block partitioning
keep results bit-stable, and one sampling loop serves every region.
For a square-integrable integrand its default count never has a larger
standard error than the 200k cube draws it replaced (_default_samples).

The pushforward checks integrate the same Hamiltonian twice: once on the
annulus directly and once pulled back through the radial chart map,
F(x) = beta(|x|) x/|x|, which keeps directions, so H o F is
-pi beta(s)^2 q + c.  The chart is unitary-equivariant, so DF at radius s
is conjugate by a unitary to DF at the axis point (s, 0, ..., 0), where it
is diagonal with one radial entry beta'(s) and 2n - 1 tangential ones
beta(s)/s; det DF = beta'(s) (beta(s)/s)^(2n-1) on the whole sphere, in
closed form from the profile and its slope (_profile_raw,
_profile_slope), with no finite difference.  The two sides stay
independent because the right side never touches the chart: it
integrates H over rho < |z| <= r by itself.  So the identity holds only
if beta' really is the derivative of beta and beta runs from rho to r,
which a finite-difference slope could never show, being near the true
derivative of whatever beta it is given.  No sample forms a point, a
chart image or a Jacobian.  product-gauss folds the volume factor in as
beta' beta^(2n-1), which is s^(2n-1) det DF and stays below r^(2n-1)
where det DF itself overflows (near the origin at n = 60), and caches it
per chart and order.  Radii below 1e-8 r are skipped and counted, a
threshold that scales with the model.  Each deviation is relative to the
right side, floored at 1e-12 of the integrand's size, h.bound(radius),
times the region's volume (_relative_deviation).  The profile, its
slope and the moment draw are the shared kernel of local_model.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .local_model import (CheckResult, LocalModelParams, _profile_raw,
                          _profile_slope, _shell_moments)

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
# product-gauss nodes per panel; the error estimate compares against the
# half-order rule
GAUSS_ORDER = 32


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


def _sphere_values(h, s, moment):
    """H at radius s along directions of weighted moment sum_j m_j |u_j|^2.

    A moment of K/n, the sphere average of every direction's moment, gives
    the sphere average of H; s and moment may be arrays.
    """
    return -math.pi * moment * s * s + h.c


def _gauss_shell(h, a, b, n, order):
    """Integral of H over a <= |z| <= b; a = 0 gives the ball."""
    s, w = _gauss_nodes(a, b, order)
    integrand = (_sphere_values(h, s, h.weight_sum / n) * _sphere_area(n)
                 * s ** (2 * n - 1))
    return float(np.sum(w * integrand))


def _gauss_result(value, coarse):
    """Product-gauss result whose error compares against the coarse rule."""
    error = abs(value - coarse) + 1e-15 * abs(value)
    return IntegralResult(value, error, "product-gauss", GAUSS_ORDER)


def _shell_volume(n, radius, inner=0.0):
    """Lebesgue volume of inner <= |z| <= radius in C^n."""
    return math.pi ** n / math.factorial(n) * (radius ** (2 * n)
                                               - inner ** (2 * n))


def _monte_carlo(integrand, weights, radius, samples, seed, inner=0.0):
    """Block-deterministic Monte-Carlo over inner <= |x| <= radius in R^(2n).

    n is the number of weights.  The samples, _default_samples(n) when
    None, split into _MC_BLOCKS blocks, each drawing exactly its own count
    from its own child of SeedSequence(seed), so results are bit-stable.
    integrand maps the block's radii and weighted direction moments
    (_shell_moments) to its values; the mean is scaled by the shell volume.
    """
    n = len(weights)
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
        values = integrand(*_shell_moments(np.random.default_rng(child),
                                           block, weights, radius, inner))
        total += float(np.sum(values))
        total_sq += float(np.sum(values * values))
    volume = _shell_volume(n, radius, inner)
    mean = total / samples
    variance = max(total_sq / samples - mean * mean, 0.0)
    return IntegralResult(volume * mean, volume * math.sqrt(variance / samples),
                          "monte-carlo", samples)


def _relative_deviation(value, reference, h, radius, inner=0.0):
    """|value - reference| relative to |reference|, with a relative floor.

    The floor is 1e-12 of the integrand's size on the region inner <= |z|
    <= radius, h.bound(radius), times the region's volume, so
    it scales with the integral it guards.  An absolute floor swallows an
    integral that is small only because its region is, as the unit ball's
    is from n ~ 30 on.  The least positive float keeps H = 0 from dividing
    zero by zero.
    """
    floor = 1e-12 * h.bound(radius) * _shell_volume(len(h.weights), radius,
                                                    inner)
    return abs(value - reference) / max(abs(reference), floor, math.ulp(0.0))


def _product_bound(h, n, radius):
    """Bound on every product product-gauss forms on the radius-ball, or inf.

    The rules multiply h.bound(radius), the sphere's area or pi^n/n!, and
    radial powers up to radius^(2n), in varying orders, and add up to four
    such terms; each factor floored at 1 bounds every partial product.
    """
    try:
        return (4.0 * max(h.bound(radius), 1.0)
                * max(_sphere_area(n), _shell_volume(n, 1.0), 1.0)
                * max(radius, 1.0) ** (2 * n))
    except OverflowError:
        return math.inf


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


def integrate_ball(h, radius, n, scheme="product-gauss", samples=None,
                   seed=MC_SEED):
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
        return _gauss_result(_gauss_shell(h, 0.0, radius, n, GAUSS_ORDER),
                             _gauss_shell(h, 0.0, radius, n, GAUSS_ORDER // 2))
    if scheme == "monte-carlo":
        return _monte_carlo(lambda s, q: _sphere_values(h, s, q), h.weights,
                            radius, samples, seed)
    raise ValueError("scheme must be 'product-gauss' or 'monte-carlo'")


@functools.lru_cache(maxsize=32)
def _pullback_rule(n, rho, delta, r, order):
    """Nodes, weights, panel indices, beta(s), pullback weights and skipped.

    The part of _gauss_pullback that no Hamiltonian enters, cached
    read-only, so every check on one chart takes one profile evaluation
    per order.  The pullback weight at node s is s^(2n-1) det DF, formed
    as beta' beta^(2n-1): beta <= r, so no factor overflows, where
    det DF alone grows like (rho/s)^(2n-2) at the origin.
    """
    params = LocalModelParams(n, rho, delta, r)
    cuts = (0.0, delta, r - delta, r)
    # all panels share one profile call; each panel still sums on its own
    s, w = np.concatenate([_gauss_nodes(a, b, order)
                           for a, b in zip(cuts[:-1], cuts[1:])], axis=1)
    panel = np.repeat(np.arange(len(cuts) - 1), order)
    keep = s >= 1e-8 * r
    s, w, panel = s[keep], w[keep], panel[keep]
    beta = _profile_raw(s, params)
    pulled = _profile_slope(s, beta, params) * beta ** (2 * n - 1)
    for array in (s, w, panel, beta, pulled):
        array.flags.writeable = False
    return s, w, panel, beta, pulled, int(np.count_nonzero(~keep))


def _gauss_pullback(h, params, order):
    """Integral of (H o F) |det DF| over the ball of radius r.

    Radial-angular factorization: the sphere average of H o F at radius s
    is the sphere average of H at radius beta(s), and det DF is constant
    on spheres by unitary equivariance, beta' (beta/s)^(2n-1), folded
    with s^(2n-1) into the cached pullback weight.  Panels split at the
    smoothstep kinks, where the profile is only C^2.
    """
    s, w, panel, beta, pulled, skipped = _pullback_rule(
        params.n, params.rho, params.delta, params.r, order)
    values = (w * _sphere_values(h, beta, h.weight_sum / params.n) * pulled
              * _sphere_area(params.n))
    total = sum(float(np.sum(values[panel == k])) for k in range(3))
    return total, skipped


def verify_annulus_pushforward(h, params, scheme="product-gauss", samples=None,
                               seed=MC_SEED):
    """Both sides of the chart change-of-variables identity, plus deviation.

    Left: integral of (H o F) det DF over the punctured ball of radius r,
    with det DF = beta'(s) (beta(s)/s)^(2n-1) in closed form at each
    node's or sample's radius s; radii below 1e-8 r are skipped and
    counted.  Right: integral of H over the annulus rho < |z| <= r, which
    never touches the chart.  The two agree up to quadrature error only if
    the profile's slope is its derivative and it runs from rho to r; the
    returned deviation is relative to the right side's scale.  monte-carlo
    draws each side in its own region, with its own seed, and
    _default_samples(n) points unless told.
    """
    if len(h.weights) != params.n:
        raise ValueError("weight count must match n")
    if scheme == "product-gauss":
        half = GAUSS_ORDER // 2
        left_value, skipped = _gauss_pullback(h, params, GAUSS_ORDER)
        left = _gauss_result(left_value, _gauss_pullback(h, params, half)[0])
        shell = lambda k: _gauss_shell(h, params.rho, params.r, params.n, k)
        right = _gauss_result(shell(GAUSS_ORDER), shell(half))
    elif scheme == "monte-carlo":
        skipped = 0

        def pullback(radii, moments):
            # H o F = -pi beta(|x|)^2 q + c: the chart keeps directions
            nonlocal skipped
            near = radii < 1e-8 * params.r
            skipped += int(np.count_nonzero(near))
            values = np.zeros(len(radii))
            s = radii[~near]
            beta = _profile_raw(s, params)
            dets = (_profile_slope(s, beta, params)
                    * (beta / s) ** (2 * params.n - 1))
            values[~near] = _sphere_values(h, beta, moments[~near]) * dets
            return values

        left = _monte_carlo(pullback, h.weights, params.r, samples, seed)
        right = _monte_carlo(lambda s, q: _sphere_values(h, s, q), h.weights,
                             params.r, samples, seed + 1, inner=params.rho)
    else:
        raise ValueError("scheme must be 'product-gauss' or 'monte-carlo'")
    deviation = _relative_deviation(left.value, right.value, h, params.r,
                                    params.rho)
    return AnnulusComparison(left, right, deviation, skipped)


def verify_normalized_lemma(h, params):
    """Chart form of the lifted-integral identity, as a relative deviation.

    The full identity subtracts the ball term from the total integral; for
    Hamiltonians supported in the radius-r ball the complement of the ball
    contributes identically to both sides and cancels, so the check
    reduces to: pulled-back integral over the punctured r-ball equals the
    r-ball integral minus the rho-ball integral.  That cancellation also
    removes the total-volume term, so no volume enters the deviation, and
    both sides are deterministic product-gauss rules.
    """
    left, skipped = _gauss_pullback(h, params, GAUSS_ORDER)
    outer = integrate_ball(h, params.r, params.n)
    inner = integrate_ball(h, params.rho, params.n)
    right = outer.value - inner.value
    return CheckResult(
        check="normalized-lemma",
        samples=GAUSS_ORDER,
        max_deviation=_relative_deviation(left, right, h, params.r,
                                          params.rho),
        tolerance=1e-4,
        skipped=skipped,
    )
