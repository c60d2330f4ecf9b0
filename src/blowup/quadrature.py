"""Numerical means and integrals over balls and annuli in R^(2n) = C^n.

Every rule computes a mean over a ball of radius R: the radial average of
the integrand at R u against the unit ball's radial density 2n u^(2n-1)
on [0, 1].  So no rule forms a volume, a sphere area, pi^n, n! or
R^(2n), and every deviation is a ratio of two means over one ball, which
reads the same at every scale.  Only the public integrals, integrate_ball
and the two sides of AnnulusComparison, are Lebesgue integrals: the mean
times the ball's volume pi^n R^(2n) / n!, formed once from logarithms
(_ball_volume).  The unnormalized volume-form value is n! times the
Lebesgue one.

Both schemes rest on the radial-angular factorization of the circle-type
Hamiltonians H = -pi sum m_j |z_j|^2 + c: at a point s*u with |u| = 1, H
is -pi s^2 q + c with q = sum m_j |u_j|^2 the weighted moment of the
direction (_sphere_values).  product-gauss replaces q by its sphere
average K/n, K the weight sum, so a mean is a radial Gauss-Legendre rule
of GAUSS_ORDER nodes per panel.  On a ball or annulus (_gauss_shell) the
density is divided by the rule's own total and weighed by the region's
exact share of the ball: from n ~ 32 on the rule no longer integrates
2n u^(2n-1) exactly (it misses 5e-5 of it at n = 171), and the ratio
cancels most of that.  monte-carlo draws uniform points of the region,
a ball or an annulus, as radii and direction moments (_shell_moments),
in seeded deterministic blocks; the sample mean times the region's share
is the mean over the ball.  For a square-integrable integrand its default
count never has a larger standard error than the 200k cube draws it
replaced, and it is at least 1,024 (_default_samples); fewer than two
draws report an infinite error.

The pushforward checks take the mean of H over the annulus rho < |z| <= r
directly, and pulled back through the radial chart F(x) = beta(|x|) x/|x|
over the r-ball.  F keeps directions, so H o F is -pi beta(s)^2 q + c,
and it is unitary-equivariant, so det DF = beta'(s) (beta(s)/s)^(2n-1) on
each sphere, in closed form from the profile and its slope
(_profile_raw, _profile_slope, shared with local_model.py).  The two
sides agree only if beta' is the derivative of beta and beta runs from
rho to r, which a finite-difference slope could never show.
product-gauss folds the radial density and det DF into one weight,
2n beta' (beta/r)^(2n-1) / r, at most 2n where det DF alone overflows
near the origin; it is cached per chart and order, and left unnormalized,
since a slope off by a factor would cancel in the ratio.  Radii below
1e-8 r are skipped and counted.  Each deviation is relative to the right
side, floored at 1e-12 of a bound on it (_relative_deviation).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .local_model import (CheckResult, _profile_raw, _profile_slope,
                          _shell_moments)

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
# the least default Monte-Carlo count, 64 draws per block
_MC_MIN_SAMPLES = 1024
# product-gauss nodes per panel; the error estimate compares against the
# half-order rule
GAUSS_ORDER = 32


@dataclass(frozen=True)
class IntegralResult:
    """A numeric integral, or mean, with a nonnegative error estimate.

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


def _ball_volume(n, radius):
    """Lebesgue volume pi^n radius^(2n) / n! of the radius-ball in C^n.

    One exponential of a sum of logarithms, so no power or factorial is a
    float of its own; a volume past the float range raises OverflowError.
    """
    return math.exp(n * (math.log(math.pi) + 2.0 * math.log(radius))
                    - math.lgamma(n + 1))


def _shell_share(n, radius, inner):
    """Share of the radius-ball that its part |z| >= inner fills."""
    return 1.0 - (inner / radius) ** (2 * n)


def _lebesgue(mean, volume):
    """The integral over a ball of the given volume, from its mean."""
    return IntegralResult(volume * mean.value, volume * mean.error_estimate,
                          mean.scheme, mean.samples_or_order)


def _gauss_shell(h, radius, inner, n, order):
    """Mean over the radius-ball of H on inner <= |z|, by one Gauss rule.

    The unit ball's radial density 2n u^(2n-1) on nodes of [inner/radius,
    1], divided by its own sum and weighed by the shell's exact share.
    """
    u, w = _gauss_nodes(inner / radius, 1.0, order)
    density = w * (2 * n) * u ** (2 * n - 1)
    values = _sphere_values(h, radius * u, h.weight_sum / n)
    return (_shell_share(n, radius, inner)
            * float(np.sum(density * values) / np.sum(density)))


def _gauss_result(mean, coarse):
    """Product-gauss result whose error compares against the coarse rule."""
    error = abs(mean - coarse) + 1e-15 * abs(mean)
    return IntegralResult(mean, error, "product-gauss", GAUSS_ORDER)


def _gauss_ball(h, radius, n):
    """Product-gauss mean of H over the radius-ball, with its error."""
    return _gauss_result(_gauss_shell(h, radius, 0.0, n, GAUSS_ORDER),
                         _gauss_shell(h, radius, 0.0, n, GAUSS_ORDER // 2))


def _monte_carlo(integrand, weights, radius, samples, seed, inner=0.0):
    """Block-deterministic Monte-Carlo mean over the radius-ball in R^(2n).

    The integrand is zero below inner; n is the number of weights.  The
    samples, _default_samples(n) when None, split into _MC_BLOCKS blocks,
    each drawing its own count in inner <= |x| <= radius from its own
    child of SeedSequence(seed), so results are bit-stable.  integrand
    maps a block's radii and direction moments (_shell_moments) to values.
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
    share = _shell_share(n, radius, inner)
    mean = total / samples
    variance = max(total_sq / samples - mean * mean, 0.0)
    # one draw has a sample variance of 0, which bounds nothing
    error = math.sqrt(variance / samples) if samples > 1 else math.inf
    return IntegralResult(share * mean, share * error, "monte-carlo", samples)


def _relative_deviation(value, reference, size):
    """|value - reference| relative to |reference|, floored at 1e-12 size.

    size bounds |reference|, so the floor scales with the means it guards;
    the least positive float keeps H = 0 from dividing zero by zero.
    """
    return abs(value - reference) / max(abs(reference), 1e-12 * size,
                                        math.ulp(0.0))


def _default_samples(n):
    """Points that land in the ball out of 200k cube draws, on average.

    Drawing them in the ball never gives a larger standard error for a
    square-integrable f: with p = pi^n / (n! 4^n) the ball's share of its
    cube and E the mean over the ball, M = p N ball draws have variance
    V_c^2 (p E f^2 - p (E f)^2) / N, N cube draws V_c^2 (p E f^2 -
    p^2 (E f)^2) / N, and an annulus fills a smaller share still.  The
    pulled-back integrand is square-integrable only at n = 1, as det DF
    grows like (rho/|x|)^(2n-2) at the origin.  p is formed from
    logarithms, so no factorial is a float, and the count never falls
    below _MC_MIN_SAMPLES, which it reaches from n = 5 on.
    """
    share = math.exp(n * math.log(math.pi / 4.0) - math.lgamma(n + 1))
    return max(_MC_MIN_SAMPLES, math.ceil(200_000 * share))


def integrate_ball(h, radius, n, scheme="product-gauss", samples=None,
                   seed=MC_SEED):
    """Lebesgue integral of a quadratic Hamiltonian over the radius-ball.

    The mean over the ball times its volume.  product-gauss is exact for
    these integrands up to roundoff while 2n - 1 < 2 GAUSS_ORDER; its
    error estimate compares against the half-order rule.  monte-carlo
    draws uniform points in the ball, _default_samples(n) of them unless
    told, and reports one standard error.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    n = int(n)
    if n < 1:
        raise ValueError("need at least one complex coordinate")
    if len(h.weights) != n:
        raise ValueError("weight count must match n")
    if scheme == "product-gauss":
        mean = _gauss_ball(h, radius, n)
    elif scheme == "monte-carlo":
        mean = _monte_carlo(lambda s, q: _sphere_values(h, s, q), h.weights,
                            radius, samples, seed)
    else:
        raise ValueError("scheme must be 'product-gauss' or 'monte-carlo'")
    return _lebesgue(mean, _ball_volume(n, radius))


@functools.lru_cache(maxsize=32)
def _pullback_rule(params, order):
    """Panel indices, beta(s), pulled-back density and skipped node count.

    The part of _gauss_pullback that no Hamiltonian enters, cached
    read-only per model (LocalModelParams hashes by value) and order, so
    every check on one chart takes one profile evaluation per order.  The
    density at a node s of weight w is the r-ball's radial density at
    beta(s) times det DF, w 2n beta' (beta/r)^(2n-1) / r.
    """
    n, delta, r = params.n, params.delta, params.r
    cuts = (0.0, delta, r - delta, r)
    # all panels share one profile call; each panel still sums on its own
    s, w = np.concatenate([_gauss_nodes(a, b, order)
                           for a, b in zip(cuts[:-1], cuts[1:])], axis=1)
    panel = np.repeat(np.arange(len(cuts) - 1), order)
    keep = s >= 1e-8 * r
    s, w, panel = s[keep], w[keep], panel[keep]
    beta = _profile_raw(s, params)
    density = (w / r * (2 * n) * _profile_slope(s, beta, params)
               * (beta / r) ** (2 * n - 1))
    for array in (panel, beta, density):
        array.flags.writeable = False
    return panel, beta, density, int(np.count_nonzero(~keep))


def _gauss_pullback(h, params, order):
    """Mean of (H o F) det DF over the ball of radius r, and skipped nodes.

    The sphere average of H o F at radius s is that of H at radius
    beta(s).  Panels split at the smoothstep kinks, where the profile is
    only C^2.
    """
    panel, beta, density, skipped = _pullback_rule(params, order)
    values = density * _sphere_values(h, beta, h.weight_sum / params.n)
    total = sum(float(np.sum(values[panel == k])) for k in range(3))
    return total, skipped


def verify_annulus_pushforward(h, params, scheme="product-gauss", samples=None,
                               seed=MC_SEED):
    """Both sides of the chart change-of-variables identity, plus deviation.

    Left: integral of (H o F) det DF over the punctured ball of radius r;
    radii below 1e-8 r are skipped and counted.  Right: integral of H over
    the annulus rho < |z| <= r, which never touches the chart.  The
    deviation compares their means over the r-ball, relative to the
    right one.  monte-carlo draws each side in its own region, with its
    own seed, and _default_samples(n) points unless told.
    """
    if len(h.weights) != params.n:
        raise ValueError("weight count must match n")
    n, r, rho = params.n, params.r, params.rho
    if scheme == "product-gauss":
        half = GAUSS_ORDER // 2
        mean, skipped = _gauss_pullback(h, params, GAUSS_ORDER)
        left = _gauss_result(mean, _gauss_pullback(h, params, half)[0])
        right = _gauss_result(_gauss_shell(h, r, rho, n, GAUSS_ORDER),
                              _gauss_shell(h, r, rho, n, half))
    elif scheme == "monte-carlo":
        skipped = 0

        def pullback(radii, moments):
            # H o F = -pi beta(|x|)^2 q + c: the chart keeps directions
            nonlocal skipped
            near = radii < 1e-8 * r
            skipped += int(np.count_nonzero(near))
            values = np.zeros(len(radii))
            s = radii[~near]
            beta = _profile_raw(s, params)
            dets = _profile_slope(s, beta, params) * (beta / s) ** (2 * n - 1)
            values[~near] = _sphere_values(h, beta, moments[~near]) * dets
            return values

        left = _monte_carlo(pullback, h.weights, r, samples, seed)
        right = _monte_carlo(lambda s, q: _sphere_values(h, s, q), h.weights,
                             r, samples, seed + 1, inner=rho)
    else:
        raise ValueError("scheme must be 'product-gauss' or 'monte-carlo'")
    deviation = _relative_deviation(left.value, right.value,
                                    h.bound(r) * _shell_share(n, r, rho))
    volume = _ball_volume(n, r)
    return AnnulusComparison(_lebesgue(left, volume), _lebesgue(right, volume),
                             deviation, skipped)


def verify_normalized_lemma(h, params):
    """Chart form of the lifted-integral identity, as a relative deviation.

    The full identity subtracts the ball term from the total integral; for
    Hamiltonians supported in the radius-r ball the complement of the ball
    contributes identically to both sides and cancels, so the check
    reduces to: pulled-back integral over the punctured r-ball equals the
    r-ball integral minus the rho-ball integral.  Each side is a
    product-gauss mean over the r-ball, the rho-ball's counted with its
    share (rho/r)^(2n), so no volume enters the deviation.
    """
    n, r, rho = params.n, params.r, params.rho
    left, skipped = _gauss_pullback(h, params, GAUSS_ORDER)
    right = (_gauss_shell(h, r, 0.0, n, GAUSS_ORDER)
             - (rho / r) ** (2 * n) * _gauss_shell(h, rho, 0.0, n, GAUSS_ORDER))
    return CheckResult(
        check="normalized-lemma",
        samples=GAUSS_ORDER,
        max_deviation=_relative_deviation(left, right, h.bound(r)
                                          * _shell_share(n, r, rho)),
        tolerance=1e-4,
        skipped=skipped,
    )
