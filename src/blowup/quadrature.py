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
direction (_sphere_values, which takes s^2).  product-gauss puts in q's
sphere average K/n, K the weight sum, so H is linear in u^2, whose ball
mean is n/(n+1): a ball mean is H at moment K/(n+1) on the sphere, exact
at every n (_ball_mean), and an annulus mean the r-ball's less
(rho/r)^(2n) times the rho-ball's (_annulus_mean).  monte-carlo draws
uniform points of a ball or an annulus as powers u = (|x|/R)^(2n) and
direction moments (_shell_moments), so H there is -pi R^2 u^(1/n) q + c.
Each side draws from one generator, default_rng(seed), in passes of at
most _MC_PASS = 4,096 draws, with one draw and one integrand call per
pass (_monte_carlo).

The pushforward checks take the mean of H over the annulus rho < |z| <= r
directly, and pulled back through the radial chart F(x) = beta(|x|) x/|x|
over the r-ball.  F keeps directions, so H o F is -pi beta(s)^2 q + c,
and det DF = beta'(s) (beta(s)/s)^(2n-1).  Both schemes weigh H o F by
one weight, the r-ball's radial density at t = s/r times det DF,
w(t) = 2n beta'(rt) (beta(rt)/r)^(2n-1), at most 2n and 0 at the
origin.  It is taken in closed form from beta^2 = rho^2 chi + s^2 and
its slope rho^2 chi' + 2s, with one band position for both
(_profile_square), as n (beta^2)' (beta^2/r^2)^(n-1) / r
(_pullback_weight): no root, no division by beta, and beta^2 exact at
both ends, rho^2 at 0 and s^2 where chi = 0.  The sides agree only if the
slope is the derivative of the profile, which a finite-difference slope
could never show.  product-gauss takes w on three Legendre panels,
unnormalized.  monte-carlo draws t from the defensive mixture
p(t) = (1 - a) 2n t^(2n-1) + a 2t, a = _MC_DEFENSIVE (Hesterberg,
Technometrics 37, 1995), by splitting the ball draw's own uniform
(|x|/r)^(2n) at a; w/p is bounded, so its standard error is an honest
one, and at n = 1 p is the ball law.  Each deviation is relative to the
right side, floored at 1e-12 of a bound on it (_relative_deviation).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .local_model import (CheckResult, _band, _integer, _shell_moments,
                          _smoothstep, _smoothstep_prime)

__all__ = [
    "IntegralResult",
    "AnnulusComparison",
    "integrate_ball",
    "verify_annulus_pushforward",
    "verify_normalized_lemma",
    "MC_SEED",
]

MC_SEED = 0xC0FFEE
# draws per Monte-Carlo pass at most: a pass's buffers stay below glibc's
# mmap threshold, so no op faults them in anew
_MC_PASS = 4096
# the least default Monte-Carlo count
_MC_MIN_SAMPLES = 1024
_MC_DEFENSIVE = 0.05  # the pullback's share of draws of radial law 2t
# product-gauss nodes per pullback panel; the error estimate compares
# against the half-order rule
GAUSS_ORDER = 32


@dataclass(frozen=True)
class IntegralResult:
    """A numeric integral, or mean, with a nonnegative error estimate.

    For product-gauss it is a roundoff bound, plus the order-halving
    difference on the pullback; for monte-carlo it is one standard error.
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


@functools.lru_cache(maxsize=32)
def _legendre_rule(order):
    """Gauss-Legendre nodes and weights on [-1, 1], cached read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _sphere_values(h, square, moment):
    """H at squared radius square along directions of weighted moment
    sum_j m_j |u_j|^2.

    A moment of K/n, the sphere average of every direction's moment, gives
    the sphere average of H; square and moment may be arrays.
    """
    return -math.pi * moment * square + h.c


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


def _ball_mean(h, radius, n):
    """Mean of H over the radius-ball: H at moment K/(n+1), the one-node
    Gauss rule of 2n u^(2n-1) in u^2."""
    return _sphere_values(h, radius * radius, h.weight_sum / (n + 1))


def _annulus_mean(h, r, rho, n):
    """Mean over the r-ball of H on rho < |z| <= r."""
    return _ball_mean(h, r, n) - (rho / r) ** (2 * n) * _ball_mean(h, rho, n)


def _monte_carlo(integrand, weights, radius, samples, seed, inner=0.0):
    """Seeded Monte-Carlo mean over the radius-ball in R^(2n).

    The integrand is zero below inner; n is the number of weights.  The
    samples, _default_samples(n) when None, are drawn in inner <= |x| <=
    radius from one default_rng(seed), so results are bit-stable, in passes
    of at most _MC_PASS draws; integrand maps a pass's powers
    (|x|/radius)^(2n) and direction moments (_shell_moments) to values, one
    call per pass.
    """
    n = len(weights)
    samples = _default_samples(n) if samples is None else _integer(
        samples, 1, "monte-carlo needs a positive sample count")
    rng = np.random.default_rng(
        _integer(seed, 0, "monte-carlo needs a nonnegative integer seed"))
    basis = np.stack([np.ones(n), np.asarray(weights, dtype=float)], axis=1)
    total = total_sq = 0.0
    for start in range(0, samples, _MC_PASS):
        values = integrand(*_shell_moments(
            rng, min(_MC_PASS, samples - start), basis, radius, inner))
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
    pulled-back integrand is bounded under the defensive mixture.  p is
    formed from logarithms, so no factorial is a float, and the count
    never falls below _MC_MIN_SAMPLES, which it reaches from n = 5 on.
    """
    share = math.exp(n * math.log(math.pi / 4.0) - math.lgamma(n + 1))
    return max(_MC_MIN_SAMPLES, math.ceil(200_000 * share))


def integrate_ball(h, radius, n, scheme="product-gauss", samples=None,
                   seed=MC_SEED):
    """Lebesgue integral of a quadratic Hamiltonian over the radius-ball.

    The mean over the ball times its volume.  product-gauss is exact for
    these integrands up to roundoff at every n, and reports order 1.
    monte-carlo draws uniform points in the ball, _default_samples(n) of
    them unless told, and reports one standard error.
    """
    if not 0 < radius < math.inf:
        raise ValueError("radius must be finite and positive")
    n = _integer(n, 1, "need at least one complex coordinate")
    if len(h.weights) != n:
        raise ValueError("weight count must match n")
    # a volume past the float range raises here, before any draw
    volume = _ball_volume(n, radius)
    if scheme == "product-gauss":
        mean = IntegralResult(_ball_mean(h, radius, n),
                              1e-15 * h.bound(radius), "product-gauss", 1)
    elif scheme == "monte-carlo":
        mean = _monte_carlo(
            lambda u, q: _sphere_values(h, radius * radius * u ** (1.0 / n),
                                        q),
            h.weights, radius, samples, seed)
    else:
        raise ValueError("scheme must be 'product-gauss' or 'monte-carlo'")
    return _lebesgue(mean, volume)


def _profile_square(s, params):
    """beta(s)^2 = rho^2 chi(s) + s^2 and its slope rho^2 chi'(s) + 2s.

    One band position serves both.  Both ends are exact: rho^2 at s = 0,
    and s^2 wherever chi = 0, past r too.
    """
    u = _band(s, params)
    rho_sq = params.rho * params.rho
    return (rho_sq * _smoothstep(1.0 - u) + s * s,
            rho_sq * (-_smoothstep_prime(u) / params.width) + 2.0 * s)


def _pullback_weight(s, params):
    """beta(s)^2 and the r-ball's radial density at s/r times det DF.

    The weight 2n beta'(s) (beta(s)/r)^(2n-1) is, with beta' the slope of
    beta^2 over 2 beta, n (beta^2)'(s) (beta(s)^2/r^2)^(n-1) / r: no root,
    and no division by beta.  It is 0 at s = 0 and at most 2n.
    """
    square, slope = _profile_square(s, params)
    n, r = params.n, params.r
    return square, (n / r) * slope * (square / (r * r)) ** (n - 1)


@functools.lru_cache(maxsize=32)
def _pullback_rule(params, order):
    """beta(s)^2 and the pulled-back density at Gauss nodes, a row per panel.

    The part of _gauss_pullback that no Hamiltonian enters, cached
    read-only per model (LocalModelParams hashes by value) and order, so
    every check on one chart takes one profile evaluation per order.
    Panels split at the smoothstep kinks, where the profile is only C^2.
    """
    x, w = _legendre_rule(order)
    cuts = np.array([0.0, params.delta, params.r - params.delta, params.r])
    mid = 0.5 * (cuts[:-1] + cuts[1:])[:, None]
    half = 0.5 * (cuts[1:] - cuts[:-1])[:, None]
    square, weight = _pullback_weight(mid + half * x, params)
    density = half * w / params.r * weight
    square.flags.writeable = density.flags.writeable = False
    return square, density


def _gauss_pullback(h, params, order):
    """Mean of (H o F) det DF over the ball of radius r.

    The sphere average of H o F at radius s is that of H at radius
    beta(s); each panel sums on its own.
    """
    square, density = _pullback_rule(params, order)
    values = density * _sphere_values(h, square, h.weight_sum / params.n)
    return sum(float(row) for row in values.sum(axis=1))


def verify_annulus_pushforward(h, params, scheme="product-gauss", samples=None,
                               seed=MC_SEED):
    """Both sides of the chart change-of-variables identity, plus deviation.

    Left: integral of (H o F) det DF over the punctured ball of radius r.
    Right: integral of H over the annulus rho < |z| <= r, which never
    touches the chart.  The deviation compares their means over the
    r-ball, relative to the right one.  monte-carlo draws each side with
    its own seed, _default_samples(n) points unless told: the right side
    in the annulus, the left from the defensive mixture.
    """
    if len(h.weights) != params.n:
        raise ValueError("weight count must match n")
    n, r, rho = params.n, params.r, params.rho
    volume = _ball_volume(n, r)
    if scheme == "product-gauss":
        mean = _gauss_pullback(h, params, GAUSS_ORDER)
        error = (abs(mean - _gauss_pullback(h, params, GAUSS_ORDER // 2))
                 + 1e-15 * abs(mean))
        left = IntegralResult(mean, error, "product-gauss", GAUSS_ORDER)
        right = IntegralResult(_annulus_mean(h, r, rho, n), 1e-15 * h.bound(r),
                               "product-gauss", 1)
    elif scheme == "monte-carlo":
        a = _MC_DEFENSIVE

        def pullback(u, moments):
            # the ball draw's uniform u, split at a: v = (u - a)/(1 - a) or
            # u/a is uniform again, and t = v^(1/2n) or v^(1/2) has law
            # 2n t^(2n-1) or 2t; then v or v^n is t^(2n)
            v = np.maximum(u - a, 0.0) / (1.0 - a)
            t = v ** (0.5 / n)
            low = np.flatnonzero(u < a)
            v[low] = u[low] / a
            t[low] = np.sqrt(v[low])
            v[low] **= n
            square, weight = _pullback_weight(r * t, params)
            # w/p, with p(t) t = (1 - a) 2n t^(2n) + 2a t^2; p is 0 only at
            # t = 0, where w t is 0 too, and the draw contributes 0
            law = (1.0 - a) * (2 * n) * v + (2.0 * a) * t * t
            ratio = weight * t / np.maximum(law, math.ulp(0.0))
            return _sphere_values(h, square, moments) * ratio

        left = _monte_carlo(pullback, h.weights, r, samples, seed)
        right = _monte_carlo(
            lambda u, q: _sphere_values(h, r * r * u ** (1.0 / n), q),
            h.weights, r, samples, seed + 1, inner=rho)
    else:
        raise ValueError("scheme must be 'product-gauss' or 'monte-carlo'")
    deviation = _relative_deviation(left.value, right.value,
                                    h.bound(r) * _shell_share(n, r, rho))
    return AnnulusComparison(_lebesgue(left, volume), _lebesgue(right, volume),
                             deviation)


def verify_normalized_lemma(h, params):
    """Chart form of the lifted-integral identity, as a relative deviation.

    The full identity subtracts the ball term from the total integral; for
    Hamiltonians supported in the radius-r ball the complement of the ball
    contributes identically to both sides and cancels, so the check
    reduces to: pulled-back integral over the punctured r-ball equals the
    r-ball integral minus the rho-ball integral.  Both sides are the
    annulus check's product-gauss means over the r-ball, so no volume
    enters the deviation.
    """
    n, r, rho = params.n, params.r, params.rho
    left = _gauss_pullback(h, params, GAUSS_ORDER)
    right = _annulus_mean(h, r, rho, n)
    return CheckResult(
        check="normalized-lemma",
        samples=GAUSS_ORDER,
        max_deviation=_relative_deviation(left, right, h.bound(r)
                                          * _shell_share(n, r, rho)),
        tolerance=1e-4,
    )
