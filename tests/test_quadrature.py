"""Ball and annulus integrals: exactness, agreement, determinism."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from blowup import cli, local_model, quadrature
from blowup.exact_field import eval_at
from blowup.local_model import (LocalHamiltonian, LocalModelParams,
                                _chart, _complexify, _jacobian,
                                _shell_moments,
                                _shell_samples, beta_profile)
from blowup.quadrature import (
    MC_SEED,
    IntegralResult,
    integrate_ball,
    verify_annulus_pushforward,
    verify_normalized_lemma,
)
from blowup.weinstein import CircleLoopSpec, ManifoldSpec, ball_integral_closed_form


def lebesgue_ball_volume(n, radius):
    return math.pi ** n * radius ** (2 * n) / math.factorial(n)


# ------------------------------------------------------------ integrate_ball


def test_constant_hamiltonian_ball_volume():
    h = LocalHamiltonian(weights=(0, 0), c=1.0)
    result = integrate_ball(h, 0.5, 2)
    assert result.value == pytest.approx(lebesgue_ball_volume(2, 0.5), rel=1e-12)
    assert result.scheme == "product-gauss"


def test_weighted_ball_integral_closed_value():
    # -pi(|z1|^2 + 2|z2|^2) over the 0.5-ball in C^2: -pi^3/128
    h = LocalHamiltonian(weights=(1, 2))
    result = integrate_ball(h, 0.5, 2)
    assert result.value == pytest.approx(-math.pi ** 3 / 128, rel=1e-9)
    assert result.error_estimate <= 1e-9


def test_weighted_ball_integral_monte_carlo():
    h = LocalHamiltonian(weights=(1, 2))
    result = integrate_ball(h, 0.5, 2, scheme="monte-carlo")
    exact = -math.pi ** 3 / 128
    assert result.error_estimate > 0
    assert abs(result.value - exact) <= 3 * result.error_estimate


def test_zero_hamiltonian_both_schemes():
    h = LocalHamiltonian(weights=(0, 0, 0))
    gauss = integrate_ball(h, 0.7, 3)
    mc = integrate_ball(h, 0.7, 3, scheme="monte-carlo", samples=20_000)
    assert gauss.value == 0.0
    assert gauss.error_estimate == 0.0
    assert mc.value == 0.0
    assert mc.error_estimate == 0.0


@pytest.mark.parametrize("n,weights", [(2, (1, 2)), (3, (1, 2, 3))])
@pytest.mark.parametrize("rho", [0.3, 0.5])
def test_matches_closed_form_without_constant(n, weights, rho):
    loop = CircleLoopSpec(weights=weights, C=Fraction(0))
    manifold = ManifoldSpec(n=n, V=Fraction(10), a=Fraction(1))
    symbolic = ball_integral_closed_form(loop, manifold)
    expected = eval_at(symbolic, math.pi * rho * rho)
    h = LocalHamiltonian(weights=weights)
    result = integrate_ball(h, rho, n)
    assert result.value == pytest.approx(expected, rel=1e-5)


def test_constant_term_is_volume_normalized():
    # quadrature weighs the constant by the Lebesgue ball volume, which is
    # the symbolic tau^n coefficient divided by n!
    weights, c, rho, n = (1, 2), 5.0, 0.3, 2
    loop = CircleLoopSpec(weights=weights, C=Fraction(0))
    manifold = ManifoldSpec(n=n, V=Fraction(10), a=Fraction(1))
    quadratic_part = eval_at(ball_integral_closed_form(loop, manifold),
                             math.pi * rho * rho)
    expected = quadratic_part + c * lebesgue_ball_volume(n, rho)
    result = integrate_ball(LocalHamiltonian(weights=weights, c=c), rho, n)
    assert result.value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_terms_pin_their_measures(n):
    # the K term is a Lebesgue integral; the C term is n! times C times the
    # Lebesgue volume, so the two terms disagree by n! on one measure
    rho = 0.4
    t0 = math.pi * rho * rho
    manifold = ManifoldSpec(n=n, V=Fraction(10), a=Fraction(1))
    weights = tuple(range(1, n + 1))
    k_term = eval_at(ball_integral_closed_form(
        CircleLoopSpec(weights=weights, C=0), manifold), t0)
    assert k_term == pytest.approx(
        integrate_ball(LocalHamiltonian(weights=weights), rho, n).value,
        rel=1e-12)
    C = Fraction(5, 7)
    c_term = eval_at(ball_integral_closed_form(
        CircleLoopSpec(weights=(0,) * n, C=C), manifold), t0)
    volume = integrate_ball(LocalHamiltonian(weights=(0,) * n, c=1.0), rho, n)
    assert volume.value == pytest.approx(lebesgue_ball_volume(n, rho), rel=1e-12)
    assert c_term == pytest.approx(math.factorial(n) * float(C) * volume.value,
                                   rel=1e-12)


def test_linearity():
    h1 = LocalHamiltonian(weights=(1, 2), c=0.25)
    h2 = LocalHamiltonian(weights=(3, 1), c=-1.0)
    combo = LocalHamiltonian(weights=(11, 7), c=-2.5)  # 2*h1 + 3*h2
    i1 = integrate_ball(h1, 0.4, 2).value
    i2 = integrate_ball(h2, 0.4, 2).value
    i3 = integrate_ball(combo, 0.4, 2).value
    assert i3 == pytest.approx(2 * i1 + 3 * i2, rel=1e-12)


def test_monte_carlo_deterministic():
    h = LocalHamiltonian(weights=(2, 1), c=0.5)
    first = integrate_ball(h, 0.5, 2, scheme="monte-carlo", samples=30_000)
    second = integrate_ball(h, 0.5, 2, scheme="monte-carlo", samples=30_000)
    assert first.value == second.value
    assert first.error_estimate == second.error_estimate
    shifted = integrate_ball(h, 0.5, 2, scheme="monte-carlo", samples=30_000,
                             seed=1234)
    assert shifted.value != first.value


def test_monte_carlo_agrees_with_gauss():
    h = LocalHamiltonian(weights=(1, 2), c=0.3)
    gauss = integrate_ball(h, 0.5, 2)
    mc = integrate_ball(h, 0.5, 2, scheme="monte-carlo")
    assert abs(mc.value - gauss.value) <= 3 * (mc.error_estimate
                                               + gauss.error_estimate)


def test_monte_carlo_rejects_an_empty_sample_count():
    params = LocalModelParams(n=2, rho=0.3, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=(1, 2))
    # 5000.0 used to raise a TypeError from inside the draw
    for samples in (0, -3, 5000.0, 1.5, "160"):
        with pytest.raises(ValueError, match="positive sample count"):
            integrate_ball(h, 0.5, 2, scheme="monte-carlo", samples=samples)
        with pytest.raises(ValueError, match="positive sample count"):
            verify_annulus_pushforward(h, params, scheme="monte-carlo",
                                       samples=samples)
    # a numpy count is read as a plain int, and the values stay floats
    ball = integrate_ball(h, 0.5, 2, scheme="monte-carlo",
                          samples=np.int64(5000))
    assert type(ball.samples_or_order) is int and ball.samples_or_order == 5000
    assert type(ball.value) is float
    assert ball == integrate_ball(h, 0.5, 2, scheme="monte-carlo",
                                  samples=5000)
    left, right, deviation = verify_annulus_pushforward(
        h, params, scheme="monte-carlo", samples=np.int64(5000))
    for side in (left, right):
        assert type(side.samples_or_order) is int
        assert type(side.value) is type(side.error_estimate) is float
    assert type(deviation) is float


@pytest.mark.parametrize("seed", [None, 1.5, "7", -1])
def test_monte_carlo_refuses_a_seed_that_is_not_a_nonnegative_integer(seed):
    # None drew from OS entropy, so two calls differed; the annulus check
    # raised a TypeError from seed + 1
    params = LocalModelParams(n=2, rho=0.3, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=(1, 2))
    with pytest.raises(ValueError, match="nonnegative integer seed"):
        integrate_ball(h, 0.5, 2, scheme="monte-carlo", samples=160,
                       seed=seed)
    with pytest.raises(ValueError, match="nonnegative integer seed"):
        verify_annulus_pushforward(h, params, scheme="monte-carlo",
                                   samples=160, seed=seed)


def test_argument_validation():
    h = LocalHamiltonian(weights=(1, 2))
    with pytest.raises(ValueError, match="radius"):
        integrate_ball(h, 0.0, 2)
    with pytest.raises(ValueError, match="weight count"):
        integrate_ball(h, 0.5, 3)
    with pytest.raises(ValueError, match="scheme"):
        integrate_ball(h, 0.5, 2, scheme="simpson")
    with pytest.raises(ValueError, match="nonnegative"):
        IntegralResult(1.0, -0.5, "product-gauss", 32)


@pytest.mark.parametrize("scheme", ["product-gauss", "monte-carlo"])
def test_integrate_ball_reads_n_as_an_integer(scheme):
    # int(n) took 2.7 and "2" as n = 2 without a word
    h = LocalHamiltonian(weights=(1, 2), c=0.3)
    for n in (2.7, "2", None):
        with pytest.raises(ValueError, match="complex coordinate"):
            integrate_ball(h, 0.5, n, scheme=scheme, samples=160)
    assert (integrate_ball(h, 0.5, np.int64(2), scheme=scheme, samples=160)
            == integrate_ball(h, 0.5, 2, scheme=scheme, samples=160))


@pytest.mark.parametrize("scheme", ["product-gauss", "monte-carlo"])
@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -0.5])
def test_integrate_ball_refuses_a_radius_that_is_not_finite_positive(
        scheme, radius):
    # a NaN radius used to give value nan, and inf gave -inf
    h = LocalHamiltonian(weights=(1, 2), c=0.3)
    with pytest.raises(ValueError, match="finite and positive"):
        integrate_ball(h, radius, 2, scheme=scheme)


@pytest.mark.parametrize("scheme", ["product-gauss", "monte-carlo"])
def test_integrate_ball_overflows_before_it_draws(monkeypatch, scheme):
    # the volume of the 1e200-ball is past the float range; Monte-Carlo
    # used to draw 61,686 points and warn of an overflow before it raised
    def no_draws(*args, **kwargs):
        raise AssertionError("drew points for a volume that overflows")

    monkeypatch.setattr(quadrature, "_shell_moments", no_draws)
    h = LocalHamiltonian(weights=(1, 2), c=0.3)
    with pytest.raises(OverflowError):
        integrate_ball(h, 1e200, 2, scheme=scheme)


# --------------------------------------------------------- annulus pushforward


def test_annulus_constant_hamiltonian():
    params = LocalModelParams(n=2, rho=0.3, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=(0, 0), c=1.0)
    left, right, deviation = verify_annulus_pushforward(h, params)
    expected = math.pi ** 2 * (1 - 0.3 ** 4) / 2
    assert right.value == pytest.approx(expected, rel=1e-10)
    assert left.value == pytest.approx(expected, rel=1e-6)
    assert deviation <= 1e-4


def test_annulus_weighted_hamiltonian():
    params = LocalModelParams(n=2, rho=0.3, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=(1, 0))
    left, right, deviation = verify_annulus_pushforward(h, params)
    expected = -math.pi ** 3 * (1 - 0.3 ** 6) / 6
    assert right.value == pytest.approx(expected, rel=1e-10)
    assert deviation <= 1e-4


def test_annulus_zero_hamiltonian():
    params = LocalModelParams(n=2, rho=0.3, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=(0, 0))
    left, right, deviation = verify_annulus_pushforward(h, params)
    assert left.value == 0.0
    assert right.value == 0.0
    assert deviation == 0.0


def test_annulus_pullback_at_n_60_stays_finite():
    # det DF reaches about (rho/s)^118 at the first Gauss node, past the
    # float range; the folded weight s^(2n-1) det DF stays below r^(2n-1)
    params = LocalModelParams(n=60, rho=0.4, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=(1,) * 60)
    left, right, _ = verify_annulus_pushforward(h, params)
    assert math.isfinite(left.value) and right.value != 0.0
    assert abs(left.value - right.value) / abs(right.value) <= 1e-10


@pytest.mark.parametrize("n", [30, 60])
def test_integral_rows_report_the_true_deviation_at_large_n(n):
    # every Lebesgue integral here lies far below 1e-12 at r = 1, so an
    # absolute floor of 1e-12 on them would scale each row's true
    # deviation, 3e-15 to 1.5e-14, down by |reference| / 1e-12: the
    # annulus row to about 2e-20 at n = 30 and 1e-54 at n = 60.  The rows
    # compare means over the ball, which stay near 1, with a floor
    # relative to them, so each row is the unfloored deviation of its means
    params = LocalModelParams(n=n, rho=0.4, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=(1,) * n)
    manifold = ManifoldSpec(n=n, V=Fraction(1), a=Fraction(1))
    loop = CircleLoopSpec(weights=(1,) * n, C=Fraction(0), name="ones")
    manifest = cli.Manifest(manifold=manifold, loops=[loop],
                            local_model={"rho": 0.4, "delta": 0.2, "r": 1.0},
                            seed=0)
    rows = {row.check: row.max_deviation
            for row in cli._verify_rows(manifest, params, "integrals")}
    left = quadrature._gauss_pullback(h, params, 32)
    right = quadrature._annulus_mean(h, 1.0, 0.4, n)
    true = abs(left - right) / abs(right)
    annulus = verify_annulus_pushforward(h, params)
    assert (abs(annulus.right.value) < 1e-12
            and abs(integrate_ball(h, 0.4, n).value) < 1e-12)
    assert true > 0.0
    for check in ("annulus-pushforward:ones", "normalized-lemma:ones"):
        assert abs(rows[check] - true) <= 0.01 * true
    # the ball mean -K t / (n + 1) is exact, so its row reads roundoff
    assert rows["ball-closed-form:ones"] <= 1e-15


def test_annulus_monte_carlo_scheme():
    params = LocalModelParams(n=2, rho=0.3, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=(0, 0), c=1.0)
    left, right, _ = verify_annulus_pushforward(h, params,
                                                scheme="monte-carlo",
                                                samples=50_000)
    assert abs(left.value - right.value) <= 3 * (left.error_estimate
                                                 + right.error_estimate)
    gauss_value = math.pi ** 2 * (1 - 0.3 ** 4) / 2
    # a constant's mean is exact, and its standard error 0; the volume,
    # formed from logarithms, meets the closed form to roundoff
    assert abs(right.value - gauss_value) <= (3 * right.error_estimate
                                              + 1e-14 * gauss_value)


def test_annulus_bad_scheme():
    params = LocalModelParams(n=2, rho=0.3, delta=0.2, r=1.0)
    with pytest.raises(ValueError, match="scheme"):
        verify_annulus_pushforward(LocalHamiltonian(weights=(0, 0)), params,
                                   scheme="trapezoid")


# ------------------------------------------------------------ lemma identity


def test_normalized_lemma_weighted():
    params = LocalModelParams(n=2, rho=0.4, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=(1, 2))
    result = verify_normalized_lemma(h, params)
    assert result.max_deviation <= 1e-4
    assert result.passed


def test_normalized_lemma_volume_pattern():
    params = LocalModelParams(n=2, rho=0.4, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=(0, 0), c=1.0)
    result = verify_normalized_lemma(h, params)
    assert result.max_deviation <= 1e-4


def test_normalized_lemma_zero():
    params = LocalModelParams(n=2, rho=0.4, delta=0.2, r=1.0)
    result = verify_normalized_lemma(LocalHamiltonian(weights=(0, 0)), params)
    assert result.max_deviation == 0.0


def test_normalized_lemma_shares_the_annulus_pullback():
    # the lemma's pulled-back side is the annulus check's left mean, bit
    # for bit, and its right side the annulus check's, so its deviation is
    # rebuilt exactly from them and the balls
    params = LocalModelParams(n=3, rho=0.35, delta=0.15, r=0.9)
    h = LocalHamiltonian(weights=(2, -1, 3), c=0.4)
    left = quadrature._gauss_pullback(h, params, 32)
    volume = quadrature._ball_volume(3, params.r)
    annulus = verify_annulus_pushforward(h, params)
    assert annulus.left.value == left * volume
    right = (quadrature._ball_mean(h, params.r, 3)
             - (params.rho / params.r) ** 6
             * quadrature._ball_mean(h, params.rho, 3))
    assert annulus.right.value == right * volume
    lemma = verify_normalized_lemma(h, params)
    assert lemma.max_deviation == abs(left - right) / abs(right)
    assert lemma.max_deviation == annulus.deviation
    # and the balls' means times their volumes are integrate_ball's values
    outer = integrate_ball(h, params.r, 3).value
    inner = integrate_ball(h, params.rho, 3).value
    assert (outer - inner) / volume == pytest.approx(right, rel=1e-13)


def test_verify_integrals_build_one_jacobian_per_order(monkeypatch):
    # the chart determinant comes from one closed-form slope call per order
    calls = []
    widths = []
    drawn = []
    profile_square = quadrature._profile_square

    def counting_square(s, params):
        calls.append(np.size(s))
        return profile_square(s, params)

    def counting_moments(rng, count, basis, radius, inner=0.0):
        drawn.append(count)
        return _shell_moments(rng, count, basis, radius, inner)

    def recording_jacobian(real_map, coords):
        widths.append(coords.shape[1])
        return _jacobian(real_map, coords)

    monkeypatch.setattr(quadrature, "_profile_square", counting_square)
    monkeypatch.setattr(quadrature, "_shell_moments", counting_moments)
    monkeypatch.setattr(local_model, "_jacobian", recording_jacobian)
    assert not hasattr(quadrature, "_jacobian")
    assert not hasattr(quadrature, "beta_profile")
    quadrature._pullback_rule.cache_clear()
    manifest = cli.Manifest(
        manifold=ManifoldSpec(n=2, V=Fraction(1), a=Fraction(1)),
        loops=[CircleLoopSpec(weights=(1, 2), C=Fraction(1, 2), name="a"),
               CircleLoopSpec(weights=(3, -1), C=Fraction(1, 3), name="b")],
        local_model={"rho": 0.4, "delta": 0.2, "r": 1.0},
        seed=0)
    params = LocalModelParams(n=2, **manifest.local_model)
    rows = cli._verify_rows(manifest, params, "integrals")
    assert all(row.passed for row in rows)
    # orders 32 and 16, three panels each, shared by both loops and checks
    assert calls == [3 * 32, 3 * 16]
    assert drawn == []
    # the Monte-Carlo side takes the same slope; 160 draws are one pass,
    # so each side makes one draw and the left one weight
    calls.clear()
    h = LocalHamiltonian(weights=(1, 2), c=0.5)
    verify_annulus_pushforward(h, params, "monte-carlo", samples=160)
    assert calls == [160]
    assert drawn == [160, 160]
    # no pullback takes _jacobian of the chart at all
    assert widths == []


@pytest.mark.parametrize("n, seed", [(2, 0), (2, 12), (2, 39), (2, 61),
                                     (2, 2), (3, 0), (4, 0)])
def test_monte_carlo_pullback_matches_closed_form_determinant(n, seed):
    # the program's default-count draws, moved to the defensive mixture and
    # weighted by det DF = beta' (beta/s)^(2n-1) times the ball's radial
    # density over the mixture's, written out here from the public,
    # checked beta_profile; the mixture's 2t part puts draws near the
    # origin, where det DF is large
    params = LocalModelParams(n=n, rho=0.4, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=tuple(range(1, n + 1)), c=0.3)
    left = verify_annulus_pushforward(h, params, "monte-carlo",
                                      seed=seed).left
    a = quadrature._MC_DEFENSIVE

    def closed_form_pullback(u, moments):
        # the ball draw's uniform (|x|/r)^(2n) below a gives t = sqrt(u/a),
        # above it t = ((u - a)/(1 - a))^(1/2n)
        t = np.where(u < a, np.sqrt(u / a),
                     (np.maximum(u - a, 0.0) / (1 - a)) ** (1 / (2 * n)))
        density = 2 * n * t ** (2 * n - 1)
        ratio = density / ((1 - a) * density + 2 * a * t)
        s = params.r * t
        # H o F = -pi beta^2 q + c on the same direction moments
        value, slope = beta_profile(s, params)
        dets = slope * (value / s) ** (2 * n - 1)
        return (-math.pi * value * value * moments + h.c) * dets * ratio

    # _monte_carlo returns the mean over the r-ball; the left side is that
    # mean times the ball's volume
    mean = quadrature._monte_carlo(closed_form_pullback, h.weights,
                                   params.r, None, seed)
    exact = quadrature._lebesgue(mean, quadrature._ball_volume(n, params.r))
    assert abs(left.value - exact.value) <= 1e-6 * exact.error_estimate


@pytest.mark.parametrize("n", [1, 2, 3, 7, 200])
def test_pullback_weight_is_the_determinant_weight(n):
    # n (beta^2)' (beta^2/r^2)^(n-1) / r is 2n beta' (beta/r)^(2n-1), which
    # is written here from the public, checked beta_profile, at both ends of
    # each panel and inside them; beta^2 is exact at 0 and on the outer band
    params = LocalModelParams(n=n, rho=0.4, delta=0.2, r=1.0)
    delta, r = params.delta, params.r
    s = np.concatenate([[0.0, delta, r - delta, r],
                        np.linspace(0.0, r, 101),
                        np.linspace(delta, r - delta, 37)[1:-1]])
    square, weight = quadrature._pullback_weight(s, params)
    value, slope = beta_profile(s, params)
    expected = 2 * n * slope * (value / r) ** (2 * n - 1)
    assert np.all(np.abs(weight - expected) <= 1e-13 * np.abs(expected))
    assert np.all(np.abs(square - value * value) <= 1e-13 * value * value)
    assert (square[0], weight[0]) == (params.rho ** 2, 0.0)
    outer = s >= r - delta
    assert square[outer].tobytes() == (s[outer] * s[outer]).tobytes()


def test_integral_rows_fail_on_a_wrong_profile_slope(monkeypatch):
    # the right side never touches the chart, so a slope that is not the
    # derivative of the profile breaks the identity: 1e-3 too steep on the
    # transition band fails both chart rows, while the ball row, which
    # never pulls back, still passes.  beta' is the slope of beta^2 over
    # 2 beta, so a slope of beta^2 1e-3 too steep is a beta' 1e-3 too steep
    profile_square = quadrature._profile_square

    def steep_square(s, params):
        square, slope = profile_square(s, params)
        band = (s > params.delta) & (s < params.r - params.delta)
        return square, slope * np.where(band, 1 + 1e-3, 1.0)

    monkeypatch.setattr(quadrature, "_profile_square", steep_square)
    quadrature._pullback_rule.cache_clear()
    manifest = cli.Manifest(
        manifold=ManifoldSpec(n=2, V=Fraction(1), a=Fraction(1)),
        loops=[CircleLoopSpec(weights=(1, 2), C=Fraction(1, 2),
                              name="main")],
        local_model={"rho": 0.4, "delta": 0.2, "r": 1.0},
        seed=0)
    params = LocalModelParams(n=2, **manifest.local_model)
    try:
        rows = {row.check: row
                for row in cli._verify_rows(manifest, params, "integrals")}
    finally:
        quadrature._pullback_rule.cache_clear()
    assert not rows["annulus-pushforward:main"].passed
    assert not rows["normalized-lemma:main"].passed
    assert rows["ball-closed-form:main"].passed


@pytest.mark.parametrize("n", [2, 4])
def test_integral_rows_read_alike_at_a_tiny_scale(n):
    # at 2^-20 (0.4, 0.2, 1) the least order-32 Gauss nodes lie below 1e-8;
    # no node is dropped, and the rows read as at scale 1
    scale = 2.0 ** -20
    params = LocalModelParams(n=n, rho=0.4 * scale, delta=0.2 * scale,
                              r=scale)
    h = LocalHamiltonian(weights=tuple(range(1, n + 1)), c=0.3 * scale ** 2)
    annulus = verify_annulus_pushforward(h, params)
    lemma = verify_normalized_lemma(h, params)
    assert annulus.deviation <= 1e-12
    assert lemma.max_deviation <= 1e-12


# ------------------------------------------- Monte-Carlo reference copies
# The cube-and-reject block loops that the ball-and-shell sampler replaced,
# kept as the oracle for its standard error at 200k cube draws, and the
# shell-sampled and defensive-mixture estimators on points, drawn pass by
# pass from one generator, that _monte_carlo must match.  The program
# reads each draw as a radius and a weighted direction moment and never
# forms the point, so it rounds differently: the tests allow 1e-9 of a
# standard error in the value and in the standard error itself.

def _reference_blocks(samples):
    base, extra = divmod(samples, 16)
    return [base + 1 if i < extra else base for i in range(16)]


def _reference_mc_ball(h, radius, n, samples, seed):
    dim = 2 * n
    cube_volume = (2.0 * radius) ** dim
    children = np.random.SeedSequence(seed).spawn(16)
    total = 0.0
    total_sq = 0.0
    accepted = 0
    count = 0
    for block, child in zip(_reference_blocks(samples), children):
        if block == 0:
            continue
        rng = np.random.default_rng(child)
        coords = rng.uniform(-radius, radius, size=(block, dim))
        points = _complexify(coords)
        inside = np.einsum("ij,ij->i", coords, coords) <= radius * radius
        values = np.where(inside, h.values(points), 0.0)
        total += float(np.sum(values))
        total_sq += float(np.sum(values * values))
        accepted += int(np.count_nonzero(inside))
        count += block
    if accepted < 10:
        raise ValueError("fewer than 10 effective samples")
    mean = total / count
    variance = max(total_sq / count - mean * mean, 0.0)
    return cube_volume * mean, cube_volume * math.sqrt(variance / count), count


def _reference_mc_region(h, params, samples, seed, pullback):
    n = params.n
    dim = 2 * n
    r = params.r
    cube_volume = (2.0 * r) ** dim
    children = np.random.SeedSequence(seed).spawn(16)
    total = 0.0
    total_sq = 0.0
    count = 0
    for block, child in zip(_reference_blocks(samples), children):
        if block == 0:
            continue
        rng = np.random.default_rng(child)
        coords = rng.uniform(-r, r, size=(block, dim))
        radii = np.linalg.norm(coords, axis=1)
        if pullback:
            keep = (radii <= r) & (radii >= 1e-8)
            values = np.zeros(block)
            if np.any(keep):
                inside = coords[keep]
                chart = lambda x: _chart(x, params)
                images = _complexify(chart(inside))
                dets = np.linalg.det(_jacobian(chart, inside))
                values[keep] = h.values(images) * dets
        else:
            keep = (radii <= r) & (radii > params.rho)
            values = np.where(keep, h.values(_complexify(coords)), 0.0)
        total += float(np.sum(values))
        total_sq += float(np.sum(values * values))
        count += block
    mean = total / count
    variance = max(total_sq / count - mean * mean, 0.0)
    return cube_volume * mean, cube_volume * math.sqrt(variance / count)


def _reference_mc_shell(values_of, n, radius, inner, samples, seed,
                        mixture=False):
    """The shell-sampled estimator written out, pass by pass.

    With mixture, the ball's radial law 2n t^(2n-1) gives way to the
    pullback's defensive mixture (1 - a) 2n t^(2n-1) + a 2t, each value
    weighted by the ball's density over the mixture's.
    """
    dim = 2 * n
    volume = math.pi ** n / math.factorial(n) * (radius ** dim - inner ** dim)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    for start in range(0, samples, quadrature._MC_PASS):
        count = min(quadrature._MC_PASS, samples - start)
        # squared direction moduli E_j / sum E are those of a uniform
        # direction; H is circle-invariant, so the point may sit on the real
        # axis of each complex coordinate
        draws = rng.standard_exponential((count, n))
        low = (inner / radius) ** dim
        uniform = rng.random(count)
        radii = radius * (low + (1.0 - low) * uniform) ** (1 / dim)
        ratio = 1.0
        if mixture:
            a = quadrature._MC_DEFENSIVE
            t = np.where(uniform < a, np.sqrt(uniform / a),
                         (np.maximum(uniform - a, 0.0) / (1 - a)) ** (1 / dim))
            density = dim * t ** (dim - 1)
            ratio = density / ((1 - a) * density + 2 * a * t)
            radii = radius * t
        points = np.zeros((count, dim))
        points[:, 0::2] = radii[:, None] * np.sqrt(
            draws / draws.sum(axis=1, keepdims=True))
        values = values_of(points) * ratio
        total += float(np.sum(values))
        total_sq += float(np.sum(values * values))
    mean = total / samples
    variance = max(total_sq / samples - mean * mean, 0.0)
    return volume * mean, volume * math.sqrt(variance / samples)


def assert_matches_reference(got, expected):
    value, stderr = expected
    assert abs(got.value - value) <= 1e-9 * stderr
    assert abs(got.error_estimate - stderr) <= 1e-9 * stderr


# 37 samples are one short pass, 5,000 a full pass and a short one
MC_CASES = [(n, seed, samples) for n in (1, 2, 3, 4)
            for seed in (0, MC_SEED) for samples in (37, 5_000)]


@pytest.mark.parametrize("n,seed,samples", MC_CASES)
def test_monte_carlo_ball_matches_reference(n, seed, samples):
    h = LocalHamiltonian(weights=tuple(range(1, n + 1)), c=-0.3)
    expected = _reference_mc_shell(lambda x: h.values(_complexify(x)), n,
                                   0.6, 0.0, samples, seed)
    got = integrate_ball(h, 0.6, n, "monte-carlo", samples=samples, seed=seed)
    assert_matches_reference(got, expected)
    assert got.samples_or_order == samples


def _reference_axis_det(coords, params):
    """det DF at each row in closed form: the chart is diagonal at the axis
    point (s, 0) of the row's radius, with one radial entry beta'(s) and
    2n - 1 tangential ones beta(s)/s."""
    s = np.linalg.norm(coords, axis=1)
    value, slope = beta_profile(s, params)
    return slope * (value / s) ** (2 * params.n - 1)


@pytest.mark.parametrize("n,seed,samples", MC_CASES)
def test_monte_carlo_pushforward_matches_reference(n, seed, samples):
    params = LocalModelParams(n=n, rho=0.3, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=tuple(range(n, 0, -1)), c=0.8)
    pulled_back = lambda x: (h.values(_complexify(_chart(x, params)))
                             * _reference_axis_det(x, params))
    got = verify_annulus_pushforward(h, params, "monte-carlo",
                                     samples=samples, seed=seed)
    assert_matches_reference(got.left, _reference_mc_shell(
        pulled_back, n, 1.0, 0.0, samples, seed, mixture=True))
    assert_matches_reference(got.right, _reference_mc_shell(
        lambda x: h.values(_complexify(x)), n, 1.0, 0.3, samples, seed + 1))
    assert got.left.samples_or_order == got.right.samples_or_order == samples


@pytest.mark.parametrize("samples", [37, 1_024, 3_171, 4_096, 4_097, 16_150,
                                     61_686, 16 * 4_097 + 3])
@pytest.mark.parametrize("inner", [0.0, 0.3])
def test_monte_carlo_passes_draw_the_blocks_draws(samples, inner):
    # each pass draws its block of the one stream of the seed, exponentials
    # and then uniforms, as a loop of passes over one generator would; no
    # integrand call gets more than a pass
    weights, radius, seed = (1.0, 2.0, 3.0), 0.8, 11
    calls = []

    def recording(powers, moments):
        calls.append((powers.copy(), moments.copy()))
        return powers

    quadrature._monte_carlo(recording, weights, radius, samples, seed, inner)
    powers = np.concatenate([call[0] for call in calls])
    moments = np.concatenate([call[1] for call in calls])
    basis = np.stack([np.ones(len(weights)), weights], axis=1)
    low = (inner / radius) ** (2 * len(weights))
    rng = np.random.default_rng(seed)
    expected_powers, expected_moments = [], []
    for start in range(0, samples, quadrature._MC_PASS):
        count = min(quadrature._MC_PASS, samples - start)
        sums = rng.standard_exponential((count, len(weights))) @ basis
        expected_powers.append(low + (1.0 - low) * rng.random(count))
        expected_moments.append(sums[:, 1] / sums[:, 0])
    expected_powers = np.concatenate(expected_powers)
    expected_moments = np.concatenate(expected_moments)
    assert powers.tobytes() == expected_powers.tobytes()
    assert np.all(np.abs(moments - expected_moments)
                  <= 1e-15 * np.abs(expected_moments))
    assert max(len(call[0]) for call in calls) <= quadrature._MC_PASS


# ------------------------------------------------------ ball-and-shell sampler


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("inner", [0.0, 0.3])
def test_shell_samples_are_seeded_and_inside(n, inner):
    first = _shell_samples(np.random.default_rng(7), 4_000, n, 0.8, inner)
    second = _shell_samples(np.random.default_rng(7), 4_000, n, 0.8, inner)
    assert first.shape == (4_000, 2 * n)
    assert first.tobytes() == second.tobytes()
    radii = np.linalg.norm(first, axis=1)
    assert np.all((inner <= radii) & (radii <= 0.8))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("inner", [0.0, 0.3])
def test_shell_samples_radial_median(n, inner):
    # half the shell's volume lies below the radius whose d-th power is
    # halfway between inner^d and R^d; 20,000 draws put the share within
    # 0.01 of 1/2 at 2.8 standard deviations
    d, radius = 2 * n, 0.8
    median = (inner ** d + (radius ** d - inner ** d) / 2) ** (1 / d)
    points = _shell_samples(np.random.default_rng(n), 20_000, n, radius, inner)
    share = np.mean(np.linalg.norm(points, axis=1) <= median)
    assert abs(share - 0.5) <= 0.01


def _dirichlet_moment_power(weights, power):
    """E (q - K/n)^power for q = sum_j w_j D_j, D ~ Dirichlet(1, ..., 1).

    As sum_j D_j = 1, q - K/n = sum_j v_j D_j with v_j = w_j - K/n, and the
    Dirichlet moments E prod D_j^a_j = (n-1)! prod a_j! / (n-1+|a|)! cancel
    the multinomial coefficients: the value is |a|! (n-1)! / (n-1+|a|)!
    times the complete homogeneous symmetric polynomial of degree |a| in v.
    """
    n = len(weights)
    mean = Fraction(sum(weights), n)
    v = [w - mean for w in weights]
    total = sum(math.prod(v[j] for j in combo) for combo in
                itertools.combinations_with_replacement(range(n), power))
    return Fraction(math.factorial(power) * math.factorial(n - 1),
                    math.factorial(n - 1 + power)) * total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("inner", [0.0, 0.3])
def test_shell_moments_follow_the_uniform_direction_law(n, inner):
    # q = sum_j w_j |u_j|^2 for u uniform on the unit sphere of C^n
    weights, radius, count = (3, -1, 2, 5)[:n], 0.8, 20_000
    basis = np.stack([np.ones(n), weights], axis=1)
    powers, moments = _shell_moments(np.random.default_rng(n), count, basis,
                                     radius, inner)
    again = _shell_moments(np.random.default_rng(n), count, basis, radius,
                           inner)
    assert powers.tobytes() == again[0].tobytes()
    assert moments.tobytes() == again[1].tobytes()
    assert powers.shape == moments.shape == (count,)
    # the radius law of test_shell_samples_radial_median, for the radii
    # whose powers (|x|/radius)^(2n) were drawn
    d = 2 * n
    radii = radius * powers ** (1 / d)
    assert np.all((inner <= radii) & (radii <= radius))
    median = (inner ** d + (radius ** d - inner ** d) / 2) ** (1 / d)
    assert abs(np.mean(radii <= median) - 0.5) <= 0.01
    # mean K/n and variance (n sum w^2 - K^2) / (n^2 (n+1)); at n = 1 q is
    # the constant w_1, so a roundoff floor of 1e-12 |w| stands in for 0
    K = sum(weights)
    variance = Fraction(n * sum(w * w for w in weights) - K * K,
                        n * n * (n + 1))
    assert variance == _dirichlet_moment_power(weights, 2)
    fourth = _dirichlet_moment_power(weights, 4)
    floor = 1e-12 * max(abs(w) for w in weights)
    stderr = math.sqrt(variance / count)
    assert abs(np.mean(moments) - K / n) <= 4 * stderr + floor
    # the sample variance of count draws has standard deviation
    # sqrt((mu_4 - sigma^4) / count) to first order in 1/count
    spread = math.sqrt((fourth - variance * variance) / count)
    assert abs(np.var(moments, ddof=1) - variance) <= 4 * spread + floor ** 2


def test_default_sample_count():
    # the expected in-ball share of 200k cube draws, rounded up, and never
    # below 1,024: that share is 0.72 draws at n = 8, and 171! is no float
    assert [quadrature._default_samples(n) for n in (1, 2, 3, 4, 8, 171)] == [
        157_080, 61_686, 16_150, 3_171, 1_024, 1_024]
    h = LocalHamiltonian(weights=(1, 2, 3))
    params = LocalModelParams(n=3, rho=0.3, delta=0.2, r=1.0)
    mc = verify_annulus_pushforward(h, params, scheme="monte-carlo")
    assert mc.left.samples_or_order == mc.right.samples_or_order == 16_150
    ball = integrate_ball(h, 0.5, 3, scheme="monte-carlo")
    assert ball.samples_or_order == 16_150


def test_monte_carlo_default_count_fails_closed_at_n_8():
    # one draw used to be the default from n = 8 on, with an error of 0.0
    h = LocalHamiltonian(weights=(1,) * 8, c=0.3)
    ball = integrate_ball(h, 0.5, 8, scheme="monte-carlo")
    exact = integrate_ball(h, 0.5, 8).value
    assert ball.error_estimate > 0
    assert abs(ball.value - exact) <= 5 * ball.error_estimate
    single = integrate_ball(h, 0.5, 8, scheme="monte-carlo", samples=1)
    assert single.error_estimate == math.inf


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monte_carlo_within_five_sigma(n):
    h = LocalHamiltonian(weights=tuple(range(1, n + 1)), c=0.3)
    params = LocalModelParams(n=n, rho=0.3, delta=0.2, r=1.0)
    ball = integrate_ball(h, 0.6, n, scheme="monte-carlo")
    exact = integrate_ball(h, 0.6, n).value
    assert abs(ball.value - exact) <= 5 * ball.error_estimate
    left, right, _ = verify_annulus_pushforward(h, params, "monte-carlo")
    annulus = (integrate_ball(h, 1.0, n).value
               - integrate_ball(h, 0.3, n).value)
    assert abs(right.value - annulus) <= 5 * right.error_estimate
    assert abs(left.value - right.value) <= 5 * math.hypot(
        left.error_estimate, right.error_estimate)


def _benchmark_shaped(rng, n):
    """Weights in [-3, 3], c in [-3, 3] and admissible (rho, delta, r)."""
    while True:
        r = rng.uniform(0.6, 1.5)
        try:
            params = LocalModelParams(n, r * rng.uniform(0.1, 0.9),
                                      r * rng.uniform(0.05, 0.45), r)
        except ValueError:
            continue
        h = LocalHamiltonian(weights=[rng.randint(-3, 3) for _ in range(n)],
                             c=rng.uniform(-3, 3))
        return h, params, rng.randrange(2 ** 32)


# A sample standard error moves by about 1/sqrt(2M) of itself, 1.3% at
# the smallest default count (M = 3,171 at n = 4), so 5% slack is about
# four such fluctuations.
STDERR_SLACK = 1.05


@pytest.mark.parametrize("n", [2, 3, 4])
def test_default_count_stderr_at_most_the_cube(n):
    rng = random.Random(n)
    for _ in range(4):
        h, params, seed = _benchmark_shaped(rng, n)
        ball = integrate_ball(h, params.rho, n, "monte-carlo", seed=seed)
        cube = _reference_mc_ball(h, params.rho, n, 200_000, seed)[1]
        assert ball.error_estimate <= STDERR_SLACK * cube
        right = verify_annulus_pushforward(h, params, "monte-carlo",
                                           seed=seed).right
        cube = _reference_mc_region(h, params, 200_000, seed + 1, False)[1]
        assert right.error_estimate <= STDERR_SLACK * cube


def test_default_count_pullback_stderr_at_most_the_cube():
    # at n = 1 the defensive mixture is the ball law; from n = 2 on det DF
    # grows like (rho/|x|)^(2n-2) at the origin, so the cube sampler has
    # no finite variance to bound the mixture's by
    rng = random.Random(1)
    for _ in range(2):
        h, params, seed = _benchmark_shaped(rng, 1)
        left = verify_annulus_pushforward(h, params, "monte-carlo",
                                          seed=seed).left
        cube = _reference_mc_region(h, params, 200_000, seed, True)[1]
        assert left.error_estimate <= STDERR_SLACK * cube


# ------------------------------------------------ defensive-mixture pullback


def test_monte_carlo_pullback_within_five_sigma_over_200_seeds():
    # the mc-pushforward benchmark model whose uniform-ball pullback drew
    # 6.9 combined sigma from the annulus side at seed 3: its weight had
    # infinite variance, so a rare draw near the origin moved the mean
    # past its own standard error
    params = LocalModelParams(n=3, rho=0.361, delta=0.049, r=0.603)
    h = LocalHamiltonian(weights=(-1, -1, 1), c=2.0)
    reference = verify_annulus_pushforward(h, params).left.value
    for seed in range(200):
        left = verify_annulus_pushforward(h, params, "monte-carlo",
                                          seed=seed).left
        assert abs(left.value - reference) <= 5 * left.error_estimate


@pytest.mark.parametrize("n", [2, 3, 4])
def test_monte_carlo_pullback_two_sigma_coverage(n):
    # a bounded weight makes the standard error honest: 2-sigma intervals
    # of 4,000 draws cover the product-gauss pullback about 95% of the
    # time, a share that moves by 0.0063 or so over 1,200 models, so the
    # band is 4.8 of those either way, and none misses by 5 sigma.  The
    # uniform-ball pullback covered as often, but missed two n = 4 models
    # by 5.0 and 5.5 of its standard errors
    rng = random.Random(n)
    covered = 0
    for _ in range(1_200):
        h, params, seed = _benchmark_shaped(rng, n)
        reference = verify_annulus_pushforward(h, params).left.value
        left = verify_annulus_pushforward(h, params, "monte-carlo",
                                          samples=4_000, seed=seed).left
        miss = abs(left.value - reference)
        covered += miss <= 2 * left.error_estimate
        assert miss <= 5 * left.error_estimate
    assert 0.92 <= covered / 1_200 <= 0.98


def test_monte_carlo_pullback_at_a_zero_radius(monkeypatch):
    # the folded weight is 0 at the origin, where the mixture's law is 0
    # too: a draw there adds 0, and nothing divides by zero (the suite
    # makes every RuntimeWarning an error)
    params = LocalModelParams(n=3, rho=0.3, delta=0.2, r=1.0)
    square, weight = quadrature._pullback_weight(np.zeros(1), params)
    assert (square[0], weight[0]) == (0.3 * 0.3, 0.0)

    def with_a_zero(rng, count, basis, radius, inner=0.0):
        powers, moments = _shell_moments(rng, count, basis, radius, inner)
        powers[0] = 0.0
        return powers, moments

    monkeypatch.setattr(quadrature, "_shell_moments", with_a_zero)
    h = LocalHamiltonian(weights=(1, 2, 3), c=0.3)
    left = verify_annulus_pushforward(h, params, "monte-carlo",
                                      samples=160).left
    assert math.isfinite(left.value) and math.isfinite(left.error_estimate)
