"""Ball and annulus integrals: exactness, agreement, determinism."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from blowup import cli, quadrature
from blowup.exact_field import eval_at
from blowup.local_model import (LocalHamiltonian, LocalModelParams, _chart,
                                _complexify, _jacobian, _shell_samples)
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
    with pytest.raises(ValueError, match="positive sample count"):
        integrate_ball(h, 0.5, 2, scheme="monte-carlo", samples=0)
    with pytest.raises(ValueError, match="positive sample count"):
        verify_annulus_pushforward(h, params, scheme="monte-carlo", samples=0)


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


# --------------------------------------------------------- annulus pushforward


def test_annulus_constant_hamiltonian():
    params = LocalModelParams(n=2, rho=0.3, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=(0, 0), c=1.0)
    left, right, deviation, skipped = verify_annulus_pushforward(h, params)
    expected = math.pi ** 2 * (1 - 0.3 ** 4) / 2
    assert right.value == pytest.approx(expected, rel=1e-10)
    assert left.value == pytest.approx(expected, rel=1e-6)
    assert deviation <= 1e-4
    assert skipped == 0


def test_annulus_weighted_hamiltonian():
    params = LocalModelParams(n=2, rho=0.3, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=(1, 0))
    left, right, deviation, _ = verify_annulus_pushforward(h, params)
    expected = -math.pi ** 3 * (1 - 0.3 ** 6) / 6
    assert right.value == pytest.approx(expected, rel=1e-10)
    assert deviation <= 1e-4


def test_annulus_zero_hamiltonian():
    params = LocalModelParams(n=2, rho=0.3, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=(0, 0))
    left, right, deviation, _ = verify_annulus_pushforward(h, params)
    assert left.value == 0.0
    assert right.value == 0.0
    assert deviation == 0.0


def test_annulus_monte_carlo_scheme():
    params = LocalModelParams(n=2, rho=0.3, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=(0, 0), c=1.0)
    left, right, _, _ = verify_annulus_pushforward(h, params,
                                                   scheme="monte-carlo",
                                                   samples=50_000)
    assert abs(left.value - right.value) <= 3 * (left.error_estimate
                                                 + right.error_estimate)
    gauss_value = math.pi ** 2 * (1 - 0.3 ** 4) / 2
    assert abs(right.value - gauss_value) <= 3 * right.error_estimate


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
    # the lemma's pulled-back side is the annulus check's left value, bit
    # for bit, so its deviation is rebuilt exactly from that and the balls
    params = LocalModelParams(n=3, rho=0.35, delta=0.15, r=0.9)
    h = LocalHamiltonian(weights=(2, -1, 3), c=0.4)
    left = verify_annulus_pushforward(h, params).left.value
    right = (integrate_ball(h, params.r, 3).value
             - integrate_ball(h, params.rho, 3).value)
    lemma = verify_normalized_lemma(h, params)
    assert lemma.max_deviation == abs(left - right) / max(abs(right), 1e-12)


def test_verify_integrals_build_one_jacobian_per_order(monkeypatch):
    calls = []

    def counting_jacobian(real_map, coords):
        calls.append(len(coords))
        return _jacobian(real_map, coords)

    monkeypatch.setattr(quadrature, "_jacobian", counting_jacobian)
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


# ------------------------------------------- Monte-Carlo reference copies
# The cube-and-reject block loops that the ball-and-shell sampler replaced,
# kept as the oracle for its standard error at 200k cube draws, and the
# shell-sampled estimator that _monte_carlo must match bit for bit.

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
    skipped = 0
    for block, child in zip(_reference_blocks(samples), children):
        if block == 0:
            continue
        rng = np.random.default_rng(child)
        coords = rng.uniform(-r, r, size=(block, dim))
        radii = np.linalg.norm(coords, axis=1)
        if pullback:
            keep = (radii <= r) & (radii >= 1e-8)
            skipped += int(np.count_nonzero(radii < 1e-8))
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
    return (cube_volume * mean, cube_volume * math.sqrt(variance / count),
            count, skipped)


def _reference_mc_shell(values_of, n, radius, inner, samples, seed):
    """The shell-sampled estimator written out, block by block."""
    dim = 2 * n
    volume = math.pi ** n / math.factorial(n) * (radius ** dim - inner ** dim)
    children = np.random.SeedSequence(seed).spawn(16)
    total = 0.0
    total_sq = 0.0
    for block, child in zip(_reference_blocks(samples), children):
        if block == 0:
            continue
        rng = np.random.default_rng(child)
        normals = rng.standard_normal((block, dim))
        directions = normals / np.linalg.norm(normals, axis=1)[:, None]
        low = (inner / radius) ** dim
        radii = radius * (low + (1.0 - low) * rng.random(block)) ** (1 / dim)
        values = values_of(directions * radii[:, None])
        total += float(np.sum(values))
        total_sq += float(np.sum(values * values))
    mean = total / samples
    variance = max(total_sq / samples - mean * mean, 0.0)
    return volume * mean, volume * math.sqrt(variance / samples)


# 37 samples leave blocks of two and three draws
MC_CASES = [(n, seed, samples) for n in (1, 2, 3, 4)
            for seed in (0, MC_SEED) for samples in (37, 5_000)]


@pytest.mark.parametrize("n,seed,samples", MC_CASES)
def test_monte_carlo_ball_matches_reference(n, seed, samples):
    h = LocalHamiltonian(weights=tuple(range(1, n + 1)), c=-0.3)
    expected = _reference_mc_shell(lambda x: h.values(_complexify(x)), n,
                                   0.6, 0.0, samples, seed)
    got = integrate_ball(h, 0.6, n, "monte-carlo", samples=samples, seed=seed)
    assert (got.value, got.error_estimate) == expected
    assert got.samples_or_order == samples


@pytest.mark.parametrize("n,seed,samples", MC_CASES)
def test_monte_carlo_pushforward_matches_reference(n, seed, samples):
    params = LocalModelParams(n=n, rho=0.3, delta=0.2, r=1.0)
    h = LocalHamiltonian(weights=tuple(range(n, 0, -1)), c=0.8)
    chart = lambda x: _chart(x, params)
    pulled_back = lambda x: (h.values(_complexify(chart(x)))
                             * np.linalg.det(_jacobian(chart, x)))
    got = verify_annulus_pushforward(h, params, "monte-carlo",
                                     samples=samples, seed=seed)
    assert (got.left.value, got.left.error_estimate) == _reference_mc_shell(
        pulled_back, n, 1.0, 0.0, samples, seed)
    assert (got.right.value, got.right.error_estimate) == _reference_mc_shell(
        lambda x: h.values(_complexify(x)), n, 1.0, 0.3, samples, seed + 1)
    assert got.left.samples_or_order == got.right.samples_or_order == samples
    assert got.skipped == 0


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


def test_default_sample_count():
    # the expected in-ball share of 200k cube draws, rounded up
    assert [quadrature._default_samples(n) for n in (1, 2, 3, 4)] == [
        157_080, 61_686, 16_150, 3_171]
    h = LocalHamiltonian(weights=(1, 2, 3))
    params = LocalModelParams(n=3, rho=0.3, delta=0.2, r=1.0)
    mc = verify_annulus_pushforward(h, params, scheme="monte-carlo")
    assert mc.left.samples_or_order == mc.right.samples_or_order == 16_150
    ball = integrate_ball(h, 0.5, 3, scheme="monte-carlo")
    assert ball.samples_or_order == 16_150


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monte_carlo_within_five_sigma(n):
    h = LocalHamiltonian(weights=tuple(range(1, n + 1)), c=0.3)
    params = LocalModelParams(n=n, rho=0.3, delta=0.2, r=1.0)
    ball = integrate_ball(h, 0.6, n, scheme="monte-carlo")
    exact = integrate_ball(h, 0.6, n).value
    assert abs(ball.value - exact) <= 5 * ball.error_estimate
    left, right, _, skipped = verify_annulus_pushforward(h, params,
                                                         "monte-carlo")
    annulus = (integrate_ball(h, 1.0, n).value
               - integrate_ball(h, 0.3, n).value)
    assert abs(right.value - annulus) <= 5 * right.error_estimate
    assert abs(left.value - right.value) <= 5 * math.hypot(
        left.error_estimate, right.error_estimate)
    assert skipped == 0


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
    # det DF grows like (rho/|x|)^(2n-2) at the origin, so the pulled-back
    # integrand is square-integrable only at n = 1; from n = 2 on neither
    # sampler has a finite variance for the bound to hold
    rng = random.Random(1)
    for _ in range(2):
        h, params, seed = _benchmark_shaped(rng, 1)
        left = verify_annulus_pushforward(h, params, "monte-carlo",
                                          seed=seed).left
        cube = _reference_mc_region(h, params, 200_000, seed, True)[1]
        assert left.error_estimate <= STDERR_SLACK * cube
