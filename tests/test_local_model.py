"""Profile, chart map, and finite-difference checks of the local model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blowup.local_model import (
    CheckResult,
    DivisorDirection,
    LocalHamiltonian,
    LocalModelParams,
    UnitaryLoop,
    beta_profile,
    divisor_continuity_check,
    f_rho,
    lifted_hamiltonian,
    s1_invariance_check,
    symplectic_pullback_check,
    vector_field_relation_check,
)


def params_n2(rho=0.3, delta=0.2, r=1.0):
    return LocalModelParams(n=2, rho=rho, delta=delta, r=r)


# ---------------------------------------------------------------- parameters


def test_params_accept_wide_band():
    p = params_n2(rho=0.4)
    assert p.width == pytest.approx(0.6)


def test_params_reject_steep_profile():
    # transition band too narrow for this weight: the profile would dip
    with pytest.raises(ValueError, match="not be increasing"):
        LocalModelParams(n=2, rho=0.95, delta=0.05, r=1.0)


def test_params_reject_weight_at_least_r():
    with pytest.raises(ValueError, match="rho"):
        LocalModelParams(n=2, rho=1.0, delta=0.2, r=1.0)
    with pytest.raises(ValueError, match="rho"):
        LocalModelParams(n=2, rho=1.7, delta=0.2, r=1.0)


@pytest.mark.parametrize("bad", [
    {"rho": math.nan}, {"rho": -math.inf}, {"delta": math.nan},
    {"delta": math.inf}, {"r": math.inf}, {"r": math.nan},
])
def test_params_reject_non_finite(bad):
    values = {"rho": 0.3, "delta": 0.2, "r": 1.0, **bad}
    with pytest.raises(ValueError, match="finite"):
        LocalModelParams(n=2, **values)


def test_params_reject_bad_band():
    with pytest.raises(ValueError, match="delta"):
        LocalModelParams(n=2, rho=0.3, delta=0.0, r=1.0)
    with pytest.raises(ValueError, match="2\\*delta"):
        LocalModelParams(n=2, rho=0.3, delta=0.5, r=1.0)


# ------------------------------------------------------------------- profile


def test_beta_endpoints_exact():
    p = params_n2(rho=0.3)
    value0, _ = beta_profile(0.0, p)
    value_r, slope_r = beta_profile(1.0, p)
    assert value0 == 0.3
    assert value_r == 1.0
    assert slope_r == 1.0


def test_beta_inner_branch_value():
    # chi = 1 on [0, delta], so beta(0.1) = sqrt(0.09 + 0.01)
    p = params_n2(rho=0.3, delta=0.2, r=1.0)
    value, slope = beta_profile(0.1, p)
    assert value == pytest.approx(math.sqrt(0.10), abs=1e-15)
    assert slope == pytest.approx(0.1 / math.sqrt(0.10), abs=1e-15)


def test_beta_outer_band_is_radius():
    p = params_n2()
    s = np.linspace(0.8, 1.0, 50)
    value, slope = beta_profile(s, p)
    assert np.array_equal(value, s)
    assert np.all(slope == 1.0)


def test_beta_slope_in_unit_interval_on_grid():
    for rho in (0.3, 0.4):
        p = params_n2(rho=rho)
        s = np.linspace(1e-9, 1.0, 10_000)
        value, slope = beta_profile(s, p)
        assert np.all(slope > 0.0)
        assert np.all(slope <= 1.0)
        assert np.all(np.diff(value) > 0.0)


def test_beta_image_covers_annulus():
    p = params_n2(rho=0.4)
    lo, _ = beta_profile(1e-12, p)
    hi, _ = beta_profile(1.0, p)
    assert lo == pytest.approx(0.4, abs=1e-9)
    assert hi == 1.0


def test_beta_domain_errors():
    p = params_n2()
    with pytest.raises(ValueError, match="radius"):
        beta_profile(-0.1, p)
    with pytest.raises(ValueError, match="radius"):
        beta_profile(1.1, p)


@given(
    rho=st.floats(0.05, 0.9),
    delta=st.floats(0.02, 0.45),
)
@settings(max_examples=60, deadline=None)
def test_beta_bounds_for_accepted_params(rho, delta):
    try:
        p = LocalModelParams(n=2, rho=rho, delta=delta, r=1.0)
    except ValueError:
        assume(False)
    s = np.linspace(1e-6, 1.0, 800)
    value, slope = beta_profile(s, p)
    assert np.all(value >= s - 1e-15)
    assert np.all(value * value <= rho * rho + s * s + 1e-12)
    assert np.all(slope > 0.0)
    assert np.all(slope <= 1.0 + 1e-15)


# ----------------------------------------------------------------- chart map


def test_f_rho_direction_preserving():
    p = params_n2(rho=0.3)
    image = f_rho(np.array([0.1, 0.0]), p)
    assert image[0] == pytest.approx(math.sqrt(0.10), abs=1e-15)
    assert image[1] == 0.0


def test_f_rho_outer_band_identity_exact():
    p = params_n2()
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z *= rng.uniform(0.8, 1.0) / np.linalg.norm(z)
        assert np.array_equal(f_rho(z, p), z)


def test_f_rho_origin_error():
    p = params_n2()
    with pytest.raises(ValueError, match="exceptional divisor"):
        f_rho(np.zeros(2, dtype=complex), p)


def test_f_rho_unitary_equivariance():
    p = params_n2(rho=0.4)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        unitary, _ = np.linalg.qr(g)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z *= rng.uniform(0.05, 1.0) / np.linalg.norm(z)
        dev = np.max(np.abs(f_rho(unitary @ z, p) - unitary @ f_rho(z, p)))
        worst = max(worst, float(dev))
    assert worst <= 1e-12


def test_f_rho_radius_strictly_increasing():
    p = params_n2(rho=0.4)
    radii = np.linspace(1e-6, 1.0, 2000)
    values, _ = beta_profile(radii, p)
    assert np.all(np.diff(values) > 0.0)


# ------------------------------------------------------------------ lifting


def test_lifted_hamiltonian_inner_formula():
    p = params_n2(rho=0.3)
    h = LocalHamiltonian(weights=(1, 2))
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z *= rng.uniform(0.01, 0.2) / np.linalg.norm(z)
        s2 = np.linalg.norm(z) ** 2
        expected = -math.pi * (0.09 + s2) / s2 * (abs(z[0]) ** 2 + 2 * abs(z[1]) ** 2)
        assert lifted_hamiltonian(h, z, p) == pytest.approx(expected, abs=1e-12)


def test_lifted_hamiltonian_divisor_value():
    p = params_n2(rho=0.3)
    h = LocalHamiltonian(weights=(1, 0))
    value = lifted_hamiltonian(h, DivisorDirection([1.0, 0.0]), p)
    assert value == pytest.approx(-math.pi * 0.09, abs=1e-14)


def test_lift_is_base_plus_weighted_direction_term():
    # inside |z| <= delta the lift equals H + rho^2 * H', where H' is the
    # quadratic part evaluated on the unit direction
    p = params_n2(rho=0.3)
    h = LocalHamiltonian(weights=(1, 2), c=0.7)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z *= rng.uniform(1e-3, 0.2) / np.linalg.norm(z)
        direction = z / np.linalg.norm(z)
        h_prime = -math.pi * (abs(direction[0]) ** 2 + 2 * abs(direction[1]) ** 2)
        predicted = h.value(z) + 0.09 * h_prime
        worst = max(worst, abs(lifted_hamiltonian(h, z, p) - predicted))
    assert worst <= 1e-10


def test_divisor_direction_normalized():
    d = DivisorDirection([3.0, 4.0j])
    assert np.linalg.norm(d.w) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="direction"):
        DivisorDirection([0.0, 0.0])


def test_divisor_continuity():
    p = params_n2(rho=0.3)
    h = LocalHamiltonian(weights=(1, 2), c=0.25)
    result = divisor_continuity_check(h, p)
    assert result.passed
    assert result.max_deviation <= 1e-8


def test_time_dependent_constant():
    h = LocalHamiltonian(weights=(1,), c=lambda t: 2.0 * t)
    assert h.value(np.array([0.0j]), t=0.5) == pytest.approx(1.0)
    assert h.constant() == 0.0


# ----------------------------------------------------------------- S1 check


def test_s1_invariance_quadratic():
    h = LocalHamiltonian(weights=(1, 2))
    result = s1_invariance_check(h, samples=1000, seed=1)
    assert result.max_deviation <= 1e-12
    assert result.passed


def test_s1_invariance_constant():
    h = LocalHamiltonian(weights=(0, 0), c=3.5)
    result = s1_invariance_check(h, samples=200, seed=1)
    assert result.max_deviation == 0.0


def test_s1_invariance_detects_real_part():
    p = params_n2()
    result = s1_invariance_check(lambda z: z[0].real, samples=1000, seed=1,
                                 params=p)
    assert result.max_deviation > 0.1
    assert not result.passed


def test_s1_invariance_callable_needs_params():
    with pytest.raises(ValueError, match="params"):
        s1_invariance_check(lambda z: 0.0, samples=10)


# ------------------------------------------------------------- unitary loops


def test_unitary_loop_diagonal_action():
    loop = UnitaryLoop.diagonal((1, 0))
    out = loop.apply(0.25, np.array([1.0, 1.0], dtype=complex))
    assert out[0] == pytest.approx(-1j, abs=1e-15)
    assert out[1] == pytest.approx(1.0, abs=1e-15)


def test_unitary_loop_velocity_matches_generator():
    loop = UnitaryLoop.diagonal((1, 3))
    z = np.array([0.4 + 0.1j, -0.2j])
    field = loop.vector_field(0.37, z)
    exact = -2j * math.pi * np.array([1, 3]) * z
    assert np.max(np.abs(field - exact)) <= 1e-6


def test_unitary_loop_rejects_bad_paths():
    with pytest.raises(ValueError, match="identity"):
        UnitaryLoop(1, matrix_fn=lambda t: np.array([[np.exp(2j * math.pi * (t + 0.3))]]))
    with pytest.raises(ValueError, match="unitary"):
        UnitaryLoop(1, matrix_fn=lambda t: np.array([[1.0 + t]]))
    with pytest.raises(ValueError, match="exactly one"):
        UnitaryLoop(1)
    with pytest.raises(ValueError, match="weight count"):
        UnitaryLoop(3, weights=(1, 2))


# ------------------------------------------------------- symplectic pullback


def test_pullback_identity_map():
    p = params_n2(rho=0.4)
    result = symplectic_pullback_check(lambda z: z, p, grid=100, seed=2)
    assert result.extras["conjugation"] == 0.0
    assert result.max_deviation <= 1e-8


def test_pullback_diagonal_unitary():
    p = params_n2(rho=0.4)
    loop = UnitaryLoop.diagonal((1, 2))
    result = symplectic_pullback_check(lambda z: loop.apply(0.3, z), p,
                                       grid=500, seed=2)
    assert result.passed
    assert result.extras["conjugation"] <= 1e-12
    assert result.extras["symplectic"] <= 1e-8


def test_pullback_detects_antiholomorphic_shear():
    p = params_n2(rho=0.4)
    shear = lambda z: np.array([z[0] + np.conj(z[1]), z[1]])
    result = symplectic_pullback_check(shear, p, grid=200, seed=2)
    assert result.max_deviation > 0.5
    assert not result.passed


def test_pullback_standard_form_on_explicit_grid():
    p = params_n2(rho=0.4)
    pts = np.array([[0.3 + 0.1j, 0.2j], [0.5, 0.1 - 0.2j]])
    loop = UnitaryLoop.diagonal((2, 1))
    result = symplectic_pullback_check(lambda z: loop.apply(0.7, z), p,
                                       reference_form="standard", grid=pts)
    assert result.samples == 2
    assert result.max_deviation <= 1e-8


def random_unitary(n, seed):
    g = np.random.default_rng(seed).standard_normal((2, n, n))
    unitary, _ = np.linalg.qr(g[0] + 1j * g[1])
    return unitary


@pytest.mark.parametrize("form", ["blowup", "standard"])
def test_pullback_matrix_and_callable_agree(form):
    p = params_n2(rho=0.4)
    unitary = random_unitary(2, seed=9)
    by_matrix = symplectic_pullback_check(unitary, p, reference_form=form,
                                          grid=200, seed=3)
    by_callable = symplectic_pullback_check(lambda z: unitary @ z, p,
                                            reference_form=form, grid=200,
                                            seed=3)
    assert by_matrix.passed
    assert by_matrix.samples == by_callable.samples == 200
    assert by_matrix.skipped == by_callable.skipped == 0
    assert by_matrix.extras.keys() == by_callable.extras.keys()
    for key, value in by_matrix.extras.items():
        assert abs(value - by_callable.extras[key]) <= 1e-12
    assert abs(by_matrix.max_deviation - by_callable.max_deviation) <= 1e-12


def test_pullback_skips_and_counts_points_at_origin():
    p = params_n2(rho=0.4)
    pts = np.array([[0.3 + 0.1j, 0.2j], [1e-9, 0.0], [0.0, 0.0],
                    [0.5, 0.1 - 0.2j]])
    unitary = random_unitary(2, seed=4)
    for map_fn in (unitary, lambda z: unitary @ z):
        result = symplectic_pullback_check(map_fn, p, grid=pts)
        assert result.samples == 2
        assert result.skipped == 2
        assert result.passed


def test_pullback_rejects_misshapen_matrix():
    with pytest.raises(ValueError, match="matrix"):
        symplectic_pullback_check(np.eye(3), params_n2())


def test_pullback_rejects_unknown_form():
    p = params_n2()
    with pytest.raises(ValueError, match="reference_form"):
        symplectic_pullback_check(lambda z: z, p, reference_form="exotic")


# ------------------------------------------------------ vector field relation


def test_vector_field_relation_identity_loop():
    p = params_n2(rho=0.4)
    result = vector_field_relation_check(UnitaryLoop.diagonal((0, 0)), p,
                                         samples=50, seed=4)
    assert result.max_deviation <= 1e-12


def test_vector_field_relation_diagonal_loop():
    p = params_n2(rho=0.4)
    result = vector_field_relation_check(UnitaryLoop.diagonal((1, 0)), p,
                                         samples=200, seed=4)
    assert result.passed
    assert result.max_deviation <= 1e-6


def test_vector_field_relation_detects_scaled_field():
    p = params_n2(rho=0.4)
    result = vector_field_relation_check(UnitaryLoop.diagonal((1, 0)), p,
                                         samples=200, seed=4, scale=1.1)
    assert result.max_deviation > 0.1
    assert not result.passed


def test_vector_field_relation_diagonal_and_matrix_paths_agree():
    p = params_n2(rho=0.4)
    weights = (2, -1)
    diagonal = UnitaryLoop.diagonal(weights)
    general = UnitaryLoop(2, matrix_fn=lambda t: np.diag(
        np.exp(-2j * math.pi * np.asarray(weights) * t)))
    by_weights = vector_field_relation_check(diagonal, p, samples=150, seed=6)
    by_matrix_fn = vector_field_relation_check(general, p, samples=150, seed=6)
    assert by_weights.passed
    assert by_weights.samples == by_matrix_fn.samples
    assert abs(by_weights.max_deviation - by_matrix_fn.max_deviation) <= 1e-12


def test_unitary_loop_batched_matches_pointwise():
    u = random_unitary(2, seed=1)
    loop = UnitaryLoop(2, matrix_fn=lambda t: u @ np.diag(
        np.exp(-2j * math.pi * np.array([1, 3]) * t)) @ u.conj().T)
    rng = np.random.default_rng(8)
    times = rng.random(5)
    points = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    stacked = loop.vector_field(times, points)
    for t, z, field in zip(times, points, stacked):
        assert np.max(np.abs(loop.vector_field(t, z) - field)) <= 1e-12
    assert np.max(np.abs(loop.matrix(times)[2] - loop.matrix(times[2]))) == 0.0


# ------------------------------------------------------------ fail closed


def assert_fails_closed(result):
    assert not math.isfinite(result.max_deviation)
    assert result.passed is False
    assert result.as_dict()["pass"] is False


@pytest.mark.parametrize("h", [
    lambda z: math.nan,
    LocalHamiltonian(weights=(1, 2), c=math.nan),
])
def test_s1_invariance_nan_hamiltonian_fails(h):
    assert_fails_closed(s1_invariance_check(h, samples=50, seed=1,
                                            params=params_n2()))


def test_divisor_continuity_nan_hamiltonian_fails():
    h = LocalHamiltonian(weights=(1, 2), c=math.nan)
    assert_fails_closed(divisor_continuity_check(h, params_n2()))


@pytest.mark.parametrize("form", ["blowup", "standard"])
def test_pullback_nan_map_fails(form):
    p = params_n2(rho=0.4)
    result = symplectic_pullback_check(lambda z: z * math.nan, p,
                                       reference_form=form, grid=30, seed=2)
    assert_fails_closed(result)
    result = symplectic_pullback_check(np.full((2, 2), math.nan), p,
                                       reference_form=form, grid=30, seed=2)
    assert_fails_closed(result)


def test_pullback_nan_conjugation_gap_fails():
    # NaN only inside |z| < 0.35: the Jacobian, taken on the annulus
    # |F(z)| >= rho = 0.4, stays finite, so the NaN conjugation gap must
    # survive being combined with the finite symplectic deviation
    p = params_n2(rho=0.4)
    map_fn = lambda z: z if np.linalg.norm(z) > 0.35 else z * math.nan
    result = symplectic_pullback_check(map_fn, p, grid=100, seed=2)
    assert math.isfinite(result.extras["symplectic"])
    assert not math.isfinite(result.extras["conjugation"])
    assert_fails_closed(result)


def test_vector_field_relation_nan_scale_fails():
    result = vector_field_relation_check(UnitaryLoop.diagonal((1, 0)),
                                         params_n2(rho=0.4), samples=40,
                                         seed=4, scale=math.nan)
    assert_fails_closed(result)


# ------------------------------------------------------------------ reporting


def test_check_result_report_row():
    result = CheckResult(check="demo", samples=10, max_deviation=2e-9,
                         tolerance=1e-8)
    row = result.as_dict()
    assert row == {
        "check": "demo",
        "samples": 10,
        "max_deviation": 2e-9,
        "tolerance": 1e-8,
        "pass": True,
    }
    assert "pass" in result.line()
