"""Profile, chart map, and finite-difference checks of the local model."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blowup import cli, local_model
from blowup.local_model import (
    FD_STEP,
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
    _chart,
    _complexify,
    _jacobian,
    _profile_raw,
    _profile_slope,
    _realify,
    _rows,
    _slope_candidates,
    _slope_margin,
    _smoothstep,
)
from blowup.quadrature import _profile_square


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
    {"delta": math.inf}, {"r": math.inf}, {"r": math.nan}, {"r": 1e155},
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


def test_params_reject_the_baseline_false_accept():
    # the companion-matrix margin read 5.6e-17 here; the exact band
    # quartic on these dyadic inputs has 2 roots in [0, 1], so the profile
    # dips, and the closed-form margin reads 0.0
    assert _slope_margin(0.46597886848861014, 0.01, 0.7) <= 0.0
    with pytest.raises(ValueError, match="not be increasing"):
        LocalModelParams(n=2, rho=0.46597886848861014, delta=0.01, r=0.7)


@pytest.mark.parametrize("n", [2.7, "2", 2.0, None])
def test_params_refuse_a_dimension_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="complex coordinate"):
        LocalModelParams(n=n, rho=0.4, delta=0.2, r=1.0)


# ------------------------------------------------------------ slope margin
#
# The constructor takes the minimum of the band quartic at the edges and at
# the closed-form critical points.  The reference is the companion-matrix
# solve that the closed form replaced: np.roots of g' = 0, its real roots
# in [0, 1] taken to 1e-12.


def reference_points(rho, delta, r, imag=1e-12):
    w = r - 2 * delta
    c = 30.0 * rho * rho / w
    roots = np.roots([-4.0 * c, 6.0 * c, -2.0 * c, 2.0 * w])
    return sorted(min(max(x.real, 0.0), 1.0) for x in roots
                  if abs(x.imag) < imag and -1e-12 <= x.real <= 1 + 1e-12)


def reference_margin(rho, delta, r, imag=1e-12):
    w = r - 2 * delta
    c = 30.0 * rho * rho / w
    return min(2 * delta + 2 * w * u - c * u * u * (1 - u) ** 2
               for u in [0.0, 1.0] + reference_points(rho, delta, r, imag))


def margins_agree(got, want, r):
    # relative, plus a floor of a few ulps of g's size, at most 2r: both
    # evaluations round, so near a zero margin no relative bound holds
    return abs(got - want) <= 1e-11 * abs(want) + 8 * math.ulp(2 * r)


def test_slope_candidates_match_companion_matrix_roots():
    rng = np.random.default_rng(36)
    count = 20_000
    r = rng.uniform(0.1, 2.0, count)
    delta = r * rng.uniform(1e-3, 0.4999, count)
    rho = r * rng.uniform(1e-3, 0.999, count)
    sizes = set()
    for a, b, c in zip(rho.tolist(), delta.tolist(), r.tolist()):
        candidates = _slope_candidates(a, c - 2 * b)
        assert candidates[:2] == [0.0, 1.0]
        points = sorted(candidates[2:])
        expected = reference_points(a, b, c)
        assert len(points) == len(expected)
        assert np.allclose(points, expected, rtol=0.0, atol=1e-12)
        assert margins_agree(_slope_margin(a, b, c), reference_margin(a, b, c),
                             c)
        sizes.add(len(points))
    # the draws meet both cases: one real root, past the band, and three
    assert sizes == {0, 2}


def test_slope_candidates_at_the_double_root():
    # 27 q^2 = 1/16: the two roots of g' in the band meet at u = 1/2 -
    # 1/(2 sqrt 3), an inflection of g; within 8 ulps of that rho both
    # solvers read two roots within sqrt(eps) of it, or the closed form
    # none, and the margin is g(0) = 2 delta throughout
    delta, r = 0.2, 1.0
    w = r - 2 * delta
    tangent = 0.5 - 1.0 / (2.0 * math.sqrt(3.0))
    rho = w * math.sqrt(math.sqrt(27.0) / 15.0)
    for _ in range(8):
        rho = math.nextafter(rho, 0.0)
    counts = set()
    for _ in range(17):
        points = _slope_candidates(rho, w)[2:]
        counts.add(len(points))
        expected = reference_points(rho, delta, r, imag=1e-6)
        assert len(expected) == 2
        assert all(abs(u - tangent) <= 1e-7 for u in points + expected)
        assert _slope_margin(rho, delta, r) == 2 * delta
        assert margins_agree(_slope_margin(rho, delta, r),
                             reference_margin(rho, delta, r), r)
        rho = math.nextafter(rho, 1.0)
    assert counts == {0, 2}


def boundary_weight(delta, r):
    """The largest float rho that the reference margin accepts."""
    lo, hi = 0.0, r
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if reference_margin(mid, delta, r) > 0:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("delta, r", [(0.01, 0.7), (0.2, 1.0), (0.3, 0.9),
                                      (0.05, 1.0), (0.1, 0.5), (0.02, 0.3)])
def test_acceptance_matches_the_reference_near_its_boundary(delta, r):
    # every ulp within 60 of the boundary; the decisions may differ only
    # where both margins are within 4 ulps of 0, where neither float
    # decision can be trusted: only an exact one could settle them
    near_zero = 4 * math.ulp(2 * r)
    rho = boundary_weight(delta, r)
    for _ in range(60):
        rho = math.nextafter(rho, 0.0)
    decisions = set()
    for _ in range(121):
        want = reference_margin(rho, delta, r)
        try:
            LocalModelParams(n=2, rho=rho, delta=delta, r=r)
            accepted = True
        except ValueError as exc:
            assert "not be increasing" in str(exc)
            accepted = False
        decisions.add(accepted)
        if accepted != (want > 0):
            assert abs(want) <= near_zero
            assert abs(_slope_margin(rho, delta, r)) <= near_zero
        rho = math.nextafter(rho, 1.0)
    assert decisions == {True, False}


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


def test_profile_stays_on_its_bounds_at_the_outer_band_edge():
    # chi = S(1 - u) is >= 0 in floats, where 1 - S(u) read -1.3e-15 at
    # u = 1 - 2^-53 and gave beta = s - 1 ulp and beta' = 1 + 2^-52 at
    # s = r - delta; so beta >= s and beta' <= 1 hold as computed
    positions = 1.0 - np.arange(65) * 2.0 ** -53
    assert np.all(_smoothstep(1.0 - positions) >= 0.0)
    assert np.any(1.0 - _smoothstep(positions) < 0.0)
    rng = np.random.default_rng(12)
    models = 0
    while models < 200:
        r = float(rng.choice([1.0, rng.uniform(0.1, 3.0)]))
        try:
            p = LocalModelParams(n=2, rho=r * rng.uniform(0.05, 0.9),
                                 delta=r * rng.uniform(0.01, 0.45), r=r)
        except ValueError:
            continue
        models += 1
        edge = p.r - p.delta
        s = np.concatenate([[edge, p.delta + p.width],
                            edge - np.arange(1, 65) * math.ulp(edge),
                            p.delta + p.width * positions])
        value, slope = beta_profile(s, p)
        square, _ = _profile_square(s, p)
        assert np.all(square >= s * s)
        assert np.all(value >= s)
        assert np.all(slope <= 1.0)
        assert np.all(slope > 0.0)


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


def test_constant_is_a_float_converted_once():
    h = LocalHamiltonian(weights=(1, 2), c=Fraction(1, 3))
    assert type(h.c) is float and h.c == 1 / 3
    assert h.value(np.zeros(2)) == 1 / 3
    assert math.isnan(LocalHamiltonian(weights=(1,), c=math.nan).c)


@pytest.mark.parametrize("weights", [(1.5, 2.9), (1.5, "3"), (1, None),
                                     (2.0,)])
def test_loop_refuses_weights_that_are_not_integers(weights):
    # (1.5, "3") was read as (1, 3)
    for cls in (LocalHamiltonian, UnitaryLoop):
        with pytest.raises(ValueError, match="integers"):
            cls(weights)


def test_loop_refuses_an_empty_weight_list_at_construction():
    # it used to construct, and raise only from max() inside bound
    with pytest.raises(ValueError, match="at least one weight"):
        LocalHamiltonian(weights=())


def test_loop_reads_integer_types_once():
    h = LocalHamiltonian(weights=np.array([2, -1]), c=0.5)
    assert h.weights == (2, -1) and all(type(m) is int for m in h.weights)
    # equal and shown by (weights, c) alone, not by the float array it keeps
    assert h == LocalHamiltonian(weights=(2, -1), c=0.5)
    assert h != LocalHamiltonian(weights=(2, -1))
    assert repr(h) == "LocalHamiltonian(weights=(2, -1), c=0.5)"
    assert hash(h) == hash(LocalHamiltonian(weights=[2, -1], c=0.5))
    # frozen, so the float array it keeps cannot drift from its weights
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.weights = (1, 1)
    z = np.array([[0.3 + 0.1j, -0.2j]])
    assert h.values(z)[0] == pytest.approx(
        -math.pi * (2 * abs(z[0, 0]) ** 2 - abs(z[0, 1]) ** 2) + 0.5,
        abs=1e-15)
    assert np.array_equal(h.vector_field(z), -2j * math.pi * np.array(
        [2.0, -1.0]) * z)


def test_bound_covers_the_hamiltonian_on_the_ball():
    h = LocalHamiltonian(weights=(1, -3), c=-0.5)
    assert h.bound(2.0) == math.pi * 4.0 * 3 + 0.5
    # the sphere of radius 2, where |H| is largest
    rng = np.random.default_rng(3)
    z = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
    z *= 2.0 / np.linalg.norm(z, axis=1, keepdims=True)
    assert np.max(np.abs(h.values(z))) <= h.bound(2.0)
    with pytest.raises(OverflowError):
        LocalHamiltonian(weights=(10 ** 400, 1)).bound(1.0)


def test_divisor_continuity():
    p = params_n2(rho=0.3)
    h = LocalHamiltonian(weights=(1, 2), c=0.25)
    result = divisor_continuity_check(h, p)
    assert result.passed
    assert result.max_deviation <= 1e-8


# ----------------------------------------------------------------- S1 check


def test_s1_invariance_quadratic():
    h = LocalHamiltonian(weights=(1, 2))
    result = s1_invariance_check(h, params_n2(), samples=1000, seed=1)
    assert result.max_deviation <= 1e-12
    assert result.passed


def test_s1_invariance_constant():
    h = LocalHamiltonian(weights=(0, 0), c=3.5)
    result = s1_invariance_check(h, params_n2(), samples=200, seed=1)
    assert result.max_deviation == 0.0


def test_s1_invariance_detects_real_part(monkeypatch):
    # H(z) = Re z_1 is not invariant under z -> lambda z
    monkeypatch.setattr(LocalHamiltonian, "values",
                        lambda self, points: points[:, 0].real)
    result = s1_invariance_check(LocalHamiltonian(weights=(1, 2)),
                                 params_n2(), samples=1000, seed=1)
    assert result.max_deviation > 0.1
    assert not result.passed


# ------------------------------------------------------------- unitary loops


def test_unitary_loop_diagonal_action():
    # the loop is its Hamiltonian under a second name, and psi_t is the
    # (n,) diagonal of unit phases, the identity at t = 0 exactly
    assert UnitaryLoop is LocalHamiltonian
    loop = UnitaryLoop((1, 0))
    assert loop.phases(0.25).shape == (2,)
    assert np.array_equal(loop.phases(0.0), [1.0, 1.0])
    out = loop.phases(0.25) * np.array([1.0, 1.0], dtype=complex)
    assert out[0] == pytest.approx(-1j, abs=1e-15)
    assert out[1] == pytest.approx(1.0, abs=1e-15)


def test_unitary_loop_velocity_matches_generator():
    # the closed-form field against a central t-difference of the path,
    # psi_(t+h) psi_t^-1 z and psi_(t-h) psi_t^-1 z, at several times
    loop = UnitaryLoop((1, 3))
    z = np.array([0.4 + 0.1j, -0.2j])
    field = loop.vector_field(z)
    assert np.array_equal(field, -2j * math.pi * np.array([1, 3]) * z)
    for t in (0.0, 0.37, 0.81):
        base = z / loop.phases(t)
        witness = (loop.phases(t + FD_STEP) * base
                   - loop.phases(t - FD_STEP) * base) / (2 * FD_STEP)
        assert np.max(np.abs(field - witness)) <= 1e-6


# ------------------------------------------------------- symplectic pullback


def test_pullback_identity_map():
    p = params_n2(rho=0.4)
    result = symplectic_pullback_check(lambda z: z, p, grid=100, seed=2)
    assert result.extras["conjugation"] == 0.0
    assert result.max_deviation <= 1e-8


def test_pullback_diagonal_unitary():
    p = params_n2(rho=0.4)
    loop = UnitaryLoop((1, 2))
    result = symplectic_pullback_check(lambda z: loop.phases(0.3) * z, p,
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
    loop = UnitaryLoop((2, 1))
    result = symplectic_pullback_check(lambda z: loop.phases(0.7) * z, p,
                                       reference_form="standard", grid=pts)
    assert result.samples == 2
    assert result.max_deviation <= 1e-8


def random_unitary(n, seed):
    g = np.random.default_rng(seed).standard_normal((2, n, n))
    unitary, _ = np.linalg.qr(g[0] + 1j * g[1])
    return unitary


def random_phases(n, seed):
    """n seeded unit phases: the diagonal of a random diagonal unitary."""
    return np.exp(2j * math.pi * np.random.default_rng(seed).random(n))


@pytest.mark.parametrize("form", ["blowup", "standard"])
def test_pullback_matrix_and_callable_agree(form):
    # a diagonal map given as its phase vector and as a callable of a point
    p = params_n2(rho=0.4)
    phases = random_phases(2, seed=9)
    by_matrix = symplectic_pullback_check(phases, p, reference_form=form,
                                          grid=200, seed=3)
    by_callable = symplectic_pullback_check(lambda z: phases * z, p,
                                            reference_form=form, grid=200,
                                            seed=3)
    assert by_matrix.passed
    assert by_matrix.samples == by_callable.samples == 200
    assert by_matrix.skipped == by_callable.skipped == 0
    assert by_matrix.extras.keys() == by_callable.extras.keys()
    if form == "blowup":
        assert abs(by_matrix.extras["conjugation"]
                   - by_callable.extras["conjugation"]) <= 1e-12
    # the vector's defect is exact up to one product, the callable's
    # carries the rounding of its central differences: each symplectic
    # value meets its own bound rather than the other value
    assert by_matrix.extras["symplectic"] <= 1e-15
    assert by_callable.extras["symplectic"] <= 1e-10


def finite_difference_defect(phases, params, seed):
    """max |D^T J D - J| over the central-difference Jacobians D of the
    diagonal map z -> phases z at banded rows: the witness that the
    callable path reads."""
    J = local_model._reference_j(params.n)
    real_map = lambda x: _realify(_complexify(x) * phases)
    jac = _jacobian(real_map, banded_rows(params.n, params, seed))
    return float(np.max(np.abs(np.swapaxes(jac, 1, 2) @ J @ jac - J)))


@pytest.mark.parametrize("form", ["blowup", "standard"])
@pytest.mark.parametrize("matrix, defect", [
    (np.array([2.0, 1.0]), 3.0),  # A^H A - I = diag(3, 0)
    # A = [[1, 1], [0, 1]], not diagonal, so a callable: A^H A - I is
    # [[0, 1], [1, 1]]
    pytest.param(lambda z: np.array([z[0] + z[1], z[1]]), 1.0,
                 id="matrix1-1.0"),
])
def test_pullback_non_unitary_matrix_fails_with_its_exact_defect(
        form, matrix, defect):
    result = symplectic_pullback_check(matrix, params_n2(rho=0.4),
                                       reference_form=form, grid=50, seed=1)
    if callable(matrix):
        # the central differences of a linear map round, and no more
        assert abs(result.extras["symplectic"] - defect) <= 1e-10
    else:
        assert result.extras["symplectic"] == defect
    assert not result.passed


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pullback_matrix_defect_matches_finite_differences(n):
    p = LocalModelParams(n=n, rho=0.4, delta=0.2, r=1.0)
    diagonals = [random_phases(n, seed=30 + n)]
    if n == 2:
        diagonals.append(np.array([2.0, 1.0]))
    for phases in diagonals:
        result = symplectic_pullback_check(phases, p, reference_form="standard",
                                           grid=40, seed=n)
        reference = finite_difference_defect(phases, p, seed=n)
        assert abs(result.extras["symplectic"] - reference) <= 1e-10


def test_pullback_skips_and_counts_points_at_origin():
    p = params_n2(rho=0.4)
    pts = np.array([[0.3 + 0.1j, 0.2j], [1e-9, 0.0], [0.0, 0.0],
                    [0.5, 0.1 - 0.2j]])
    phases = random_phases(2, seed=4)
    for map_fn in (phases, lambda z: phases * z):
        result = symplectic_pullback_check(map_fn, p, grid=pts)
        assert result.samples == 2
        assert result.skipped == 2
        assert result.passed


def test_pullback_that_samples_nothing_fails():
    result = symplectic_pullback_check(np.ones(2), params_n2(),
                                       grid=np.zeros((5, 2), dtype=complex))
    assert (result.samples, result.skipped) == (0, 5)
    assert result.max_deviation == 0.0
    assert result.passed is False
    assert result.as_dict()["pass"] is False
    assert result.line().endswith("FAIL")


def test_pullback_rejects_misshapen_matrix():
    # a diagonal map of C^2 is a vector of 2 phases, not 3 nor a matrix
    for misshapen in (np.ones(3), np.eye(2)):
        with pytest.raises(ValueError, match="diagonal map"):
            symplectic_pullback_check(misshapen, params_n2())


def test_pullback_rejects_unknown_form():
    p = params_n2()
    with pytest.raises(ValueError, match="reference_form"):
        symplectic_pullback_check(lambda z: z, p, reference_form="exotic")


# ------------------------------------------------------ vector field relation


def test_vector_field_relation_identity_loop():
    p = params_n2(rho=0.4)
    result = vector_field_relation_check(UnitaryLoop((0, 0)), p,
                                         samples=50, seed=4)
    assert result.max_deviation <= 1e-12


def test_vector_field_relation_diagonal_loop():
    p = params_n2(rho=0.4)
    result = vector_field_relation_check(UnitaryLoop((1, 0)), p,
                                         samples=200, seed=4)
    assert result.passed
    assert result.max_deviation <= 1e-6


def radially_scaled_field(monkeypatch, factor):
    """Make every loop's field its closed form times factor(|z|) per point.

    A constant factor would scale both sides of DF(X(z)) = X(F(z)) alike,
    and no relation that is linear in the field can see it; a factor
    that varies with the radius breaks the commutation with the chart.
    """
    exact = UnitaryLoop.vector_field

    def scaled(self, z):
        radii = np.linalg.norm(z, axis=-1, keepdims=True)
        return exact(self, z) * factor(radii)

    monkeypatch.setattr(UnitaryLoop, "vector_field", scaled)


@pytest.mark.parametrize("factor", [1.1, -1.0])
def test_vector_field_relation_ties_the_field_to_its_hamiltonian(
        monkeypatch, factor):
    # a constant factor commutes with the chart, so only the comparison
    # with the symplectic gradient of -pi sum m_j |z_j|^2 can see it
    exact = UnitaryLoop.vector_field
    p = params_n2(rho=0.4)
    loop = UnitaryLoop((1, 2))
    result = vector_field_relation_check(loop, p, samples=120, seed=0)
    assert result.passed
    assert result.extras["hamiltonian"] <= 1e-9
    monkeypatch.setattr(UnitaryLoop, "vector_field",
                        lambda self, z: factor * exact(self, z))
    result = vector_field_relation_check(loop, p, samples=120, seed=0)
    assert result.extras["pushforward"] <= 1e-8
    assert result.extras["hamiltonian"] > 0.1
    assert result.max_deviation == result.extras["hamiltonian"]
    assert not result.passed


def test_vector_field_relation_detects_scaled_field(monkeypatch):
    p = params_n2(rho=0.4)
    radially_scaled_field(monkeypatch, lambda radii: 1.0 + radii)
    result = vector_field_relation_check(UnitaryLoop((1, 0)), p,
                                         samples=200, seed=4)
    assert result.max_deviation > 0.1
    assert not result.passed


# ------------------------------------------- kernel against the complex one
#
# The chart kernel scales real rows and builds the Jacobian from one map
# call.  These references are the formulation it replaced: one profile
# function returning value and slope, a chart through complex numbers and
# np.linalg.norm, and one pair of map calls per Jacobian column.  Every
# output must match them bit for bit.


def reference_profile(arr, params):
    rho2 = params.rho * params.rho
    u = np.clip((arr - params.delta) / params.width, 0.0, 1.0)
    v = 1.0 - u
    chi = v * v * v * (10.0 + v * (-15.0 + 6.0 * v))
    chi_prime = -(30.0 * u * u * (1.0 - u) ** 2) / params.width
    value = np.sqrt(rho2 * chi + arr * arr)
    value = np.where(chi == 0.0, arr, value)
    value = np.where(arr == 0.0, params.rho, value)
    deriv = (rho2 * chi_prime + 2.0 * arr) / (2.0 * value)
    return value, deriv


def reference_chart(coords, params):
    points = _complexify(coords)
    radii = np.linalg.norm(coords, axis=-1)
    value, _ = reference_profile(radii, params)
    return _realify(points * (value / radii)[..., None])


def reference_jacobian(real_map, coords, step=FD_STEP):
    count, dim = coords.shape
    jac = np.empty((count, dim, dim))
    for k in range(dim):
        bump = np.zeros(dim)
        bump[k] = step
        jac[:, :, k] = (real_map(coords + bump)
                        - real_map(coords - bump)) / (2 * step)
    return jac


def banded_rows(n, params, seed):
    """Rows in all three profile bands, plus radius exactly delta and r - delta.

    The axis rows have exact radii, since sqrt(x*x) == |x| in binary
    floating point.
    """
    rng = np.random.default_rng(seed)
    bands = [(1e-3, params.delta), (params.delta, params.r - params.delta),
             (params.r - params.delta, params.r)]
    directions = rng.standard_normal((3 * 8, 2 * n))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = np.concatenate([rng.uniform(a, b, 8) for a, b in bands])
    axis = np.zeros((4, 2 * n))
    axis[np.arange(4), rng.integers(0, 2 * n, 4)] = [
        params.delta, -params.delta, params.r - params.delta,
        -(params.r - params.delta)]
    return np.concatenate([directions * radii[:, None], axis])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chart_matches_complex_reference_bit_for_bit(n):
    p = LocalModelParams(n=n, rho=0.4, delta=0.2, r=1.0)
    rows = banded_rows(n, p, seed=n)
    assert _chart(rows, p).tobytes() == reference_chart(rows, p).tobytes()
    # a negative zero component stays negative in the real product, where
    # the complex product made it +0.0; the values are still equal
    signed = -rows[-4:]
    assert np.array_equal(_chart(signed, p), reference_chart(signed, p))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chart_jacobian_matches_per_column_reference_bit_for_bit(n):
    p = LocalModelParams(n=n, rho=0.4, delta=0.2, r=1.0)
    rows = banded_rows(n, p, seed=10 + n)
    jac = _jacobian(lambda x: _chart(x, p), rows)
    expected = reference_jacobian(lambda x: reference_chart(x, p), rows)
    assert jac.tobytes() == expected.tobytes()
    assert (np.linalg.det(jac).tobytes()
            == np.linalg.det(expected).tobytes())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_map_jacobians_match_per_column_reference_bit_for_bit(n):
    p = LocalModelParams(n=n, rho=0.4, delta=0.2, r=1.0)
    rows = banded_rows(n, p, seed=20 + n)
    matrix = random_unitary(n, seed=n)
    # a batched linear map and a per-point callable, the kind of map that
    # symplectic_pullback_check differentiates
    by_matrix = lambda x: _realify(
        (matrix @ _complexify(x)[..., None])[..., 0])
    by_rows = lambda x: _realify(_rows(
        lambda z: z * np.exp(1j * abs(z[0]) ** 2))(_complexify(x)))
    for real_map in (by_matrix, by_rows):
        assert (_jacobian(real_map, rows).tobytes()
                == reference_jacobian(real_map, rows).tobytes())


def test_jacobian_calls_its_map_once_into_a_contiguous_array():
    p = LocalModelParams(n=3, rho=0.4, delta=0.2, r=1.0)
    rows = banded_rows(3, p, seed=5)
    batches = []

    def counting_chart(x):
        batches.append(len(x))
        return _chart(x, p)

    jac = _jacobian(counting_chart, rows)
    # the 2n "+step" and the 2n "-step" copies of every row, stacked
    assert batches == [12 * len(rows)]
    assert jac.shape == (len(rows), 6, 6)
    assert jac.flags.c_contiguous


def profile_band_radii(p, count=201):
    """Radii inside each of the three profile bands, a step clear of the
    kinks at delta and r - delta, where the profile is only C^2."""
    h = FD_STEP * p.r
    bands = [(h, p.delta - h), (p.delta + h, p.r - p.delta - h),
             (p.r - p.delta + h, p.r - h)]
    return [np.linspace(a, b, count) for a, b in bands]


@pytest.mark.parametrize("scale", [2.0 ** -20, 1.0, 2.0 ** 20])
@pytest.mark.parametrize("rho, delta, r", [(0.4, 0.2, 1.0),
                                           (0.3, 0.15, 0.9)])
def test_profile_slope_is_the_derivative_of_the_profile(scale, rho, delta, r):
    # the pullbacks take beta' in closed form, so its witness is a central
    # difference of the profile itself; the slope is dimensionless, and the
    # step scales with r, so the bound holds at every scale
    p = LocalModelParams(n=2, rho=rho * scale, delta=delta * scale,
                         r=r * scale)
    h = FD_STEP * p.r
    for s in profile_band_radii(p):
        slope = _profile_slope(s, _profile_raw(s, p), p)
        witness = (_profile_raw(s + h, p) - _profile_raw(s - h, p)) / (2 * h)
        assert np.max(np.abs(slope - witness)) <= 1e-8
    # and the witness sees a slope that is off by 1e-3 on the band
    s = profile_band_radii(p)[1]
    slope = _profile_slope(s, _profile_raw(s, p), p)
    witness = (_profile_raw(s + h, p) - _profile_raw(s - h, p)) / (2 * h)
    assert np.max(np.abs(slope * (1 + 1e-3) - witness)) > 1e-4


def test_beta_slope_matches_reference_bit_for_bit():
    p = LocalModelParams(n=2, rho=0.4, delta=0.2, r=1.0)
    s = np.concatenate([np.linspace(0.0, 1.0, 1001),
                        [p.delta, p.r - p.delta]])
    value, slope = beta_profile(s, p)
    expected_value, expected_slope = reference_profile(s, p)
    assert value.tobytes() == expected_value.tobytes()
    assert slope.tobytes() == expected_slope.tobytes()
    for point in (0.1, p.delta, 0.5, p.r - p.delta, p.r):
        scalar = beta_profile(point, p)
        assert scalar == tuple(float(v) for v in
                               reference_profile(np.float64(point), p))


# ------------------------------------------------------------ fail closed


def assert_fails_closed(result):
    assert not math.isfinite(result.max_deviation)
    assert result.passed is False
    assert result.as_dict()["pass"] is False


@pytest.mark.parametrize("h", [
    lambda points: np.full(len(points), math.nan),
    LocalHamiltonian(weights=(1, 2), c=math.nan),
])
def test_s1_invariance_nan_hamiltonian_fails(h, monkeypatch):
    if not isinstance(h, LocalHamiltonian):
        # a Hamiltonian whose every value is NaN
        nan_values = h
        monkeypatch.setattr(LocalHamiltonian, "values",
                            lambda self, points: nan_values(points))
        h = LocalHamiltonian(weights=(1, 2))
    assert_fails_closed(s1_invariance_check(h, params_n2(), samples=50,
                                            seed=1))


def test_divisor_continuity_nan_hamiltonian_fails():
    h = LocalHamiltonian(weights=(1, 2), c=math.nan)
    assert_fails_closed(divisor_continuity_check(h, params_n2()))


@pytest.mark.parametrize("form", ["blowup", "standard"])
def test_pullback_nan_map_fails(form):
    p = params_n2(rho=0.4)
    result = symplectic_pullback_check(lambda z: z * math.nan, p,
                                       reference_form=form, grid=30, seed=2)
    assert_fails_closed(result)
    result = symplectic_pullback_check(np.full(2, math.nan), p,
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


def test_vector_field_relation_nan_scale_fails(monkeypatch):
    radially_scaled_field(monkeypatch, lambda radii: radii * math.nan)
    result = vector_field_relation_check(UnitaryLoop((1, 0)),
                                         params_n2(rho=0.4), samples=40,
                                         seed=4)
    assert_fails_closed(result)


# -------------------------------------------------------------------- frames


def test_params_are_equal_and_hashed_by_value():
    p = LocalModelParams(n=2, rho=0.4, delta=0.2, r=1.0)
    q = LocalModelParams(n=np.int64(2), rho="0.4", delta=0.2, r=1)
    assert p == q and hash(p) == hash(q) and type(q.n) is int
    assert p != LocalModelParams(n=2, rho=math.nextafter(0.4, 1.0),
                                 delta=0.2, r=1.0)
    assert p != LocalModelParams(n=3, rho=0.4, delta=0.2, r=1.0)
    assert p != (2, 0.4, 0.2, 1.0)
    # so an equal model finds the frame that another one built
    assert local_model._s1_frame(p, 20, 3) is local_model._s1_frame(q, 20, 3)


def test_frames_are_read_only():
    p = params_n2(rho=0.4)
    grid = np.array([[0.3 + 0.1j, 0.2j], [0.0, 0.0]])
    frames = [local_model._s1_frame(p, 20, 3),
              local_model._divisor_frame(p, 3),
              local_model._pullback_frame(p, 20, 3)[:2],
              local_model._pullback_points(grid, p)[:2],
              local_model._vector_field_frame(p, 20, 3),
              [local_model._reference_j(2)]]
    for frame in frames:
        for array in frame:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


def test_explicit_grid_is_not_cached():
    p = params_n2(rho=0.4)
    pts = np.array([[0.3 + 0.1j, 0.2j], [0.5, 0.1 - 0.2j]])
    local_model._pullback_frame.cache_clear()
    symplectic_pullback_check(np.ones(2), p, grid=pts)
    assert local_model._pullback_frame.cache_info().currsize == 0
    # the grid's own array is left as it was
    pts[0, 0] = 1.0


def test_verify_at_n_171_stays_under_32_mb(tmp_path, capsys):
    # two loops at n = 171, where one (samples, 2n, 2n) Jacobian of the
    # 120 vector-field samples alone takes 112 MB; the frames are cleared,
    # so that they are built inside the traced span
    n = 171
    loops = [{"name": "ones", "weights": [1] * n, "C": "0"},
             {"name": "mixed", "weights": [j % 5 - 2 for j in range(n)],
              "C": "2/3"}]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "manifold": {"n": n, "volume": "1", "period": "1"},
        "loops": loops, "local_model": {"rho": 0.4, "delta": 0.2, "r": 1.0},
        "seed": 0}))
    for builder in (local_model._s1_frame, local_model._divisor_frame,
                    local_model._pullback_frame,
                    local_model._vector_field_frame):
        builder.cache_clear()
    tracemalloc.start()
    try:
        code = cli.main(["verify", str(path), "--check", "all"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert len(rows) == 1 + 7 * len(loops)
    assert all(row["pass"] for row in rows)
    assert peak < 32 * 2 ** 20


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
