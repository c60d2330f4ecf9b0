"""Local model of the one-point blow-up on the ball B_r in C^n.

Identify C^n with R^(2n) through z_j = x_j + i*y_j, coordinates ordered
(x_1, y_1, ..., x_n, y_n); the reference symplectic matrix J is the block
diagonal of [[0, 1], [-1, 0]].  All checks in this module work in the
radial chart of the blow-up: the punctured ball maps onto the annulus
through

    F(z) = beta(|z|) * z / |z|,

with the profile beta(s) = sqrt(rho^2 * chi(s) + s^2).  Here chi is the
C^2 quintic step that equals 1 on [0, delta] and 0 on [r - delta, r], so
beta equals sqrt(rho^2 + s^2) near the origin and s near the boundary,
both branches exact in floating point at the endpoints.  The exceptional
divisor itself is represented by unit direction vectors.

Profile slope: beta' = (rho^2 * chi' + 2s) / (2 beta) never exceeds 1
because chi' <= 0 and beta >= s.  Positivity is equivalent to the quartic

    g(u) = 2*delta + 2*w*u - (30*rho^2/w) * u^2 (1-u)^2 > 0 on [0, 1],

where w = r - 2*delta is the width of the transition band.  The
constructor evaluates the exact minimum of g over the unit interval
(critical points of a cubic) and rejects parameter sets whose profile
would fail to be strictly increasing.  This is sharper than the uniform
sufficient bound max|chi'| < 2*delta/rho^2, which rejects perfectly good
profiles such as rho=0.4, delta=0.2, r=1.

Checks report a CheckResult carrying name, sample count, max deviation,
tolerance, and a skipped-sample count; finite differences are central
with step 1e-5.

The batched chart kernel of the package lives here, and quadrature.py
imports it: _realify/_complexify, the chart map _chart on (N, 2n) rows,
the central-difference Jacobian _jacobian of a batched real map,
LocalHamiltonian.values, and _shell_samples, the uniform sampler of a
ball or shell from which every Monte-Carlo integral and seeded check
draws.  Checks run it over all their seeded samples at once; per-point
callables (a bare Hamiltonian, map_fn, matrix_fn) go through the row
loop _rows.  symplectic_pullback_check takes its map as
an (n, n) complex matrix or as such a callable.  Deviations are reduced
with np.max, so a NaN sample gives a NaN deviation, which never passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LocalModelParams",
    "LocalHamiltonian",
    "DivisorDirection",
    "UnitaryLoop",
    "CheckResult",
    "beta_profile",
    "f_rho",
    "lifted_hamiltonian",
    "divisor_continuity_check",
    "s1_invariance_check",
    "symplectic_pullback_check",
    "vector_field_relation_check",
    "FD_STEP",
]

FD_STEP = 1e-5


def _smoothstep(u):
    """Quintic step: 0 -> 0, 1 -> 1, C^2 with vanishing end derivatives."""
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _smoothstep_prime(u):
    return 30.0 * u * u * (1.0 - u) ** 2


class LocalModelParams:
    """Profile and chart parameters (n, rho, delta, r), validated."""

    __slots__ = ("n", "rho", "delta", "r")

    def __init__(self, n, rho, delta, r):
        n = int(n)
        rho, delta, r = float(rho), float(delta), float(r)
        if n < 1:
            raise ValueError("need at least one complex coordinate")
        if not all(math.isfinite(x) for x in (rho, delta, r)):
            raise ValueError("rho, delta and r must be finite")
        if delta <= 0:
            raise ValueError("transition margin delta must be positive")
        if 2 * delta >= r:
            raise ValueError("transition band needs 2*delta < r")
        if not 0 < rho < r:
            raise ValueError("weight rho must satisfy 0 < rho < r")
        margin = _slope_margin(rho, delta, r)
        if margin <= 0:
            raise ValueError(
                "profile would not be increasing: min slope margin %.3g <= 0; "
                "decrease rho or widen the transition band" % margin
            )
        self.n = n
        self.rho = rho
        self.delta = delta
        self.r = r

    @property
    def width(self):
        return self.r - 2 * self.delta

    def __repr__(self):
        return "LocalModelParams(n=%d, rho=%g, delta=%g, r=%g)" % (
            self.n, self.rho, self.delta, self.r)


def _slope_margin(rho, delta, r):
    """Minimum over [0, 1] of g(u) = 2 delta + 2 w u - (30 rho^2/w) u^2(1-u)^2.

    Positivity of g is exactly positivity of beta' on the transition band;
    outside the band beta' > 0 holds automatically.  The critical points
    of the quartic g solve a cubic, found here via its companion matrix.
    """
    w = r - 2 * delta
    c = 30.0 * rho * rho / w
    # g'(u) = 2w - c*(2u - 6u^2 + 4u^3)
    roots = np.roots([-4.0 * c, 6.0 * c, -2.0 * c, 2.0 * w])
    candidates = [0.0, 1.0]
    for root in roots:
        if abs(root.imag) < 1e-12 and -1e-12 <= root.real <= 1 + 1e-12:
            candidates.append(min(max(root.real, 0.0), 1.0))
    def g(u):
        return 2 * delta + 2 * w * u - c * u * u * (1 - u) ** 2
    return min(g(u) for u in candidates)


def _profile_raw(arr, params):
    """Profile value and derivative, no domain check, exact at the ends.

    Where chi vanishes the value is the radius itself (not sqrt(s^2), which
    can be off by an ulp) and the slope is exactly 1; at radius 0 the value
    is exactly rho.  The formula extends past r by the identity, which the
    clipped step gives for free; callers that need the [0, r] domain guard
    go through beta_profile.
    """
    rho2 = params.rho * params.rho
    u = np.clip((arr - params.delta) / params.width, 0.0, 1.0)
    chi = 1.0 - _smoothstep(u)
    chi_prime = -_smoothstep_prime(u) / params.width
    value = np.sqrt(rho2 * chi + arr * arr)
    value = np.where(chi == 0.0, arr, value)
    value = np.where(arr == 0.0, params.rho, value)
    deriv = (rho2 * chi_prime + 2.0 * arr) / (2.0 * value)
    return value, deriv


def beta_profile(s, params):
    """Profile value and derivative at radius s in [0, r], scalar or array.

    beta(0) = rho and beta(r) = r exactly; the derivative stays in (0, 1]
    for s > 0 by the constructor's slope validation, with the value 1
    attained on the outer band [r - delta, r].
    """
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0) or np.any(arr > params.r):
        raise ValueError("radius outside [0, r]")
    value, deriv = _profile_raw(arr, params)
    if np.ndim(s) == 0:
        return float(value), float(deriv)
    return value, deriv


def _realify(points):
    """(..., n) complex -> (..., 2n) real, ordered (x_1, y_1, ..., x_n, y_n)."""
    out = np.empty(points.shape[:-1] + (2 * points.shape[-1],))
    out[..., 0::2] = points.real
    out[..., 1::2] = points.imag
    return out


def _complexify(coords):
    return coords[..., 0::2] + 1j * coords[..., 1::2]


def _chart(coords, params):
    """Realified chart map on an (N, 2n) real array, rows nonzero."""
    points = _complexify(coords)
    radii = np.linalg.norm(coords, axis=-1)
    value, _ = _profile_raw(radii, params)
    return _realify(points * (value / radii)[..., None])


def _jacobian(real_map, coords, step=FD_STEP):
    """(N, 2n, 2n) central-difference Jacobians of a batched real map."""
    count, dim = coords.shape
    jac = np.empty((count, dim, dim))
    for k in range(dim):
        bump = np.zeros(dim)
        bump[k] = step
        jac[:, :, k] = (real_map(coords + bump)
                        - real_map(coords - bump)) / (2 * step)
    return jac


def _rows(fn):
    """Batched form of a per-point callable: fn applied to each row."""
    return lambda points: np.array([fn(z) for z in points])


def f_rho(z, params):
    """Chart map of the blow-down: z -> beta(|z|) z / |z|.

    Defined on the punctured ball 0 < |z| <= r, which it carries onto the
    annulus rho < |F| <= r preserving directions; on the outer band it is
    the identity exactly.
    """
    z = np.asarray(z, dtype=complex)
    if np.linalg.norm(z) == 0.0:
        raise ValueError("exceptional divisor has no chart image")
    return _complexify(_chart(_realify(z[None]), params))[0]


class DivisorDirection:
    """A point of the exceptional divisor: a direction, stored unit-norm."""

    __slots__ = ("w",)

    def __init__(self, w):
        w = np.asarray(w, dtype=complex)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            raise ValueError("zero vector is not a direction")
        self.w = w / norm

    def __repr__(self):
        return "DivisorDirection(%s)" % (self.w,)


@dataclass
class LocalHamiltonian:
    """Quadratic circle-type Hamiltonian -pi sum m_j |z_j|^2 + c.

    c may be a float or a callable of time; checks evaluate it at the
    sample time, which for a constant is the constant itself.
    """

    weights: tuple
    c: object = 0.0

    def __post_init__(self):
        self.weights = tuple(int(m) for m in self.weights)

    @property
    def weight_sum(self):
        return sum(self.weights)

    def constant(self, t=None):
        if callable(self.c):
            return float(self.c(0.0 if t is None else t))
        return float(self.c)

    def values(self, points, t=None):
        """H on each row of an (N, n) complex array."""
        weights = np.asarray(self.weights, dtype=float)
        quad = np.abs(points) ** 2 @ weights
        return -math.pi * quad + self.constant(t)

    def value(self, z, t=None):
        return self.values(np.asarray(z, dtype=complex)[None], t)[0]


def lifted_hamiltonian(h, point, params, t=None):
    """Value of the lifted Hamiltonian at a chart point or divisor direction.

    Off the divisor the lift is h composed with the chart map; on the
    divisor it is h evaluated at rho times the unit direction, the radial
    limit of the chart branch.  Near the origin the two expressions agree
    up to |z|^2, which is what divisor_continuity_check samples.
    """
    if isinstance(point, DivisorDirection):
        return h.value(params.rho * point.w, t)
    return h.value(f_rho(point, params), t)


@dataclass
class CheckResult:
    """One verification outcome.

    max_deviation is the payload every check contract promises; the rest
    is report metadata.  extras holds named sub-deviations for checks that
    combine several identities, and is left out of the JSON row.
    """

    check: str
    samples: int
    max_deviation: float
    tolerance: float
    skipped: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.max_deviation <= self.tolerance

    def as_dict(self):
        return {
            "check": self.check,
            "samples": self.samples,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "pass": bool(self.passed),
        }

    def line(self):
        return "%-26s %5d samples  max dev %.3e  tol %.1e  %s" % (
            self.check, self.samples, self.max_deviation, self.tolerance,
            "pass" if self.passed else "FAIL")


class UnitaryLoop:
    """Path of unitary matrices psi_t with psi_0 = identity.

    The diagonal loop of integer weights (m_1 .. m_n) sends z_j to
    exp(-2 pi i m_j t) z_j.  A general path may be supplied as a callable
    t -> (n x n) complex matrix; identity start and unitarity are
    spot-checked to 1e-12 at construction.  matrix and vector_field take
    a scalar time or an array of times.
    """

    __slots__ = ("n", "weights", "_matrix_fn")

    def __init__(self, n, weights=None, matrix_fn=None):
        self.n = int(n)
        self.weights = None if weights is None else tuple(int(m) for m in weights)
        self._matrix_fn = matrix_fn
        if (weights is None) == (matrix_fn is None):
            raise ValueError("provide exactly one of weights or matrix_fn")
        if self.weights is not None and len(self.weights) != self.n:
            raise ValueError("weight count must match n")
        eye = np.eye(self.n)
        if np.max(np.abs(self.matrix(0.0) - eye)) > 1e-12:
            raise ValueError("path must start at the identity")
        for t in (0.17, 0.5, 0.83):
            m = self.matrix(t)
            if np.max(np.abs(m.conj().T @ m - eye)) > 1e-12:
                raise ValueError("path is not unitary at t=%g" % t)

    @classmethod
    def diagonal(cls, weights):
        weights = tuple(weights)
        return cls(len(weights), weights=weights)

    def matrix(self, t):
        """psi_t, stacked to shape t.shape + (n, n) for an array of times."""
        t = np.asarray(t, dtype=float)
        shape = t.shape + (self.n, self.n)
        if self.weights is None:
            return np.asarray([self._matrix_fn(s) for s in t.ravel()],
                              dtype=complex).reshape(shape)
        out = np.zeros(shape, dtype=complex)
        diag = np.arange(self.n)
        out[..., diag, diag] = np.exp(
            -2j * math.pi * np.asarray(self.weights, dtype=float) * t[..., None])
        return out

    def apply(self, t, z):
        return self.matrix(t) @ np.asarray(z, dtype=complex)

    def vector_field(self, t, z, dt=FD_STEP):
        """Velocity field at z, by central t-differencing.

        t may be an array of times and z a (..., n) stack of points whose
        leading shape broadcasts against it.
        """
        t = np.asarray(t, dtype=float)
        base = np.linalg.solve(self.matrix(t),
                               np.asarray(z, dtype=complex)[..., None])
        return ((self.matrix(t + dt) @ base - self.matrix(t - dt) @ base)
                / (2 * dt))[..., 0]


def _shell_samples(rng, count, n, radius, inner=0.0):
    """(count, 2n) uniform real points in the shell inner <= |x| <= radius.

    A Gaussian direction (Muller 1959) times the radius at which |x|^(2n)
    is uniform on [inner^(2n), radius^(2n)] (Marsaglia 1972), so no draw
    is rejected; inner = 0 gives the ball.
    """
    directions = rng.standard_normal((count, 2 * n))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    low = (inner / radius) ** (2 * n)
    radii = radius * (low + (1.0 - low) * rng.random(count)) ** (0.5 / n)
    return directions * radii[:, None]


def s1_invariance_check(h, samples=1000, seed=0, params=None):
    """Max of |H(z) - H(lambda z)| over random z and unit scalars lambda.

    h may be a LocalHamiltonian (dimension read off its weights, radius
    from params when given, else 1) or any callable of z, in which case
    params supplies the dimension.  Quadratic circle-type Hamiltonians are
    invariant up to roundoff; anything else is reported with the deviation
    it produces.
    """
    if isinstance(h, LocalHamiltonian):
        values, n = h.values, len(h.weights)
    elif params is None:
        raise ValueError("a bare callable needs params for the dimension")
    else:
        values, n = _rows(h), params.n
    radius = params.r if params is not None else 1.0
    rng = np.random.default_rng(seed)
    points = _complexify(_shell_samples(rng, samples, n, radius))
    phases = np.exp(2j * math.pi * rng.random(samples))
    gaps = np.abs(values(points) - values(phases[:, None] * points))
    return CheckResult(
        check="s1-invariance",
        samples=samples,
        max_deviation=float(np.max(gaps, initial=0.0)),
        tolerance=1e-12,
    )


def symplectic_pullback_check(map_fn, params, reference_form="blowup",
                              grid=500, seed=0, step=FD_STEP):
    """Check that a chart map preserves the reference symplectic structure.

    map_fn is an (n, n) complex matrix, applied to every sample at once,
    or a callable of one point z.  reference_form selects the convention.
    "blowup" treats map_fn as the chart expression of a lifted map and
    combines two deviations per sample z:

      * conjugation: F(map(z)) versus map(F(z)), exact up to roundoff for
        unitary maps since those preserve |z|;
      * the symplectic condition D^T J D = J for the Jacobian of map_fn,
        taken by central finite differences at the annulus point F(z).

    "standard" runs only the Jacobian condition at the sample points
    themselves.  grid is a sample count or an explicit (k, n) complex
    array.  Points with |z| < 1e-8 are skipped and counted; the named
    sub-deviations land in extras.
    """
    if reference_form not in ("blowup", "standard"):
        raise ValueError("reference_form must be 'blowup' or 'standard'")
    n = params.n
    if callable(map_fn):
        apply = _rows(map_fn)
    else:
        matrix = np.asarray(map_fn, dtype=complex)
        if matrix.shape != (n, n):
            raise ValueError("map_fn must be a callable or an (n, n) matrix")
        # a stack of matrix-vector products, bit for bit matrix @ z per row
        apply = lambda points: (matrix @ points[..., None])[..., 0]
    if isinstance(grid, (int, np.integer)):
        rng = np.random.default_rng(seed)
        points = _complexify(_shell_samples(rng, int(grid), n, params.r))
    else:
        points = np.asarray(grid, dtype=complex)
    near = np.linalg.norm(points, axis=-1) < 1e-8
    points = points[~near]
    extras = {"symplectic": 0.0}
    if reference_form == "blowup":
        extras["conjugation"] = 0.0
    if len(points):
        coords = _realify(points)
        if reference_form == "blowup":
            coords = _chart(coords, params)
            images = apply(points)
            moved = np.linalg.norm(images, axis=-1) != 0.0
            gaps = np.full(len(points), math.inf)
            gaps[moved] = np.max(np.abs(
                _complexify(_chart(_realify(images[moved]), params))
                - apply(_complexify(coords))[moved]), axis=-1)
            extras["conjugation"] = float(np.max(gaps))
        J = np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])
        jac = _jacobian(lambda x: _realify(apply(_complexify(x))), coords,
                        step)
        extras["symplectic"] = float(np.max(np.abs(
            np.swapaxes(jac, 1, 2) @ J @ jac - J)))
    return CheckResult(
        check="symplectic-pullback",
        samples=len(points),
        max_deviation=float(np.max(list(extras.values()))),
        tolerance=1e-8,
        skipped=int(np.count_nonzero(near)),
        extras=extras,
    )


def vector_field_relation_check(loop, params, samples=200, seed=0, scale=1.0):
    """Compatibility of loop velocity fields with the blow-down chart map.

    The lifted loop acts in the chart by the same unitary matrices, so its
    velocity field X~ at z must push forward through F to the base field
    at the image: DF_z(X~(z)) = X(F(z)).  Both fields are tangent to the
    spheres on which the radial profile is constant, so no radial
    correction appears; equivalently the right side is beta(|z|) times the
    base field at the unit direction.  Fields come from central
    t-differencing of the path, DF from central finite differences.

    Samples stay at radius >= r/10, where the finite-difference error of
    DF is far below the 1e-6 tolerance.  The scale knob multiplies the
    chart field so tests can confirm a wrong field is detected.
    """
    rng = np.random.default_rng(seed)
    coords = _shell_samples(rng, samples, params.n, params.r, params.r / 10.0)
    times = rng.random(samples)
    points = _complexify(coords)
    chart = lambda x: _chart(x, params)
    images = _complexify(chart(coords))
    # one solve per time serves both the chart point and its image
    fields = loop.vector_field(times[:, None], np.stack([points, images], 1))
    push = _jacobian(chart, coords) @ _realify(scale * fields[:, 0])[..., None]
    gaps = np.abs(push[..., 0] - _realify(fields[:, 1]))
    return CheckResult(
        check="vector-field-relation",
        samples=samples,
        max_deviation=float(np.max(gaps, initial=0.0)),
        tolerance=1e-6,
    )


def divisor_continuity_check(h, params, directions=64, seed=0, shrink=1e-6):
    """Radial limit of the chart branch against the divisor branch.

    h is a LocalHamiltonian or a callable of z, as in s1_invariance_check.
    """
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((directions, 2, params.n))
    w = draws[:, 0] + 1j * draws[:, 1]
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    values = h.values if isinstance(h, LocalHamiltonian) else _rows(h)
    inner = values(_complexify(_chart(_realify(shrink * w), params)))
    gaps = np.abs(inner - values(params.rho * w))
    return CheckResult(
        check="divisor-continuity",
        samples=directions,
        max_deviation=float(np.max(gaps, initial=0.0)),
        tolerance=1e-8,
    )
