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
both branches exact in floating point at the endpoints.  At band position
u it is S(1 - u), S the quintic step from 0 to 1.  The step is symmetric,
so this is 1 - S(u), but S(v) = v^3 (10 - 15v + 6v^2) has a quadratic
factor with no real root, so chi >= 0 in floats too, and beta >= s and
beta' <= 1 hold as computed.  The exceptional divisor itself is
represented by unit direction vectors.

Profile slope: beta' = (rho^2 * chi' + 2s) / (2 beta) never exceeds 1
because chi' <= 0 and beta >= s.  Positivity is equivalent to the quartic

    g(u) = 2*delta + 2*w*u - (30*rho^2/w) * u^2 (1-u)^2 > 0 on [0, 1],

where w = r - 2*delta is the width of the transition band; at band
position u, beta' is g(u) over 2 beta.  The constructor takes the minimum
of g over the unit interval at the band edges and at the critical points
of g, the roots of a depressed cubic in closed form (_slope_candidates),
and rejects parameter sets whose profile would fail to be strictly
increasing.  This is sharper than the uniform sufficient bound max|chi'| <
2*delta/rho^2, which rejects perfectly good profiles such as rho=0.4,
delta=0.2, r=1.

The loops are circle actions psi_t z = (exp(-2 pi i m_j t) z_j) of integer
weights on C^n, n = len(weights), generated by -pi sum m_j |z_j|^2 + c
with c a constant float: one class, LocalHamiltonian (also UnitaryLoop),
gives H, the loop's field -2 pi i m_j z_j and psi_t as its phase vector.

Checks report a CheckResult carrying name, sample count, max deviation,
tolerance, and a skipped-sample count; finite differences are central
with step 1e-5.  Each check keeps its contract at whatever scale it is
given, with absolute tolerances; the dilation (rho, delta, r, c) ->
(lambda rho, lambda delta, lambda r, lambda^2 c) is an exact symmetry of
the model, so the CLI's verify calls every check once, on the unit model
r = 1, with c/r^2 for c.

The batched chart kernel of the package lives here: _realify and
_complexify, the band position _band, the profile _profile_raw and its
slope _profile_slope, the chart _chart, which scales real (N, 2n) rows
by beta(|x|)/|x|, the directional central difference _central_difference
of a batched real map, one call on the stacked rows x + h v and x - h v,
the central-difference Jacobian _jacobian, that difference along each
unit direction, which only the callable path of symplectic_pullback_check
takes, LocalHamiltonian.values, and two uniform ball-or-shell draws that
share one radius law, _shell_powers: points (_shell_samples, from
Gaussian directions) and powers (|x|/radius)^(2n) with weighted
direction moments (_shell_moments, from the Dirichlet law of a uniform
direction's squared moduli), which quadrature.py takes with the band and
the smoothstep.

Checks run over all their seeded samples at once; a diagonal map given
to symplectic_pullback_check as its phase vector d is applied to all of
them as points * d, and its symplectic defect is read off d itself,
while a callable of one point goes through the row loop _rows and a
finite-difference Jacobian.  So every check here that verify runs is
O(samples n) in time and memory: its largest arrays are (samples, 2n)
rows, and none is (n, n).  Deviations are reduced with np.max, so a NaN
sample gives a NaN deviation, which never passes, and a check that
samples nothing fails.

Each chart check splits into a seeded frame and a per-loop evaluation.
The frame is what depends only on the model, the sample count and the
seed: the s1 points and their turned copies (_s1_frame), the divisor's
chart and divisor points (_divisor_frame), the pullback's kept points,
chart images and skipped count (_pullback_frame), and the vector-field
points, chart images and seeded unit directions (_vector_field_frame).
Each builder keeps its last frame, keyed by (params, count, seed)
through LocalModelParams' value equality and hash, and returns read-only
arrays, so every loop of one verify run draws and charts once.  An
explicit grid given to symplectic_pullback_check goes through the same
frame code (_pullback_points) but is not cached.  A seed is an integer,
so that a frame is a function of its key.  The reference matrix J of the
callable pullback path is built once per n (_reference_j), read-only.
"""

from __future__ import annotations

import functools
import math
import operator
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
    """Profile and chart parameters (n, rho, delta, r), validated.

    n is an integer of any integer type, read as a plain int; a float, a
    string or None raises ValueError.  Equal and hashed by value, so a
    model keys the cached frames and quadrature rules; floats compare
    exactly.
    """

    __slots__ = ("n", "rho", "delta", "r")

    def __init__(self, n, rho, delta, r):
        n = _integer(n, 1, "need at least one complex coordinate")
        rho, delta, r = float(rho), float(delta), float(r)
        if not all(math.isfinite(x) for x in (rho, delta, r)):
            raise ValueError("rho, delta and r must be finite")
        if not math.isfinite(math.pi * r * r):
            # every check and integral squares radii up to r
            raise ValueError("pi*r^2 must be finite; r = %g is too large" % r)
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

    def _key(self):
        return (self.n, self.rho, self.delta, self.r)

    def __eq__(self, other):
        if not isinstance(other, LocalModelParams):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "LocalModelParams(n=%d, rho=%g, delta=%g, r=%g)" % (
            self.n, self.rho, self.delta, self.r)


def _integer(value, minimum, message):
    """value as a plain int no less than minimum, else ValueError(message).

    operator.index takes every integer type, numpy's too, and refuses a
    float, a string and None.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(message) from None
    if value < minimum:
        raise ValueError(message)
    return value


def _slope_candidates(rho, width):
    """Band positions where the slope quartic g can take its minimum.

    g(u) = 2 delta + 2 w u - (30 rho^2/w) u^2 (1-u)^2 on [0, 1], w the
    band width: the edges 0 and 1, then the roots of g' in [0, 1].  With
    u = x + 1/2, g' = 0 is the depressed cubic x^3 - x/4 + q = 0, q =
    -w^2/(60 rho^2).  Its three roots are real exactly when 27 q^2 <=
    1/16, and then x_k = cos(arccos(-6 sqrt(12) q)/3 - 2 pi k/3)/sqrt(3)
    (Viete's trigonometric solution), the arccos argument, which is
    positive, clamped to 1 against rounding; else the one real root has
    x > 1/2, past the band.
    """
    candidates = [0.0, 1.0]
    q = -width * width / (60.0 * rho * rho)
    if 27.0 * q * q <= 1.0 / 16.0:
        angle = math.acos(min(-6.0 * math.sqrt(12.0) * q, 1.0)) / 3.0
        for k in range(3):
            x = math.cos(angle - 2.0 * math.pi * k / 3.0) / math.sqrt(3.0)
            u = 0.5 + x
            if 0.0 <= u <= 1.0:
                candidates.append(u)
    return candidates


def _slope_margin(rho, delta, r):
    """Minimum over [0, 1] of g(u) = 2 delta + 2 w u - (30 rho^2/w) u^2(1-u)^2.

    Positivity of g is exactly positivity of beta' on the transition band;
    outside the band beta' > 0 holds automatically.  A minimum of g on
    [0, 1] lies at an edge or at a critical point, so it is the least
    value of g at _slope_candidates.
    """
    w = r - 2 * delta
    c = 30.0 * rho * rho / w
    return min(2 * delta + 2 * w * u - c * u * u * (1 - u) ** 2
               for u in _slope_candidates(rho, w))


def _band(arr, params):
    """Position of each radius in the transition band, clipped to [0, 1].

    np.minimum of np.maximum is the clip, without np.clip's overhead on
    small arrays; a NaN radius stays NaN in both.
    """
    return np.minimum(np.maximum((arr - params.delta) / params.width, 0.0),
                      1.0)


def _profile_raw(arr, params):
    """Profile value, no domain check, exact at the ends.

    Where chi vanishes the value is the radius itself (not sqrt(s^2), which
    can be off by an ulp); at radius 0 it is exactly rho.  The formula
    extends past r by the identity, which the clipped step gives for free;
    callers that need the [0, r] domain guard go through beta_profile.
    """
    chi = _smoothstep(1.0 - _band(arr, params))
    value = np.sqrt(params.rho * params.rho * chi + arr * arr)
    value = np.where(chi == 0.0, arr, value)
    return np.where(arr == 0.0, params.rho, value)


def _profile_slope(arr, beta, params):
    """Profile slope beta'(s) from beta = _profile_raw(s), no domain check.

    beta' = (rho^2 chi' + 2s) / (2 beta), the derivative of beta^2 =
    rho^2 chi + s^2 over 2 beta; taking beta in saves a profile call.
    """
    chi_prime = -_smoothstep_prime(_band(arr, params)) / params.width
    return (params.rho * params.rho * chi_prime + 2.0 * arr) / (2.0 * beta)


def beta_profile(s, params):
    """Profile value and derivative at radius s in [0, r], scalar or array.

    beta(0) = rho and beta(r) = r exactly; the derivative stays in (0, 1]
    for s > 0 by the constructor's slope validation, with the value 1
    attained on the outer band [r - delta, r].
    """
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0) or np.any(arr > params.r):
        raise ValueError("radius outside [0, r]")
    value = _profile_raw(arr, params)
    deriv = _profile_slope(arr, value, params)
    if np.ndim(s) == 0:
        return float(value), float(deriv)
    return value, deriv


def _realify(points):
    """(..., n) complex -> (..., 2n) real, ordered (x_1, y_1, ..., x_n, y_n).

    A complex number is stored as its real and imaginary parts, so this
    is a view of contiguous complex rows, copied only when they are not;
    it shares memory with its input, and so does _complexify.
    """
    return np.ascontiguousarray(points, dtype=complex).view(float)


def _complexify(coords):
    """(..., 2n) real -> (..., n) complex, the inverse view of _realify."""
    return np.ascontiguousarray(coords, dtype=float).view(complex)


def _chart(coords, params):
    """Realified chart map on an (N, 2n) real array, rows nonzero.

    The radii are np.linalg.norm's own expression for real rows, and the
    rows are scaled as real numbers: a complex number times a real one
    rounds each component as this real product does.  Only a negative
    zero component differs, kept here where the complex product gave
    +0.0; its value, and every sum it enters, is the same.
    """
    radii = np.sqrt(np.add.reduce(coords * coords, axis=-1))
    return coords * (_profile_raw(radii, params) / radii)[..., None]


def _jacobian(real_map, coords):
    """(N, m, 2n) central-difference Jacobians of a batched real map.

    real_map takes (M, 2n) rows to (M, m) rows, m = 2n for a map of the
    ball and m = 1 for a function.  Column k is _central_difference along
    e_k, so the map runs once, on all 4n bumped copies of the rows; the
    result is C-contiguous, because the @ products that callers form
    round differently on a transposed view.
    """
    dim = coords.shape[1]
    columns = _central_difference(real_map, coords, np.eye(dim)[:, None])
    return np.ascontiguousarray(np.moveaxis(columns, 0, -1))


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


@dataclass(frozen=True)
class LocalHamiltonian:
    """Circle Hamiltonian -pi sum m_j |z_j|^2 + c and the loop it generates.

    The loop is psi_t z = (exp(-2 pi i m_j t) z_j) on C^n, n the number of
    weights, kept as its diagonal phases(t).  The weights are at least one
    integer of any integer type, read as plain ints and once as a float
    array; a float, a string or None raises ValueError.  c is converted to
    a float once; a NaN still constructs, and every check it enters then
    fails closed.  Frozen, and equal and hashed by (weights, c).
    """

    weights: tuple
    c: float = 0.0
    _rates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            weights = tuple(operator.index(m) for m in self.weights)
        except TypeError:
            raise ValueError("loop weights must be integers") from None
        if not weights:
            raise ValueError("a loop needs at least one weight")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "_rates", np.asarray(weights, dtype=float))

    @property
    def weight_sum(self):
        return sum(self.weights)

    def bound(self, radius):
        """pi radius^2 max|m_j| + |c|, which bounds |H| on the radius-ball."""
        return (math.pi * radius * radius * max(abs(m) for m in self.weights)
                + abs(self.c))

    def values(self, points):
        """H on each row of an (N, n) complex array."""
        quad = np.abs(points) ** 2 @ self._rates
        return -math.pi * quad + self.c

    def value(self, z):
        return self.values(np.asarray(z, dtype=complex)[None])[0]

    def phases(self, t):
        """psi_t at one time t as its diagonal, the (n,) vector
        exp(-2 pi i m_j t)."""
        return np.exp(-2j * math.pi * self._rates * float(t))

    def vector_field(self, z):
        """Velocity -2 pi i m_j z_j at each point of a (..., n) stack.

        A circle action's field does not depend on time.
        """
        return -2j * math.pi * self._rates * np.asarray(z, dtype=complex)


# the loop a Hamiltonian generates is the same object, under its public name
UnitaryLoop = LocalHamiltonian


def lifted_hamiltonian(h, point, params):
    """Value of the lifted Hamiltonian at a chart point or divisor direction.

    Off the divisor the lift is h composed with the chart map; on the
    divisor it is h evaluated at rho times the unit direction, the radial
    limit of the chart branch.  Near the origin the two expressions agree
    up to |z|^2, which is what divisor_continuity_check samples.
    """
    if isinstance(point, DivisorDirection):
        return h.value(params.rho * point.w)
    return h.value(f_rho(point, params))


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
        """Within tolerance on at least one sample; NaN never passes."""
        return self.samples > 0 and self.max_deviation <= self.tolerance

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


def _shell_powers(uniforms, n, radius, inner=0.0):
    """Powers (|x|/radius)^(2n) of uniform points of the shell inner <= |x|
    <= radius, from one uniform on [0, 1) per draw: uniform on
    [(inner/radius)^(2n), 1] (Marsaglia 1972)."""
    low = (inner / radius) ** (2 * n)
    return low + (1.0 - low) * uniforms


def _shell_samples(rng, count, n, radius, inner=0.0):
    """(count, 2n) uniform real points in the shell inner <= |x| <= radius.

    No draw is rejected; inner = 0 gives the ball.  A normalized Gaussian
    row is a uniform direction (Muller 1959); the normals are drawn before
    the radii.
    """
    directions = rng.standard_normal((count, 2 * n))
    powers = _shell_powers(rng.random(count), n, radius, inner)
    radii = radius * powers ** (0.5 / n)
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return directions * radii[:, None]


def _shell_moments(rng, count, basis, radius, inner=0.0):
    """Powers (|x|/radius)^(2n) and moments sum_j w_j |x_j|^2 / |x|^2.

    The two numbers a circle-type Hamiltonian reads of a uniform point of
    the shell: H(x) is -pi |x|^2 q + c with q the weighted moment of the
    direction u, and |x| is radius times the power's 2n-th root.  For u
    uniform on the sphere of C^n the squared moduli (|u_1|^2, ...,
    |u_n|^2) are Dirichlet(1, ..., 1), the law of E_j / sum E for
    independent standard exponentials E_j, and independent of the radius
    (Devroye 1986, ch. XI).  So n exponentials per draw give q as one
    small product E @ basis and one divide per row, with no direction ever
    formed; basis is the (n, 2) matrix of columns 1 and w.

    The count draws come from rng: all exponentials, then all uniforms.
    """
    sums = rng.standard_exponential((count, len(basis))) @ basis
    return (_shell_powers(rng.random(count), len(basis), radius, inner),
            sums[:, 1] / sums[:, 0])


def _frozen(*arrays):
    """The arrays, made read-only, as a tuple: a frame shared by callers."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=1)
def _reference_j(n):
    """The reference symplectic matrix J on R^(2n), read-only."""
    return _frozen(np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]]))[0]


@functools.lru_cache(maxsize=1)
def _s1_frame(params, samples, seed):
    """Seeded points of the r-ball and their copies turned by unit scalars."""
    rng = np.random.default_rng(seed)
    points = _complexify(_shell_samples(rng, samples, params.n, params.r))
    phases = np.exp(2j * math.pi * rng.random(samples))
    return _frozen(points, phases[:, None] * points)


def s1_invariance_check(h, params, samples=1000, seed=0):
    """Max of |H(z) - H(lambda z)| over random z and unit scalars lambda.

    h is a LocalHamiltonian with params.n weights; the points fill the
    r-ball of params.  Circle-type Hamiltonians are invariant up to
    roundoff; anything else is reported with the deviation it produces.
    """
    points, turned = _s1_frame(params, samples, seed)
    gaps = np.abs(h.values(points) - h.values(turned))
    return CheckResult(
        check="s1-invariance",
        samples=samples,
        max_deviation=float(np.max(gaps, initial=0.0)),
        tolerance=1e-12,
    )


def _pullback_points(points, params):
    """A pullback grid's points off the origin, their chart images as real
    rows, and the count of points with |z| < 1e-8 r, which are skipped."""
    near = np.linalg.norm(points, axis=-1) < 1e-8 * params.r
    points = points[~near]
    return _frozen(points, _chart(_realify(points), params)) + (
        int(np.count_nonzero(near)),)


@functools.lru_cache(maxsize=1)
def _pullback_frame(params, count, seed):
    """_pullback_points of count seeded points of the r-ball."""
    rng = np.random.default_rng(seed)
    return _pullback_points(
        _complexify(_shell_samples(rng, count, params.n, params.r)), params)


def symplectic_pullback_check(map_fn, params, reference_form="blowup",
                              grid=500, seed=0):
    """Check that a chart map preserves the reference symplectic structure.

    map_fn is a diagonal map z -> d z as its (n,) vector d, applied to
    every sample at once, or a callable of one point z.  reference_form
    selects the convention.
    "blowup" treats map_fn as the chart expression of a lifted map and
    combines two deviations per sample z:

      * conjugation: F(map(z)) versus map(F(z)), exact up to roundoff for
        unitary maps since those preserve |z|;
      * the symplectic condition D^T J D = J for the Jacobian D of map_fn.

    "standard" runs only the symplectic condition.  A linear map A is its
    own Jacobian, and omega(u, v) = u^T J v = Im<u, v>, so the entries of
    D^T J D - J are +-Re G and +-Im G for G = A^H A - I; for A = diag(d)
    the sub-deviation is max_j ||d_j|^2 - 1|, exact up to one product's
    roundoff.  A callable's Jacobian is taken by central finite
    differences at the annulus point F(z) ("blowup") or at z itself
    ("standard").  grid is a sample count or an explicit (k, n)
    complex array.  Points with |z| < 1e-8 r are skipped and counted; the
    named sub-deviations land in extras.
    """
    if reference_form not in ("blowup", "standard"):
        raise ValueError("reference_form must be 'blowup' or 'standard'")
    n = params.n
    if callable(map_fn):
        phases = None
        apply = _rows(map_fn)
    else:
        phases = np.asarray(map_fn, dtype=complex)
        if phases.shape != (n,):
            raise ValueError("map_fn must be a callable or a diagonal map's "
                             "(n,) vector")
        apply = lambda points: points * phases
    if isinstance(grid, (int, np.integer)):
        points, charted, skipped = _pullback_frame(params, int(grid), seed)
    else:
        points, charted, skipped = _pullback_points(
            np.asarray(grid, dtype=complex), params)
    extras = {"symplectic": 0.0}
    if reference_form == "blowup":
        extras["conjugation"] = 0.0
    if len(points):
        coords = _realify(points)
        if reference_form == "blowup":
            coords = charted
            images = apply(points)
            moved = np.linalg.norm(images, axis=-1) != 0.0
            gaps = np.full(len(points), math.inf)
            gaps[moved] = np.max(np.abs(
                _complexify(_chart(_realify(images[moved]), params))
                - apply(_complexify(coords))[moved]), axis=-1)
            extras["conjugation"] = float(np.max(gaps))
        if phases is None:
            J = _reference_j(n)
            jac = _jacobian(lambda x: _realify(apply(_complexify(x))), coords)
            # D^T J D - J formed in place, one (N, 2n, 2n) temporary beside jac
            gram = np.swapaxes(jac, 1, 2) @ J @ jac
            gram -= J
        else:
            # the diagonal of A^H A - I
            gram = phases.real * phases.real + phases.imag * phases.imag - 1.0
        extras["symplectic"] = float(np.max(np.abs(gram)))
    return CheckResult(
        check="symplectic-pullback",
        samples=len(points),
        max_deviation=float(np.max(list(extras.values()))),
        tolerance=1e-8,
        skipped=skipped,
        extras=extras,
    )


@functools.lru_cache(maxsize=1)
def _vector_field_frame(params, samples, seed):
    """Seeded points of the shell r/10 <= |x| <= r as real rows, the points
    and their chart images stacked as one complex (2, N, n) array, and one
    seeded unit direction per point as real rows, drawn after the points."""
    rng = np.random.default_rng(seed)
    coords = _shell_samples(rng, samples, params.n, params.r, params.r / 10.0)
    directions = rng.standard_normal(coords.shape)
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    images = _chart(coords, params)
    return _frozen(coords, _complexify(np.stack([coords, images])),
                   directions)


def _central_difference(real_map, coords, directions):
    """(f(x + h v) - f(x - h v)) / (2h) per row x of coords and direction
    v, from one map call on all the stacked bumped rows; directions of
    shape (..., N, 2n) give (..., N, m) for real_map of (M, 2n) to (M, m)."""
    bumped = coords + np.multiply.outer([FD_STEP, -FD_STEP], directions)
    plus, minus = real_map(bumped.reshape(-1, coords.shape[1])).reshape(
        bumped.shape[:-1] + (-1,))
    return (plus - minus) / (2 * FD_STEP)


def vector_field_relation_check(loop, params, samples=200, seed=0):
    """A loop's velocity field against the chart map and its Hamiltonian.

    loop is a LocalHamiltonian, whose c does not enter.  The lifted loop
    acts in the chart by the same diagonal unitaries, so its velocity
    field X~ at z must push forward through F to the base field at the
    image: DF_z(X~(z)) = X(F(z)).  Both fields are tangent to the
    spheres on which the radial profile is constant, so no radial
    correction appears; equivalently the right side is beta(|z|) times the
    base field at the unit direction.  Both fields are the loop's closed
    form, and DF_z(X~) is one directional central difference of the chart,
    |X~| (F(z + h u) - F(z - h u)) / (2h) along u = X~/|X~| (0 where X~ =
    0): the witness for the chart map.  A constant factor on the field
    passes that, so the row is the larger of its gap and the field's gap
    from the symplectic gradient of H = -pi sum m_j |z_j|^2, with the
    convention grad H^T J = X: along one seeded unit direction v per
    sample, the central difference of H against dH(v) = -omega(X, v) =
    -sum_j Im(conj(X_j) v_j).  extras holds both, "pushforward" and
    "hamiltonian".

    Samples stay at radius >= r/10, where the finite-difference error of
    DF is far below the 1e-6 tolerance.
    """
    coords, stacked, directions = _vector_field_frame(params, samples, seed)
    # one call serves both the chart points and their images
    fields = loop.vector_field(stacked)
    lifted = _realify(fields[0])
    speeds = np.linalg.norm(lifted, axis=1, keepdims=True)
    push = speeds * _central_difference(
        lambda x: _chart(x, params), coords,
        lifted / np.where(speeds > 0.0, speeds, 1.0))
    # H without c, which would add only rounding to the differences
    slopes = _central_difference(
        lambda x: -math.pi * (np.abs(_complexify(x)) ** 2 @ loop._rates),
        coords, directions)[:, 0]
    # dH(v) = -omega(X, v) = -Im <X, v>
    dh = -np.sum((fields[0].conj() * _complexify(directions)).imag, axis=1)
    gaps = {"pushforward": push - _realify(fields[1]),
            "hamiltonian": slopes - dh}
    extras = {key: float(np.max(np.abs(gap), initial=0.0))
              for key, gap in gaps.items()}
    return CheckResult(
        check="vector-field-relation",
        samples=samples,
        max_deviation=float(np.max(list(extras.values()))),
        tolerance=1e-6,
        extras=extras,
    )


@functools.lru_cache(maxsize=1)
def _divisor_frame(params, seed):
    """64 seeded unit directions w, read at the chart point 1e-6 w and on
    the divisor at rho w."""
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((64, 2, params.n))
    w = draws[:, 0] + 1j * draws[:, 1]
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    return _frozen(_complexify(_chart(_realify(1e-6 * w), params)),
                   params.rho * w)


def divisor_continuity_check(h, params, seed=0):
    """Radial limit of the chart branch against the divisor branch.

    h is a LocalHamiltonian.  Each of 64 directions w is read at the chart
    point 1e-6 w and on the divisor at rho w.
    """
    inner, divisor = _divisor_frame(params, seed)
    gaps = np.abs(h.values(inner) - h.values(divisor))
    return CheckResult(
        check="divisor-continuity",
        samples=len(divisor),
        max_deviation=float(np.max(gaps, initial=0.0)),
        tolerance=1e-8,
    )
