"""Primitives for the hyperboloid model of d-dimensional hyperbolic space.

Points live on the upper sheet ``{z : <z,z> = -1, z_{d+1} > 0}`` of the unit
hyperboloid in R^{d+1}, where

    <a, b> = a_1 b_1 + ... + a_d b_d - a_{d+1} b_{d+1}

is the Minkowski inner product (time-like axis last).  Geodesic distance
satisfies ``cosh rho(y, z) = -<y, z>``.  Tangent vectors at a point X form the
Minkowski-orthogonal complement of X, on which <.,.> restricts to a positive
definite (Riemannian) inner product.

All numerics are float64 numpy.  The public operations accept either the
validated :class:`HPoint` / :class:`TangentVec` wrappers or raw coordinate
arrays (hyperboloid axis last) and broadcast over leading axes, so the same
code serves both the object API and bulk property checks.

Curvature is fixed to -1 throughout.  Every test on a Minkowski product allows
_REL_TOL times _roundoff_scale, the sum of its terms' magnitudes (2 cosh^2 rho
at rho from o, where paths go: rho = 10-60), so a component of size 1 along the
base goes unseen past rho ~ 12.

Raw coordinates that enter as a point pass one sheet test,
:func:`_check_on_sheet`, which HPoint and every path start pass too: each
argument of distance (and so of log_map, angle_at, triangle_deficit and the
covariance profiles), and the base of exp_map and of transport_from_origin.
There is one sheet test on each argument and none on the pair.

distance takes the radii r and the angle theta at o: rho = 2 asinh
sqrt(sinh^2((r_a - r_b)/2) + sinh r_a sinh r_b sin^2(theta/2)), which resolves
nearby points at rho from o to about eps sinh rho and pairs far apart to about
eps relative.  log_map, angle_at and triangle_deficit refuse pairs below that
floor (see :func:`_too_close`).

Every other input is checked once, where it enters, by one rule that returns
it or raises a :class:`ParameterError` naming it, and takes no bool:
:func:`_positive` (numbers above 0, or at least ``low``, and at most ``high``
if given), :func:`_count` (counts in [low, high]) or :func:`_nonnegative`
(distance arrays, at most ``high`` if given; NaN passes only without it).
"""

import math
from dataclasses import dataclass

import numpy as np

# cosh overflows double precision near 710; stay a little below
MAX_RADIUS = 700.0
_REL_TOL = 1e-10  # sized so that log_map directions at far bases pass

_DEGENERATE = 1e-8  # two points closer than this cannot define a direction
_FLOOR_EPS = 8.0 * 2.0**-52  # 8 eps: the coordinate roundoff the distance floor allows


class ParameterError(ValueError):
    """A refused argument: ``args`` are (the parameter's name, the message).

    The message alone is its str, so a caller can name the parameter in its
    own terms (a config key, a flag); the pair of args also pickles.
    """

    def __str__(self):
        return self.args[1]


def _positive(name, value, low=None, high=None):
    """``value``; refuse it unless it is a finite number > 0 (>= ``low`` if given)
    and at most ``high``."""
    # chained comparisons also refuse NaN; a bool is a flag, not a number
    if isinstance(value, (bool, np.bool_)) or not (
            (0 < value if low is None else low <= value) and value < math.inf
            and (high is None or value <= high)):
        if high is not None:
            rule = f"lie in {'(0' if low is None else f'[{low:g}'}, {high:g}]"
        elif low is None:
            rule = "be positive and finite"
        else:
            rule = "be finite and " + ("nonnegative" if low == 0 else f"at least {low:g}")
        raise ParameterError(name, f"{name} must {rule}, got {value}")
    return value


def _count(name, value, low, high=None):
    """``value``; refuse it unless it is an int or numpy integer (not a bool) in [low, high]."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ParameterError(name, f"{name} must be an integer {bounds}, got {value!r}")
    return value


def _nonnegative(name, values, high=None):
    """``values`` as a float array; refuse it if it holds bools or an entry below 0
    or above ``high``.  NaN passes unless ``high`` is given (NaN <= high is false)."""
    values = np.asarray(values)
    if values.dtype == bool or np.any(values < 0) or (
            high is not None and not np.all(values <= high)):
        bound = "" if high is None else f" and at most {high:g}"
        got = ", got bools" if values.dtype == bool else ""
        raise ParameterError(name, f"{name} must be nonnegative{bound}{got}")
    return values.astype(float, copy=False)


def minkowski_product(a, b):
    """Minkowski inner product with signature (+,...,+,-), batched on the last axis."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]} coordinates")
    return np.sum(a[..., :-1] * b[..., :-1], axis=-1) - a[..., -1] * b[..., -1]


def _roundoff_scale(a, b):
    """max(1, |a_{d+1} b_{d+1}| + sum |a_i b_i|), batched on the last axis."""
    return np.maximum(np.sum(np.abs(a * b), axis=-1), 1.0)


def project_to_hyperboloid(z):
    """Rescale the time-like component so that <z,z> = -1 exactly.

    Overflow-safe for any finite spatial part: hypot squares nothing.
    """
    z = np.array(z, dtype=float)
    z[..., -1] = np.hypot(1.0, np.hypot.reduce(z[..., :-1], axis=-1))
    return z


def _coords(x):
    """Unwrap HPoint / TangentVec to a raw coordinate array."""
    if isinstance(x, HPoint):
        return x.coords
    if isinstance(x, TangentVec):
        return x.vec
    return np.asarray(x, dtype=float)


def _check_on_sheet(coords):
    """Raise a ValueError unless every row of ``coords`` (..., d+1) is a finite
    point of the upper sheet, on the hyperboloid up to roundoff.

    The test is |<z,z> + 1| <= _REL_TOL * _roundoff_scale(z, z), evaluated on
    w = z / s with s the row's largest |coordinate|, at least 1 (on the sheet,
    s is the time-like coordinate): dividing both sides by s^2 leaves the same
    decision and squares nothing past 1, so rows out to MAX_RADIUS neither
    overflow nor pass on an inf or NaN comparison.
    """
    # NaN fails every comparison below, so it has to be caught here
    if not np.all(np.isfinite(coords)):
        raise ValueError(f"point is off the hyperboloid: coordinates must be finite, "
                         f"got {coords}")
    if np.any(coords[..., -1] <= 0):
        raise ValueError("point is off the hyperboloid: its time-like component must be "
                         "positive (upper sheet)")
    s = np.ones(coords.shape[:-1])
    for column in np.moveaxis(np.abs(coords), -1, 0):  # 12x faster than max(axis=-1)
        np.maximum(s, column, out=s)
    w = coords / s[..., None]
    dev = np.asarray(minkowski_product(w, w) + (1.0 / s) ** 2)  # (<z,z> + 1) / s^2
    off = np.abs(dev) > _REL_TOL * _roundoff_scale(w, w)
    if np.any(off):
        scale = float(s[off][0])  # Python floats overflow to inf without a warning
        raise ValueError("point is off the hyperboloid: "
                         f"<z,z> = {float(dev[off][0]) * scale * scale - 1.0:.3e}")


@dataclass
class HPoint:
    """A point on the upper sheet of the unit hyperboloid in R^{d+1}."""

    coords: np.ndarray
    dim: int

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        _count("dim", self.dim, 2)
        if self.coords.shape != (self.dim + 1,):
            raise ValueError(
                f"expected {self.dim + 1} coordinates, got shape {self.coords.shape}"
            )
        _check_on_sheet(self.coords)
        # absorb roundoff so downstream products stay consistent
        self.coords = project_to_hyperboloid(self.coords)


@dataclass
class TangentVec:
    """A tangent vector at ``base``: Minkowski-orthogonal to it up to roundoff."""

    base: HPoint
    vec: np.ndarray

    def __post_init__(self):
        self.vec = np.asarray(self.vec, dtype=float)
        if self.vec.shape != self.base.coords.shape:
            raise ValueError("tangent vector has wrong number of coordinates")
        ip = minkowski_product(self.base.coords, self.vec)
        if abs(ip) > _REL_TOL * _roundoff_scale(self.base.coords, self.vec):
            raise ValueError(f"vector is not tangent at base: <base,v> = {ip:.3e}")

    def norm(self):
        return float(np.sqrt(minkowski_product(self.vec, self.vec)))


def origin(d):
    """The base point o = (0, ..., 0, 1)."""
    z = np.zeros(_count("d", d, 2) + 1)
    z[-1] = 1.0
    return HPoint(z, d)


def distance(a, b):
    """Geodesic distance from the radii r (sinh r is the spatial norm) and the angle
    theta at o: 2 asinh sqrt(sinh^2((r_a - r_b)/2) + sinh r_a sinh r_b sin^2(theta/2)),
    the law of cosines through cosh rho - 1 = 2 sinh^2(rho/2).  Both terms are
    nonnegative, so nothing cancels; distance(p, p) is 0.

    Each argument passes the one sheet test, :func:`_check_on_sheet`; the pair
    itself is tested only for the same number of coordinates."""
    ca, cb = _coords(a), _coords(b)
    if ca.shape[-1] != cb.shape[-1]:
        raise ValueError(f"dimension mismatch: {ca.shape[-1]} vs {cb.shape[-1]} coordinates")
    _check_on_sheet(ca)
    _check_on_sheet(cb)
    sa, sb = np.hypot.reduce(ca[..., :-1], axis=-1), np.hypot.reduce(cb[..., :-1], axis=-1)
    # the unit directions u at o; o itself gets u = 0, and sinh r = 0 drops its angle
    ua, ub = (c[..., :-1] / np.where(s > 0, s, 1.0)[..., None] for c, s in ((ca, sa), (cb, sb)))
    sin_half = 0.5 * np.linalg.norm(ua - ub, axis=-1)
    return 2.0 * np.arcsinh(np.hypot(np.sinh(0.5 * (np.arcsinh(sa) - np.arcsinh(sb))),
                                     np.sqrt(sa) * np.sqrt(sb) * sin_half))[()]


def _too_close(ca, cb, rho):
    """Whether any rho = distance(ca, cb) lies below the pair's distance floor.

    Coordinates of size cosh r carry roundoff of about eps cosh r, so the angle
    at o between points near radius r is known to about eps, and their distance
    to about 2 asinh(eps sinh r).  The floor, 2 asinh(8 eps sqrt(cosh r_a cosh
    r_b)), is never below _DEGENERATE; it passes it near r = 15.5.
    """
    floor = 2.0 * np.arcsinh(_FLOOR_EPS * np.sqrt(ca[..., -1]) * np.sqrt(cb[..., -1]))
    return np.any(rho < np.maximum(floor, _DEGENERATE))


def exp_map(base, sigma, rho):
    """Follow the geodesic from ``base`` in unit direction ``sigma`` for length ``rho``.

    Closed form: cosh(rho) * base + sinh(rho) * sigma, for rho in [0, MAX_RADIUS].
    ``sigma`` must be a unit tangent vector at ``base``, both up to the roundoff of
    the product tested.
    """
    rho_arr = _nonnegative("rho", rho, high=MAX_RADIUS)
    cb, cs = _coords(base), _coords(sigma)
    _check_on_sheet(cb)
    if np.any(np.abs(minkowski_product(cs, cs) - 1.0) > _REL_TOL * _roundoff_scale(cs, cs)):
        raise ValueError("sigma must have unit Minkowski norm")
    # project_to_hyperboloid below would hide a sigma that is not tangent at base
    ip = np.abs(minkowski_product(cb, cs))
    if np.any(ip > _REL_TOL * _roundoff_scale(cb, cs)):
        raise ValueError(f"sigma is not tangent at base: |<base,sigma>| = {np.max(ip):.3e}")
    out = np.cosh(rho_arr)[..., None] * cb + np.sinh(rho_arr)[..., None] * cs
    out = project_to_hyperboloid(out)
    if isinstance(base, HPoint) and out.ndim == 1:
        return HPoint(out, base.dim)
    return out


def log_map(base, target):
    """Inverse of :func:`exp_map`: unit initial direction and distance to ``target``.

    Returns ``(direction, rho)``.  Requires the points to be farther apart
    than 1e-8 and than the floor of :func:`_too_close`, since coincident points
    define no direction.
    """
    cb, ct = _coords(base), _coords(target)
    rho = distance(cb, ct)
    if _too_close(cb, ct, rho):
        raise ValueError("points are too close to define a direction")
    u = (ct - np.cosh(rho)[..., None] * cb) / np.sinh(rho)[..., None]
    # tangent by construction: <base, u> = 0 fixes the time-like part
    u[..., -1] = np.sum(cb[..., :-1] * u[..., :-1], axis=-1) / cb[..., -1]
    # the spatial part carries roundoff eps |base| / rho; where that takes
    # <u, u> past exp_map's unit-norm test, u is rescaled to unit norm.  A
    # product within the test is left alone: at a far base its own roundoff,
    # eps times the scale, would move the geodesic's far end
    norm2 = minkowski_product(u, u)
    off = np.abs(norm2 - 1.0) > _REL_TOL * _roundoff_scale(u, u)
    u /= np.sqrt(np.where(off, norm2, 1.0))[..., None]
    if isinstance(base, HPoint) and u.ndim == 1:
        return TangentVec(base, u), float(rho)
    return u, rho


def _logsinh(x):
    """log sinh(x) for x >= 0 (-inf at 0).

    Direct below 20; above, log sinh x = x - log 2 + log1p(-e^{-2x}), whose
    last term (< 5e-18) is far below half an ulp of the result and is dropped.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(x < 20.0, np.log(np.sinh(np.minimum(x, 20.0))),
                        x - math.log(2.0))


def _half_angle(side_a, side_b, side_c):
    """The angle opposite ``side_a`` in the triangle with these sides, by

        tan^2(A/2) = sinh(s-b) sinh(s-c) / (sinh(s) sinh(s-a)),

    s being the semiperimeter.  All factors are nonnegative, so the formula
    stays accurate for nearly collinear triangles, where inner-product-based
    angles lose the small angle to cancellation.
    """
    s = 0.5 * (side_a + side_b + side_c)
    # clamp tiny negatives from roundoff in the semiperimeter differences
    log_tan_sq = (_logsinh(np.maximum(s - side_b, 0.0)) + _logsinh(np.maximum(s - side_c, 0.0))
                  - _logsinh(s) - _logsinh(np.maximum(s - side_a, 0.0)))
    with np.errstate(over="ignore"):
        ang = 2.0 * np.arctan(np.exp(0.5 * log_tan_sq))
    return ang if ang.ndim else float(ang)


def angle_at(vertex, p, q):
    """Angle in [0, pi] at ``vertex`` between the geodesics toward ``p`` and ``q``,
    from the three sides by :func:`_half_angle`; it agrees with the
    log-map/Riemannian-inner-product definition wherever both are well conditioned.
    """
    cv, cp, cq = _coords(vertex), _coords(p), _coords(q)
    side_b, side_c = distance(cv, cq), distance(cv, cp)
    if _too_close(cv, cq, side_b) or _too_close(cv, cp, side_c):
        raise ValueError("degenerate vertex: endpoint coincides with the vertex")
    return _half_angle(distance(cp, cq), side_b, side_c)


def triangle_deficit(a_vertex, b_vertex, c_vertex):
    """Reverse-triangle data at ``a_vertex``.

    With side a opposite ``a_vertex`` (= dist(B, C)) and b, c the sides
    adjacent to it, returns ``deficit = b + c - a`` together with the
    negative-curvature bound ``log(2 / (1 - cos A))``, A being the angle at
    ``a_vertex``.  The hyperbolic reverse triangle inequality guarantees
    0 <= deficit <= bound.  A nearly zero angle makes the bound overflow; it
    is then reported as +inf rather than raising.
    """
    ca, cb, cc = _coords(a_vertex), _coords(b_vertex), _coords(c_vertex)
    side_a, side_b, side_c = distance(cb, cc), distance(ca, cc), distance(ca, cb)
    if _too_close(cb, cc, side_a) or _too_close(ca, cc, side_b) or _too_close(ca, cb, side_c):
        raise ValueError("triangle vertices must be pairwise distinct")
    ang = _half_angle(side_a, side_b, side_c)
    with np.errstate(divide="ignore"):
        # log(2/(1-cos A)) = log 2 - log1p(-cos A); -> +inf as A -> 0
        bound = math.log(2.0) - np.log1p(-np.cos(ang))
    return {"deficit": side_b + side_c - side_a, "bound": bound, "angle": ang}


@dataclass(frozen=True)
class SphericalCap:
    """A cap {u in S^{d-1} : angle(u, axis) <= half_angle} on the unit tangent
    sphere at the origin (directions are spatial d-vectors)."""

    axis: np.ndarray
    half_angle: float

    def __post_init__(self):
        # an empty cap would leave the rejection loop in sample() without an end
        _positive("half_angle", self.half_angle, high=math.pi)
        if not abs(np.linalg.norm(self.axis) - 1.0) <= 1e-12:
            raise ValueError(f"axis must be a unit vector, got {self.axis}")

    def contains(self, direction):
        u = np.asarray(direction, dtype=float)
        u = u / np.linalg.norm(u, axis=-1, keepdims=True)
        c = np.clip(u @ self.axis, -1.0, 1.0)
        return np.arccos(c) <= self.half_angle + 1e-12

    def sample(self, rng, size=None):
        """Uniform directions restricted to the cap (rejection from the sphere)."""
        n = 1 if size is None else _count("size", size, 0)
        d = self.axis.shape[0]
        out = np.empty((n, d))
        filled = 0
        while filled < n:
            block = max(64, int((n - filled) / max(self._fraction(), 1e-3)))
            g = random_directions(block, d, rng)
            keep = g[self.contains(g)]
            take = min(len(keep), n - filled)
            out[filled:filled + take] = keep[:take]
            filled += take
        return out[0] if size is None else out

    def _fraction(self):
        # crude lower bound on the cap's spherical fraction, for block sizing
        return (1.0 - math.cos(self.half_angle)) / 2.0


def cone_sets(d):
    """Two opposite caps of half-angle pi/8 about +/- e1 on the tangent sphere at o.

    Any direction in A and any direction in B subtend an angle of at least
    3*pi/4 > pi/2, which forces dist(y, z) >= max(dist(y, o), dist(z, o)) for
    points y, z with polar directions in A and B respectively.
    """
    _count("d", d, 2)
    e1 = np.zeros(d)
    e1[0] = 1.0
    half = math.pi / 8.0
    return {
        "A": SphericalCap(e1, half),
        "B": SphericalCap(-e1, half),
        "min_pair_angle": math.pi - 2 * half,
    }


def transport_from_origin(base_coords, spatial):
    """Parallel-transport tangent vectors from o to ``base`` along the connecting
    geodesic.

    ``spatial`` holds the first d components of vectors in T_o (time component
    zero).  The transport is a linear isometry, so isotropic Gaussians and
    uniform directions at o stay isotropic/uniform at the base point.
    Broadcasts over leading axes.
    """
    base_coords = np.asarray(base_coords, dtype=float)
    _check_on_sheet(base_coords)
    spatial = np.asarray(spatial, dtype=float)
    d = base_coords.shape[-1] - 1
    s = np.sum(spatial * base_coords[..., :d], axis=-1)
    coef = s / (1.0 + base_coords[..., d])
    out = np.empty(np.broadcast_shapes(spatial.shape[:-1], base_coords.shape[:-1]) + (d + 1,))
    out[..., :d] = spatial + coef[..., None] * base_coords[..., :d]
    out[..., d] = coef * (base_coords[..., d] + 1.0)
    return out


def uniform_sphere_direction(base, rng):
    """A uniformly distributed unit tangent vector at ``base``.

    Draws a uniform direction on T_o, then parallel-transports it to the
    base point; rotation invariance about the base is exact.
    """
    cb = _coords(base)
    v = transport_from_origin(cb, random_directions(1, cb.shape[-1] - 1, rng)[0])
    if isinstance(base, HPoint):
        return TangentVec(base, v)
    return v


def points_from_polar(rho, directions):
    """Points exp_o(rho * sigma) from polar data at the origin (batched).

    ``rho``: radii (n,), ``directions``: unit spatial vectors (n, d).
    """
    rho = np.asarray(rho, dtype=float)
    directions = np.asarray(directions, dtype=float)
    d = directions.shape[-1]
    out = np.empty(rho.shape + (d + 1,))
    out[..., :d] = np.sinh(rho)[..., None] * directions
    out[..., d] = np.cosh(rho)
    return out


def random_directions(n, d, rng):
    """Uniform directions on S^{d-1} (spatial d-vectors)."""
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def random_points(n, d, rng, max_radius=30.0):
    """Points with uniform radius in [0, max_radius) and uniform direction; (n, d+1)."""
    rho = rng.uniform(0.0, max_radius, n)
    return points_from_polar(rho, random_directions(n, d, rng))
