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
base goes unseen past rho ~ 12.  distance(p, p) is 0, and nearby points at rho
from o are resolved to about eps cosh^2 rho.
"""

import math
from dataclasses import dataclass

import numpy as np

# cosh overflows double precision near 710; stay a little below
MAX_RADIUS = 700.0
_REL_TOL = 1e-10  # sized so that log_map directions at far bases pass

_DEGENERATE = 1e-8  # two points closer than this cannot define a direction


def minkowski_product(a, b):
    """Minkowski inner product with signature (+,...,+,-), batched on the last axis."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]} coordinates"
        )
    return np.sum(a[..., :-1] * b[..., :-1], axis=-1) - a[..., -1] * b[..., -1]


def _roundoff_scale(a, b):
    """max(1, |a_{d+1} b_{d+1}| + sum |a_i b_i|), batched on the last axis."""
    return np.maximum(np.sum(np.abs(a * b), axis=-1), 1.0)


def project_to_hyperboloid(z):
    """Rescale the time-like component so that <z,z> = -1 exactly.

    Overflow-safe for spatial norms up to ~1e300: hypot avoids squaring the
    norm, and the norm itself is computed with a max-rescaling.
    """
    z = np.array(z, dtype=float)
    spatial = z[..., :-1]
    scale = np.maximum(np.max(np.abs(spatial), axis=-1, keepdims=True), 1.0)
    norm = np.sqrt(np.sum((spatial / scale) ** 2, axis=-1)) * scale[..., 0]
    z[..., -1] = np.hypot(1.0, norm)
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
    point of the upper sheet, on the hyperboloid up to roundoff."""
    # NaN fails every comparison below, so it has to be caught here
    if not np.all(np.isfinite(coords)):
        raise ValueError(f"coordinates must be finite, got {coords}")
    if np.any(coords[..., -1] <= 0):
        raise ValueError("time-like component must be positive (upper sheet)")
    q = np.asarray(minkowski_product(coords, coords))
    off = np.abs(q + 1.0) > _REL_TOL * _roundoff_scale(coords, coords)
    if np.any(off):
        raise ValueError(f"point is off the hyperboloid: <z,z> = {q[off][0]:.3e}")


@dataclass
class HPoint:
    """A point on the upper sheet of the unit hyperboloid in R^{d+1}."""

    coords: np.ndarray
    dim: int

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
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
    z = np.zeros(d + 1)
    z[-1] = 1.0
    return HPoint(z, d)


def distance(a, b):
    """Geodesic distance: arccosh(-<a,b>), or 2 asinh(sqrt(<a-b, a-b>) / 2) where
    that chord form sums the smaller terms, as for nearby points (0 for a = b)."""
    ca, cb = _coords(a), _coords(b)
    m, scale = -minkowski_product(ca, cb), _roundoff_scale(ca, cb)
    if np.any(m < 1.0 - _REL_TOL * scale):
        raise ValueError(f"points off the hyperboloid: -<a,b> = {float(np.min(m))!r} < 1")
    chord = ca - cb
    c = np.maximum(minkowski_product(chord, chord), 0.0)
    return np.where(_roundoff_scale(chord, chord) <= scale, 2.0 * np.arcsinh(0.5 * np.sqrt(c)),
                    np.arccosh(np.maximum(m, 1.0)))[()]


def exp_map(base, sigma, rho):
    """Follow the geodesic from ``base`` in unit direction ``sigma`` for length ``rho``.

    Closed form: cosh(rho) * base + sinh(rho) * sigma.  ``sigma`` must be a unit
    tangent vector at ``base``, both up to the roundoff of the product tested.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0):
        raise ValueError("rho must be nonnegative")
    if np.any(rho_arr > MAX_RADIUS):
        raise ValueError(f"rho exceeds the overflow ceiling {MAX_RADIUS}")
    cb, cs = _coords(base), _coords(sigma)
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

    Returns ``(direction, rho)``.  Requires the points to be at least
    1e-8 apart, since coincident points define no direction.
    """
    cb, ct = _coords(base), _coords(target)
    rho = distance(cb, ct)
    if np.any(rho < _DEGENERATE):
        raise ValueError("points are too close to define a direction")
    u = (ct - np.cosh(rho)[..., None] * cb) / np.sinh(rho)[..., None]
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


def angle_at(vertex, p, q):
    """Angle in [0, pi] at ``vertex`` between the geodesics toward ``p`` and ``q``.

    Evaluated through the hyperbolic half-angle identity

        tan^2(A/2) = sinh(s-b) sinh(s-c) / (sinh(s) sinh(s-a)),

    with a = dist(p, q) opposite the vertex and s the semiperimeter.  All
    factors are nonnegative, so the formula stays accurate for nearly
    collinear triangles where inner-product-based angles lose the small
    angle to cancellation; it agrees with the log-map/Riemannian-inner-product
    definition wherever both are well conditioned.
    """
    cv, cp, cq = _coords(vertex), _coords(p), _coords(q)
    side_a = distance(cp, cq)
    side_b = distance(cv, cq)
    side_c = distance(cv, cp)
    if np.any(side_b < _DEGENERATE) or np.any(side_c < _DEGENERATE):
        raise ValueError("degenerate vertex: endpoint coincides with the vertex")
    s = 0.5 * (side_a + side_b + side_c)
    # clamp tiny negatives from roundoff in the semiperimeter differences
    log_tan_sq = (_logsinh(np.maximum(s - side_b, 0.0))
                  + _logsinh(np.maximum(s - side_c, 0.0))
                  - _logsinh(s)
                  - _logsinh(np.maximum(s - side_a, 0.0)))
    with np.errstate(over="ignore"):
        ang = 2.0 * np.arctan(np.exp(0.5 * log_tan_sq))
    return ang if ang.ndim else float(ang)


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
    side_a = distance(cb, cc)
    side_b = distance(ca, cc)
    side_c = distance(ca, cb)
    if np.any(np.minimum(np.minimum(side_a, side_b), side_c) < _DEGENERATE):
        raise ValueError("triangle vertices must be pairwise distinct")
    ang = angle_at(ca, cb, cc)
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
        if not 0 < self.half_angle <= math.pi:  # also rejects NaN
            raise ValueError(f"half_angle must lie in (0, pi], got {self.half_angle}")
        if not abs(np.linalg.norm(self.axis) - 1.0) <= 1e-12:
            raise ValueError(f"axis must be a unit vector, got {self.axis}")

    def contains(self, direction):
        u = np.asarray(direction, dtype=float)
        u = u / np.linalg.norm(u, axis=-1, keepdims=True)
        c = np.clip(u @ self.axis, -1.0, 1.0)
        return np.arccos(c) <= self.half_angle + 1e-12

    def sample(self, rng, size=None):
        """Uniform directions restricted to the cap (rejection from the sphere)."""
        n = 1 if size is None else int(size)
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
    if d < 2:
        raise ValueError("d must be >= 2")
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
