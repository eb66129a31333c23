"""Hyperbolic Brownian motion on the hyperboloid, and its path diagnostics.

Generator convention
--------------------
The diffusion simulated here has generator Delta (the full Laplace-Beltrami
operator, not Delta/2).  Consequently the radial process from any fixed point
drifts like (d-1)*t with fluctuations of variance 2*t, and the quadratic
variation of each tangential coordinate is 2*dt.  Every numeric target in the
test-suite depends on this single convention.

Two step schemes are provided:

* ``embedded-sde``   Euler step X <- X + sqrt(2 dt) V + d * X * dt, where V is
  a standard Gaussian on the tangent space at X (an isotropic d-dimensional
  Gaussian at the origin, parallel-transported to X), followed by projection
  back onto the hyperboloid.  The drift term cancels the mean constraint
  violation, leaving the projection O(dt^2).
* ``geodesic-walk``  X <- exp_X(R * U) with U a uniform unit tangent direction
  and R = sqrt(2 d dt) * |N(0,1)|, matching the second moment of the tangent
  Gaussian increment.  Exactly on-manifold by construction.

Driver
------
Every ensemble runs through one loop, :func:`_drive`: it steps the rows of
an (N, .) state in place, row i on its own stream, and hands the state to an
observer at step 0 and after every step.  A pair ensemble is P rows of B
stacked over the P rows of B~, stepped together.  The Euclidean comparison
walk uses the same loop with an internal flat kernel, x += sqrt(2 dt) g, on
(N, d) rows; it is not a sampler scheme.

Reproducibility
---------------
Every path owns a PCG64 stream seeded through ``SeedSequence`` from the key
(master seed, path index, role tag) -- see :func:`path_stream` -- so
ensembles are reproducible and independent of batch sizes, worker counts,
and execution order.  Identical configs produce bit-identical output.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import _coords

_SCHEMES = ("embedded-sde", "geodesic-walk")
MAX_STEPS = 10**8

# role tags for the per-path substreams
TAG_PRIMARY = 0
TAG_SECONDARY = 1
TAG_TUPLES = 2
TAG_CHAIN = 5


@dataclass
class SamplerConfig:
    """Simulation parameters shared by all path-generating operations."""

    dim: int = 3
    step: float = 1e-3
    scheme: str = "embedded-sde"
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if not 0 < self.step <= 0.1:
            raise ValueError("step must lie in (0, 0.1]")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class BrownianPath:
    """One trajectory sampled on a uniform grid (coarse storage grid).

    ``points`` rows satisfy the hyperboloid constraint; ``times`` starts at 0
    and ends at the requested horizon.
    """

    times: np.ndarray
    points: np.ndarray
    seed: int

    @property
    def dim(self):
        return self.points.shape[1] - 1


def path_stream(seed, path_index, tag=TAG_PRIMARY):
    """Independent stream for one path, keyed by (master seed, path index, role tag).

    The key goes through SeedSequence, so streams are reproducible and
    order-independent: an ensemble draws the same numbers regardless of batch
    sizes, worker counts, or execution order.
    """
    ss = np.random.SeedSequence((int(seed) & (2**64 - 1), int(path_index), int(tag)))
    return np.random.Generator(np.random.PCG64(ss))


def _schedule(t, step):
    """Number of steps, effective dt, stored step indices and stored times.

    The horizon is hit exactly (dt is rounded so n * dt = t).  Points are
    stored every m-th step with the stored spacing capped at
    min(t/128, 0.05): the relative cap bounds memory, the absolute cap keeps
    the trapezoid bias of sharply decaying path integrands from growing with
    t.  The bias still differs between horizons below 6.4 (spacing t/128)
    and above (0.05): for truncated-power alpha = 2 it is +4.0% at t = 5 and
    +5.6% at t = 10, from the first panels near s = 0.
    """
    if not 0 < t < np.inf:  # also rejects NaN
        raise ValueError(f"t must be positive and finite, got {float(t)}")
    n_steps = max(1, int(round(t / step)))
    if n_steps > MAX_STEPS:
        raise ValueError(f"t/step = {n_steps} exceeds the {MAX_STEPS} step budget")
    dt = t / n_steps
    m = max(1, min(n_steps // 128, int(0.05 / dt)))
    stored = np.arange(0, n_steps + 1, m)
    if stored[-1] != n_steps:
        stored = np.append(stored, n_steps)
    return n_steps, dt, stored, stored * dt


def _chunk_size(n_paths, dim, n_steps):
    """Steps per noise chunk, sized to keep chunk buffers around ~100 MB."""
    per_step = max(1, n_paths * (dim + 1))
    return int(np.clip(12_000_000 // per_step, 16, n_steps))


def _step_embedded(x, g, dt, d, root2dt, tmp):
    """One Euler step for the whole batch; g is (P, d) spatial Gaussians at o.

    Only the spatial block evolves explicitly (tangent noise, transported from
    the origin, plus the constraint drift d*X*dt); the time-like coordinate is
    then re-derived from the hyperboloid constraint, which is exactly the
    renormalize-every-step policy.
    """
    xs = x[:, :d]
    s = np.einsum("pi,pi->p", g, xs)
    s /= 1.0 + x[:, d]
    np.multiply(s[:, None], xs, out=tmp)
    tmp += g
    tmp *= root2dt
    xs *= 1.0 + d * dt
    xs += tmp
    _reproject(x, d)


def _step_geodesic(x, g, mag, d, scale, tmp):
    """One geodesic step: uniform direction from g, radial length scale*|mag|."""
    xs = x[:, :d]
    norm = np.sqrt(np.einsum("pi,pi->p", g, g))
    np.maximum(norm, 1e-300, out=norm)
    u = g / norm[:, None]
    s = np.einsum("pi,pi->p", u, xs)
    s /= 1.0 + x[:, d]
    r = scale * np.abs(mag)
    ch, sh = np.cosh(r), np.sinh(r)
    np.multiply(s[:, None], xs, out=tmp)
    tmp += u
    tmp *= sh[:, None]
    xs *= ch[:, None]
    xs += tmp
    _reproject(x, d)


def _reproject(x, d):
    """Set the time-like coordinate from the constraint <z,z> = -1.

    The direct square-sum overflows only beyond rho ~ 354 (spatial entries
    ~1e154); the rescaled projection covers that regime.
    """
    xs = x[:, :d]
    sq = np.einsum("pi,pi->p", xs, xs)
    if np.all(np.isfinite(sq)):
        np.sqrt(sq, out=sq)
        np.hypot(1.0, sq, out=x[:, d])
    else:
        x[:] = geometry.project_to_hyperboloid(x)


def _step_flat(x, g, root2dt):
    """One flat Brownian step (generator Delta, as above): x += sqrt(2 dt) g."""
    x += root2dt * g


def _batches(cfg, n_paths, first_index, tags):
    """Consecutive batches of at most 2048 paths as (lo, hi, streams).

    A batch has one stream per (tag, path), ordered tag by tag: with two
    tags, rows [0, P) are the primary paths and rows [P, 2P) their partners.
    """
    size = 2048  # bounds the state and noise buffers of one batch
    for lo in range(0, n_paths, size):
        hi = min(lo + size, n_paths)
        yield lo, hi, [path_stream(cfg.seed, i, tag) for tag in tags
                       for i in range(first_index + lo, first_index + hi)]


def _at_slots(stored, record):
    """An observer that calls record(slot, x) at the stored step indices only."""
    slot_of = {k: slot for slot, k in enumerate(stored.tolist())}

    def observe(k, x):
        if k in slot_of:
            record(slot_of[k], x)
    return observe


def _drive(x, gens, t, cfg, observe, kernel=None):
    """Step every row of the state x in place to horizon t; row i draws from gens[i].

    ``kernel`` is ``cfg.scheme`` unless given; "flat" steps Euclidean rows
    (x is then (N, d), not (N, d+1)).  ``observe(k, x)`` is called at k = 0
    and after every step k = 1..n_steps.
    """
    n_steps, dt, _, _ = _schedule(t, cfg.step)
    d = cfg.dim
    kernel = kernel or cfg.scheme
    root2dt = np.sqrt(2.0 * dt)
    geo_scale = np.sqrt(2.0 * d * dt)
    tmp = np.empty((len(gens), d))
    step = {
        "embedded-sde": lambda g: _step_embedded(x, g, dt, d, root2dt, tmp),
        "geodesic-walk": lambda g: _step_geodesic(x, g[:, :d], g[:, d], d, geo_scale, tmp),
        "flat": lambda g: _step_flat(x, g, root2dt),
    }[kernel]
    ncols = d + 1 if kernel == "geodesic-walk" else d
    chunk = _chunk_size(len(gens), d, n_steps)
    buf = np.empty((len(gens), chunk, ncols))
    observe(0, x)
    for pos in range(0, n_steps, chunk):
        noise = buf[:, :min(chunk, n_steps - pos)]
        for i, gen in enumerate(gens):
            gen.standard_normal(out=noise[i])
        for j in range(noise.shape[1]):
            step(noise[:, j])
            observe(pos + j + 1, x)


def _sample(x0, t, cfg, path_index, tags):
    """One stored path per tag from x0, all driven on the streams of path_index."""
    _, _, stored, times = _schedule(t, cfg.step)
    coords = _coords(x0)
    points = np.empty((len(tags), len(stored), coords.shape[0]))

    def record(slot, x):
        points[:, slot] = x

    gens = [path_stream(cfg.seed, path_index, tag) for tag in tags]
    _drive(np.tile(coords, (len(tags), 1)), gens, t, cfg, _at_slots(stored, record))
    return [BrownianPath(times, p, cfg.seed) for p in points]


def sample_path(x0, t, cfg, path_index=0):
    """One hyperbolic Brownian path from x0 over [0, t], stored coarsely."""
    return _sample(x0, t, cfg, path_index, (TAG_PRIMARY,))[0]


def sample_pair(x0, t, cfg, path_index=0):
    """Two independent paths from the same start (independent substreams)."""
    return tuple(_sample(x0, t, cfg, path_index, (TAG_PRIMARY, TAG_SECONDARY)))


def endpoints(x0, t, cfg, n_paths, tag=TAG_PRIMARY, first_index=0, starts=None):
    """Terminal points of n_paths independent paths; (n_paths, d+1).

    ``starts`` optionally gives a per-path initial condition array (used for
    chained/restarted ensembles); otherwise every path starts at x0.
    """
    out = np.tile(_coords(x0), (n_paths, 1)) if starts is None \
        else np.array(starts[:n_paths], dtype=float)
    for lo, hi, gens in _batches(cfg, n_paths, first_index, (tag,)):
        _drive(out[lo:hi], gens, t, cfg, lambda k, x: None)
    return out


def endpoint_radii(x0, t, cfg, n_paths, tag=TAG_PRIMARY, first_index=0):
    """Distances rho(x0, B_t) across an ensemble; (n_paths,)."""
    pts = endpoints(x0, t, cfg, n_paths, tag=tag, first_index=first_index)
    return geometry.distance(np.asarray(_coords(x0)), pts)


def _stored_union(t, step, horizons):
    """Stored step indices and times of horizon t, joined with the stored
    indices of every shorter horizon that shares its dt.

    A path to a shorter horizon with the same dt is a prefix of the path to
    t, so one simulation to t serves them all.
    """
    _, dt, stored, _ = _schedule(t, step)
    for h in horizons:
        _, dt_h, stored_h, _ = _schedule(h, step)
        if h <= t and dt_h == dt:
            stored = np.union1d(stored, stored_h)
    return stored, stored * dt


def pair_profile_matrix(x0, y0, t, cfg, n_paths, profile, first_index=0, horizons=()):
    """f(B_s, B_s~) on the stored grid for n_paths independent pairs.

    Returns (times (m,), F (n_paths, m)) where F[i, j] = profile(rho) for the
    i-th pair at stored time j.  B starts at x0, B~ at y0.  The grid is
    horizon t's, joined with that of each of ``horizons`` that shares t's dt
    (see :func:`_stored_union`).
    """
    return _pair_profile(np.stack([_coords(x0), _coords(y0)]), t, cfg, n_paths,
                         profile, first_index, horizons=horizons)


def _pair_profile(starts, t, cfg, n_paths, profile, first_index, kernel=None,
                  horizons=()):
    """:func:`pair_profile_matrix` from starts = (B_0, B~_0), stepped by ``kernel``.

    With the "flat" kernel the rows are Euclidean and rho is their distance.
    """
    stored, times = _stored_union(t, cfg.step, horizons)
    F = np.empty((n_paths, len(stored)))
    for lo, hi, gens in _batches(cfg, n_paths, first_index, (TAG_PRIMARY, TAG_SECONDARY)):
        P = hi - lo

        def record(slot, z, rows=F[lo:hi]):
            x, y = z[:P], z[P:]
            if kernel == "flat":
                rho = np.linalg.norm(x - y, axis=1)
            else:
                minus_ip = (x[:, -1] * y[:, -1]
                            - np.einsum("pi,pi->p", x[:, :-1], y[:, :-1]))
                rho = np.arccosh(np.maximum(minus_ip, 1.0))
            rows[:, slot] = profile(rho)

        _drive(np.repeat(starts, P, axis=0), gens, t, cfg, _at_slots(stored, record),
               kernel)
    return times, F


def exit_times(x0, r, t_max, cfg, n_paths, tag=TAG_PRIMARY, first_index=0):
    """First times the distance from x0 exceeds r, censored at t_max (inf if none).

    Exits are detected on the simulation grid (every step).
    """
    coords = _coords(x0)
    cosh_r = np.cosh(r)
    dt = _schedule(t_max, cfg.step)[1]
    out = np.full(n_paths, np.inf)
    for lo, hi, gens in _batches(cfg, n_paths, first_index, (tag,)):

        def observe(k, x, block=out[lo:hi]):
            if k == 0:  # the start is at distance 0 <= r, whatever rounding says
                return
            minus_ip = x[:, -1] * coords[-1] - x[:, :-1] @ coords[:-1]
            block[(minus_ip > cosh_r) & ~np.isfinite(block)] = k * dt

        _drive(np.tile(coords, (hi - lo, 1)), gens, t_max, cfg, observe)
    return out


def radial_statistics(path, x0):
    """Normalized radial fluctuation xi_t = (rho(x0, B_t) - (d-1) t) / sqrt(t)."""
    t = float(path.times[-1])
    if t < 1.0:
        raise ValueError("endpoint time must be at least 1")
    rho = float(geometry.distance(_coords(x0), path.points[-1]))
    d = path.dim
    return {"xi_t": (rho - (d - 1) * t) / np.sqrt(t)}


def event_indicators(pair, x0, delta, s, y0=None):
    """Localization event indicators at time s for a pair of paths.

    The single-angle event requires both normalized radial fluctuations to
    stay above -delta*sqrt(s) and the angle separation penalty
    log(2 / (1 - cos angle(B_s, x0, B~_s))) to stay below delta*s.

    With distinct starts (y0 given) the two-angle variant is evaluated as
    well, using the angles (B_s, x0, y0) and (B_s, y0, B~_s); with a common
    start the two events coincide (the first angle degenerates).  Angle
    degeneracies make the event fail (conservative).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    pb, pbt = pair
    if not 0 < s <= pb.times[-1] + 1e-12:
        raise ValueError("s must lie in (0, horizon]")
    j = int(np.argmin(np.abs(pb.times - s)))
    s_used = float(pb.times[j])
    cx = _coords(x0)
    cy = cx if y0 is None else _coords(y0)
    d = pb.dim
    b_s, bt_s = pb.points[j], pbt.points[j]

    xi = (float(geometry.distance(cx, b_s)) - (d - 1) * s_used) / np.sqrt(s_used)
    eta = (float(geometry.distance(cy, bt_s)) - (d - 1) * s_used) / np.sqrt(s_used)
    radial_ok = min(xi, eta) > -delta * np.sqrt(s_used)

    def penalty(vertex, p, q):
        try:
            ang = float(geometry.angle_at(vertex, p, q))
        except ValueError:
            return np.inf
        if 1.0 - np.cos(ang) <= 0.0:
            return np.inf
        return float(np.log(2.0) - np.log1p(-np.cos(ang)))

    pen_single = penalty(cx, b_s, bt_s)
    a_event = radial_ok and pen_single <= delta * s_used

    if y0 is None:
        m_event = a_event
    else:
        pen_phi = penalty(cx, b_s, cy)
        pen_psi = penalty(cy, b_s, bt_s)
        m_event = radial_ok and max(pen_phi, pen_psi) <= delta * s_used

    return {"M_s": bool(m_event), "A_s": bool(a_event),
            "xi_s": xi, "eta_s": eta, "angle_penalty": pen_single}


def dump_paths_csv(paths, file):
    """Write paths as CSV rows (path_id, t, z1..z_{d+1})."""
    own = isinstance(file, str)
    fh = open(file, "w") if own else file
    try:
        d = paths[0].dim
        cols = ",".join(f"z{k + 1}" for k in range(d + 1))
        fh.write(f"path_id,t,{cols}\n")
        for pid, path in enumerate(paths):
            for tt, row in zip(path.times, path.points):
                vals = ",".join(repr(float(v)) for v in row)
                fh.write(f"{pid},{float(tt)!r},{vals}\n")
    finally:
        if own:
            fh.close()
