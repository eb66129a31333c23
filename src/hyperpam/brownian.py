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
* ``geodesic-walk``  X <- exp_X(sqrt(2 dt) V) on the same tangent Gaussian V:
  direction V/|V| and length sqrt(2 dt) |V|, so E|step|^2 = 2 d dt.  Exactly
  on-manifold by construction.

Both schemes draw the d normals of V per step and per path.

Driver
------
Every ensemble runs through one loop, :func:`_drive`: it steps a (d+1, N)
struct-of-arrays state in place, one coordinate per row and one path per
column, column i on its own stream, and calls a recorder at the stored step
indices only.  Both schemes move every column along a transported
tangent direction in one step function, :func:`_step`, whose d-term dot
products multiply into one (d, N) scratch array of the step and sum its rows
in index order, so a step allocates no temporary per row.  A pair ensemble
is the P columns of B followed by the P columns of B~, stepped together.
Ensembles run in near-equal batches of at most ``_MAX_COLUMNS`` (4096) state
columns, paths times role tags.  Each stream refills about
``_REFILL_NORMALS`` (2048) normals at a time into its own slab of the noise
buffer, in draw order, so the buffer is at most 4096 x 2048 doubles (64 MiB)
and shrinks with the batch; the loop reads it through a small step block,
filled by one transposing copy per normal (no staging array), so a step's
noise is contiguous too.  The Euclidean comparison walk
uses the same loop with an internal flat kernel, x += sqrt(2 dt) g, on a
(d, N) state; it is not a sampler scheme.  Every kernel draws d normals per
step, so one pass steps any set of states on one noise block: flat pairs
requested with hyperbolic pairs are stepped in the hyperbolic pass and read
exactly the normals a flat walk alone would draw, so every normal is
generated once, under either scheme.

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
_BLOCK_DOUBLES = 1 << 17  # 1 MB of noise per transposed block
_MAX_COLUMNS = 4096  # state columns (paths x role tags) per driven batch
_REFILL_NORMALS = 2048  # normals each stream draws per noise refill

# role tags for the per-path substreams
TAG_PRIMARY = 0
TAG_SECONDARY = 1
TAG_CHAIN = 5


@dataclass
class SamplerConfig:
    """Simulation parameters shared by all path-generating operations.

    The fields are checked in order; the first one refused raises a
    :class:`geometry.ParameterError` that names it.
    """

    dim: int = 3
    step: float = 1e-3
    scheme: str = "embedded-sde"
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.dim, (int, np.integer)) and self.dim >= 2):
            raise geometry.ParameterError("dim", "dim must be an integer >= 2")
        if not 0 < self.step <= 0.1:
            raise geometry.ParameterError("step", "step must lie in (0, 0.1]")
        if self.scheme not in _SCHEMES:
            raise geometry.ParameterError("scheme", f"unknown scheme {self.scheme!r}")
        if not _is_integer(self.seed):  # a float seed would draw int(seed)'s streams
            raise geometry.ParameterError("seed", f"seed must be an integer, got {self.seed!r}")


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


def _is_integer(n):
    """Whether n is an int or a numpy integer; a bool is not a count."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _check_n_paths(n_paths):
    """Refuse a path count that is not an integer >= 1."""
    if not (_is_integer(n_paths) and n_paths >= 1):
        raise ValueError(f"n_paths must be at least 1 and an integer, got {n_paths!r}")


def _start(x, cfg, name, n_rows=None):
    """The coordinates of x, exactly as given, once checked to be a point of
    H^cfg.dim (with ``n_rows``: an (n_rows, d+1) array of such points); else a
    ValueError naming ``name``.  An unchecked start of another dimension, or
    off the hyperboloid, runs on and gives wrong numbers."""
    shape = (cfg.dim + 1,) if n_rows is None else (n_rows, cfg.dim + 1)
    coords = _coords(x)
    try:
        if coords.shape != shape:
            raise ValueError(f"expected shape {shape}, got {coords.shape}")
        geometry._check_on_sheet(coords)
    except ValueError as exc:
        what = "a point" if n_rows is None else f"{n_rows} points"
        raise ValueError(f"{name} must be {what} of H^d for cfg.dim = {cfg.dim}: "
                         f"{exc}") from None
    return coords


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
    ratio = t / step  # inf at a subnormal step, which round() cannot take
    n_steps = max(1, int(round(ratio))) if ratio < 2 * MAX_STEPS else ratio
    if n_steps > MAX_STEPS:
        raise ValueError(f"t/step = {ratio:g} exceeds the {MAX_STEPS} step budget")
    dt = t / n_steps
    m = max(1, int(min(n_steps // 128, 0.05 / dt)))  # 0.05 / dt is inf at a subnormal dt
    stored = np.arange(0, n_steps + 1, m)
    if stored[-1] != n_steps:
        stored = np.append(stored, n_steps)
    return n_steps, dt, stored, stored * dt


def _chunk_size(d, n_steps):
    """Steps per noise refill: about _REFILL_NORMALS draws per stream, d per step.

    A refill is one ``standard_normal`` call per stream, whose fixed cost
    (about 1 us) is then a few percent of the draws; the (N, chunk, d) buffer
    is at most _MAX_COLUMNS x _REFILL_NORMALS doubles (64 MiB), less for
    narrower batches.
    """
    return int(np.clip(_REFILL_NORMALS // d, 16, n_steps))


def _dot(a, b, out=None, prod=None):
    """sum_i a[i] * b[i] over the leading axis of (d, N) rows, added in index order.

    The products go into ``prod``, a (d, N) scratch array (a new one if None),
    and the rows are summed into ``out``.  np.add.reduce adds the rows one
    after another over N >= 2 columns, but sums a single column pairwise from
    d = 8 on, so one column is added row by row.
    """
    prod = np.multiply(a, b, out=prod)
    if prod.shape[1] > 1:
        return np.add.reduce(prod, axis=0, out=out)
    if out is None:
        out = np.empty(1)
    out[...] = prod[0]
    for row in prod[1:]:
        out += row
    return out


def _step(x, v, a, b, d, s, tmp):
    """x[:d] <- b x[:d] + a T_x(v) in every column, then x[d] from the constraint.

    v (d, N) is tangent at o and T_x parallel-transports it to x; a and b are
    scalars or per-column (N,) arrays; s (N,) and tmp (d, N) are scratch.  The
    Euler step is (v, a, b) = (g, sqrt(2 dt), 1 + d dt), noise plus the
    constraint drift; the geodesic step is (g, sinh(r)/|g|, cosh r) with
    r = sqrt(2 dt) |g|.
    """
    xs = x[:d]
    _dot(v, xs, s, tmp)
    s /= 1.0 + x[d]
    np.multiply(s, xs, out=tmp)
    tmp += v
    tmp *= a
    xs *= b
    xs += tmp
    _reproject(x, d, tmp)


def _step_geodesic(x, g, d, root2dt, s, tmp):
    """One geodesic step along g (d, N): direction g/|g|, length sqrt(2 dt) |g|."""
    norm = np.sqrt(_dot(g, g, prod=tmp))
    r = root2dt * norm
    _step(x, g, np.sinh(r) / np.maximum(norm, 1e-300), np.cosh(r), d, s, tmp)


def _reproject(x, d, prod=None):
    """Set the time-like row x[d] = sqrt(1 + |x[:d]|^2) of the (d+1, N) state.

    The square-sum goes straight into x[d], its products into the (d, N)
    scratch ``prod``.  It overflows only beyond rho ~ 354 (spatial entries
    ~1e154); the rescaled projection, which reads x[:d] only, covers that
    regime.
    """
    sq = x[d]
    with np.errstate(over="ignore"):  # the fallback below handles it
        _dot(x[:d], x[:d], sq, prod)
    if np.isfinite(sq.max()):  # max propagates NaN
        sq += 1.0
        np.sqrt(sq, out=sq)
    else:
        x[:] = geometry.project_to_hyperboloid(x.T).T


def _batches(cfg, n_paths, first_index, tags):
    """Consecutive near-equal batches of paths as (lo, hi, streams).

    A batch drives at most _MAX_COLUMNS state columns (paths x tags), and
    the batch sizes differ by at most one path: 5000 walkers run as
    2 x 2500, not 4096 + 904.  A batch has one stream per (tag, path),
    ordered tag by tag: with two tags, streams (state columns) [0, P) drive
    the primary paths and [P, 2P) their partners.
    """
    per_batch = max(1, _MAX_COLUMNS // len(tags))
    n_batches = -(-n_paths // per_batch)
    for k in range(n_batches):
        lo, hi = k * n_paths // n_batches, (k + 1) * n_paths // n_batches
        yield lo, hi, [path_stream(cfg.seed, i, tag) for tag in tags
                       for i in range(first_index + lo, first_index + hi)]


# a walker past the overflow radius (~710) turns inf or NaN without a numpy
# warning: the estimators exclude its path, or refuse too many such paths
@np.errstate(over="ignore", invalid="ignore")
def _drive(states, gens, t, cfg, stored=(), record=None):
    """Step every state in place to horizon t on one noise; column i draws from gens[i].

    ``states`` maps a kernel -- ``cfg.scheme`` or "flat" -- to its state, a
    (d+1, N) array for a scheme and (d, N) Euclidean columns for "flat";
    every kernel reads the same d normals per step and column, unchanged.
    ``stored`` is a strictly increasing sequence of step indices in
    [0, n_steps], else a ValueError; ``record(slot)`` is called once the
    states have reached the slot-th of them (k = 0 is the start) and at no
    other step.

    Stream i fills its own (chunk, d) slab of the (N, chunk, d) noise buffer,
    in draw order.  The steps read that buffer through a (b, d, N) block of
    about 1 MB: every b steps, one transposing copy moves each stream's next
    b*d draws, one contiguous run per stream, into the step block, one copy
    per normal.  Reading noise[:, j] directly would touch a different page
    for every path at every step.  The kernels' d-term products go into one
    (d, N) scratch array, so a step allocates no temporary per row.
    """
    n_steps, dt, _, _ = _schedule(t, cfg.step)
    due_steps = np.asarray(stored)
    if len(due_steps) and (due_steps[0] < 0 or due_steps[-1] > n_steps
                           or np.any(np.diff(due_steps) <= 0)):
        raise ValueError(f"stored must be strictly increasing step indices in [0, {n_steps}]")
    d = cfg.dim
    n = len(gens)
    root2dt = np.sqrt(2.0 * dt)
    s, tmp = np.empty(n), np.empty((d, n))

    def stepper(kernel, x):
        return {
            "embedded-sde": lambda g: _step(x, g, root2dt, 1.0 + d * dt, d, s, tmp),
            "geodesic-walk": lambda g: _step_geodesic(x, g, d, root2dt, s, tmp),
            "flat": lambda g: np.add(x, root2dt * g, out=x),  # generator Delta, as above
        }[kernel]

    steps = [stepper(kernel, x) for kernel, x in states.items()]
    chunk = _chunk_size(d, n_steps)
    buf = np.empty((n, chunk, d))
    b = max(1, min(chunk, _BLOCK_DOUBLES // (d * n)))
    block = np.empty((b, d, n))
    marks = enumerate(due_steps.tolist())
    slot, due = next(marks, (None, None))
    if due == 0:
        record(slot)
        slot, due = next(marks, (None, None))
    for pos in range(0, n_steps, chunk):
        noise = buf[:, :min(chunk, n_steps - pos)]
        for i, gen in enumerate(gens):
            gen.standard_normal(out=noise[i])
        for j0 in range(0, noise.shape[1], b):
            nb = min(b, noise.shape[1] - j0)
            blk = block[:nb]
            blk.reshape(nb * d, n)[...] = noise[:, j0:j0 + nb].reshape(n, nb * d).T
            for k, g in enumerate(blk, pos + j0 + 1):
                for step in steps:
                    step(g)
                if k == due:
                    record(slot)
                    slot, due = next(marks, (None, None))


def _sample(x0, t, cfg, path_index, tags):
    """One stored path per tag from x0, all driven on the streams of path_index."""
    _, _, stored, times = _schedule(t, cfg.step)
    coords = _start(x0, cfg, "x0")
    points = np.empty((len(tags), len(stored), coords.shape[0]))

    x = np.tile(coords[:, None], len(tags))

    def record(slot):
        points[:, slot] = x.T

    gens = [path_stream(cfg.seed, path_index, tag) for tag in tags]
    _drive({cfg.scheme: x}, gens, t, cfg, stored, record)
    return [BrownianPath(times, p, cfg.seed) for p in points]


def sample_path(x0, t, cfg, path_index=0):
    """One hyperbolic Brownian path from x0 over [0, t], stored coarsely."""
    return _sample(x0, t, cfg, path_index, (TAG_PRIMARY,))[0]


def sample_pair(x0, t, cfg, path_index=0):
    """Two independent paths from the same start (independent substreams)."""
    return tuple(_sample(x0, t, cfg, path_index, (TAG_PRIMARY, TAG_SECONDARY)))


def endpoints(x0, t, cfg, n_paths, tag=TAG_PRIMARY, first_index=0, starts=None):
    """Terminal points of n_paths independent paths; (n_paths, d+1).

    ``starts`` optionally gives a per-path initial condition array, whose
    first n_paths rows are used (chained/restarted ensembles); otherwise every
    path starts at x0.
    """
    _check_n_paths(n_paths)
    out = np.tile(_start(x0, cfg, "x0"), (n_paths, 1)) if starts is None \
        else _start(np.array(starts[:n_paths], dtype=float), cfg, "starts", n_paths)
    for lo, hi, gens in _batches(cfg, n_paths, first_index, (tag,)):
        state = out[lo:hi].T.copy()
        _drive({cfg.scheme: state}, gens, t, cfg)
        out[lo:hi] = state.T
    return out


def endpoint_radii(x0, t, cfg, n_paths, tag=TAG_PRIMARY, first_index=0):
    """Distances rho(x0, B_t) across an ensemble; (n_paths,)."""
    pts = endpoints(x0, t, cfg, n_paths, tag=tag, first_index=first_index)
    return geometry.distance(np.asarray(_coords(x0)), pts)


def pair_profile_matrix(x0, y0, t, cfg, n_paths, profile, first_index=0, stored=None,
                        flat=False):
    """f(B_s, B_s~) at stored steps of n_paths independent pairs driven to t.

    Returns (times (m,), F (n_paths, m)) where F[i, j] = profile(rho) for the
    i-th pair at the j-th stored step.  B starts at x0, B~ at y0.  ``stored``
    is a sorted array of step indices in [0, n_steps]; by default it is
    horizon t's own storage grid from :func:`_schedule`.

    ``flat`` also observes flat pairs from a common start on the same streams
    and returns (times, F, F_flat); F_flat is the flat walk's own matrix,
    stepped in one pass with the hyperbolic pairs.
    """
    starts = {cfg.scheme: np.stack([_start(x0, cfg, "x0"), _start(y0, cfg, "y0")])}
    if flat:
        starts["flat"] = np.zeros((2, cfg.dim))
    times, F = _pair_profile(starts, t, cfg, n_paths, profile, first_index, stored)
    return (times, F[cfg.scheme], F["flat"]) if flat else (times, F[cfg.scheme])


def _pair_distance(kernel, x, y):
    """Column-wise distance between the (d+1, P) or, for "flat", (d, P) states x and y."""
    if kernel == "flat":
        return np.linalg.norm(x - y, axis=0)
    # radii summing past ~711 make this inf - inf = NaN; estimators refuse it
    with np.errstate(over="ignore", invalid="ignore"):
        minus_ip = x[-1] * y[-1] - _dot(x[:-1], y[:-1])
    return np.arccosh(np.maximum(minus_ip, 1.0))


def _pair_profile(starts, t, cfg, n_paths, profile, first_index, stored=None):
    """(times, {kernel: F}) of :func:`pair_profile_matrix` for starts = {kernel: (B_0, B~_0)}.

    Every kernel steps in one pass per batch, on the batch's pair streams.
    """
    _check_n_paths(n_paths)
    _, dt, own, _ = _schedule(t, cfg.step)
    stored = own if stored is None else np.asarray(stored)
    F = {kernel: np.empty((n_paths, len(stored))) for kernel in starts}
    for lo, hi, gens in _batches(cfg, n_paths, first_index, (TAG_PRIMARY, TAG_SECONDARY)):
        P = hi - lo
        states = {k: np.repeat(z.T, P, axis=1) for k, z in starts.items()}

        def record(slot):
            for k, z in states.items():
                F[k][lo:hi, slot] = profile(_pair_distance(k, z[:, :P], z[:, P:]))

        _drive(states, gens, t, cfg, stored, record)
    return stored * dt, F


def exit_times(x0, r, t_max, cfg, n_paths, first_index=0):
    """First times the distance from x0 exceeds r, censored at t_max (inf if none).

    Exits are detected on the simulation grid (every step).
    """
    if not 0 < r < np.inf:  # also rejects NaN
        raise ValueError(f"r must be positive and finite, got {r}")
    _check_n_paths(n_paths)
    coords = _start(x0, cfg, "x0")
    cosh_r = np.cosh(r)
    n_steps, dt, _, _ = _schedule(t_max, cfg.step)
    out = np.full(n_paths, np.inf)
    for lo, hi, gens in _batches(cfg, n_paths, first_index, (TAG_PRIMARY,)):

        x = np.tile(coords[:, None], hi - lo)

        def record(slot, block=out[lo:hi]):  # slot i is step i + 1; the start never exits
            minus_ip = x[-1] * coords[-1] - coords[:-1] @ x[:-1]
            block[(minus_ip > cosh_r) & ~np.isfinite(block)] = (slot + 1) * dt

        _drive({cfg.scheme: x}, gens, t_max, cfg, range(1, n_steps + 1), record)
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
    if not delta > 0:  # also rejects NaN
        raise ValueError(f"delta must be positive, got {delta}")
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
            return float(geometry.triangle_deficit(vertex, p, q)["bound"])
        except ValueError:  # degenerate triangle
            return np.inf

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
    """Write paths to the open ``file`` as CSV rows (path_id, t, z1..z_{d+1})."""
    d = paths[0].dim
    cols = ",".join(f"z{k + 1}" for k in range(d + 1))
    file.write(f"path_id,t,{cols}\n")
    for pid, path in enumerate(paths):
        for tt, row in zip(path.times, path.points):
            vals = ",".join(repr(float(v)) for v in row)
            file.write(f"{pid},{float(tt)!r},{vals}\n")
