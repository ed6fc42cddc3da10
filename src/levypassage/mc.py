"""Monte Carlo oracle: exact path simulation for all model kinds.

Every path is drawn with a finite jump rate (``_Law``): Brownian motion
has no jumps, phase type is compound Poisson, and the gamma kinds take
their compound-Poisson view (``LevyMeasureView.compound_poisson``).  That
view keeps the gamma jumps of size at least eps = 1e-12 xi, at rate
alpha E1(eps/xi), about 27.6 alpha per unit time, and adds the mean
alpha xi (1 - e^{-eps/xi}) of the smaller ones to the drift.  What it
leaves out is a martingale M, so the drawn path D' is off the true D by
E[sup_{s<=t} |D - D'|^2] <= 4 E[M_t^2] <= 2 alpha eps^2 t (Doob): about
1e-12 xi sqrt(alpha t) in rms, far below any standard error (Asmussen &
Rosinski, J. Appl. Probab. 38(2) 2001).  One engine draws every path.

*Segments.*  A segment runs from a path's level to its next jump epoch, an
Exp(rate) wait, cut at the censoring horizon t_max * max_blocks (for
Brownian motion it is the whole horizon left) or at a target time.  Its
continuous part is one Gaussian draw; its events come from the Brownian
bridge between the two ends: an up-crossing by the bridge test and its time
by ``_hit_time``, the minimum from one uniform (``_bridge_min``), and the
times of that minimum and of a last contact from ``_split``.  At sigma = 0
(pure gamma) the path is linear between jumps and these take no uniform.
One jump size is drawn at the segment's end
(``_CompoundPoisson.sample_jumps``).  ``_segment`` draws k segments per live
path in one pass as (paths x k) arrays, k doubling each pass up to 2**13
cells in all, and the estimators read their events off the arrays
column-wise (``_first``, ``_last``, ``_at``, ``_running_inf``); the gamma
kinds need about 27 segments per unit time.  Every law used is exact, so no
estimate carries a time-step bias or reads ``SimConfig.dt``.

*Cells*, for reflected first passage.  D* = D - I, I = inf(D ^ 0), crosses b
where D crosses I + b, and inside a segment the infimum and the crossing
interact.  So its segments are cut into cells of length at most
l = min(b^2 / (160 sigma^2), b / (8 |mu|)) (``_cell_length``): a jump wait
longer than l ends the cell with no jump, and the rest of the wait is drawn
again, which is exact since the wait is memoryless.  A cell from x0 that
moves by c over tau is decidable (``_decidable``) when its bridge cannot span
b, b (b/2 - |c|) >= 40 sigma^2 tau, or cannot reach I, 2 (x0 - I)(x0 + c - I)
>= 40 sigma^2 tau: either way a move of the infimum and a crossing both
happen in it with probability at most 2 e^{-40}, about 8e-18.  It creeps
over if its bridge reaches I + b, at the time ``_hit_time`` draws; else I
moves to the bridge minimum, and the jump at its end crosses if it carries
the path to I + b.  The minimum and the crossing take independent uniforms,
whose joint law differs from the bridge's only on that same event.  A cell
that is not decidable is split at its bridge midpoint, N(x0 + c/2,
sigma^2 tau / 4), and its halves are decided left first, split again until
each piece is decidable (``_cells``); the cells drawn after it in the same
pass are dropped, which keeps the law, since they are independent of all
that is decided.  At sigma = 0, D is nondecreasing, I stays at 0 and
T*_b = T_b.

Last-passage estimators use the escape test.  From a level x > b the path
never returns to (-inf, b] with probability 1 - e^{-rho0 (x - b)}; given that
it does return, it runs until the return under the Esscher-tilted law
dP~ = e^{-rho0 D} dP (drift mu - rho0 sigma^2, jump measure e^{-rho0 x} Q(dx),
see ``LevyMeasureView.tilt``), and with no downward jumps it returns to b
continuously.  A path is tested at the first segment end where it stands
above b + 1/rho0 (above b when rho0 = inf, sigma = 0, where no path
returns); a test just above b would mostly send the path straight back.  If it escapes, it
retires with its last contact; otherwise it takes this conditioned return
and resumes the untilted law from b at the hitting time, drawn from the
Brownian bridge.  The test is exact at any stopping time, so the estimates
do not depend on t_max: t_max * max_blocks only sets the censoring
horizon.  A creeping last contact is drawn inside its segment from the
bridge run backwards; a jump exit's is the segment end (``_last_contact``,
which the policy's idle mode shares).  The reflected process
D* = D - inf(D ^ 0) takes the same loop with the contact level
b + inf(D ^ 0); the free process keeps that infimum at 0.

Paths run in fixed groups of 100 000, each with an SFC64 substream seeded
by the SeedSequence of (seed, stream, group).  Each estimator has its own
stream number: 1 ``run_first_passage``, 2 ``run_last_passage``, 3
``estimate_reflected_exceedance``, 4 ``run_reflected_first_passage``, 5
``run_reflected_last_passage`` and 6 ``run_reflected_at_exp_horizon``;
``maintenance.simulate_policy`` uses 7 for its cycle ends and 8 for the
bridges of its idle mode (``last_contacts``), which bridges and searches
each cycle's failing paths within that cycle, in cycle order.  Stream 4
draws, each pass, the cells (waits, jumps, Gaussian moves), one crossing
and one minimum uniform per cell, then what ``_cells`` and ``_hit_time``
need.  So for a
given model, threshold and settings a result depends only on (seed,
n_paths); no batching option can change it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EscapeTestUnavailable, HorizonExceeded, LevyPassageError, NoConvergence
from .lundberg import escape_probability, escape_rate
from .models import ModelSpec, _CompoundPoisson

EXIT_NONE = 0
EXIT_CREEP = 1
EXIT_JUMP = 2

_GROUP_PATHS = 100_000  # paths per substream
# segments per pass of the segment engine, over all live paths: 64 KiB
# arrays; at 2**14 the mc_oracle benchmark's peak RSS read 0.8 MB higher
_SEGMENT_CELLS = 2**13
_SHORT_ROWS = 12  # rows of up to this many cells are accumulated column by column
# a cell is decidable when its bridge's event of both moving the infimum and
# crossing has probability at most 2 e^-_CELL_EXPONENT (see the module docstring)
_CELL_EXPONENT = 40.0
_MAX_SPLITS = 40  # halvings of one cell before ``_cells`` gives up
# substream number of each estimator (see the module docstring)
_STREAM_FIRST, _STREAM_LAST, _STREAM_EXCEEDANCE = 1, 2, 3
_STREAM_REFLECTED_FIRST, _STREAM_REFLECTED_LAST, _STREAM_EXP_HORIZON = 4, 5, 6


@dataclass(frozen=True)
class SimConfig:
    """Settings of a Monte Carlo run.

    ``t_max * max_blocks`` is the censoring horizon: a path without its event
    by then is censored.  The split into t_max and max_blocks changes no
    estimate, since last-passage paths take the escape test at their own
    stopping times (see the module docstring).  No estimator reads ``dt``:
    every path goes from jump to jump.  It is kept, and checked, because the
    benchmark workloads pass it.
    """

    dt: float = 1e-3
    t_max: float = 8.0
    n_paths: int = 10_000
    seed: int = 0
    max_blocks: int = 64

    def __post_init__(self):
        if not (self.t_max > 0 and self.dt > 0) or self.n_paths < 1:
            raise ValueError("need t_max > 0, dt > 0, n_paths >= 1")
        if self.max_blocks < 1:
            raise ValueError(f"need max_blocks >= 1, got {self.max_blocks}")


@dataclass(frozen=True)
class SimResult:
    estimate: float
    std_error: float
    n: int
    meta: str = ""
    censored: int = 0  # paths without their event by the censoring horizon


def _substream(seed: int, stream: int, group: int) -> np.random.Generator:
    seq = np.random.SeedSequence([seed & (2**64 - 1), stream, group])
    return np.random.Generator(np.random.SFC64(seq))


def _mean_result(values: np.ndarray, meta: str, censored: int = 0) -> SimResult:
    n = values.size
    if n == 0:
        raise HorizonExceeded(f"{meta}: all {censored} paths censored; raise the censoring horizon")
    est = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return SimResult(est, se, n, meta, censored)


def _discount(t: np.ndarray, delta: float, ok: np.ndarray) -> np.ndarray:
    """e^{-delta t} where ``ok``, 0 elsewhere."""
    return np.where(ok, np.exp(-delta * np.where(ok, t, 0.0)), 0.0)


# ---------------------------------------------------------------------------
# Path engine: the law, a pass's levels and the searches built on them


class _Law(NamedTuple):
    """The law a path is drawn from: the model's, or its Esscher tilt for a
    conditioned return, whose drift may be negative.  The jumps come as a
    compound-Poisson view of finite rate (``LevyMeasureView.compound_poisson``),
    and ``mu`` holds the drift that view takes for the jumps it leaves out."""

    mu: float
    sigma: float
    jumps: _CompoundPoisson | None

    @classmethod
    def of(cls, model: ModelSpec) -> "_Law":
        jumps = None if model.jumps is None else model.jumps.compound_poisson()
        return cls._with(model.mu, model.sigma, jumps)

    @classmethod
    def tilted(cls, model: ModelSpec, rho: float) -> "_Law":
        """The law under dP~ = e^{-rho D} dP, for phi_D(rho) = 0."""
        jumps = None if model.jumps is None else model.jumps.compound_poisson().tilt(rho)
        return cls._with(model.mu - rho * model.sigma**2, model.sigma, jumps)

    @classmethod
    def _with(cls, mu: float, sigma: float, jumps) -> "_Law":
        return cls(mu + (0.0 if jumps is None else jumps.drift), sigma, jumps)

    def uniforms(self, rng, shape):
        """Uniforms of a bridge draw, one per cell; None at sigma = 0, where
        the path between jumps is linear and needs none."""
        return None if self.sigma == 0 else rng.random(shape)


def _path_groups(cfg: SimConfig, stream: int):
    """(rng, path indices) per group of _GROUP_PATHS paths, keyed (seed, stream, group)."""
    for group, start in enumerate(range(0, cfg.n_paths, _GROUP_PATHS)):
        yield _substream(cfg.seed, stream, group), np.arange(
            start, min(start + _GROUP_PATHS, cfg.n_paths)
        )


def _levels(law: _Law, v: np.ndarray, cont, jumps, u, dt_col, minimum: bool):
    """(start, c_end, m_min, post) of cells from levels v with the drawn
    continuous increments, jump increments and bridge-minimum uniforms (None
    without ``minimum`` or at sigma = 0): the level at each cell start, the
    continuous level at the cell end, its minimum over the cell (None
    without ``minimum``; the smaller endpoint at sigma = 0) and the level
    after the jump.  dt_col holds the cell lengths."""
    post = _accumulate_rows(np.add, cont + jumps)
    post += v[:, None]
    start = np.hstack((v[:, None], post[:, :-1]))
    c_end = start + cont
    m_min = None
    if u is not None:
        m_min = _bridge_min(law, start, cont, u, dt_col)
    elif minimum:
        m_min = np.minimum(start, c_end)
    return start, c_end, m_min, post


def _bridge_min(law: _Law, start, cont, u, dt):
    """Minimum of the Brownian bridge that leaves ``start`` and moves by
    ``cont`` in time dt, drawn from its uniform u:
    start + (cont - sqrt(cont^2 - 2 sigma^2 dt log u)) / 2, built in place."""
    m_min = np.log(u)
    m_min *= 2.0 * law.sigma**2 * dt
    np.subtract(cont**2, m_min, out=m_min)
    np.sqrt(m_min, out=m_min)
    np.subtract(cont, m_min, out=m_min)
    m_min *= 0.5
    m_min += start
    return m_min


def _accumulate_rows(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.accumulate`` along each row.  numpy scans a row at a time, at
    a cost per row far above an elementwise pass, so rows of up to
    _SHORT_ROWS cells go column by column instead, with the same
    arithmetic."""
    if x.shape[1] > _SHORT_ROWS:
        return ufunc.accumulate(x, axis=1)
    out = np.empty(x.shape)
    out[:, 0] = x[:, 0]
    for j in range(1, x.shape[1]):
        ufunc(out[:, j - 1], x[:, j], out=out[:, j])
    return out


def _first(mask: np.ndarray):
    """(any, column of the first True) per row; a one-column pass skips the
    row-wise scan."""
    if mask.shape[1] == 1:
        return mask[:, 0], np.zeros(mask.shape[0], dtype=np.intp)
    j = mask.argmax(axis=1)
    return _at(mask, j), j


def _last(mask: np.ndarray):
    """(any, column of the last True) per row."""
    if mask.shape[1] == 1:
        return _first(mask)
    j = mask.shape[1] - 1 - mask[:, ::-1].argmax(axis=1)
    return _at(mask, j), j


def _at(x: np.ndarray, j: np.ndarray) -> np.ndarray:
    """x[i, j[i]] for every row i (a flat gather, cheaper than take_along_axis)."""
    n, k = x.shape
    return x.reshape(-1)[np.arange(n) * k + j]


def _running_inf(m_min: np.ndarray, inf0: np.ndarray) -> np.ndarray:
    """inf(D ^ 0) after each cell of a row, from inf0 before it."""
    return _accumulate_rows(np.minimum, np.minimum(m_min, inf0[:, None]))


def _crossed_up(law: _Law, u, start, c_end, level, dt):
    """Mask of the cells start -> c_end of length dt whose continuous part
    reaches ``level`` (scalar or per cell): its end value does, else the
    bridge between the two crosses it (its uniform in u, one per cell; None
    at sigma = 0)."""
    creep = c_end >= level
    if u is not None:
        # exp(-2 gap0 gap1 / (sigma^2 dt)), built in place
        p = np.clip(level - start, 0.0, None)
        p *= np.clip(level - c_end, 0.0, None)
        p *= -2.0 / (law.sigma**2 * dt)
        creep |= u < np.exp(p, out=p)
    return creep


def _hit_time(law: _Law, rng, h0: np.ndarray, h1: np.ndarray, dt) -> np.ndarray:
    """Time into a cell at which its continuous part, h0 > 0 away from a level
    at the start and h1 at the end, first reaches the level, given that it does;
    dt is the cell length, scalar or per path.
    Under s = dt u/(1+u) the Brownian bridge is a Brownian motion in u with
    drift |h1| / (sigma sqrt(dt)) towards or away from the level, so u given
    the hit is inverse Gaussian; it is drawn by Michael, Schucany & Haas
    (1976), in a form that stays finite as that drift goes to 0.  At sigma = 0
    the continuous part is linear within the cell."""
    if law.sigma == 0:
        return dt * h0 / (h0 - h1)
    scale = law.sigma * np.sqrt(dt)
    d = h0 / scale  # u-distance to the level
    nu = np.abs(h1) / scale  # |drift| in u
    y = rng.standard_normal(d.size) ** 2
    inv_u = (y + 2.0 * d * nu + np.sqrt(y * y + 4.0 * d * nu * y)) / (2.0 * d * d)  # 1/u, smaller root
    far = rng.random(d.size) * (d + nu / inv_u) >= d  # take the larger root (mean d/nu)^2 / u
    inv_u[far] = (nu[far] / d[far]) ** 2 / inv_u[far]
    return dt / (1.0 + inv_u)


def _escapes(rng: np.random.Generator, x: np.ndarray, b: float, rho0: float) -> np.ndarray:
    """Exact escape Bernoulli draw per path at level x: True where the path
    never returns to (-inf, b] (probability 1 - e^{-rho0 (x - b)} above b)."""
    p = np.zeros(x.size)
    above = x > b
    p[above] = escape_probability(x[above] - b, rho0)
    return rng.random(x.size) < p


def _escape_rate(model: ModelSpec, rho0: float | None = None) -> float:
    if rho0 is not None:
        return rho0
    try:
        return escape_rate(model)
    except LevyPassageError as exc:
        raise EscapeTestUnavailable(str(exc)) from exc


# ---------------------------------------------------------------------------
# Segment engine: from one jump epoch to the next


class _Segments(NamedTuple):
    """Up to k segments per path as (paths x k) arrays: each runs to the
    path's next jump epoch, an Exp(rate) wait, or ends with no jump after
    the cell length when the wait is longer, until the one that reaches the
    end of the path's room, which ends there with no jump.  The cells after
    that one (``valid`` False) are not part of the path; each holds a wait
    of its own and no jump, so every cell is a well-formed segment."""

    elapsed: np.ndarray  # the segment's start, in time from the path's
    tau: np.ndarray  # its length
    cont: np.ndarray  # the Gaussian move of the continuous part over it
    jump: np.ndarray  # the jump at its end, 0 where it ends with no jump
    goes_on: np.ndarray  # whether it ends before the room's end (a prefix of each row)

    @property
    def valid(self) -> np.ndarray:
        """The cells on the path: the first, and each after one that goes on."""
        return np.hstack((np.ones((self.tau.shape[0], 1), dtype=bool), self.goes_on[:, :-1]))

    @property
    def last(self) -> np.ndarray:
        """Column of each row's last cell on the path."""
        return np.minimum(self.goes_on.sum(axis=1), self.tau.shape[1] - 1)

    @property
    def runs_on(self) -> np.ndarray:
        """Rows whose k segments all end before the room's end: the path goes on."""
        return self.goes_on[:, -1]

    @property
    def span(self) -> np.ndarray:
        """Time from the path's start to the end of each cell."""
        return self.elapsed + self.tau


def _segment(law: _Law, rng, room: np.ndarray, k: int, cap: float = math.inf) -> _Segments:
    """k segments per path, each cut at length ``cap`` (one, to the end of
    the room, for a path with neither jumps nor a cap)."""
    n = room.size
    if law.jumps is None and cap == math.inf:
        tau = room[:, None].copy()
        elapsed, jump, goes_on = np.zeros((n, 1)), np.zeros((n, 1)), np.zeros((n, 1), dtype=bool)
    else:
        wait = np.full((n, k), cap) if law.jumps is None else rng.exponential(1.0 / law.jumps._rate, (n, k))
        tau = np.minimum(wait, cap)
        ends = _accumulate_rows(np.add, tau)
        elapsed = np.hstack((np.zeros((n, 1)), ends[:, :-1]))
        goes_on = ends < room[:, None]
        stop = ~goes_on
        stop[:, 1:] &= goes_on[:, :-1]  # the cell that reaches the room's end
        tau[stop] = (room[:, None] - elapsed)[stop]
        jump = np.zeros((n, k))
        if law.jumps is not None:
            jumped = goes_on & (wait < cap)
            jump[jumped] = law.jumps.sample_jumps(rng, int(np.count_nonzero(jumped)))
    cont = law.mu * tau
    if law.sigma > 0:
        cont += law.sigma * np.sqrt(tau) * rng.standard_normal(tau.shape)
    return _Segments(elapsed, tau, cont, jump, goes_on)


def _segment_levels(law: _Law, rng, v: np.ndarray, seg: _Segments):
    """``_levels``' (start, c_end, m_min, post) of the segments from levels
    v, each with its bridge minimum drawn."""
    return _levels(law, v, seg.cont, seg.jump, law.uniforms(rng, seg.tau.shape), seg.tau, True)


def _next_k(k: int, live: int) -> int:
    """Segments per path in the next pass: doubled, capped at _SEGMENT_CELLS cells."""
    return min(2 * k, max(1, _SEGMENT_CELLS // max(live, 1)))


def _split(law: _Law, rng, a, c, span):
    """Times s in (0, span) with density proportional to f_a(s) f_c(span - s),
    f_x the density of the first passage of sigma B to a level x > 0 away.
    The minimum of a Brownian bridge that lies a below its start and c
    below its end falls at such a time (Beskos, Papaspiliopoulos & Roberts
    2006, Prop. 2), and so does the first hit of a level a below the start
    of a path that first reaches a level c lower still at time span.  In
    V = (span - s) / s the density is a mixture: with probability a / (a + c)
    V ~ IG(c / a, c^2 / (sigma^2 span)), else 1 / V ~ IG(a / c, a^2 / (sigma^2
    span)); the two branches mirror each other, (a, c, s) against
    (c, a, span - s).  At sigma = 0 the path is linear and s = span a / (a + c).
    The distances are floored at 1e-150 so that one rounded to 0 keeps the
    inverse Gaussian parameters positive."""
    a, c = np.maximum(a, 1e-150), np.maximum(c, 1e-150)
    if law.sigma == 0:
        return span * a / (a + c)
    near = rng.random(a.size) * (a + c) < a
    p, q = np.where(near, a, c), np.where(near, c, a)
    x = rng.wald(q / p, q * q / (law.sigma**2 * np.maximum(span, 1e-300)))
    short = span / (1.0 + x)
    return np.where(near, short, span - short)


# ---------------------------------------------------------------------------
# First passage of D and of D*


@dataclass(frozen=True)
class FirstPassageSample:
    """First up-crossings of b by D (``label`` T_b) or by D* (T*_b)."""

    b: float
    t_cross: np.ndarray  # +inf when censored
    exit_kind: np.ndarray
    undershoot: np.ndarray  # b - D(T-) (D*(T-) for T*_b), 0 for creeping
    overshoot: np.ndarray  # D(T) - b (D*(T) for T*_b), 0 for creeping
    horizon: float
    label: str

    @property
    def n(self) -> int:
        return self.t_cross.size

    @property
    def censored(self) -> int:
        return int(np.sum(~np.isfinite(self.t_cross)))

    def cdf_at(self, t: float) -> SimResult:
        """P(T <= t); a censored path has not crossed by the horizon, so t
        beyond the horizon with censored paths raises ``HorizonExceeded``."""
        if t > self.horizon and self.censored:
            raise HorizonExceeded(
                f"P({self.label}<= {t:g}): {self.censored} paths censored at the horizon "
                f"{self.horizon:g} < t; raise the censoring horizon"
            )
        return _mean_result((self.t_cross <= t).astype(float), f"P({self.label}<= {t:g})", self.censored)

    def laplace_at(self, delta: float) -> SimResult:
        vals = _discount(self.t_cross, delta, np.isfinite(self.t_cross))
        return _mean_result(vals, f"E[e^(-{delta:g} {self.label})]", self.censored)

    def jump_laplace(self, delta: float) -> SimResult:
        ok = np.isfinite(self.t_cross) & (self.exit_kind == EXIT_JUMP)
        vals = _discount(self.t_cross, delta, ok)
        return _mean_result(vals, f"E[e^(-{delta:g} {self.label}); jump]", self.censored)

    def penalty_value(self, delta: float, w) -> SimResult:
        """E[e^{-delta T_b} w(undershoot, overshoot)]; creeping paths carry
        w(0, 0) since they cross with zero under- and overshoot."""
        weights = np.asarray(w(self.undershoot, self.overshoot), dtype=float)
        vals = _discount(self.t_cross, delta, np.isfinite(self.t_cross)) * weights
        return _mean_result(vals, f"E[e^(-{delta:g} {self.label}) w]", self.censored)


def _first_passages(model: ModelSpec, cfg: SimConfig, b: float, reflect: bool) -> FirstPassageSample:
    """First up-crossings of b by D, or by D* = D - inf(D ^ 0) when
    ``reflect``, by segments."""
    if b <= 0:
        raise ValueError("threshold must be positive")
    law = _Law.of(model)
    n = cfg.n_paths
    t_cross = np.full(n, np.inf)
    kind = np.zeros(n, dtype=np.int8)
    und = np.zeros(n)
    over = np.zeros(n)
    for rng, idx in _path_groups(cfg, _STREAM_REFLECTED_FIRST if reflect else _STREAM_FIRST):
        got = _segment_first(law, rng, idx.size, b, cfg.t_max * cfg.max_blocks, reflect)
        t_cross[idx], kind[idx], und[idx], over[idx] = got
    label = "T*_b" if reflect else "T_b"
    return FirstPassageSample(b, t_cross, kind, und, over, cfg.t_max * cfg.max_blocks, label)


def _segment_first(law: _Law, rng, m: int, b: float, horizon: float, reflect: bool):
    """(t_cross, kind, under, over) of m paths' first up-crossings of b by D,
    or by D* when ``reflect``, where D crosses b + I, I = inf(D ^ 0).  A
    segment's bridge crosses the level by the bridge test and at the time
    ``_hit_time`` draws; else the jump at its end may carry it over.  For D*
    at sigma > 0 the segments are cells (see the module docstring): a row
    stops at its first crossing or at its first cell that is not decidable,
    which ``_cells`` decides; its later cells are dropped."""
    cells = reflect and law.sigma > 0  # at sigma = 0 D is nondecreasing and I stays at 0
    cap = _cell_length(law, b) if cells else math.inf
    t_cross = np.full(m, np.inf)
    kind = np.zeros(m, dtype=np.int8)
    und, over = np.zeros(m), np.zeros(m)
    live, v, low, t = np.arange(m), np.zeros(m), np.zeros(m), np.zeros(m)  # the live paths, compacted
    k = 1
    while live.size:
        seg = _segment(law, rng, horizon - t, k, cap)
        start, c_end, _, post = _levels(law, v, seg.cont, seg.jump, None, None, False)
        u = law.uniforms(rng, start.shape)
        before = after = 0.0  # I before and after each cell
        split = False  # the cells that are not decidable
        if cells:
            after = _running_inf(_bridge_min(law, start, seg.cont, rng.random(start.shape), seg.tau), low)
            before = np.hstack((low[:, None], after[:, :-1]))
            split = ~_decidable(law, b, start, seg.cont, before, seg.tau)
        creep = _crossed_up(law, u, start, c_end, b + before, seg.tau)
        hit, j = _first((creep | (post >= b + after) | split) & seg.valid)
        rows = np.flatnonzero(hit)

        def pick(x):
            return _at(x, j)[rows] if np.ndim(x) else x

        by_creep, h0, ce, po, at, el = map(pick, (creep, start, c_end, post, seg.tau, seg.elapsed))
        i0, i1 = pick(before), pick(after)  # I before and after the row's cell
        decided = by_creep
        if cells:
            s = pick(split)
            by_creep[s], at_s, i1[s] = _cells(law, rng, b, h0[s], ce[s], at[s], i0[s])
            at[s] = np.where(by_creep[s], at_s, at[s])  # else the jump at the cell's end is tested
            decided = by_creep & ~s
        at[decided] = _hit_time(law, rng, (b + i0 - h0)[decided], (b + i0 - ce)[decided], at[decided])
        lev = b + i1  # where the jump at the cell's end is tested
        crossed = by_creep | (po >= lev)
        c = rows[crossed]
        g = live[c]
        t_cross[g] = t[c] + el[crossed] + at[crossed]
        kind[g] = np.where(by_creep[crossed], EXIT_CREEP, EXIT_JUMP)
        und[g] = np.where(by_creep, 0.0, lev - ce)[crossed]
        over[g] = np.where(by_creep, 0.0, po - lev)[crossed]
        col = np.where(hit, j, seg.tau.shape[1] - 1)  # each row's last cell in the pass
        go = _at(seg.goes_on, col)  # a row whose last cell does not go on ends at the horizon
        go[c] = False
        if cells:
            low = _at(after, col)
            low[rows] = i1
        live, v, low, t = live[go], _at(post, col)[go], low[go], (t + _at(seg.span, col))[go]
        k = _next_k(k, live.size)
    return t_cross, kind, und, over


def _cell_length(law: _Law, b: float) -> float:
    """The longest cell of D*'s first passage: b^2 / (160 sigma^2), at which
    a cell that moves by at most b/4 cannot span b, and b / (8 |mu|), at
    which the drift takes half of that."""
    cap = b * b / (4.0 * _CELL_EXPONENT * law.sigma**2)
    return cap if law.mu == 0 else min(cap, b / (8.0 * abs(law.mu)))


def _decidable(law: _Law, b: float, x0, c, low, tau) -> np.ndarray:
    """The cells from x0 that move by c over tau, at infimum low, whose
    bridge cannot span b, b (b/2 - |c|) >= 40 sigma^2 tau, or cannot reach
    low, 2 (x0 - low)(x0 + c - low) >= 40 sigma^2 tau: but with probability
    2 e^-40 or less (see the module docstring)."""
    room = (_CELL_EXPONENT * law.sigma**2) * tau
    return (b * (0.5 * b - np.abs(c)) >= room) | (2.0 * (x0 - low) * (x0 + c - low) >= room)


def _cells(law: _Law, rng, b: float, x0, x1, tau, low):
    """(creep, at, low) of cells whose continuous part goes from x0 to x1
    over tau, at infimum low before them: whether it creeps over low + b and
    when, from the cell's start, and the infimum after the cell.  A piece
    that is not decidable is split at its bridge midpoint, drawn from
    N((x0 + x1) / 2, sigma^2 tau / 4), and its halves are decided left first:
    each row keeps its current piece and a stack of the right halves still to
    come, at most _MAX_SPLITS deep."""
    n = x0.size
    x0, x1, tau, low = (np.array(y, dtype=float) for y in (x0, x1, tau, low))
    creep, at, el = np.zeros(n, dtype=bool), np.zeros(n), np.zeros(n)
    ends, spans = np.empty((n, _MAX_SPLITS)), np.empty((n, _MAX_SPLITS))  # the stacks
    depth = np.zeros(n, dtype=np.intp)
    todo = np.arange(n)
    while todo.size:
        ok = _decidable(law, b, x0[todo], x1[todo] - x0[todo], low[todo], tau[todo])
        r = todo[ok]
        lev = low[r] + b
        up = _crossed_up(law, rng.random(r.size), x0[r], x1[r], lev, tau[r])
        h = r[up]
        creep[h] = True
        at[h] = el[h] + _hit_time(law, rng, lev[up] - x0[h], lev[up] - x1[h], tau[h])
        r = r[~up]
        mins = _bridge_min(law, x0[r], x1[r] - x0[r], rng.random(r.size), tau[r])
        low[r] = np.minimum(low[r], mins)
        r = r[depth[r] > 0]  # on to the next right half
        depth[r] -= 1
        el[r] += tau[r]
        x0[r], x1[r], tau[r] = x1[r], ends[r, depth[r]], spans[r, depth[r]]
        q = todo[~ok]
        if np.any(depth[q] >= _MAX_SPLITS):
            raise NoConvergence(f"a reflected first-passage cell is not decidable after {_MAX_SPLITS} splits")
        half = 0.5 * tau[q]
        ends[q, depth[q]], spans[q, depth[q]] = x1[q], half
        depth[q] += 1
        x1[q] = rng.normal(0.5 * (x0[q] + x1[q]), law.sigma * np.sqrt(half / 2.0))
        tau[q] = half
        todo = np.concatenate((r, q))
    return creep, at, low


def run_first_passage(model: ModelSpec, cfg: SimConfig, b: float) -> FirstPassageSample:
    return _first_passages(model, cfg, b, False)


def run_reflected_first_passage(model: ModelSpec, cfg: SimConfig, b: float) -> FirstPassageSample:
    """T*_b, the first time D* = D - inf(D ^ 0) reaches b, drawn exactly on
    cells of the segment engine (see the module docstring), on stream 4; at
    sigma = 0 it is T_b."""
    return _first_passages(model, cfg, b, True)


# ---------------------------------------------------------------------------
# Last passage of D and of D*


@dataclass(frozen=True)
class LastPassageSample:
    """Last contacts with (-inf, b] of D (``label`` L_b) or of D* (L*_b)."""

    b: float
    l_last: np.ndarray  # last time at or below b; NaN if censored
    exit_kind: np.ndarray
    undershoot: np.ndarray  # b - D(L-) for jump exits
    overshoot: np.ndarray  # D(L) - b for jump exits
    censored: int
    label: str

    @property
    def n(self) -> int:
        return self.l_last.size

    def _mean(self, values: np.ndarray, meta: str) -> SimResult:
        """Mean of per-path values over the uncensored paths."""
        return _mean_result(values[np.isfinite(self.l_last)], meta, self.censored)

    def cdf_at(self, t: float) -> SimResult:
        return self._mean((self.l_last < t).astype(float), f"P({self.label}< {t:g})")

    def laplace_at(self, delta: float) -> SimResult:
        return self._mean(np.exp(-delta * self.l_last), f"E[e^(-{delta:g} {self.label})]")


def _last_passages(
    model: ModelSpec, cfg: SimConfig, b: float, rho0: float | None, reflect: bool
) -> LastPassageSample:
    """Last contacts with (-inf, b] of D, or of D* = D - inf(D ^ 0) when
    ``reflect``, by the escape test with conditioned returns (see the module
    docstring), by segments.  Above b > 0 the reflected process moves as D does,
    so one loop serves both: the free process keeps its infimum at 0."""
    if b <= 0:
        raise ValueError("threshold must be positive")
    rho0 = _escape_rate(model, rho0)
    n = cfg.n_paths
    l_last = np.full(n, np.nan)
    kind = np.zeros(n, dtype=np.int8)
    und = np.zeros(n)
    over = np.zeros(n)
    censored = 0
    for rng, idx in _path_groups(cfg, _STREAM_REFLECTED_LAST if reflect else _STREAM_LAST):
        escaped, *got = _segment_last(model, rng, idx.size, b, rho0, cfg, reflect)
        gi = idx[escaped]
        l_last[gi], kind[gi], und[gi], over[gi] = (x[escaped] for x in got)
        censored += idx.size - int(escaped.sum())
    label = "L*_b" if reflect else "L_b"
    return LastPassageSample(b, l_last, kind, und, over, censored, label)


def _segment_last(model: ModelSpec, rng, m: int, b: float, rho0: float, cfg: SimConfig, reflect: bool):
    """(escaped, last, kind, under, over) of m paths, by segments.

    A forward segment moves the infimum to inf' = min(inf, its bridge
    minimum) and touches the level b + inf' iff that minimum is at or below
    it (``_last_contact``).  The first segment end above the level + 1/rho0
    takes the escape test; a path that fails it returns under the tilted law
    until its bridge reaches the level, at the time ``_hit_time`` draws.  A
    path still running at the horizon is censored."""
    law, tilted = _Law.of(model), None  # rho0 = inf at sigma = 0, where no path returns
    gap = 1.0 / rho0  # a path is tested above b + inf + gap (see the module docstring)
    horizon = cfg.t_max * cfg.max_blocks
    escaped = np.zeros(m, dtype=bool)
    last, und, over = np.zeros(m), np.zeros(m), np.zeros(m)
    kind = np.zeros(m, dtype=np.int8)
    # the live paths, compacted: their group index, level, infimum, time and
    # whether they are returning
    path, v, low, t = np.arange(m), np.zeros(m), np.zeros(m), np.zeros(m)
    returning = np.zeros(m, dtype=bool)
    k = 1
    while path.size:
        keep = np.ones(path.size, dtype=bool)
        back, fwd = np.flatnonzero(returning), np.flatnonzero(~returning)
        if back.size:
            tilted = tilted or _Law.tilted(model, rho0)
            hit, runs_on = _segment_return(tilted, rng, back, v, t, b + low[back], horizon, k)
            returning[back[hit]] = False
            keep[back] = hit | runs_on  # a return still running at the horizon is censored
        if fwd.size:
            t0 = t[fwd]
            seg = _segment(law, rng, horizon - t0, k)
            start, c_end, m_min, post = _segment_levels(law, rng, v[fwd], seg)
            lev = b
            if reflect:
                inf_after = _running_inf(m_min, low[fwd])
                lev = b + inf_after
            tested, jt = _first((post - lev > gap) & seg.valid)
            upto = np.where(tested, jt, seg.last)
            before = np.arange(seg.tau.shape[1]) <= upto[:, None]
            touched, *got = _last_contact(law, rng, before, lev, (start, c_end, m_min, post), seg.tau, seg.span, t0)
            g = path[fwd[touched]]
            last[g], kind[g], und[g], over[g] = got
            v[fwd] = _at(post, upto)
            t[fwd] = t0 + _at(seg.span, upto)
            if reflect:
                low[fwd] = _at(inf_after, upto)
            keep[fwd] = _at(seg.goes_on, upto)  # a segment that does not go on ends at the horizon
            r = fwd[tested]
            esc = _escapes(rng, v[r] - low[r], b, rho0)
            escaped[path[r[esc]]] = True
            keep[r[esc]] = False
            returning[r[~esc]] = True
        if not keep.all():
            path, v, low, t, returning = (x[keep] for x in (path, v, low, t, returning))
        k = _next_k(k, path.size)
    return escaped, last, kind, und, over


def _last_contact(law: _Law, rng, allowed, lev, levels, tau, ends, t0):
    """(touched, last, kind, under, over): the rows with a contact with
    (-inf, lev] (lev scalar or per cell) in their cells ``allowed``, and for
    those the time, exit kind, under- and overshoot of the last one, from the
    cells' ``_levels``, lengths tau and end times from each row's t0.  It is
    in the last cell whose bridge minimum reaches the level: at its end if
    the continuous end c is at or below the level (an exit by the jump
    there), else at tau - r (by creeping), r the first hit of the level by
    the bridge run backwards from c.  That hit falls after the minimum's
    time theta, on a path from c that first reaches the minimum at
    tau - theta: both from ``_split``."""
    start, c_end, m_min, post = levels
    touched, j = _last((m_min <= lev) & allowed)
    lev_j = lev if np.ndim(lev) == 0 else _at(lev, j)[touched]
    x, ce, mm, po, tau = (_at(y, j)[touched] for y in (start, c_end, m_min, post, tau))
    creep = ce > lev_j
    back_off = np.zeros(creep.size)
    if creep.any():
        theta = _split(law, rng, (x - mm)[creep], (ce - mm)[creep], tau[creep])
        back_off[creep] = _split(law, rng, (ce - lev_j)[creep], (lev_j - mm)[creep], tau[creep] - theta)
    last = t0[touched] + _at(ends, j)[touched] - back_off
    kind = np.where(creep, EXIT_CREEP, EXIT_JUMP)
    return touched, last, kind, np.where(creep, 0.0, lev_j - ce), np.where(creep, 0.0, po - lev_j)


def _segment_return(law: _Law, rng, back, v, t, level, horizon: float, k: int) -> np.ndarray:
    """Conditioned returns of the paths ``back`` from levels v[back] towards
    ``level`` (one per path) under the tilted ``law``, k segments each: the
    first segment whose bridge minimum reaches the level ends the return
    there, at the time ``_hit_time`` draws.  Updates v and t in place (v to
    the level itself on a hit) and returns (hit, runs_on): the paths whose
    return ends, and those still returning after k segments that all end
    at a jump."""
    t0 = t[back]
    seg = _segment(law, rng, horizon - t0, k)
    start, c_end, m_min, post = _segment_levels(law, rng, v[back], seg)
    hit, j = _first((m_min <= level[:, None]) & seg.valid)
    h0, h1, tau, el = (_at(x, j)[hit] for x in (start, c_end, seg.tau, seg.elapsed))
    v[back] = np.where(hit, level, post[:, -1])
    t[back] = t0 + seg.span[:, -1]
    t[back[hit]] = t0[hit] + el + _hit_time(law, rng, h0 - level[hit], h1 - level[hit], tau)
    return hit, seg.runs_on


def run_last_passage(
    model: ModelSpec, cfg: SimConfig, b: float, rho0: float | None = None
) -> LastPassageSample:
    """Simulate each path until the escape test accepts it.  A path the test
    keeps first returns to b under the tilted law, so the estimate does not
    depend on t_max beyond the censoring horizon (see the module docstring).
    ``rho0``: ``escape_rate(model)`` by default; kept only because perfbench/workloads.py passes it."""
    return _last_passages(model, cfg, b, rho0, False)


def run_reflected_last_passage(
    model: ModelSpec, cfg: SimConfig, b: float, rho0: float | None = None
) -> LastPassageSample:
    """L*_b = last time D* <= b; escape test and conditioned return apply
    unchanged above b > 0.
    ``rho0``: ``escape_rate(model)`` by default; kept only because perfbench/workloads.py passes it."""
    return _last_passages(model, cfg, b, rho0, True)


# ---------------------------------------------------------------------------
# D* = D - inf(D ^ 0) at a given time


def _segment_reflected_at(law: _Law, rng, when: np.ndarray) -> np.ndarray:
    """D* at times ``when`` (D*_0 = 0), by segments cut at those times: the
    continuous level at the end of the last segment, less the infimum moved
    to each segment's bridge minimum."""
    out = np.zeros(when.size)
    v, low, t = np.zeros(when.size), np.zeros(when.size), np.zeros(when.size)
    live = np.flatnonzero(when > 0)
    k = 1
    while live.size:
        seg = _segment(law, rng, when[live] - t[live], k)
        _, c_end, m_min, post = _segment_levels(law, rng, v[live], seg)
        inf_after = _running_inf(m_min, low[live])
        end, go = seg.last, seg.runs_on
        out[live] = _at(c_end, end) - _at(inf_after, end)  # final where a segment ends at the target time
        v[live], low[live] = post[:, -1], inf_after[:, -1]
        t[live] += seg.span[:, -1]
        live = live[go]
        k = _next_k(k, live.size)
    return out


def estimate_reflected_exceedance(model: ModelSpec, cfg: SimConfig, b: float, t: float) -> SimResult:
    """P(D*_t > b) by simulation."""
    law = _Law.of(model)
    groups = _path_groups(cfg, _STREAM_EXCEEDANCE)
    vals = np.concatenate([_segment_reflected_at(law, rng, np.full(idx.size, float(t))) for rng, idx in groups])
    return _mean_result((vals > b).astype(float), f"P(D*_{t:g} > {b:g})")


def run_reflected_at_exp_horizon(
    model: ModelSpec, cfg: SimConfig, delta: float, b: float
) -> tuple[np.ndarray, np.ndarray]:
    """(D*_T, indicator[L*_b >= T, D*_T > b]) for independent T ~ Exp(delta).

    [L*_b >= T] given D*_T means the reflected process returns below b after
    T, whose probability is 1 - esc(D*_T - b) when D*_T > b (and 1 if <= b),
    so the joint indicator is resolved by one exact Bernoulli draw.
    """
    rho0 = _escape_rate(model)
    law = _Law.of(model)
    d_at_t = np.empty(cfg.n_paths)
    joint = np.zeros(cfg.n_paths)
    for rng, idx in _path_groups(cfg, _STREAM_EXP_HORIZON):
        horizon = rng.exponential(1.0 / delta, idx.size)
        vals = d_at_t[idx] = _segment_reflected_at(law, rng, horizon)
        joint[idx] = (vals > b) & ~_escapes(rng, vals, b, rho0)
    return d_at_t, joint


# ---------------------------------------------------------------------------
# Inspection cycles


def cycle_ends(model: ModelSpec, rng: np.random.Generator, x: np.ndarray, horizons: np.ndarray):
    """(end, bridge): the levels x + D_h at the ends of cycles of lengths
    h = ``horizons`` from levels x, drawn exactly (the jump part by
    ``LevyMeasureView.sample_bridged``, then the Gaussian part), and
    bridge(bridge_rng, rows) -> (x, h, cont, counts, sizes) of the cycles
    ``rows`` for ``last_contacts``: start level, length, continuous move
    (with the jumps' rest, which moves linearly) and the jumps of the jump
    law's bridge.  It draws from ``bridge_rng`` alone, so it leaves the cycle
    ends drawn from ``rng`` as they are."""
    horizons = np.asarray(horizons, dtype=float)
    inc = model.mu * horizons
    gauss = jump_bridge = None
    if model.jumps is not None:
        jumps, jump_bridge = model.jumps.sample_bridged(rng, horizons.size, horizons)
        inc = inc + jumps
    if model.sigma > 0:
        gauss = model.sigma * np.sqrt(horizons) * rng.standard_normal(horizons.shape)
        inc = inc + gauss

    def bridge(bridge_rng, rows):
        h = horizons[rows]
        counts, sizes, rest = jump_bridge(bridge_rng, rows) if jump_bridge else (np.zeros(rows.size, int), np.zeros(0), 0.0)
        return x[rows], h, model.mu * h + (0.0 if gauss is None else gauss[rows]) + rest, counts, sizes

    return x + inc, bridge


def last_contacts(model: ModelSpec, rng: np.random.Generator, bridged: tuple, b: float) -> np.ndarray:
    """The last time in [0, h] at which each cycle of ``bridged`` (one call
    of ``cycle_ends``' bridge), in order, touched (-inf, b] (0 if none),
    exactly, in one pass.  The jumps go to iid uniform epochs, sorted (the
    sizes come in an exchangeable order), and the path runs in cells from
    jump to jump and on to the cycle's end; zero-length cells at the end pad
    the rows.  The continuous part moves iid N(0, sigma^2 tau) over each
    cell's length tau, shifted by tau / h times what the moves miss of its
    drawn move: the Brownian bridge.  ``_last_contact`` finds the contact, as the
    last-passage estimators do."""
    law = _Law.of(model)
    x, h, cont, counts, sizes = bridged
    mine = np.arange(1 + counts.max()) < counts[:, None]
    jumps = np.zeros(mine.shape)
    jumps[mine] = sizes
    ends = np.sort(np.where(mine, rng.random(mine.shape), 1.0), axis=1) * h[:, None]  # jump epochs, then h
    tau = np.diff(ends, axis=1, prepend=0.0)
    moves = np.zeros(tau.shape)
    if law.sigma > 0:  # a Gaussian move for each jump's cell and the last; the pads have length 0
        real = np.arange(tau.shape[1]) <= counts[:, None]
        moves[real] = rng.standard_normal(np.count_nonzero(real)) * (law.sigma * np.sqrt(tau[real]))
    moves += tau * ((cont - moves.sum(axis=1)) / h)[:, None]
    levels = _levels(law, x, moves, jumps, law.uniforms(rng, tau.shape), tau, True)
    touched, last, *_ = _last_contact(law, rng, True, b, levels, tau, ends, np.zeros(h.size))
    out = np.zeros(h.size)
    out[touched] = last
    return out
