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
Rosinski, J. Appl. Probab. 38(2) 2001).  Two engines draw the paths, and
the estimator, never the model kind, picks one.

*Segments*, for every estimator but reflected first passage.  A segment
runs from a path's level to its next jump epoch, an Exp(rate) wait, cut at
the censoring horizon t_max * max_blocks (for Brownian motion it is the
whole horizon left) or at a target time.  Its continuous part is one
Gaussian draw; its events come from the Brownian bridge between the two
ends: an up-crossing by the bridge test and its time by ``_hit_time``, the
minimum from one uniform (``_bridge_min``), and the times of that minimum
and of a last contact from ``_split``.  At sigma = 0 (pure gamma) the path
is linear between jumps and these take no uniform.  One jump size is drawn
at the segment's end (``_CompoundPoisson.sample_jumps``).  ``_segment``
draws k segments per live path in one pass as (paths x k) arrays, k
doubling each pass up to 2**13 cells in all, and the estimators read
their events off the arrays column-wise (``_first``, ``_last``, ``_at``,
``_running_inf``); the gamma kinds need about 27 segments per unit time.
Every law used is exact, so these estimates carry no time-step bias and
do not read ``SimConfig.dt``: free first passage, free and reflected last
passage, and D* at a fixed or an exponential time.

*Blocks*, for reflected first passage: inside a segment the drawup of D
has no closed law.  ``_Block`` draws a (paths x k) block of steps of
length dt at once, k = max(1, 2**14 // live paths), so the few long paths
at the end of a run cost few calls.  The block is drawn lazily.  Each row
(one path's k steps) gets its Gaussian increments and one jump total J
(``_CompoundPoisson.sample_block``: one Poisson count for the whole block,
each jump in a uniform cell, summed by row).  Jumps only raise the level,
so the continuous path bounds every level of the row from below and that
path plus J bounds it from above.  A row's k uniforms of a bridge extreme
are drawn least first, as 1 - V^{1/k}.  A row is decided from the bounds
and that least uniform when its event would be the same for any split of
J and any values of its other uniforms; the other rows draw the split of
J over their cells (its jumps' own cells) and their other uniforms given
the least, and go through the per-cell logic.  Every decision reads only
draws whose law does not depend on what is still undrawn, so the
estimates have the law of the per-cell scheme.  For sigma > 0 the
within-step extremes and hitting times of the continuous part come from
its Brownian bridge; at sigma = 0 the path creeps linearly within a step.
The O(dt) bias left comes from lumping each step's jumps at its end and
from taking the level b + inf(D ^ 0) before each step.

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
bridge run backwards; a jump exit's is the segment end.  The
reflected process D* = D - inf(D ^ 0) takes the same loop with the contact
level b + inf(D ^ 0); the free process keeps that infimum at 0.

Paths run in fixed groups of 100 000, each with an SFC64 substream seeded
by the SeedSequence of (seed, stream, group).  Each estimator has its own
stream number: 1 ``run_first_passage``, 2 ``run_last_passage``, 3
``estimate_reflected_exceedance``, 4 ``run_reflected_first_passage``, 5
``run_reflected_last_passage`` and 6 ``run_reflected_at_exp_horizon``;
``maintenance.simulate_policy`` uses 7 for its cycle ends and 8 for the
bridges of its idle mode (``cycle_ends``).  So for a given model, threshold
and settings a result depends only on (seed, n_paths); no batching option
can change it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import EscapeTestUnavailable, HorizonExceeded, LevyPassageError
from .lundberg import escape_probability, escape_rate
from .models import ModelSpec, _CompoundPoisson

EXIT_NONE = 0
EXIT_CREEP = 1
EXIT_JUMP = 2

_GROUP_PATHS = 100_000  # paths per substream
_BLOCK_CELLS = 2**14  # path-steps per block of an estimator
# segments per pass of the segment engine, over all live paths: 64 KiB
# arrays; at 2**14 the mc_oracle benchmark's peak RSS read 0.8 MB higher
_SEGMENT_CELLS = 2**13
_BRIDGE_CELLS = 2**13  # path-steps per chunk of ``cycle_ends``' bridges
_SHORT_ROWS = 12  # blocks of up to this many steps are scanned column by column
# substream number of each estimator (see the module docstring)
_STREAM_FIRST, _STREAM_LAST, _STREAM_EXCEEDANCE = 1, 2, 3
_STREAM_REFLECTED_FIRST, _STREAM_REFLECTED_LAST, _STREAM_EXP_HORIZON = 4, 5, 6


@dataclass(frozen=True)
class SimConfig:
    """Settings of a Monte Carlo run.

    ``t_max * max_blocks`` is the censoring horizon: a path without its event
    by then is censored.  The split into t_max and max_blocks changes no
    estimate, since last-passage paths take the escape test at their own
    stopping times (see the module docstring).  ``dt`` is the step of the
    block engine, which serves reflected first passage alone; every other
    estimator goes from jump to jump and ignores it.
    """

    dt: float = 1e-3
    t_max: float = 8.0
    n_paths: int = 10_000
    seed: int = 0
    max_blocks: int = 64

    def __post_init__(self):
        if self.dt <= 0 or self.t_max < self.dt or self.n_paths < 1:
            raise ValueError("need dt > 0, t_max >= dt, n_paths >= 1")
        if self.max_blocks < 1:
            raise ValueError(f"need max_blocks >= 1, got {self.max_blocks}")

    @property
    def horizon_steps(self) -> int:
        return int(round(self.t_max * self.max_blocks / self.dt))


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
        raise HorizonExceeded(f"{meta}: all {censored} paths censored; raise t_max * max_blocks")
    est = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return SimResult(est, se, n, meta, censored)


def _discount(t: np.ndarray, delta: float, ok: np.ndarray) -> np.ndarray:
    """e^{-delta t} where ``ok``, 0 elsewhere."""
    return np.where(ok, np.exp(-delta * np.where(ok, t, 0.0)), 0.0)


# ---------------------------------------------------------------------------
# Path engine: the law, the block kernel and the searches built on them


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


def _block_len(live: int) -> int:
    return max(1, _BLOCK_CELLS // live)


class _Block:
    """k steps of length dt from levels v, drawn lazily.

    Draws the Gaussian increments ``cont`` and one jump total per row
    (``_CompoundPoisson.sample_block``).  ``low`` is the continuous level
    path v + cumsum(cont); jumps only raise the level, so every level of a
    row's block, at a step end or start, lies in [``bottom``, ``top``], and
    ``end`` is its exact level after the block.  A row's k uniforms of a
    bridge extreme are drawn minimum first (``mins``); ``clear`` certifies
    from the minimum that no step's bridge reaches a level, and
    ``uniforms`` draws the other k - 1 given it for a row that is refined.
    ``levels`` draws the jump split of the rows that still need their cells.
    """

    def __init__(self, law: _Law, rng, v: np.ndarray, dt: float, k: int):
        self.law, self.rng, self.v, self.dt, self.k = law, rng, v, dt, k
        n = v.size
        if law.sigma > 0:
            self.cont = rng.normal(law.mu * dt, law.sigma * math.sqrt(dt), (n, k))
        else:
            self.cont = np.broadcast_to(law.mu * dt, (n, k))
        self.low = _accumulate_rows(np.add, self.cont)
        self.low += v[:, None]
        self.total = self._split = None
        if law.jumps is not None:
            self.total, self._split = law.jumps.sample_block(rng, n, k, dt)
        self.end = self.low[:, -1].copy() if self.total is None else self.low[:, -1] + self.total

    @cached_property
    def top(self) -> np.ndarray:
        high = np.maximum(self.v, _reduce_rows(np.maximum, self.low))
        return high if self.total is None else high + self.total

    @cached_property
    def bottom(self) -> np.ndarray:
        return np.minimum(self.v, _reduce_rows(np.minimum, self.low))

    def mins(self):
        """The least of k iid uniforms for each row, 1 - V^{1/k} for a
        uniform V (V itself when k = 1); None at sigma = 0."""
        if self.law.sigma == 0:
            return None
        u = self.rng.random(self.v.size)
        return u if self.k == 1 else -np.expm1(np.log1p(-u) / self.k)

    def uniforms(self, mins):
        """(rows x k) uniforms given their row minima: the minimum sits in a
        uniform cell and the other cells are iid uniform above it, the law
        of k iid uniforms given their least.  None at sigma = 0."""
        if mins is None or self.k == 1:
            return None if mins is None else mins[:, None]
        n = mins.size
        u = self.rng.random((n, self.k))
        u *= (1.0 - mins)[:, None]
        u += mins[:, None]
        u[np.arange(n), self.rng.integers(0, self.k, n)] = mins
        return u

    def clear(self, gap: np.ndarray, mins) -> np.ndarray:
        """True for rows certain to keep every step's continuous bridge off a
        level.  gap is how far all the row's step starts and ends stay from
        the level, on one side (none is certain unless gap > 0), and mins
        holds the least of the row's uniforms of the bridge draw.  A step's
        bridge reaches a level g0 and g1 from its ends iff its uniform is
        below exp(-2 g0 g1 / (sigma^2 dt)), which is at most
        exp(-2 gap^2 / (sigma^2 dt)).  At sigma = 0 the path is linear
        within a step."""
        if mins is None:
            return gap > 0
        return (gap > 0) & (mins >= np.exp(-2.0 * gap * gap / (self.law.sigma**2 * self.dt)))

    def levels(self, rows: np.ndarray, u):
        """``_levels``' (start, c_end, m_min, post) of the block's ``rows``,
        with their bridge-minimum uniforms u, after drawing their jump split."""
        sel = slice(None) if rows.size == self.v.size else rows  # a view, no copies
        v, cont = self.v[sel], self.cont[sel]
        if self.total is None:
            return _step_levels(self.law, v, self.low[sel], cont, False, u, self.dt, True)
        jumps = self.total[sel, None] if self.k == 1 else self._split(rows)
        return _levels(self.law, v, cont, jumps, u, self.dt, True)


def _take(x, rows):
    """x's rows, or None for None."""
    return None if x is None else x[rows]


def _levels(law: _Law, v: np.ndarray, cont, jumps, u, dt_col, minimum: bool):
    """(start, c_end, m_min, post) of steps from levels v with the drawn
    continuous increments, jump increments (None without jumps) and
    bridge-minimum uniforms (None without ``minimum`` or at sigma = 0): the
    level at each step start, the continuous level at the step end, its
    minimum over the step (None without ``minimum``; the smaller endpoint at
    sigma = 0) and the level after the jumps.  dt_col is the step length:
    scalar, one per path as a column, or one per step (segments)."""
    post = _accumulate_rows(np.add, cont if jumps is None else cont + jumps)
    post += v[:, None]
    return _step_levels(law, v, post, cont, jumps is not None, u, dt_col, minimum)


def _step_levels(law: _Law, v, post, cont, jumped: bool, u, dt_col, minimum: bool):
    """``_levels`` given the levels ``post`` after each step."""
    start = np.hstack((v[:, None], post[:, :-1]))
    c_end = start + cont if jumped else post
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


def _reduce_rows(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce`` along each row.  numpy scans a row at a time, at a
    cost per row far above an elementwise pass, so rows of up to
    _SHORT_ROWS cells go column by column instead, with the same
    arithmetic; so does ``_accumulate_rows``."""
    if x.shape[1] > _SHORT_ROWS:
        return ufunc.reduce(x, axis=1)
    out = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        ufunc(out, x[:, j], out=out)
    return out


def _accumulate_rows(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.accumulate`` along each row (see ``_reduce_rows``)."""
    if x.shape[1] > _SHORT_ROWS:
        return ufunc.accumulate(x, axis=1)
    out = np.empty(x.shape)
    out[:, 0] = x[:, 0]
    for j in range(1, x.shape[1]):
        ufunc(out[:, j - 1], x[:, j], out=out[:, j])
    return out


def _first(mask: np.ndarray):
    """(any, column of the first True) per row; a one-step block skips the
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
    """inf(D ^ 0) after each step of the block, from inf0 before it."""
    return _accumulate_rows(np.minimum, np.minimum(m_min, inf0[:, None]))


def _crossed_up(law: _Law, u, start, c_end, post, level, dt):
    """(creep, jump) masks of an up-crossing of ``level`` (scalar or per cell)
    in each step start -> c_end -> post of length dt (scalar or per cell):
    the continuous end value reaches the level, else the bridge between
    start and c_end crosses it (its uniform in u, one per cell; None at
    sigma = 0), else the jump carries the path over."""
    creep = c_end >= level
    if u is not None:
        # exp(-2 gap0 gap1 / (sigma^2 dt)), built in place
        p = np.clip(level - start, 0.0, None)
        p *= np.clip(level - c_end, 0.0, None)
        p *= -2.0 / (law.sigma**2 * dt)
        creep |= u < np.exp(p, out=p)
    return creep, ~creep & (post >= level)


def _hit_time(law: _Law, rng, h0: np.ndarray, h1: np.ndarray, dt) -> np.ndarray:
    """Time into a step at which its continuous part, h0 > 0 above a level at
    the start and h1 at the end, first reaches the level, given that it does;
    dt is the step length, scalar or per path.
    Under s = dt u/(1+u) the Brownian bridge is a Brownian motion in u with
    drift |h1| / (sigma sqrt(dt)) towards or away from the level, so u given
    the hit is inverse Gaussian; it is drawn by Michael, Schucany & Haas
    (1976), in a form that stays finite as that drift goes to 0.  At sigma = 0
    the continuous part is linear within the step."""
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
    path's next jump epoch, an Exp(rate) wait, until the one that reaches
    the end of the path's room, which ends there with no jump.  The cells
    after that one (``valid`` False) are not part of the path; each holds a
    wait of its own and no jump, so every cell is a well-formed segment."""

    elapsed: np.ndarray  # the segment's start, in time from the path's
    tau: np.ndarray  # its length
    cont: np.ndarray  # the Gaussian move of the continuous part over it
    jump: np.ndarray  # the jump at its end, 0 where it ends at the room's end
    jumped: np.ndarray  # whether it ends at a jump (a prefix of each row)

    @property
    def valid(self) -> np.ndarray:
        """The cells on the path: the first, and each after a jump."""
        return np.hstack((np.ones((self.tau.shape[0], 1), dtype=bool), self.jumped[:, :-1]))

    @property
    def last(self) -> np.ndarray:
        """Column of each row's last cell on the path."""
        return np.minimum(self.jumped.sum(axis=1), self.tau.shape[1] - 1)

    @property
    def runs_on(self) -> np.ndarray:
        """Rows whose k segments all end at a jump: the path goes on."""
        return self.jumped[:, -1]

    @property
    def span(self) -> np.ndarray:
        """Time from the path's start to the end of each cell."""
        return self.elapsed + self.tau


def _segment(law: _Law, rng, room: np.ndarray, k: int) -> _Segments:
    """k segments per path (one, to the end of the room, without jumps)."""
    n = room.size
    if law.jumps is None:
        tau = room[:, None].copy()
        elapsed, jump, jumped = np.zeros((n, 1)), np.zeros((n, 1)), np.zeros((n, 1), dtype=bool)
    else:
        tau = rng.exponential(1.0 / law.jumps._rate, (n, k))
        ends = _accumulate_rows(np.add, tau)
        elapsed = np.hstack((np.zeros((n, 1)), ends[:, :-1]))
        jumped = ends < room[:, None]
        stop = ~jumped
        stop[:, 1:] &= jumped[:, :-1]  # the cell that reaches the room's end
        tau[stop] = (room[:, None] - elapsed)[stop]
        jump = np.zeros((n, k))
        jump[jumped] = law.jumps.sample_jumps(rng, int(np.count_nonzero(jumped)))
    cont = law.mu * tau
    if law.sigma > 0:
        cont += law.sigma * np.sqrt(tau) * rng.standard_normal(tau.shape)
    return _Segments(elapsed, tau, cont, jump, jumped)


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
                f"{self.horizon:g} < t; raise t_max * max_blocks"
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
    """First up-crossings of b by D, by segments, or by D* = D - inf(D ^ 0)
    when ``reflect``, by blocks of dt steps."""
    if b <= 0:
        raise ValueError("threshold must be positive")
    law = _Law.of(model)
    n = cfg.n_paths
    t_cross = np.full(n, np.inf)
    kind = np.zeros(n, dtype=np.int8)
    und = np.zeros(n)
    over = np.zeros(n)
    for rng, idx in _path_groups(cfg, _STREAM_REFLECTED_FIRST if reflect else _STREAM_FIRST):
        if reflect:
            got = _block_reflected_first(law, rng, idx.size, b, cfg)
        else:
            got = _segment_first(law, rng, idx.size, b, cfg.t_max * cfg.max_blocks)
        t_cross[idx], kind[idx], und[idx], over[idx] = got
    label = "T*_b" if reflect else "T_b"
    return FirstPassageSample(b, t_cross, kind, und, over, cfg.t_max * cfg.max_blocks, label)


def _segment_first(law: _Law, rng, m: int, b: float, horizon: float):
    """(t_cross, kind, under, over) of m paths' first up-crossings of b, by
    segments.  A segment's bridge crosses b by the bridge test and at the
    time ``_hit_time`` draws; else the jump at its end may carry it over."""
    t_cross = np.full(m, np.inf)
    kind = np.zeros(m, dtype=np.int8)
    und, over = np.zeros(m), np.zeros(m)
    live, v, t = np.arange(m), np.zeros(m), np.zeros(m)  # the live paths, compacted
    k = 1
    while live.size:
        seg = _segment(law, rng, horizon - t, k)
        start, c_end, _, post = _levels(law, v, seg.cont, seg.jump, None, None, False)
        creep, by_jump = _crossed_up(law, law.uniforms(rng, start.shape), start, c_end, post, b, seg.tau)
        hit, j = _first((creep | by_jump) & seg.valid)
        by_creep, h0, ce, po, at, el = (_at(x, j)[hit] for x in (creep, start, c_end, post, seg.tau, seg.elapsed))
        at[by_creep] = _hit_time(law, rng, b - h0[by_creep], b - ce[by_creep], at[by_creep])
        g = live[hit]
        t_cross[g] = t[hit] + el + at
        kind[g] = np.where(by_creep, EXIT_CREEP, EXIT_JUMP)
        und[g] = np.where(by_creep, 0.0, b - ce)
        over[g] = np.where(by_creep, 0.0, po - b)
        go = seg.runs_on & ~hit  # a row that does not run on ends at the horizon
        live, v, t = live[go], post[go, -1], (t + seg.span[:, -1])[go]
        k = _next_k(k, live.size)
    return t_cross, kind, und, over


def _block_reflected_first(law: _Law, rng, m: int, b: float, cfg: SimConfig):
    """(t_cross, kind, under, over) of m paths' first up-crossings of b by
    D*, by blocks of dt steps: D crosses b + inf(D ^ 0), taken before each
    step (within-step ordering is O(dt))."""
    t_cross = np.full(m, np.inf)
    kind = np.zeros(m, dtype=np.int8)
    und, over = np.zeros(m), np.zeros(m)
    idx, v, inf_d = np.arange(m), np.zeros(m), np.zeros(m)
    clock = 0  # steps taken, the same for every live path
    while idx.size and clock < cfg.horizon_steps:
        k = min(_block_len(idx.size), cfg.horizon_steps - clock)
        v, rows, j, by_creep, under, overshoot = _first_block(law, rng, v, inf_d, b, cfg.dt, k)
        gi = idx[rows]
        t_cross[gi] = (clock + j + 1) * cfg.dt
        kind[gi] = np.where(by_creep, EXIT_CREEP, EXIT_JUMP)
        und[gi], over[gi] = under, overshoot
        live = np.ones(idx.size, dtype=bool)
        live[rows] = False
        v, inf_d, idx = v[live], inf_d[live], idx[live]
        clock += k
    return t_cross, kind, und, over


def _first_block(law: _Law, rng, v, inf_d, b: float, dt: float, k: int):
    """One block of ``_block_reflected_first`` from levels v and infima
    inf_d, which it updates in place.  Returns (end, rows, j, creep, under,
    over): the levels after the block, and for the rows that cross
    b + inf_d, the step of the crossing, whether it creeps, and the under-
    and overshoot."""
    blk = _Block(law, rng, v, dt, k)
    low_min = blk.mins()  # of the bridge-minimum uniforms
    up_min = blk.mins()  # of the crossing uniforms
    # rows that surely neither cross b + inf_d nor set a new infimum
    quiet = blk.clear(b + inf_d - blk.top, up_min)
    quiet &= blk.clear(blk.bottom - inf_d, low_min)
    rows = np.flatnonzero(~quiet)
    start, c_end, m_min, post = blk.levels(rows, blk.uniforms(_take(low_min, rows)))
    inf_after = _running_inf(m_min, inf_d[rows])
    level = np.hstack((inf_d[rows, None], inf_after[:, :-1]))
    level += b
    inf_d[rows] = inf_after[:, -1]
    del inf_after, m_min  # not needed past here; freed before the crossing test's arrays
    creep, jumpx = _crossed_up(law, blk.uniforms(_take(up_min, rows)), start, c_end, post, level, dt)
    hit, j = _first(creep | jumpx)
    by_creep, ce, po, lev = (_at(x, j)[hit] for x in (creep, c_end, post, level))
    under, over = np.where(by_creep, 0.0, lev - ce), np.where(by_creep, 0.0, po - lev)
    return blk.end, rows[hit], j[hit], by_creep, under, over


def run_first_passage(model: ModelSpec, cfg: SimConfig, b: float) -> FirstPassageSample:
    return _first_passages(model, cfg, b, False)


def run_reflected_first_passage(model: ModelSpec, cfg: SimConfig, b: float) -> FirstPassageSample:
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
    it; its last contact is then the segment's end if the continuous end c
    is at or below the level (an exit by the jump there), else tau - r (an
    exit by creeping), for r the first hit of the level by the bridge run
    backwards from c.  That hit falls in the piece after the minimum's time
    theta, a path from c that first reaches the minimum at tau - theta, so
    theta and r both come from ``_split``.  The first segment end above the
    level + 1/rho0 takes the escape test; a path that fails it returns
    under the tilted law until its bridge reaches the level, at the time
    ``_hit_time`` draws.  A path still running at the horizon is censored."""
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
            touched, j = _last((m_min <= lev) & (np.arange(seg.tau.shape[1]) <= upto[:, None]))
            lev_j = _at(lev, j)[touched] if reflect else b
            x, ce, mm, po, tau = (_at(y, j)[touched] for y in (start, c_end, m_min, post, seg.tau))
            creep = ce > lev_j
            back_off = np.zeros(creep.size)
            if creep.any():
                theta = _split(law, rng, (x - mm)[creep], (ce - mm)[creep], tau[creep])
                back_off[creep] = _split(law, rng, (ce - lev_j)[creep], (lev_j - mm)[creep], tau[creep] - theta)
            g = path[fwd[touched]]
            last[g] = t0[touched] + _at(seg.span, j)[touched] - back_off
            kind[g] = np.where(creep, EXIT_CREEP, EXIT_JUMP)
            und[g] = np.where(creep, 0.0, lev_j - ce)
            over[g] = np.where(creep, 0.0, po - lev_j)
            v[fwd] = _at(post, upto)
            t[fwd] = t0 + _at(seg.span, upto)
            if reflect:
                low[fwd] = _at(inf_after, upto)
            keep[fwd] = _at(seg.jumped, upto)  # a segment that ends without a jump ends at the horizon
            r = fwd[tested]
            esc = _escapes(rng, v[r] - low[r], b, rho0)
            escaped[path[r[esc]]] = True
            keep[r[esc]] = False
            returning[r[~esc]] = True
        if not keep.all():
            path, v, low, t, returning = (x[keep] for x in (path, v, low, t, returning))
        k = _next_k(k, path.size)
    return escaped, last, kind, und, over


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
    """(end, last_contacts): the levels x + D_h at the ends of cycles of
    lengths h = ``horizons`` from levels x, drawn exactly (the jump part by
    ``LevyMeasureView.sample_bridged``, then the Gaussian part), and
    last_contacts(bridge_rng, rows, b, steps).

    last_contacts gives, for the cycles ``rows``, the last time in [0, h] at
    which the path touched (-inf, b] (0 if it never did), on a skeleton of
    ``steps`` steps bridged to the drawn end: the continuous part is the
    Brownian bridge to its drawn value, the jumps are the jump law's bridge
    (``LevyMeasureView.sample_bridged``), lumped at step ends, and each step
    takes its bridge minimum.  A creeping exit from (-inf, b] is drawn inside
    its step, from the bridge run backwards; a jump exit's contact is its
    step end.  The skeleton draws from ``bridge_rng`` alone, so a caller
    that passes a substream of its own keeps the cycle ends of ``rng``
    unchanged; rows go through in chunks of ``_BRIDGE_CELLS`` cells.
    """
    horizons = np.asarray(horizons, dtype=float)
    inc = model.mu * horizons
    gauss = jump_bridge = None
    if model.jumps is not None:
        jumps, jump_bridge = model.jumps.sample_bridged(rng, horizons.size, horizons)
        inc = inc + jumps
    if model.sigma > 0:
        gauss = model.sigma * np.sqrt(horizons) * rng.standard_normal(horizons.shape)
        inc = inc + gauss

    def last_contacts(bridge_rng, rows, b: float, steps: int) -> np.ndarray:
        law = _Law.of(model)
        out = np.empty(rows.size)
        chunk = max(1, _BRIDGE_CELLS // steps)
        for s in range(0, rows.size, chunk):
            r = rows[s : s + chunk]
            cont = model.mu * horizons[r] + (0.0 if gauss is None else gauss[r])
            jumps = None if jump_bridge is None else jump_bridge(bridge_rng, r, steps)
            out[s : s + chunk] = _bridged_last_contact(law, bridge_rng, x[r], horizons[r], cont, jumps, b, steps)
        return out

    return x + inc, last_contacts


def _bridged_last_contact(law: _Law, rng, x, h, cont, jumps, b: float, steps: int) -> np.ndarray:
    """Last time at or below b of paths from x over [0, h] whose continuous
    part moves by ``cont`` and whose per-step jumps are ``jumps`` (paths x
    steps, or None); 0 for a path that never touched (-inf, b]."""
    n = x.size
    dt = h / steps
    dt_col = dt[:, None]
    if law.sigma > 0:
        # Gaussian steps given their sum: iid steps less their mean, plus the drawn mean
        z = law.sigma * np.sqrt(dt_col) * rng.standard_normal((n, steps))
        cont_steps = z + (cont / steps - z.mean(axis=1))[:, None]
        u = rng.random((n, steps))
    else:
        cont_steps, u = np.broadcast_to((cont / steps)[:, None], (n, steps)), None
    start, c_end, m_min, _ = _levels(law, x, cont_steps, jumps, u, dt_col, True)
    touched, j = _last(m_min <= b)
    last = np.where(touched, (j + 1) * dt, 0.0)
    above_end, above_start = _at(c_end, j) - b, _at(start, j) - b
    creep = touched & (above_end > 0)
    last[creep] -= _hit_time(law, rng, above_end[creep], above_start[creep], dt[creep])
    return last
