"""Monte Carlo oracle: exact path simulation for all model kinds.

Two engines draw the paths; the jump law picks one (``_Law.segmented``),
never the model kind.

*Segments*, for a finite jump rate (Brownian motion and phase-type jumps).
A segment runs from a path's level to its next jump epoch, an Exp(rate)
wait, cut at the censoring horizon t_max * max_blocks (for Brownian motion
it is the whole horizon left) or at a target time.  Its continuous part is
one Gaussian draw; its events come from the Brownian bridge between the
two ends: an up-crossing by the bridge test and its time by ``_hit_time``,
the minimum from one uniform (``_bridge_min``), and the times of that
minimum and of a last contact from ``_split``.  One jump size is drawn at
the segment's end (``LevyMeasureView.sample_jumps``).  Every law used is
exact, so these estimates carry no time-step bias and do not read
``SimConfig.dt``: free first passage, free and reflected last passage,
and D* at a fixed or an exponential time.

*Blocks*, for infinite activity (the gamma kinds) and for reflected first
passage of every kind.  ``_Block`` draws a (paths x k) block of steps of
length dt at once, k = max(1, 2**14 // live paths), so the few long paths
at the end of a run cost few calls.  The block is drawn lazily.  Each row
(one path's k steps) gets its Gaussian increments and one jump total J
(``LevyMeasureView.sample_block``: one Gamma(alpha k dt) draw for gamma;
for phase type one Poisson count for the whole block, each jump in a
uniform cell, summed by row).  Jumps only raise the level, so the
continuous path bounds every level of the row from below and that path
plus J bounds it from above.  A row's k uniforms of a bridge extreme are
drawn least first, as 1 - V^{1/k}.  A row is decided from the bounds and
that least uniform when its event would be the same for any split of J
and any values of its other uniforms; the other rows draw the split of J
over their cells (the gamma Dirichlet bridge, or the phase-type jumps' own
cells) and their other uniforms given the least, and go through the
per-cell logic.  Every decision reads only draws whose law does not depend
on what is still undrawn, so the estimates have the law of the per-cell
scheme.  For sigma > 0 the within-step extremes and hitting times of the
continuous part come from its Brownian bridge; at sigma = 0 (pure gamma
with drift) the path creeps linearly within a step.  The O(dt) bias left
comes from lumping each step's jumps at its end, and, in reflected first
passage, from taking the level b + inf(D ^ 0) before each step: inside a
segment the drawup of D has no closed law, so that estimator stays on
blocks for every kind.

Last-passage estimators use the escape test.  From a level x > b the path
never returns to (-inf, b] with probability 1 - e^{-rho0 (x - b)}; given that
it does return, it runs until the return under the Esscher-tilted law
dP~ = e^{-rho0 D} dP (drift mu - rho0 sigma^2, jump measure e^{-rho0 x} Q(dx),
see ``LevyMeasureView.tilt``), and with no downward jumps it returns to b
continuously.  A path is tested at the first segment or step end where it
stands above b + 1/rho0 (above b when rho0 = inf, sigma = 0); a test just
above b would mostly send the path straight back.  If it escapes, it
retires with its last contact; otherwise it takes this conditioned return
and resumes the untilted law from b at the hitting time, drawn from the
Brownian bridge.  The test is exact at any stopping time, so the estimates
do not depend on t_max: t_max * max_blocks only sets the censoring
horizon.  A creeping last contact is drawn inside its segment or step from
the bridge run backwards; a jump exit's is the segment or step end.  The
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
from .models import LevyMeasureView, ModelSpec

EXIT_NONE = 0
EXIT_CREEP = 1
EXIT_JUMP = 2

_GROUP_PATHS = 100_000  # paths per substream
_BLOCK_CELLS = 2**14  # path-steps per block of an estimator
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
    block engine: the gamma kinds, and reflected first passage of every
    kind.  Brownian motion and phase type go from jump to jump in every
    other estimator and ignore it.
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
# Path engine: the one block kernel and the searches built on it


class _Law(NamedTuple):
    """The law a block is drawn from: the model's, or its Esscher tilt for a
    conditioned return, whose drift may be negative."""

    mu: float
    sigma: float
    jumps: LevyMeasureView | None

    @classmethod
    def of(cls, model: ModelSpec) -> "_Law":
        return cls(model.mu, model.sigma, model.jumps)

    @classmethod
    def tilted(cls, model: ModelSpec, rho: float) -> "_Law":
        """The law under dP~ = e^{-rho D} dP, for phi_D(rho) = 0."""
        jumps = None if model.jumps is None else model.jumps.tilt(rho)
        return cls(model.mu - rho * model.sigma**2, model.sigma, jumps)

    @property
    def jump_rate(self) -> float:
        """Jumps per unit time: 0 without jumps, inf for infinite activity."""
        return 0.0 if self.jumps is None else self.jumps._rate

    @property
    def segmented(self) -> bool:
        """True where the segment engine serves: a finite jump rate, so the
        path is a Brownian motion with drift between jump epochs."""
        return self.jump_rate < math.inf


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
    (``LevyMeasureView.sample_block``).  ``low`` is the continuous level
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

    def mins(self, n: int | None = None):
        """The least of k iid uniforms for each of n rows (default every
        row), 1 - V^{1/k} for a uniform V (V itself when k = 1); None at
        sigma = 0."""
        if self.law.sigma == 0:
            return None
        u = self.rng.random(self.v.size if n is None else n)
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

    def levels(self, rows: np.ndarray, u, minimum: bool = True):
        """``_levels``' (start, c_end, m_min, post) of the block's ``rows``,
        with their bridge-minimum uniforms u, after drawing their jump split."""
        sel = slice(None) if rows.size == self.v.size else rows  # a view, no copies
        v, cont = self.v[sel], self.cont[sel]
        if self.total is None:
            return _step_levels(self.law, v, self.low[sel], cont, False, u, self.dt, minimum)
        jumps = self.total[sel, None] if self.k == 1 else self._split(rows)
        return _levels(self.law, v, cont, jumps, u, self.dt, minimum)


def _take(x, rows):
    """x's rows, or None for None."""
    return None if x is None else x[rows]


def _levels(law: _Law, v: np.ndarray, cont, jumps, u, dt_col, minimum: bool):
    """(start, c_end, m_min, post) of steps from levels v with the drawn
    continuous increments, jump increments (None without jumps) and
    bridge-minimum uniforms (None without ``minimum`` or at sigma = 0): the
    level at each step start, the continuous level at the step end, its
    minimum over the step (None without ``minimum``; the smaller endpoint at
    sigma = 0) and the level after the jumps.  dt_col is the step length,
    scalar or one per path as a column."""
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
    in each step start -> c_end -> post: the continuous end value reaches the
    level, else the bridge between start and c_end crosses it (its uniform
    in u, one per cell; None at sigma = 0), else the jump carries the path
    over."""
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
# Segment engine: a finite jump rate, from one jump epoch to the next


def _segment(law: _Law, rng, room: np.ndarray):
    """One segment per path: to its next jump epoch, an Exp(rate) wait, or
    to the end of its ``room``, whichever comes first.  Returns (tau, cont,
    jump, jumped): the segment's length, the Gaussian move of the continuous
    part over it, the jump at its end (0 where it ends at ``room``) and
    whether it ends at a jump."""
    tau = room.copy()
    jumped = np.zeros(room.size, dtype=bool)
    if law.jumps is not None:
        wait = rng.exponential(1.0 / law.jump_rate, room.size)
        jumped = wait < room
        tau[jumped] = wait[jumped]
    cont = rng.normal(law.mu * tau, law.sigma * np.sqrt(tau))
    jump = np.zeros(room.size)
    if jumped.any():
        jump[jumped] = law.jumps.sample_jumps(rng, int(jumped.sum()))
    return tau, cont, jump, jumped


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
    (c, a, span - s).  The distances are floored at 1e-150 so that one
    rounded to 0 keeps the inverse Gaussian parameters positive."""
    a, c = np.maximum(a, 1e-150), np.maximum(c, 1e-150)
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
    """First up-crossings of b by D, or by D* = D - inf(D ^ 0) when
    ``reflect``.  D goes by segments where its law has a finite jump rate;
    D*, and D of infinite activity, by blocks of dt steps.  D* crosses b
    when D crosses b + inf(D ^ 0), taken before each step (within-step
    ordering is O(dt)); the free process keeps that infimum at 0."""
    if b <= 0:
        raise ValueError("threshold must be positive")
    law = _Law.of(model)
    n = cfg.n_paths
    t_cross = np.full(n, np.inf)
    kind = np.zeros(n, dtype=np.int8)
    und = np.zeros(n)
    over = np.zeros(n)
    for rng, idx in _path_groups(cfg, _STREAM_REFLECTED_FIRST if reflect else _STREAM_FIRST):
        if law.segmented and not reflect:
            got = _segment_first(law, rng, idx.size, b, cfg.t_max * cfg.max_blocks)
            t_cross[idx], kind[idx], und[idx], over[idx] = got
            continue
        v = np.zeros(idx.size)
        inf_d = np.zeros(idx.size)
        clock = 0  # steps taken, the same for every live path
        while idx.size and clock < cfg.horizon_steps:
            k = min(_block_len(idx.size), cfg.horizon_steps - clock)
            v, rows, j, by_creep, under, overshoot = _first_block(law, rng, v, inf_d, b, cfg.dt, k, reflect)
            gi = idx[rows]
            t_cross[gi] = (clock + j + 1) * cfg.dt
            kind[gi] = np.where(by_creep, EXIT_CREEP, EXIT_JUMP)
            und[gi], over[gi] = under, overshoot
            live = np.ones(idx.size, dtype=bool)
            live[rows] = False
            v, inf_d, idx = v[live], inf_d[live], idx[live]
            clock += k
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
    while live.size:
        tau, cont, jump, jumped = _segment(law, rng, horizon - t)
        c_end = v + cont
        post = c_end + jump
        creep, by_jump = _crossed_up(law, rng.random(live.size), v, c_end, post, b, tau)
        at = tau.copy()
        at[creep] = _hit_time(law, rng, b - v[creep], b - c_end[creep], tau[creep])
        hit = creep | by_jump
        g = live[hit]
        t_cross[g] = (t + at)[hit]
        kind[g] = np.where(creep, EXIT_CREEP, EXIT_JUMP)[hit]
        und[g] = np.where(creep, 0.0, b - c_end)[hit]
        over[g] = np.where(creep, 0.0, post - b)[hit]
        go = jumped & ~hit  # a segment that ends without a jump ends at the horizon
        live, v, t = live[go], post[go], (t + tau)[go]
    return t_cross, kind, und, over


def _first_block(law: _Law, rng, v, inf_d, b: float, dt: float, k: int, reflect: bool):
    """One block of ``_first_passages`` from levels v and infima inf_d,
    which it updates in place.  Returns (end, rows, j, creep, under, over):
    the levels after the block, and for the rows that cross b + inf_d, the
    step of the crossing, whether it creeps, and the under- and overshoot."""
    blk = _Block(law, rng, v, dt, k)
    low_min = blk.mins() if reflect else None  # of the bridge-minimum uniforms
    up_min = blk.mins()  # of the crossing uniforms
    # rows that surely neither cross b + inf_d nor set a new infimum
    quiet = blk.clear(b + inf_d - blk.top, up_min)
    if reflect:
        quiet &= blk.clear(blk.bottom - inf_d, low_min)
    rows = np.flatnonzero(~quiet)
    start, c_end, m_min, post = blk.levels(rows, blk.uniforms(_take(low_min, rows)), minimum=reflect)
    level = b
    if reflect:
        inf_after = _running_inf(m_min, inf_d[rows])
        level = np.hstack((inf_d[rows, None], inf_after[:, :-1]))
        level += b
        inf_d[rows] = inf_after[:, -1]
        del inf_after
    del m_min  # not needed past here; freed before the crossing test's arrays
    creep, jumpx = _crossed_up(law, blk.uniforms(_take(up_min, rows)), start, c_end, post, level, dt)
    hit, j = _first(creep | jumpx)
    by_creep, ce, po = (_at(x, j)[hit] for x in (creep, c_end, post))
    lev = _at(level, j)[hit] if reflect else b
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
    docstring), by segments where the jump rate is finite and by blocks of
    dt steps otherwise.  Above b > 0 the reflected process moves as D does,
    so one loop serves both: the free process keeps its infimum at 0."""
    if b <= 0:
        raise ValueError("threshold must be positive")
    rho0 = _escape_rate(model, rho0)
    group = _segment_last if _Law.of(model).segmented else _block_last
    n = cfg.n_paths
    l_last = np.full(n, np.nan)
    kind = np.zeros(n, dtype=np.int8)
    und = np.zeros(n)
    over = np.zeros(n)
    censored = 0
    for rng, idx in _path_groups(cfg, _STREAM_REFLECTED_LAST if reflect else _STREAM_LAST):
        escaped, *got = group(model, rng, idx.size, b, rho0, cfg, reflect)
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
    theta and r both come from ``_split``.  A segment end above the
    level + 1/rho0 takes the escape test; a path that fails it returns
    under the tilted law until its bridge reaches the level, at the time
    ``_hit_time`` draws.  A path still running at the horizon is censored."""
    law, tilted = _Law.of(model), _Law.tilted(model, rho0)
    gap = 1.0 / rho0  # a path is tested above b + inf + gap (see the module docstring)
    horizon = cfg.t_max * cfg.max_blocks
    escaped = np.zeros(m, dtype=bool)
    last, und, over = np.zeros(m), np.zeros(m), np.zeros(m)
    kind = np.zeros(m, dtype=np.int8)
    # the live paths, compacted: their group index, level, infimum, time and
    # whether they are returning
    path, v, low, t = np.arange(m), np.zeros(m), np.zeros(m), np.zeros(m)
    returning = np.zeros(m, dtype=bool)
    while path.size:
        keep = np.ones(path.size, dtype=bool)
        back, fwd = np.flatnonzero(returning), np.flatnonzero(~returning)
        if back.size:
            x, lev = v[back], b + low[back]
            tau, cont, jump, jumped = _segment(tilted, rng, horizon - t[back])
            hit = _bridge_min(tilted, x, cont, rng.random(back.size), tau) <= lev
            tau[hit] = _hit_time(tilted, rng, (x - lev)[hit], (x + cont - lev)[hit], tau[hit])
            v[back] = np.where(hit, lev, x + cont + jump)
            t[back] += tau
            returning[back[hit]] = False
            keep[back] = hit | jumped  # a return still running at the horizon is censored
        if fwd.size:
            x = v[fwd]
            tau, cont, jump, jumped = _segment(law, rng, horizon - t[fwd])
            c_end = x + cont
            m_min = _bridge_min(law, x, cont, rng.random(fwd.size), tau)
            if reflect:
                low[fwd] = np.minimum(low[fwd], m_min)
            lev = b + low[fwd]
            touch = m_min <= lev
            creep = touch & (c_end > lev)
            back_off = np.zeros(fwd.size)
            if creep.any():
                theta = _split(law, rng, (x - m_min)[creep], (c_end - m_min)[creep], tau[creep])
                back_off[creep] = _split(law, rng, (c_end - lev)[creep], (lev - m_min)[creep], tau[creep] - theta)
            t[fwd] += tau
            v[fwd] = post = c_end + jump
            g = path[fwd[touch]]
            last[g] = (t[fwd] - back_off)[touch]
            kind[g] = np.where(creep, EXIT_CREEP, EXIT_JUMP)[touch]
            und[g] = np.where(creep, 0.0, lev - c_end)[touch]
            over[g] = np.where(creep, 0.0, post - lev)[touch]
            keep[fwd] = jumped  # a segment that ends without a jump ends at the horizon
            r = fwd[post - lev > gap]
            esc = _escapes(rng, v[r] - low[r], b, rho0)
            escaped[path[r[esc]]] = True
            keep[r[esc]] = False
            returning[r[~esc]] = True
        if not keep.all():
            path, v, low, t, returning = (x[keep] for x in (path, v, low, t, returning))
    return escaped, last, kind, und, over


def _block_last(model: ModelSpec, rng, m: int, b: float, rho0: float, cfg: SimConfig, reflect: bool):
    """(escaped, last, kind, under, over) of m paths, by blocks of dt steps."""
    law, tilted = _Law.of(model), None
    gap = 1.0 / rho0  # a path is tested above b + gap (see the module docstring)
    horizon, dt = cfg.horizon_steps, cfg.dt
    escaped = np.zeros(m, dtype=bool)
    # per path, at the step of its last contact with (-inf, b]: the step's
    # end time, and the continuous levels at its end and start and the
    # level after its jumps, less the contact level
    last, e_end, e_start, e_post = (np.zeros(m) for _ in range(4))
    # the live paths, compacted: their group index, level, infimum, time
    # their returns ended before their step ends, steps taken, and
    # whether they are returning
    path = np.arange(m)
    v, inf_d, lag = np.zeros(m), np.zeros(m), np.zeros(m)
    clock = np.zeros(m, dtype=np.int64)
    returning = np.zeros(m, dtype=bool)
    while path.size:
        # every cell of the block lies within the censoring horizon
        k = min(_block_len(path.size), horizon - int(clock.max()))
        back, fwd = np.flatnonzero(returning), np.flatnonzero(~returning)
        retire = np.zeros(path.size, dtype=bool)
        if back.size:
            # conditioned return: the tilted law until the bridge reaches b;
            # the path resumes from b at the hitting time, so its next
            # forward step records the contact
            tilted = tilted or _Law.tilted(model, rho0)
            to, steps, hit, rest = _return_block(tilted, rng, v[back], b + inf_d[back], dt, k)
            v[back] = to
            clock[back] += steps
            lag[back[hit]] += rest
            returning[back[hit]] = False
        if fwd.size:
            to, low, steps, tested, touched, j, at_j = _forward_block(
                law, rng, v[fwd], inf_d[fwd], b, gap, dt, k, reflect
            )
            r = fwd[touched]
            g = path[r]
            last[g] = (clock[r] + j + 1) * dt - lag[r]
            e_end[g], e_start[g], e_post[g] = at_j
            v[fwd], inf_d[fwd] = to, low
            clock[fwd] += steps
            r = fwd[tested]
            esc = _escapes(rng, v[r] - inf_d[r], b, rho0)
            retire[r[esc]] = True
            returning[r[~esc]] = True
        escaped[path[retire]] = True
        keep = ~retire & (clock < horizon)
        if not keep.all():
            path, v, inf_d, lag, clock, returning = (x[keep] for x in (path, v, inf_d, lag, clock, returning))
    # a creeping exit leaves (-inf, b] inside its step, at the first hit of
    # b by the step's bridge run backwards from the step end
    creep = escaped & (e_end > 0)
    last[creep] -= _hit_time(law, rng, e_end[creep], e_start[creep], dt)
    kind = np.where(creep, EXIT_CREEP, EXIT_JUMP).astype(np.int8)
    return escaped, last, kind, np.where(creep, 0.0, -e_end), np.where(creep, 0.0, e_post)


def _return_block(law: _Law, rng, v, level, dt: float, k: int):
    """One block of conditioned returns from levels v towards ``level`` (one
    per row).  Returns (to, steps, hit, rest): the level after the block,
    the level itself for a row that reaches it, the steps taken, and for
    the rows that reach it, their indices and the time from the hit to the
    end of its step."""
    blk = _Block(law, rng, v, dt, k)
    u_min = blk.mins()
    rows = np.flatnonzero(~blk.clear(blk.bottom - level, u_min))
    start, c_end, m_min, _ = blk.levels(rows, blk.uniforms(_take(u_min, rows)))
    lev = level[rows]
    hit, j = _first(m_min <= lev[:, None])
    h0, h1 = _at(start, j)[hit] - lev[hit], _at(c_end, j)[hit] - lev[hit]
    rows = rows[hit]
    to, steps = blk.end, np.full(v.size, k)
    to[rows], steps[rows] = level[rows], j[hit] + 1
    return to, steps, rows, dt - _hit_time(law, rng, h0, h1, dt)


def _forward_block(law: _Law, rng, v, floor, b: float, gap: float, dt: float, k: int, reflect: bool):
    """One block of untilted steps of ``_last_passages`` from levels v and
    infima ``floor``, each row up to its escape test.  Returns (to, floor,
    steps, tested, touched, j, at_j): each row's level, infimum and steps
    taken at the block's end or its test, and whether it is tested; for the
    rows ``touched`` whose last contact with (-inf, b + inf] the block
    records, its step j and at_j, the continuous levels at the step's end
    and start and the level after its jumps, less the contact level."""
    blk = _Block(law, rng, v, dt, k)
    level = b + floor
    untested = blk.top <= level + gap
    # an untested row that ends at or below the level touches it at its last
    # step, and its next block's first step records a later contact; the
    # free process needs no more of it
    below = untested & (blk.end <= level)
    ask = np.arange(v.size) if reflect else np.flatnonzero(~below)
    u_min = blk.mins(ask.size)
    quiet = untested[ask] & blk.clear(blk.bottom[ask] - level[ask], u_min)  # no contact
    if reflect:
        quiet |= below & blk.clear(blk.bottom - floor, u_min)  # no new infimum
    rows = ask[~quiet]
    start, c_end, m_min, post = blk.levels(rows, blk.uniforms(_take(u_min, ~quiet)))
    lev = b
    if reflect:
        inf_after = _running_inf(m_min, floor[rows])
        lev = b + inf_after
    hit, jt = _first(post - lev > gap)
    upto = np.where(hit, jt, k - 1)
    touched, j = _last((m_min <= lev) & (np.arange(k) <= upto[:, None]))
    lev_j = _at(lev, j)[touched] if reflect else b
    at_j = tuple(_at(x, j)[touched] - lev_j for x in (c_end, start, post))
    to, low, steps = blk.end, floor.copy(), np.full(v.size, k)
    to[rows], steps[rows] = _at(post, upto), upto + 1
    if reflect:
        low[rows] = _at(inf_after, upto)
    tested = np.zeros(v.size, dtype=bool)
    tested[rows] = hit
    return to, low, steps, tested, rows[touched], j[touched], at_j


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


def _reflected_at(law: _Law, rng, dt: float, when: np.ndarray, need: np.ndarray) -> np.ndarray:
    """D* of path i at time when[i]: exact, by segments cut at that time,
    where the jump rate is finite, else after need[i] steps of length dt."""
    if law.segmented:
        return _segment_reflected_at(law, rng, when)
    return _reflected_after(law, rng, dt, need)


def _segment_reflected_at(law: _Law, rng, when: np.ndarray) -> np.ndarray:
    """D* at times ``when`` (D*_0 = 0): the level at a segment's end, less
    the infimum moved to each segment's bridge minimum."""
    out = np.zeros(when.size)
    v, low, t = np.zeros(when.size), np.zeros(when.size), np.zeros(when.size)
    live = np.flatnonzero(when > 0)
    while live.size:
        tau, cont, jump, jumped = _segment(law, rng, when[live] - t[live])
        low[live] = np.minimum(low[live], _bridge_min(law, v[live], cont, rng.random(live.size), tau))
        out[live] = v[live] + cont - low[live]  # final where the segment ends at the target time
        v[live] += cont + jump
        t[live] += tau
        live = live[jumped]
    return out


def _reflected_after(law: _Law, rng, dt: float, need: np.ndarray) -> np.ndarray:
    """D* after need[i] steps of path i (D*_0 = 0 where need[i] is 0)."""
    out = np.zeros(need.size)
    v = np.zeros(need.size)
    inf_d = np.zeros(need.size)
    live = np.flatnonzero(need > 0)
    clock = 0
    while live.size:
        k = min(_block_len(live.size), int(need[live].max()) - clock)
        blk = _Block(law, rng, v[live], dt, k)
        u_min = blk.mins()
        floor = inf_d[live]
        j = need[live] - clock - 1
        fin = j < k
        # rows that set no new infimum and, if they finish here, finish at the end
        quiet = blk.clear(blk.bottom - floor, u_min) & (j >= k - 1)
        out[live[quiet & fin]] = blk.end[quiet & fin] - floor[quiet & fin]
        rows = np.flatnonzero(~quiet)
        if rows.size:
            _, _, m_min, post = blk.levels(rows, blk.uniforms(_take(u_min, rows)))
            inf_after = _running_inf(m_min, floor[rows])
            f = fin[rows]
            jf = j[rows][f]
            out[live[rows[f]]] = post[f, jf] - inf_after[f, jf]
            inf_d[live[rows]] = inf_after[:, -1]
        v[live] = blk.end
        live = live[~fin]
        clock += k
    return out


def estimate_reflected_exceedance(model: ModelSpec, cfg: SimConfig, b: float, t: float) -> SimResult:
    """P(D*_t > b) by simulation."""
    law = _Law.of(model)
    steps = int(np.round(t / cfg.dt))
    vals = np.concatenate([
        _reflected_at(law, rng, cfg.dt, np.full(idx.size, float(t)), np.full(idx.size, steps))
        for rng, idx in _path_groups(cfg, _STREAM_EXCEEDANCE)
    ])
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
        need = np.maximum(1, np.ceil(horizon / cfg.dt).astype(int))  # steps to T
        vals = d_at_t[idx] = _reflected_at(law, rng, cfg.dt, horizon, need)
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
