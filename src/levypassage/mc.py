"""Monte Carlo oracle: exact-increment path simulation for all model kinds.

Increments are sampled from their exact laws per step (Gaussian, gamma,
compound Poisson with phase-type sizes).  For sigma > 0 the within-step
extremes and hitting times of the continuous part are always drawn from its
Brownian bridge, so level crossings are detected without refining dt; at
sigma = 0 (pure gamma with drift) the path creeps linearly within a step.

Last-passage estimators use the escape test.  From a level x > b the path
never returns to (-inf, b] with probability 1 - e^{-rho0 (x - b)}; given that
it does return, it runs until the return under the Esscher-tilted law
dP~ = e^{-rho0 D} dP (drift mu - rho0 sigma^2, jump measure e^{-rho0 x} Q(dx),
see ``LevyMeasureView.tilt``), and with no downward jumps it returns to b
continuously.  A path is tested at the first step end where it stands
above b + 1/rho0 (above b when rho0 = inf, sigma = 0); a test just above b
would mostly send the path straight back.  If it escapes, it retires with
its last contact; otherwise it takes this conditioned return and resumes the
untilted law from b at the hitting time, which is drawn inside the step from
the Brownian bridge.  The test is exact at any stopping time, so the
estimates do not depend on t_max: t_max * max_blocks only sets the censoring
horizon.  A creeping last contact is drawn inside its step the same way, from
the bridge run backwards; a jump exit's is its step end.  The O(dt) bias
left comes from lumping each step's jumps at its end.

Every estimator advances its paths with one block kernel, ``_Block``,
which draws a (paths x k) block of steps at once, k = max(1, 2**14 // live
paths), so the few long paths at the end of a run cost few calls.  The
block is drawn lazily.  Each row (one path's k steps) gets its Gaussian
increments and one jump total J (``LevyMeasureView.sample_block``: one
Gamma(alpha k dt) draw for gamma; for phase type one Poisson count for the
whole block, each jump in a uniform cell, summed by row).  Jumps only raise
the level, so the continuous path bounds every level of the row from below
and that path plus J bounds it from above.  A row's k uniforms of a
bridge extreme are drawn least first, as 1 - V^{1/k}.  A row is decided
from the bounds and that least uniform when its event would be the same
for any split of J and any values of its other uniforms: a crossing
(first passage), a contact or an escape test (last passage), a hit of b
(conditioned return), a new infimum (reflected process) or the level at
a given step.  The other rows are refined: they draw the split of J over their cells (the
gamma Dirichlet bridge, or the phase-type jumps' own cells) and their
other uniforms given the least (iid uniform above it, the least in a
uniform cell), and go through the per-cell logic.  A free last-passage
row that is not tested and ends at or below b draws no bridge uniform at
all: it touches b at its last step, and the next block's first step
records a later contact.  Every decision reads only draws whose law does
not depend on what is still undrawn, and each later draw comes from its
exact law given the earlier ones: the gamma split is independent of its
total, the phase-type split is drawn with it, and the other uniforms are
drawn given their least.  So the estimates have the law of the per-cell
scheme; only the random streams differ from drawing every cell.  Callers
find their events by first/last-True searches along the refined rows;
last-passage paths carry their own step clocks, since a return takes a
path off the common schedule.

Paths run in fixed groups of 100 000, each with an SFC64 substream seeded
by the SeedSequence of (seed, stream, group).  Each estimator has its own
stream number: 1 ``run_first_passage``, 2 ``run_last_passage``, 3
``estimate_reflected_exceedance``, 4 ``run_reflected_first_passage``, 5
``run_reflected_last_passage`` and 6 ``run_reflected_at_exp_horizon``;
``maintenance.simulate_policy`` uses 7 for its cycle ends and 8 for the
bridges of its idle mode (``cycle_ends``).  So for a given model, threshold
and step settings a result depends only on (seed, n_paths); no batching
option can change it.
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
    """Step settings of a Monte Carlo run.

    ``t_max * max_blocks`` is the censoring horizon: a path without its event
    by then is censored.  The split into t_max and max_blocks changes no
    estimate, since last-passage paths take the escape test at their own
    stopping times (see the module docstring).
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
        # start + (cont - sqrt(cont^2 - 2 sigma^2 dt log u)) / 2, built in place
        m_min = np.log(u)
        m_min *= 2.0 * law.sigma**2 * dt_col
        np.subtract(cont**2, m_min, out=m_min)
        np.sqrt(m_min, out=m_min)
        np.subtract(cont, m_min, out=m_min)
        m_min *= 0.5
        m_min += start
    elif minimum:
        m_min = np.minimum(start, c_end)
    return start, c_end, m_min, post


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


def _escape_rate(model: ModelSpec, rho0: float | None) -> float:
    if rho0 is not None:
        return rho0
    try:
        return escape_rate(model)
    except LevyPassageError as exc:
        raise EscapeTestUnavailable(str(exc)) from exc


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
    ``reflect``.  D* crosses b when D crosses b + inf(D ^ 0), taken before
    each step (within-step ordering is O(dt)); the free process keeps that
    infimum at 0."""
    if b <= 0:
        raise ValueError("threshold must be positive")
    law = _Law.of(model)
    n = cfg.n_paths
    t_cross = np.full(n, np.inf)
    kind = np.zeros(n, dtype=np.int8)
    und = np.zeros(n)
    over = np.zeros(n)
    for rng, idx in _path_groups(cfg, _STREAM_REFLECTED_FIRST if reflect else _STREAM_FIRST):
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
    docstring).  Above b > 0 the reflected process moves as D does, so one
    loop serves both: the free process keeps its infimum at 0."""
    if b <= 0:
        raise ValueError("threshold must be positive")
    rho0 = _escape_rate(model, rho0)
    law, tilted = _Law.of(model), None
    gap = 1.0 / rho0  # a path is tested above b + gap (see the module docstring)
    horizon, dt = cfg.horizon_steps, cfg.dt
    n = cfg.n_paths
    l_last = np.full(n, np.nan)
    kind = np.zeros(n, dtype=np.int8)
    und = np.zeros(n)
    over = np.zeros(n)
    censored = 0
    for rng, idx in _path_groups(cfg, _STREAM_REFLECTED_LAST if reflect else _STREAM_LAST):
        m = idx.size
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
        gi = idx[escaped]
        l_last[gi] = last[escaped]
        kind[gi] = np.where(creep, EXIT_CREEP, EXIT_JUMP)[escaped]
        und[gi] = np.where(creep, 0.0, -e_end)[escaped]
        over[gi] = np.where(creep, 0.0, e_post)[escaped]
        censored += m - int(escaped.sum())
    label = "L*_b" if reflect else "L_b"
    return LastPassageSample(b, l_last, kind, und, over, censored, label)


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
    depend on t_max beyond the censoring horizon (see the module docstring)."""
    return _last_passages(model, cfg, b, rho0, False)


def run_reflected_last_passage(
    model: ModelSpec, cfg: SimConfig, b: float, rho0: float | None = None
) -> LastPassageSample:
    """L*_b = last time D* <= b; escape test and conditioned return apply
    unchanged above b > 0."""
    return _last_passages(model, cfg, b, rho0, True)


# ---------------------------------------------------------------------------
# D* = D - inf(D ^ 0) at a given time


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
        _reflected_after(law, rng, cfg.dt, np.full(idx.size, steps))
        for rng, idx in _path_groups(cfg, _STREAM_EXCEEDANCE)
    ])
    return _mean_result((vals > b).astype(float), f"P(D*_{t:g} > {b:g})")


def run_reflected_at_exp_horizon(
    model: ModelSpec, cfg: SimConfig, delta: float, b: float, rho0: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(D*_T, indicator[L*_b >= T, D*_T > b]) for independent T ~ Exp(delta).

    [L*_b >= T] given D*_T means the reflected process returns below b after
    T, whose probability is 1 - esc(D*_T - b) when D*_T > b (and 1 if <= b),
    so the joint indicator is resolved by one exact Bernoulli draw.
    """
    rho0 = _escape_rate(model, rho0)
    law = _Law.of(model)
    d_at_t = np.empty(cfg.n_paths)
    joint = np.zeros(cfg.n_paths)
    for rng, idx in _path_groups(cfg, _STREAM_EXP_HORIZON):
        horizon = rng.exponential(1.0 / delta, idx.size)
        need = np.maximum(1, np.ceil(horizon / cfg.dt).astype(int))  # steps to T
        vals = d_at_t[idx] = _reflected_after(law, rng, cfg.dt, need)
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
