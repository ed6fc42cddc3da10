"""Monte Carlo oracle: exact-increment path simulation for all model kinds.

Increments are sampled from their exact laws per step (Gaussian, gamma,
compound Poisson with phase-type sizes); the within-step diffusion extremes
use Brownian-bridge corrections, so level crossings by the continuous part
are detected without refining dt.  Last-passage estimators finish each path
with the escape Bernoulli test P(never return below b | value v) =
1 - e^{-rho(0)(v-b)} at the end of each horizon of length t_max.  A path
the test keeps continues unconditioned, not conditioned to return below b,
so its last passage may be recorded too early.  The estimate is therefore
accurate only when t_max is long enough that almost every path is far above
b at the first horizon end: for mu = sigma = b = 1, P(L_b <= 1) is 38 SE
(40 000 paths) too high at t_max = 0.5 and within 1 SE at t_max = 8.

Every estimator advances its paths with one step function and keeps only
its own state and stopping rule.  Paths run in fixed blocks of 100 000, each
with a counter-based Philox substream keyed by (seed, stream, block), so for
a given model, threshold and step settings a result depends only on
(seed, stream, n_paths); no batching option can change it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EscapeTestUnavailable
from .lundberg import escape_probability, escape_rate
from .models import ModelSpec

EXIT_NONE = 0
EXIT_CREEP = 1
EXIT_JUMP = 2

_BLOCK_PATHS = 100_000  # paths per Philox substream


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    t_max: float = 8.0  # horizon per time block; open-ended estimators chain max_blocks
    n_paths: int = 10_000
    seed: int = 0
    bridge_correction: bool = True
    max_blocks: int = 64

    def __post_init__(self):
        if self.dt <= 0 or self.t_max < self.dt or self.n_paths < 1:
            raise ValueError("need dt > 0, t_max >= dt, n_paths >= 1")


@dataclass(frozen=True)
class SimResult:
    estimate: float
    std_error: float
    n: int
    meta: str = ""
    extra: dict = field(default_factory=dict)

    def within(self, target: float, k: float = 3.0) -> bool:
        return abs(self.estimate - target) <= k * max(self.std_error, 1e-300)


def _substream(seed: int, stream: int, block: int) -> np.random.Generator:
    key = np.array(
        [np.uint64(seed & (2**64 - 1)), np.uint64(((stream & 0xFFFF) << 32) | (block & 0xFFFFFFFF))],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _mean_result(values: np.ndarray, meta: str, extra: dict | None = None) -> SimResult:
    n = values.size
    est = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return SimResult(est, se, n, meta, extra or {})


def _step_jumps(model: ModelSpec, rng: np.random.Generator, m: int, dt) -> np.ndarray:
    """Jump-part increment over one step (exact in law, lumped at step end)."""
    return np.zeros(m) if model.jumps is None else model.jumps.sample(rng, m, dt)


def increment_exact(model: ModelSpec, rng: np.random.Generator, t) -> np.ndarray:
    """Exact sample of D_t - D_0 for an array of horizons t (one per path)."""
    t = np.asarray(t, dtype=float)
    m = t.size
    out = model.mu * t + _step_jumps(model, rng, m, t)
    if model.sigma > 0:
        out = out + rng.normal(0.0, model.sigma * np.sqrt(t))
    return out


# ---------------------------------------------------------------------------
# Path engine: the one time step and the tests built on it


def _path_blocks(cfg: SimConfig, stream: int):
    """(rng, path indices) per block of _BLOCK_PATHS paths, keyed (seed, stream, block)."""
    for block, start in enumerate(range(0, cfg.n_paths, _BLOCK_PATHS)):
        yield _substream(cfg.seed, stream, block), np.arange(
            start, min(start + _BLOCK_PATHS, cfg.n_paths)
        )


def _step_times(cfg: SimConfig):
    """(t_end, horizon_end) for every step of max_blocks chained horizons of
    length t_max; horizon_end flags the last step of each horizon."""
    steps = int(round(cfg.t_max / cfg.dt))
    for block in range(cfg.max_blocks):
        for k in range(steps):
            yield block * cfg.t_max + (k + 1) * cfg.dt, k == steps - 1


def _step(model: ModelSpec, rng, v: np.ndarray, dt, minimum: bool = True, bridge: bool = True):
    """Advance levels v by one step of scalar or per-path length dt.

    Draws, in this order, the Gaussian increment, the Brownian-bridge minimum
    of the continuous part (only when ``minimum``, sigma > 0 and ``bridge``)
    and the jump increment lumped at the step end.  Returns (c_end, m_min,
    post): the continuous level at the step end, its minimum over the step
    (None without ``minimum``; the smaller endpoint without a bridge draw)
    and the level after the jumps.
    """
    var_dt = model.sigma**2 * dt
    c_end = v + model.mu * dt
    if model.sigma > 0:
        c_end = c_end + rng.normal(0.0, np.sqrt(var_dt), v.size)
    m_min = None
    if minimum:
        if model.sigma > 0 and bridge:
            u = rng.random(v.size)
            m_min = 0.5 * (v + c_end - np.sqrt((v - c_end) ** 2 - 2.0 * var_dt * np.log(u)))
        else:
            m_min = np.minimum(v, c_end)
    return c_end, m_min, c_end + _step_jumps(model, rng, v.size, dt)


def _crossed_up(model: ModelSpec, rng, v, c_end, post, level, dt, bridge: bool):
    """(creep, jump) masks of an up-crossing of ``level`` (scalar or per path)
    during the step v -> c_end -> post: the continuous end value reaches the
    level, else the bridge between v and c_end crosses it (one uniform per
    remaining path), else the jump carries the path over."""
    creep = c_end >= level
    if model.sigma > 0 and bridge:
        below = ~creep
        lv = level[below] if isinstance(level, np.ndarray) else level
        gap0 = np.clip(lv - v[below], 0.0, None)
        gap1 = np.clip(lv - c_end[below], 0.0, None)
        p = np.exp(-2.0 * gap0 * gap1 / (model.sigma**2 * dt))
        creep[below] |= rng.random(p.size) < p
    return creep, ~creep & (post >= level)


def _escapes(rng: np.random.Generator, x: np.ndarray, b: float, rho0: float) -> np.ndarray:
    """Exact escape Bernoulli draw per path at level x: True where the path
    never returns to (-inf, b] (probability 1 - e^{-rho0 (x - b)} above b)."""
    p = np.zeros(x.size)
    above = x > b
    p[above] = escape_probability(x[above] - b, rho0)
    return rng.random(x.size) < p


# ---------------------------------------------------------------------------
# First passage of the free process


@dataclass(frozen=True)
class FirstPassageSample:
    b: float
    t_cross: np.ndarray  # +inf when censored
    exit_kind: np.ndarray
    undershoot: np.ndarray  # b - D(T-), 0 for creeping
    overshoot: np.ndarray  # D(T) - b, 0 for creeping
    horizon: float

    @property
    def n(self) -> int:
        return self.t_cross.size

    def cdf_at(self, t: float) -> SimResult:
        return _mean_result((self.t_cross <= t).astype(float), f"P(T_b<= {t:g})")

    def laplace_at(self, delta: float) -> SimResult:
        vals = np.where(np.isfinite(self.t_cross), np.exp(-delta * self.t_cross), 0.0)
        extra = {"censored": int(np.sum(~np.isfinite(self.t_cross)))}
        return _mean_result(vals, f"E[e^(-{delta:g} T_b)]", extra)

    def penalty_laplace(self, delta: float, eps: float) -> SimResult:
        """E[e^{-delta T_b} 1{overshoot > eps}]."""
        ind = (self.exit_kind == EXIT_JUMP) & (self.overshoot > eps)
        vals = np.where(
            ind & np.isfinite(self.t_cross), np.exp(-delta * self.t_cross), 0.0
        )
        return _mean_result(vals, f"E[e^(-{delta:g} T_b); w>{eps:g}]")

    def penalty_value(self, delta: float, w) -> SimResult:
        """E[e^{-delta T_b} w(undershoot, overshoot)]; creeping paths carry
        w(0, 0) since they cross with zero under- and overshoot."""
        ok = np.isfinite(self.t_cross)
        weights = np.asarray(w(self.undershoot, self.overshoot), dtype=float)
        vals = np.where(ok, np.exp(-delta * np.where(ok, self.t_cross, 0.0)) * weights, 0.0)
        return _mean_result(vals, f"E[e^(-{delta:g} T_b) w]")

    def jump_crossing_prob(self) -> SimResult:
        return _mean_result((self.exit_kind == EXIT_JUMP).astype(float), "P(cross by jump)")


def run_first_passage(model: ModelSpec, cfg: SimConfig, b: float, stream: int = 1) -> FirstPassageSample:
    if b <= 0:
        raise ValueError("threshold must be positive")
    n = cfg.n_paths
    t_cross = np.full(n, np.inf)
    kind = np.zeros(n, dtype=np.int8)
    und = np.zeros(n)
    over = np.zeros(n)
    for rng, idx in _path_blocks(cfg, stream):
        v = np.zeros(idx.size)
        for t_end, _ in _step_times(cfg):
            c_end, _, post = _step(model, rng, v, cfg.dt, minimum=False)
            creep, jumpx = _crossed_up(model, rng, v, c_end, post, b, cfg.dt, cfg.bridge_correction)
            done = creep | jumpx
            if done.any():
                gi = idx[done]
                t_cross[gi] = t_end
                kind[gi] = np.where(creep[done], EXIT_CREEP, EXIT_JUMP)
                und[gi] = np.where(creep[done], 0.0, b - c_end[done])
                over[gi] = np.where(creep[done], 0.0, post[done] - b)
                keep = ~done
                post, idx = post[keep], idx[keep]
                if idx.size == 0:
                    break
            v = post
    return FirstPassageSample(b, t_cross, kind, und, over, cfg.t_max * cfg.max_blocks)


# ---------------------------------------------------------------------------
# Last passage of the free process


@dataclass(frozen=True)
class LastPassageSample:
    b: float
    l_last: np.ndarray  # last time at or below b (dt resolution); NaN if censored
    exit_kind: np.ndarray
    undershoot: np.ndarray  # b - D(L-) for jump exits
    overshoot: np.ndarray  # D(L) - b for jump exits
    censored: int

    @property
    def n(self) -> int:
        return self.l_last.size

    def cdf_at(self, t: float) -> SimResult:
        ok = np.isfinite(self.l_last)
        return _mean_result(
            (self.l_last[ok] < t).astype(float), f"P(L_b< {t:g})", {"censored": self.censored}
        )

    def laplace_at(self, delta: float) -> SimResult:
        ok = np.isfinite(self.l_last)
        return _mean_result(np.exp(-delta * self.l_last[ok]), f"E[e^(-{delta:g} L_b)]")

    def jump_crossing_prob(self) -> SimResult:
        ok = np.isfinite(self.l_last)
        return _mean_result(
            (self.exit_kind[ok] == EXIT_JUMP).astype(float), "P(last crossing by jump)"
        )


def run_last_passage(
    model: ModelSpec,
    cfg: SimConfig,
    b: float,
    rho0: float | None = None,
    stream: int = 2,
) -> LastPassageSample:
    """Simulate until the escape test accepts; accurate for L_b laws only
    when t_max is long (see the module docstring)."""
    if b <= 0:
        raise ValueError("threshold must be positive")
    if rho0 is None:
        if model.sigma == 0:
            rho0 = math.inf
        else:
            try:
                rho0 = escape_rate(model)
            except Exception as exc:  # pragma: no cover - defensive
                raise EscapeTestUnavailable(str(exc)) from exc
    n = cfg.n_paths
    l_last = np.full(n, np.nan)
    kind = np.zeros(n, dtype=np.int8)
    und = np.zeros(n)
    over = np.zeros(n)
    censored = 0
    for rng, idx in _path_blocks(cfg, stream):
        v = np.zeros(idx.size)
        # state per active path
        last_t = np.zeros(idx.size)  # start at 0 <= b: contact at time 0
        e_kind = np.full(idx.size, EXIT_CREEP, dtype=np.int8)
        e_y = np.zeros(idx.size)
        e_w = np.zeros(idx.size)
        for t_end, horizon_end in _step_times(cfg):
            c_end, m_min, v = _step(model, rng, v, cfg.dt, bridge=cfg.bridge_correction)
            contact = m_min <= b
            if contact.any():
                last_t[contact] = t_end
                creep_exit = contact & (c_end > b)
                jump_exit = contact & (c_end <= b) & (v > b)
                e_kind[creep_exit] = EXIT_CREEP
                e_y[creep_exit] = 0.0
                e_w[creep_exit] = 0.0
                e_kind[jump_exit] = EXIT_JUMP
                e_y[jump_exit] = b - c_end[jump_exit]
                e_w[jump_exit] = v[jump_exit] - b
            if horizon_end:
                escaped = _escapes(rng, v, b, rho0)
                gi = idx[escaped]
                l_last[gi] = last_t[escaped]
                kind[gi] = e_kind[escaped]
                und[gi] = e_y[escaped]
                over[gi] = e_w[escaped]
                keep = ~escaped
                v, idx, last_t = v[keep], idx[keep], last_t[keep]
                e_kind, e_y, e_w = e_kind[keep], e_y[keep], e_w[keep]
                if idx.size == 0:
                    break
        censored += idx.size
    return LastPassageSample(b, l_last, kind, und, over, censored)


# ---------------------------------------------------------------------------
# Reflected process D* = D - inf(D ^ 0)


def run_reflected_marginal(
    model: ModelSpec, cfg: SimConfig, times: np.ndarray, stream: int = 3
) -> np.ndarray:
    """Values of D* at the requested times for every path (rows = paths)."""
    times = np.asarray(times, dtype=float)
    t_final = float(times.max())
    steps = int(round(t_final / cfg.dt))
    record_steps = np.round(times / cfg.dt).astype(int)
    col = {int(s): j for j, s in enumerate(record_steps)}
    out = np.empty((cfg.n_paths, times.size))
    for rng, idx in _path_blocks(cfg, stream):
        v = np.zeros(idx.size)
        run_inf = np.zeros(idx.size)  # inf of (V ^ 0) so far
        for k in range(1, steps + 1):
            _, m_min, v = _step(model, rng, v, cfg.dt, bridge=cfg.bridge_correction)
            run_inf = np.minimum(run_inf, m_min)
            if k in col:
                out[idx, col[k]] = v - run_inf
    return out


def estimate_reflected_exceedance(
    model: ModelSpec, cfg: SimConfig, b: float, t: float, stream: int = 3
) -> SimResult:
    """P(D*_t > b) by simulation."""
    vals = run_reflected_marginal(model, cfg, np.array([t]), stream)[:, 0]
    return _mean_result((vals > b).astype(float), f"P(D*_{t:g} > {b:g})")


@dataclass(frozen=True)
class ReflectedFirstPassageSample:
    b: float
    t_cross: np.ndarray
    exit_kind: np.ndarray
    pre_level: np.ndarray  # D*(T-) for jump exits
    post_level: np.ndarray  # D*(T) for jump exits

    def laplace_at(self, delta: float) -> SimResult:
        vals = np.where(np.isfinite(self.t_cross), np.exp(-delta * self.t_cross), 0.0)
        return _mean_result(vals, f"E[e^(-{delta:g} T*_b)]")

    def jump_laplace(self, delta: float) -> SimResult:
        ok = np.isfinite(self.t_cross) & (self.exit_kind == EXIT_JUMP)
        vals = np.where(ok, np.exp(-delta * np.where(ok, self.t_cross, 1.0)), 0.0)
        return _mean_result(vals, f"E[e^(-{delta:g} T*_b); jump]")


def run_reflected_first_passage(
    model: ModelSpec, cfg: SimConfig, b: float, stream: int = 4
) -> ReflectedFirstPassageSample:
    if b <= 0:
        raise ValueError("threshold must be positive")
    n = cfg.n_paths
    t_cross = np.full(n, np.inf)
    kind = np.zeros(n, dtype=np.int8)
    pre = np.zeros(n)
    post_l = np.zeros(n)
    for rng, idx in _path_blocks(cfg, stream):
        v = np.zeros(idx.size)
        run_inf = np.zeros(idx.size)
        for t_end, _ in _step_times(cfg):
            # crossing level for the free coordinates, using the running
            # infimum before this step (within-step ordering is O(dt))
            ref = np.minimum(run_inf, 0.0)
            level = b + ref
            c_end, m_min, post = _step(model, rng, v, cfg.dt, bridge=cfg.bridge_correction)
            creep, jumpx = _crossed_up(
                model, rng, v, c_end, post, level, cfg.dt, cfg.bridge_correction
            )
            done = creep | jumpx
            run_inf = np.minimum(run_inf, m_min)
            if done.any():
                gi = idx[done]
                t_cross[gi] = t_end
                kind[gi] = np.where(creep[done], EXIT_CREEP, EXIT_JUMP)
                pre[gi] = np.where(creep[done], b, (c_end - ref)[done])
                post_l[gi] = np.where(creep[done], b, (post - ref)[done])
                keep = ~done
                post, idx, run_inf = post[keep], idx[keep], run_inf[keep]
                if idx.size == 0:
                    break
            v = post
    return ReflectedFirstPassageSample(b, t_cross, kind, pre, post_l)


def run_reflected_at_exp_horizon(
    model: ModelSpec,
    cfg: SimConfig,
    delta: float,
    b: float,
    rho0: float | None = None,
    stream: int = 6,
) -> tuple[np.ndarray, np.ndarray]:
    """(D*_T, indicator[L*_b >= T, D*_T > b]) for independent T ~ Exp(delta).

    [L*_b >= T] given D*_T means the reflected process returns below b after
    T, whose probability is 1 - esc(D*_T - b) when D*_T > b (and 1 if <= b),
    so the joint indicator is resolved by one exact Bernoulli draw.
    """
    rho0 = escape_rate(model) if rho0 is None else rho0
    d_at_t = np.empty(cfg.n_paths)
    joint = np.zeros(cfg.n_paths)
    for rng, idx in _path_blocks(cfg, stream):
        horizon = rng.exponential(1.0 / delta, idx.size)
        steps_needed = np.maximum(1, np.ceil(horizon / cfg.dt).astype(int))
        v = np.zeros(idx.size)
        run_inf = np.zeros(idx.size)
        for k in range(1, int(steps_needed.max()) + 1):
            active = steps_needed >= k
            _, m_min, v[active] = _step(model, rng, v[active], cfg.dt, bridge=cfg.bridge_correction)
            run_inf[active] = np.minimum(run_inf[active], m_min)
            finished = steps_needed == k
            d_at_t[idx[finished]] = (v - np.minimum(run_inf, 0.0))[finished]
        vals = d_at_t[idx]
        joint[idx] = (vals > b) & ~_escapes(rng, vals, b, rho0)
    return d_at_t, joint


@dataclass(frozen=True)
class ReflectedLastPassageSample:
    b: float
    l_last: np.ndarray
    censored: int

    def laplace_at(self, delta: float) -> SimResult:
        ok = np.isfinite(self.l_last)
        return _mean_result(
            np.exp(-delta * self.l_last[ok]), f"E[e^(-{delta:g} L*_b)]", {"censored": self.censored}
        )


def run_reflected_last_passage(
    model: ModelSpec,
    cfg: SimConfig,
    b: float,
    rho0: float | None = None,
    stream: int = 5,
) -> ReflectedLastPassageSample:
    """L*_b = last time D* <= b; escape test applies unchanged above b > 0."""
    if b <= 0:
        raise ValueError("threshold must be positive")
    rho0 = escape_rate(model) if rho0 is None else rho0
    l_last = np.full(cfg.n_paths, np.nan)
    censored = 0
    for rng, idx in _path_blocks(cfg, stream):
        v = np.zeros(idx.size)
        run_inf = np.zeros(idx.size)
        last_t = np.zeros(idx.size)
        for t_end, horizon_end in _step_times(cfg):
            _, m_min, v = _step(model, rng, v, cfg.dt, bridge=cfg.bridge_correction)
            run_inf = np.minimum(run_inf, m_min)
            # contact when the reflected minimum over the step is at or below b
            last_t[m_min - np.minimum(run_inf, 0.0) <= b] = t_end
            if horizon_end:
                escaped = _escapes(rng, v - np.minimum(run_inf, 0.0), b, rho0)
                l_last[idx[escaped]] = last_t[escaped]
                keep = ~escaped
                v, idx, run_inf, last_t = v[keep], idx[keep], run_inf[keep], last_t[keep]
                if idx.size == 0:
                    break
        censored += idx.size
    return ReflectedLastPassageSample(b, l_last, censored)


# ---------------------------------------------------------------------------
# Inspection cycles


def run_cycle_skeleton(
    model: ModelSpec, rng: np.random.Generator, x: np.ndarray, horizons, b: float, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cycle end levels from start levels x over per-path horizons, on a
    bridge-corrected skeleton of ``steps`` steps per cycle, plus the last
    in-cycle time at which the path touched (-inf, b] (0 if it never did)."""
    dt = horizons / steps
    v = x
    last_contact = np.zeros(x.size)
    for k in range(1, steps + 1):
        _, m_min, v = _step(model, rng, v, dt)
        contact = m_min <= b
        last_contact[contact] = (k * dt)[contact]
    return v, last_contact
