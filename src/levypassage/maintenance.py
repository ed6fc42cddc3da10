"""Inspection/maintenance policy calculus.

A component degrades like D between inspections.  Inspections happen after
m(state); if the (virtually continued) process has already made its last
passage above the failure threshold b, the system is declared failed and
reset to 0, otherwise the state is mapped through the maintenance function
d.  The cycle kernels are

    A(x, dy) = [1 - esc(d^{-1}(y) - b)] f_{m(x)}(d^{-1}(y) - x) / d'(d^{-1}(y)) dy
    C(y)     = int_{b-y}^inf esc(a - (b - y)) f_{m(y)}(a) da
    Cz(y, z) = same as C with horizon m(y) - z

with f_t the increment density of D over [0, t] and esc(z) = 1 - e^{-rho(0) z}
the never-return probability.  Since phi_D(rho(0)) = 0, E[e^{-rho(0) D_t}] = 1,
so with c = b - y

    C(y) = P(D_t > c) - e^{rho(0) c} P~(D_t > c),   dP~ = e^{-rho(0) D_t} dP,

and under P~ the law of D_t is again Gaussian plus gamma: drift
mu - rho(0) sigma^2, the same sigma, gamma shape alpha t and scale
xi / (1 + rho(0) xi); for Brownian motion it is N(-mu t, sigma^2 t).  The
jump part of this tilt, e^{-rho(0) x} Q(dx), is ``LevyMeasureView.tilt`` for
both jump families (the last-passage Monte Carlo draws its conditioned
returns from it).  C is evaluated for all states in one call of the per-kind
D_t law's ``escape_mass``, on (threshold, horizon) pairs (b - y, m(y)):
closed forms for the Brownian and pure-gamma kinds, and for perturbed gamma
and phase type damped Fourier sums of the characteristic function
e^{t phi_D}, which need only the jump law's exponential-moment abscissa and
jump rate (its no-jump share is closed) and read no grid; psi_D is
evaluated once for all states, and a horizon enters only through e^{t psi_D}.
Because failure is decided by the escape test at the end-of-cycle value,
the policy Monte Carlo samples cycle endpoints from their exact laws; its
idle mode bridges only the cycle in which a path fails, for the
within-cycle last-contact time of the idle-time statistics.

Every policy law runs one forward recursion over the post-maintenance
states, rho_{k+1}(y') = int rho_k(y) A(y, y') dy from rho_1 = A(0, .), and
ends with C (failure at cycle k + 1) or Cz (idle time).  Reset maintenance
has no change of variables: it is the one-state case, all survivors at d0
with rho_1 = 1 - C(0) and one-cycle survival 1 - C(d0).

The recursion is a trapezoid sum over one uniform state grid y_j per
(model, policy), so A is a matrix A(y_i, y_j), and rho_1 is one more row,
A(0, y_j).  With affine d the end levels a_j = d^{-1}(y_j) are uniform as
well, and the row from x needs f_{m(x)} on the lattice a_j - x.
``density_lattice`` builds every row: for perturbed gamma and phase type
one inverse FFT per row of the characteristic function
E[e^{-i w D_t}] = e^{t psi_D(i w)}, with psi_D evaluated once for all rows,
and for Brownian motion and pure gamma the closed form, a batch of rows at
a time.  The chain reads no point value of the density: the pointwise
``kernel_a`` is the tests' reference for the rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HorizonExceeded, NonBijectiveMaintenance, SchemaError
from .last_passage import density_lattice, density_of_dt
from .lundberg import escape_probability, escape_rate
from .mc import SimResult, _mean_result, _substream, cycle_ends, last_contacts
from .models import ModelSpec, _need

_T_FLOOR = 1e-6  # degenerate-density floor for z -> m(y)
# substream numbers of simulate_policy's cycles and of its idle-mode bridges
# (see the mc module docstring)
_POLICY_STREAM, _BRIDGE_STREAM = 7, 8
# idle mode bridges a failing cycle's rows in groups of this many expected
# cells (jumps and cycles), and searches its bridged rows once they hold this many
_IDLE_CELLS = 2**16
_MAX_CYCLES = 10_000
# the state grid spans the states reachable within _GRID_CYCLES cycles (the
# cycle count of the benchmark's chains) on _GRID_POINTS points
_GRID_CYCLES, _GRID_POINTS = 4, 512


# ---------------------------------------------------------------------------
# Policy specification


@dataclass(frozen=True)
class InspectionSchedule:
    """Nonincreasing inter-inspection interval m(state) > 0."""

    family: str  # "constant" | "affine" | "exponential"
    value: float = 1.0  # constant value / affine c0 / exponential m0
    slope: float = 0.0  # affine c1 / exponential kappa
    floor: float = 0.05  # lower clamp m_min

    def __post_init__(self):
        if self.family not in ("constant", "affine", "exponential"):
            raise ValueError(f"unknown inspection family {self.family!r}")
        if self.value <= 0 or self.slope < 0 or self.floor <= 0:
            raise ValueError("inspection schedule needs value > 0, slope >= 0, floor > 0")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "constant":
            out = np.full_like(x, self.value)
        elif self.family == "affine":
            out = np.maximum(self.floor, self.value - self.slope * x)
        else:
            out = self.value * np.exp(-self.slope * np.clip(x, 0.0, None)) + self.floor
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class MaintenanceAction:
    """State map applied on survival: affine d(x) = theta x + d0 (bijective)
    or "reset" (constant d0, perfect repair)."""

    family: str  # "affine" | "reset"
    theta: float = 1.0
    d0: float = 0.0

    def __post_init__(self):
        if self.family not in ("affine", "reset"):
            raise ValueError(f"unknown maintenance family {self.family!r}")
        if self.family == "affine" and self.theta <= 0:
            raise NonBijectiveMaintenance("affine maintenance needs theta > 0")

    @property
    def bijective(self) -> bool:
        return self.family == "affine"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self.theta * x + self.d0 if self.family == "affine" else np.full_like(x, self.d0)
        return out if out.ndim else float(out)

    def inverse(self, y):
        if not self.bijective:
            raise NonBijectiveMaintenance("reset maintenance has no inverse")
        y = np.asarray(y, dtype=float)
        out = (y - self.d0) / self.theta
        return out if out.ndim else float(out)

    def derivative(self, y):
        if not self.bijective:
            raise NonBijectiveMaintenance("reset maintenance has no derivative")
        y = np.asarray(y, dtype=float)
        out = np.full_like(y, self.theta)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class PolicySpec:
    b: float
    m: InspectionSchedule
    d: MaintenanceAction

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("failure threshold must be positive")
        # sampled sanity checks of the declared shapes
        xs = np.linspace(-2.0 * self.b, 4.0 * self.b, 64)
        ms = self.m(xs)
        if np.any(ms <= 0) or np.any(np.diff(ms) > 1e-12):
            raise ValueError("inspection interval must be positive and nonincreasing")
        if self.d.bijective:
            back = self.d.inverse(self.d(xs))
            if np.max(np.abs(back - xs)) > 1e-10:
                raise NonBijectiveMaintenance("d_inverse(d(x)) != x")


def policy_from_dict(doc: dict, where: str = "$") -> PolicySpec:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected object")
    b = _need(doc, "b", float, where)
    m_doc = doc.get("m")
    d_doc = doc.get("d")
    if not isinstance(m_doc, dict):
        raise SchemaError(f"{where}.m: expected object")
    if not isinstance(d_doc, dict):
        raise SchemaError(f"{where}.d: expected object")
    try:
        m = InspectionSchedule(
            family=m_doc.get("family", "constant"),
            value=_need(m_doc, "value", float, f"{where}.m", default=1.0),
            slope=_need(m_doc, "slope", float, f"{where}.m", default=0.0),
            floor=_need(m_doc, "floor", float, f"{where}.m", default=0.05),
        )
        d = MaintenanceAction(
            family=d_doc.get("family", "affine"),
            theta=_need(d_doc, "theta", float, f"{where}.d", default=1.0),
            d0=_need(d_doc, "d0", float, f"{where}.d", default=0.0),
        )
        return PolicySpec(b=b, m=m, d=d)
    except (ValueError, NonBijectiveMaintenance) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def policy_from_json(text: str) -> PolicySpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return policy_from_dict(doc)


# ---------------------------------------------------------------------------
# Cycle kernels


class PolicyKernels:
    """A, C and the idle-time survivor for one (model, policy) pair.

    The chain's state grid, rho_1 and the one-cycle transition matrix are
    built once per instance (``_cycle``) and shared by ``chain``,
    ``joint_law_idle`` and ``expected_time_to_renewal``.  rho_1 = A(0, .) is
    the x = 0 row of ``_transition_matrix``, which builds every row from
    lattice rows of the D_t density.  ``kernel_a`` evaluates A pointwise: it
    is the tests' reference for those rows, and feeds the CLI's kernel table
    and the ``validate`` cycle-mass row.
    ``kernel_c`` and ``kernel_cz`` take arrays of states and make one
    ``escape_mass`` call for all of them, on (threshold, horizon) pairs: a
    closed form for Brownian motion and pure gamma, else the Fourier sums.
    """

    def __init__(self, model: ModelSpec, policy: PolicySpec):
        self.model = model
        self.policy = policy
        self.rho0 = escape_rate(model)
        self._dens_cache: dict[float, object] = {}

    def _density(self, t: float):
        key = round(max(t, _T_FLOOR), 12)
        if key not in self._dens_cache:
            self._dens_cache[key] = density_of_dt(self.model, key)
        return self._dens_cache[key]

    def kernel_a(self, x: float, y) -> np.ndarray:
        """Density of [no failure this cycle, next state in dy] from state x."""
        d = self.policy.d
        if not d.bijective:
            raise NonBijectiveMaintenance(
                "the change-of-variables kernel needs a bijective maintenance map"
            )
        y = np.atleast_1d(np.asarray(y, dtype=float))
        a = d.inverse(y)  # end-of-cycle degradation level
        law = self._density(float(self.policy.m(x)))
        law.check_point_density()
        surv = 1.0 - escape_probability(a - self.policy.b, self.rho0)
        return surv * law(a - x) / d.derivative(y)

    def kernel_c(self, y, horizon=None):
        """Failure probability before the next inspection, for every state in y.

        ``horizon`` (default m(y)) broadcasts against y; it is floored at
        1e-6 and rounded to 12 decimals, as the horizons of ``kernel_a`` are.
        All states go to one ``escape_mass`` call, as threshold/horizon pairs
        (b - y, horizon), on the D_t law of the shortest horizon.
        """
        y_in = np.asarray(y, dtype=float)
        ys = np.atleast_1d(y_in)
        if not ys.size:
            return np.empty(ys.shape)
        t = self.policy.m(ys) if horizon is None else horizon
        t = np.round(np.maximum(np.broadcast_to(t, ys.shape), _T_FLOOR), 12)
        out = self._density(float(t.min())).escape_mass(self.policy.b - ys, t)
        return out.reshape(y_in.shape) if y_in.ndim else float(out[0])

    def kernel_cz(self, y, z):
        """Unconditional idle-time survivor P[m(y) - L >= z, failure] from y;
        0 for z > m(y), since the idle time cannot exceed the cycle."""
        y_in, z = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(z, dtype=float))
        if np.any(z < 0):
            raise ValueError("idle time must be nonnegative")
        ys, z = np.atleast_1d(y_in), np.atleast_1d(z)
        t = np.asarray(self.policy.m(ys))
        live = z <= t
        out = np.zeros(ys.shape)
        if live.any():
            out[live] = self.kernel_c(ys[live], horizon=(t - z)[live])
        return out.reshape(y_in.shape) if y_in.ndim else float(out[0])

    def _transition_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """kernel_a(x_i, y_j) for start states x_i and every state y_j of a
        uniform grid.

        The end levels a_j = d^{-1}(y_j) are uniform too, so row i is the
        density of D_{m(x_i)} on the lattice a_j - x_i: ``density_lattice``
        gives all rows at once, one inverse FFT each for sigma > 0.
        """
        d = self.policy.d
        a = d.inverse(ys)
        t = np.maximum(self.policy.m(xs), _T_FLOOR)
        step = (ys[-1] - ys[0]) / (ys.size - 1) / d.theta
        surv = 1.0 - escape_probability(a - self.policy.b, self.rho0)
        return density_lattice(self.model, t, a[0] - xs, step, ys.size) * (surv / d.derivative(ys))

    # -- state grid and chain products

    def default_state_grid(self) -> np.ndarray:
        """Grid of _GRID_POINTS states spanning those that carry mass within
        _GRID_CYCLES cycles.

        A survivor's end level a has weight 1 - esc(a - b) = e^{-rho0 (a - b)}
        above b, so whatever its start state and horizon it ends below
        b + K/rho0 up to mass e^{-K}: the top is d(b + K/rho0) with K = 23
        (e^{-K} = 1e-10), or d(b) when rho0 = inf.  Jumps only push the level
        up, so the bottom iterates the Gaussian part's 1e-10 quantile over the
        widest horizon, mu t - 6.4 sigma sqrt(t), through d for _GRID_CYCLES
        cycles.
        """
        d, model = self.policy.d, self.model
        t = float(self.policy.m(min(0.0, -2.0 * self.policy.b)))
        inc_lo = model.mu * t - 6.4 * model.sigma * np.sqrt(t)
        lo = 0.0
        for _ in range(_GRID_CYCLES):
            lo = min(lo, float(d(lo + inc_lo)))
        return np.linspace(lo, float(d(self.policy.b + 23.0 / self.rho0)), _GRID_POINTS)

    @cached_property
    def _cycle(self):
        """States y after a survived first cycle, their trapezoid weights,
        rho_1 on them and the one-cycle transition matrix: one
        ``_transition_matrix`` call, whose x = 0 row is rho_1.

        Reset maintenance is the one-state case: every survivor sits at d0,
        with mass 1 - C(0), and survives each later cycle with 1 - C(d0).
        """
        if not self.policy.d.bijective:
            d0 = float(self.policy.d(0.0))
            c0, cd = self.kernel_c(np.array([0.0, d0]))
            cycle = np.array([d0]), np.ones(1), np.array([1.0 - c0]), np.array([[1.0 - cd]])
        else:
            ys = self.default_state_grid()
            wts = np.full(ys.size, (ys[-1] - ys[0]) / (ys.size - 1))
            wts[0] *= 0.5
            wts[-1] *= 0.5
            rows = self._transition_matrix(np.concatenate(([0.0], ys)), ys)
            cycle = ys, wts, rows[0], rows[1:]
        for arr in cycle:
            arr.flags.writeable = False  # every chain law reads them, and chain returns ys (and rho_1)
        return cycle

    def _forward(self, i_max: int, factor):
        """The recursion rho_{k+1} = int rho_k(y) A(y, .) dy and its
        time-weighted companion tau_k, each level i ended by the final factor
        ``factor`` (C or Cz) of the states: the masses and time-weighted
        masses for i = 1..i_max, the states and rho_{i_max} on them."""
        ys, wts, rho, rows = self._cycle
        fail = factor(np.concatenate(([0.0], ys)))  # state 0, then the states
        m_vals = np.asarray(self.policy.m(ys))
        m0 = float(self.policy.m(0.0))
        total, timed = [float(fail[0])], [m0 * float(fail[0])]
        tau = m0 * rho  # E of accumulated time density
        for _ in range(2, i_max + 1):
            total.append(float(np.sum(rho * wts * fail[1:])))
            timed.append(float(np.sum((tau + m_vals * rho) * wts * fail[1:])))
            rho, tau = (rho * wts) @ rows, ((tau + m_vals * rho) * wts) @ rows
        return np.asarray(total), np.asarray(timed), ys, rho

    def chain(self, i_max: int):
        """Forward state densities rho_k and time-weighted companions tau_k.

        rho_k(y) dy = P[I > k, X_{U_k} in dy] for k >= 1; returns the per-level
        failure masses P[I = i] for i = 1..i_max, the expected accumulated
        inspection times E[T* 1{I=i}], the states and rho_{i_max} on them.
        For reset maintenance the states are the single point d0 and rho_k is
        the point mass P[I > k] there.
        """
        return self._forward(i_max, self.kernel_c)


def joint_law_idle(kernels: PolicyKernels, i: int, z: float) -> float:
    """P[idle > z, I = i]: the chain with the final factor Cz(y, z)."""
    if i < 1:
        raise ValueError("cycle index starts at 1")
    if i == 1:
        return kernels.kernel_cz(0.0, z)
    return float(kernels._forward(i, lambda y: kernels.kernel_cz(y, z))[0][-1])


def expected_time_to_renewal(kernels: PolicyKernels, i: int) -> float:
    """E[T* 1{I=i}] with T* = m(0) + m(y_1) + ... + m(y_{i-1})."""
    if i < 1:
        raise ValueError("cycle index starts at 1")
    return float(kernels.chain(i)[1][i - 1])


# ---------------------------------------------------------------------------
# Policy Monte Carlo


@dataclass(frozen=True)
class PolicySimResult:
    n: int
    i_of_path: np.ndarray  # failing cycle index per path
    t_star: np.ndarray  # regeneration time per path
    idle: np.ndarray | None  # idle time per path (idle mode only)

    def p_i(self, i: int) -> SimResult:
        return _mean_result((self.i_of_path == i).astype(float), f"P(I={i})")

    def mean_t_star(self) -> SimResult:
        return _mean_result(self.t_star, "E[T*]")

    def e_t_star_on_i(self, i: int) -> SimResult:
        vals = np.where(self.i_of_path == i, self.t_star, 0.0)
        return _mean_result(vals, f"E[T*; I={i}]")

    def p_idle_joint(self, i: int, z: float) -> SimResult:
        if self.idle is None:
            raise ValueError("idle statistics need idle mode")
        vals = ((self.i_of_path == i) & (self.idle > z)).astype(float)
        return _mean_result(vals, f"P(idle>{z:g}, I={i})")


def simulate_policy(
    model: ModelSpec,
    policy: PolicySpec,
    n_paths: int,
    seed: int = 0,
    idle_mode: bool = False,
) -> PolicySimResult:
    """Simulate renewal cycles of the maintained component.

    Failure within a cycle is decided by the exact escape Bernoulli test at
    the end-of-cycle value, so both modes sample cycle endpoints from their
    exact laws.  ``idle_mode`` then bridges the cycle in which a path fails
    to its drawn end, exactly (``cycle_ends``: the cycle's jumps as points,
    the Brownian bridge between them), and records the last time at or
    below the threshold (idle time = cycle length - last contact).  A
    cycle's failing rows are bridged in groups of at most _IDLE_CELLS
    expected cells, each row counted at one plus its expected jump count, so
    memory stays bounded however many paths fail in one cycle.  The bridges
    draw from their own substream, so both modes give the same failing
    cycles and regeneration times.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    rho0 = escape_rate(model)
    rng = _substream(seed, _POLICY_STREAM, 0)
    bridge_rng = _substream(seed, _BRIDGE_STREAM, 0) if idle_mode else None
    b = policy.b
    x = np.zeros(n_paths)
    t_star = np.zeros(n_paths)
    i_of_path = np.zeros(n_paths, dtype=np.int64)
    idle = np.full(n_paths, np.nan) if idle_mode else None
    failed, bridged, cells = [], [], 0  # failing paths, their bridged cycles and cells, not yet searched
    jump_rate = 0.0 if model.jumps is None else model.jumps.compound_poisson()._rate
    idx = np.arange(n_paths)
    for cycle in range(1, _MAX_CYCLES + 1):
        m = idx.size
        if m == 0:
            break
        horizons = np.asarray(policy.m(x), dtype=float)
        v, bridge = cycle_ends(model, rng, x, horizons)
        t_star[idx] += horizons
        esc_p = escape_probability(v - b, rho0)
        fail = rng.random(m) < esc_p
        if fail.any():
            gi = idx[fail]
            i_of_path[gi] = cycle
            if idle_mode:
                rows = np.flatnonzero(fail)
                size = max(1, int(_IDLE_CELLS // (1.0 + jump_rate * horizons[rows].max())))
                groups = np.split(rows, np.arange(size, rows.size, size))
                for n_group, group in enumerate(groups, 1):
                    failed.append(idx[group])
                    bridged.append(bridge(bridge_rng, group))
                    cells += bridged[-1][4].size + group.size
                    if cells >= _IDLE_CELLS or (n_group == len(groups) and fail.all()):
                        last = last_contacts(model, bridge_rng, bridged, b)
                        idle[np.concatenate(failed)] = np.concatenate([c[1] for c in bridged]) - last
                        failed, bridged, cells = [], [], 0
        keep = ~fail
        x = np.asarray(policy.d(v[keep]))
        idx = idx[keep]
    if idx.size:
        raise HorizonExceeded(f"{idx.size} paths exceeded {_MAX_CYCLES} cycles")
    return PolicySimResult(n_paths, i_of_path, t_star, idle)

