"""First passage of the zero-reflected process D* = D - inf(D ^ 0).

The jump-crossing part of the law of (T*_b, D*(T*-), D*(T*)) has density

    q(z - y) * r_b(y),   y in [0, b], z > b,

where r_b(y) = W(b) W'(y) / W'(b) - W(y) is the reflected resolvent kernel
built from the delta-scale function, read in the bounded form ``ScaleSet.r_b``
(the direct form cancels to 0, inf or NaN at large rho b).  Only this jump
share is computed; the creeping (continuous-crossing) share has no formula
here, and the tests compare the jump share with the Monte Carlo
``FirstPassageSample.jump_laplace``.
"""

from __future__ import annotations

import numpy as np

from .errors import NoJumpPart, OutOfGrid
from .lundberg import ScaleSet
from .mc import SimConfig, SimResult, estimate_reflected_exceedance, run_first_passage
from .models import ModelSpec


def reflected_passage_density(
    model: ModelSpec, scales: ScaleSet, b: float, y, z
):
    """Transform-density of E[e^{-delta T*_b}; D*(T*-) in dy, D*(T*) in dz]
    for jump crossings: q(z - y) r_b(y), with r_b read off the scale set."""
    if not model.has_jumps:
        raise NoJumpPart(
            "pure-diffusion crossings creep through the boundary; the jump-overshoot "
            "density needs a jump part"
        )
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(y < 0) or np.any(y > b):
        raise OutOfGrid("pre-crossing level must lie in [0, b]")
    if np.any(z <= b):
        raise OutOfGrid("post-crossing level must exceed b")
    if b <= 0 or b > scales.x_max:
        raise OutOfGrid("threshold must lie inside the scale grid")
    out = model.levy_measure().density(z - y) * scales.r_b(b, y)
    return out if out.ndim else float(out)


def duality_check(
    model: ModelSpec, b: float, t: float, cfg: SimConfig
) -> tuple[SimResult, SimResult]:
    """Monte Carlo pair (P(D*_t > b), P(T_b <= t)); equal in law."""
    cfg_fp = cfg if cfg.t_max >= t else SimConfig(t_max=t, n_paths=cfg.n_paths, seed=cfg.seed, max_blocks=1)
    p_reflected = estimate_reflected_exceedance(model, cfg, b, t)
    sample = run_first_passage(model, cfg_fp, b)
    p_passage = sample.cdf_at(t)
    return p_reflected, p_passage
