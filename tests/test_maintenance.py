import numpy as np
import pytest
from conftest import assert_within_se

from levypassage.maintenance import (
    InspectionSchedule,
    MaintenanceAction,
    PolicyKernels,
    PolicySpec,
    joint_law_idle,
    simulate_policy,
)


class TestIdleLaw:
    def test_idle_joint_vs_skeleton_mc_bm(self, bm_model):
        policy = PolicySpec(
            b=2.0, m=InspectionSchedule("constant", 1.0), d=MaintenanceAction("affine", 0.5)
        )
        kernels = PolicyKernels(bm_model, policy)
        grid = kernels.default_state_grid(2, n=129)
        sim = simulate_policy(bm_model, policy, 20_000, seed=3, idle_mode=True)
        for i in (1, 2):
            target = joint_law_idle(kernels, i, 0.3, state_grid=grid)
            mc = sim.p_idle_joint(i, 0.3)
            assert_within_se(mc.estimate, mc.std_error, target, 3.0, f"P(idle > 0.3, I = {i})")

    def test_idle_beyond_short_cycle_is_zero(self, pgamma_model):
        # affine m reaches its floor 0.2 < z on reachable states, where
        # P[idle > z] is zero rather than an error
        policy = PolicySpec(
            b=2.0,
            m=InspectionSchedule("affine", 1.0, slope=0.2, floor=0.2),
            d=MaintenanceAction("affine", 0.5),
        )
        kernels = PolicyKernels(pgamma_model, policy)
        grid = kernels.default_state_grid(3, n=33)
        y_short = float(grid[-1])
        assert policy.m(y_short) < 0.3
        assert kernels.kernel_cz(y_short, 0.3) == 0.0
        with pytest.raises(ValueError):
            kernels.kernel_cz(0.0, -0.1)
        p_fail = kernels.chain(3, grid)[0]
        idle = [joint_law_idle(kernels, 3, z, state_grid=grid) for z in (0.0, 0.3)]
        assert np.all(np.isfinite(idle))
        assert idle[0] == pytest.approx(p_fail[2], rel=1e-12)
        assert 0.0 < idle[1] < idle[0]
