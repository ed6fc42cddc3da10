import numpy as np
import pytest

from levypassage import renewal
from levypassage.models import (
    KIND_BROWNIAN,
    KIND_PERTURBED_GAMMA,
    KIND_PH,
    KIND_PURE_GAMMA,
    ModelSpec,
    PhaseType,
)


@pytest.fixture(autouse=True)
def _cold_renewal_slot(monkeypatch):
    # build_renewal_kernels keeps its last kernel set; every test starts with
    # none kept, so a test that patches or counts inside the build runs it
    monkeypatch.setattr(renewal, "_kept", None)


@pytest.fixture(scope="session")
def bm_model():
    return ModelSpec(kind=KIND_BROWNIAN, mu=1.0, sigma=1.0)


@pytest.fixture(scope="session")
def pgamma_model():
    return ModelSpec(kind=KIND_PERTURBED_GAMMA, mu=0.0, sigma=1.0, alpha=1.0, xi=1.0)


@pytest.fixture(scope="session")
def pgamma_model_wide():
    # xi != 1 so scale/rate convention bugs cannot hide
    return ModelSpec(kind=KIND_PERTURBED_GAMMA, mu=0.2, sigma=0.8, alpha=1.5, xi=0.7)


@pytest.fixture(scope="session")
def ph_model():
    # exponential jumps: PH of order 1, rate 1
    return ModelSpec(kind=KIND_PH, mu=0.0, sigma=1.0, lam=1.0, ph=PhaseType([1.0], [[-1.0]]))


@pytest.fixture(scope="session")
def ph2_model():
    # order-2 phase-type jumps (hyperexponential-ish with feedback)
    alpha = [0.6, 0.4]
    t_mat = [[-2.0, 0.5], [0.3, -1.0]]
    return ModelSpec(kind=KIND_PH, mu=0.1, sigma=0.7, lam=0.8, ph=PhaseType(alpha, t_mat))


@pytest.fixture(scope="session")
def gamma_model():
    return ModelSpec(kind=KIND_PURE_GAMMA, mu=0.0, sigma=0.0, alpha=1.0, xi=1.0)


def assert_within_se(estimate: float, se: float, target: float, k: float = 3.0, label: str = ""):
    gap = abs(estimate - target)
    assert gap <= k * max(se, 1e-300), (
        f"{label}: estimate {estimate:.6g} vs target {target:.6g}, "
        f"gap {gap:.3g} > {k} * SE ({se:.3g})"
    )
