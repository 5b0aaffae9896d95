import math

import numpy as np
import pytest

from qldp import channels as ch
from qldp import qops
from qldp.errors import InvalidInputError, OutOfRegimeError
from qldp.privacy import (
    CERT_TOL,
    CertificationResult,
    PrivacyBudget,
    SearchConfig,
    certify_qldp,
    depolarizing_privacy_profile,
    hockey_stick_on_pair,
    optimal_depolarizing_p,
    qubit_depolarizing_q,
)

GRID_D = (2, 3, 4, 8)
GRID_EPS = (0.1, 0.5, 1.0, 2.0)
GRID_DELTA = (0.0, 0.1, 0.3)


def test_budget_gamma_derivation():
    b = PrivacyBudget(1.3, 0.2)
    assert abs(b.gamma - math.exp(1.3)) < 1e-12
    assert PrivacyBudget(0.0).gamma == 1.0
    with pytest.raises(InvalidInputError):
        PrivacyBudget(-0.1)
    with pytest.raises(InvalidInputError):
        PrivacyBudget(1.0, 1.5)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_budget_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(InvalidInputError):
        PrivacyBudget(epsilon)


def test_budget_whose_gamma_overflows_is_out_of_regime():
    assert math.isfinite(PrivacyBudget(709.0).gamma)
    with pytest.raises(OutOfRegimeError, match="overflows"):
        PrivacyBudget(710.0)


def test_optimal_p_examples():
    assert optimal_depolarizing_p(2, PrivacyBudget(0.0, 0.0)) == 1.0
    assert abs(optimal_depolarizing_p(2, PrivacyBudget(math.log(3), 0.0)) - 0.5) < 1e-12
    assert abs(optimal_depolarizing_p(4, PrivacyBudget(math.log(2), 0.5)) - 0.4) < 1e-12


def test_profile_examples():
    for gamma in (1.0, 2.0, 7.0):
        assert depolarizing_privacy_profile(3, 1.0, gamma) == 0.0
        assert depolarizing_privacy_profile(3, 0.0, gamma) == 1.0
    assert abs(depolarizing_privacy_profile(2, 0.5, 1.0) - 0.5) < 1e-12


def test_profile_matches_direct_hockey_stick():
    phi1 = np.diag([1.0, 0.0]).astype(complex)
    phi2 = np.diag([0.0, 1.0]).astype(complex)
    for p in (0.1, 0.5, 0.9):
        for gamma in (1.0, 1.7, 3.0):
            dep = ch.depolarizing(2, p)
            direct = qops.hockey_stick(ch.apply(dep, phi1), ch.apply(dep, phi2), gamma)
            assert abs(direct - depolarizing_privacy_profile(2, p, gamma)) < 1e-12


def test_calibration_is_exact_on_grid():
    for d in GRID_D:
        for eps in GRID_EPS:
            for delta in GRID_DELTA:
                b = PrivacyBudget(eps, delta)
                p_star = optimal_depolarizing_p(d, b)
                assert abs(depolarizing_privacy_profile(d, p_star, b.gamma) - delta) < 1e-12
                assert depolarizing_privacy_profile(d, p_star - 1e-3, b.gamma) > delta


def test_profile_monotone_in_gamma_and_p():
    vals_gamma = [depolarizing_privacy_profile(3, 0.4, g) for g in (1.0, 1.5, 2.5, 4.0)]
    assert all(a >= b - 1e-15 for a, b in zip(vals_gamma, vals_gamma[1:]))
    vals_p = [depolarizing_privacy_profile(3, p, 2.0) for p in (0.1, 0.3, 0.6, 0.9)]
    assert all(a >= b - 1e-15 for a, b in zip(vals_p, vals_p[1:]))


def test_qubit_q_examples():
    assert qubit_depolarizing_q(PrivacyBudget(0.0, 0.0)) == 1.0
    assert abs(qubit_depolarizing_q(PrivacyBudget(math.log(3), 0.0)) - 0.5) < 1e-12
    expected = 2 * 0.9 / (math.e + 1)
    assert abs(qubit_depolarizing_q(PrivacyBudget(1.0, 0.1)) - expected) < 1e-12
    # matches the d=2 calibration formula
    b = PrivacyBudget(0.7, 0.2)
    assert abs(qubit_depolarizing_q(b) - optimal_depolarizing_p(2, b)) < 1e-15


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("eps", [0.5, 1.0])
@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_certify_agrees_with_profile(d, eps, delta):
    b = PrivacyBudget(eps, delta)
    cfg = SearchConfig(restarts=32, local_steps=80, seed=1)
    for p in (optimal_depolarizing_p(d, b), 0.35):
        res = certify_qldp(ch.depolarizing(d, p), b, cfg)
        assert abs(res.sup_estimate - depolarizing_privacy_profile(d, p, b.gamma)) < 1e-6


def test_certify_calibrated_channel_and_undershoot():
    b = PrivacyBudget(1.0, 0.1)
    p_star = optimal_depolarizing_p(2, b)
    cfg = SearchConfig(restarts=32, local_steps=80, seed=2)
    res = certify_qldp(ch.depolarizing(2, p_star), b, cfg)
    assert abs(res.sup_estimate - b.delta) < 1e-6
    assert res.satisfied
    low = certify_qldp(ch.depolarizing(2, p_star - 0.05), b, cfg)
    assert low.sup_estimate > b.delta
    assert not low.satisfied


def test_certify_replacement_channel():
    rng = np.random.default_rng(3)
    const = ch.replacement_channel(qops.random_density(2, 2, rng))
    res = certify_qldp(const, PrivacyBudget(0.5, 0.0), SearchConfig(restarts=8, local_steps=30, seed=4))
    assert res.sup_estimate < 1e-9
    assert res.satisfied


def test_certification_result_invariants():
    b = PrivacyBudget(0.8, 0.0)
    res = certify_qldp(ch.depolarizing(3, 0.4), b, SearchConfig(restarts=16, local_steps=60, seed=5))
    phi1, phi2 = res.witness_pair
    assert abs(np.vdot(phi1, phi2)) < 1e-9
    assert abs(np.linalg.norm(phi1) - 1) < 1e-9
    reval = hockey_stick_on_pair(ch.depolarizing(3, 0.4), phi1, phi2, b.gamma)
    assert abs(reval - res.sup_estimate) < 1e-9
    assert isinstance(res, CertificationResult)
    assert res.restarts_used == 16


def test_certify_monotone_in_epsilon_and_p():
    cfg = SearchConfig(restarts=16, local_steps=60, seed=6)
    sups_eps = [certify_qldp(ch.depolarizing(2, 0.4), PrivacyBudget(e, 0.0), cfg).sup_estimate
                for e in (0.2, 0.6, 1.2)]
    assert all(a >= b - 1e-9 for a, b in zip(sups_eps, sups_eps[1:]))
    sups_p = [certify_qldp(ch.depolarizing(2, p), PrivacyBudget(0.5, 0.0), cfg).sup_estimate
              for p in (0.2, 0.5, 0.8)]
    assert all(a >= b - 1e-9 for a, b in zip(sups_p, sups_p[1:]))


def test_post_processing_cannot_leak():
    rng = np.random.default_rng(7)
    b = PrivacyBudget(1.0, 0.0)
    cfg = SearchConfig(restarts=24, local_steps=80, seed=8)
    private = ch.depolarizing(2, optimal_depolarizing_p(2, b))
    base = certify_qldp(private, b, cfg)
    for _ in range(5):
        post = ch.compose(ch.random_channel(2, int(rng.integers(1, 4)), rng), private)
        res = certify_qldp(post, b, cfg)
        assert res.sup_estimate <= base.sup_estimate + 1e-6


def test_borderline_flagging():
    # calibrated channel sits exactly at the threshold
    b = PrivacyBudget(0.5, 0.2)
    res = certify_qldp(ch.depolarizing(2, optimal_depolarizing_p(2, b)), b,
                       SearchConfig(restarts=16, local_steps=60, seed=9))
    assert res.borderline
    assert res.satisfied
    clear = certify_qldp(ch.depolarizing(2, 1.0), b, SearchConfig(restarts=8, local_steps=20, seed=10))
    assert clear.satisfied and not clear.borderline


def test_search_config_validation():
    with pytest.raises(InvalidInputError):
        SearchConfig(restarts=0)
    assert CERT_TOL == 1e-7
