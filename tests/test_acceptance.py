"""Acceptance suite: one test per numbered criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np

from qldp import channels as ch
from qldp import qops
from qldp.estimate import (
    AccuracyDemand,
    build_qht_reduction,
    required_samples_lower,
    required_samples_upper,
    run_estimation_trials,
    threshold_test,
)
from qldp.pauli import decompose, enumerate_cliffords, pauli_matrix
from qldp.privacy import (
    PrivacyBudget,
    SearchConfig,
    certify_qldp,
    depolarizing_privacy_profile,
    optimal_depolarizing_p,
)
from qldp.shadows import (
    composite_shadow_channel,
    default_batch_count,
    effective_depolarizing_q,
    private_shadow_p_hat,
    run_shadow_trials,
    shadow_required_samples,
)
from qldp.utility import (
    optimal_fidelity_utility,
    optimal_trace_utility,
    utility_report,
)

Z = pauli_matrix("Z")
ZERO = np.diag([1.0, 0.0]).astype(complex)


def _finish(num: int, name: str, t0: float, limit: float):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.1f}s)"
    print(f"criterion {num:2d} [{name}]: PASS ({elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_01_calibration_exactness():
    t0 = time.perf_counter()
    for d in (2, 3, 4, 8):
        for eps in (0.1, 0.5, 1.0, 2.0):
            for delta in (0.0, 0.1, 0.3):
                b = PrivacyBudget(eps, delta)
                p_star = optimal_depolarizing_p(d, b)
                assert abs(depolarizing_privacy_profile(d, p_star, b.gamma) - delta) <= 1e-12
                assert depolarizing_privacy_profile(d, p_star - 1e-3, b.gamma) > delta
    _finish(1, "calibration exactness", t0, 1.0)


def test_criterion_02_optimal_utility_reproduction(tmp_path):
    t0 = time.perf_counter()
    cfg = SearchConfig(restarts=64, local_steps=200, seed=2)
    for d in (2, 4):
        for eps, delta in ((1.0, 0.0), (0.5, 0.1)):
            b = PrivacyBudget(eps, delta)
            dep = ch.depolarizing(d, optimal_depolarizing_p(d, b))
            rep = utility_report(dep, cfg)
            assert abs(rep.fidelity_utility - optimal_fidelity_utility(d, b)) < 1e-6
            assert abs(rep.trace_utility - optimal_trace_utility(d, b)) < 1e-6
    # curve CSV regenerates the closed forms exactly
    from qldp.cli import main

    out = tmp_path / "curve"
    assert main(["utility-curve", "--d", "10", "--deltas", "0,0.1,0.3",
                 "--eps-points", "21", "--output-dir", str(out)]) == 0
    lines = (out / "utility_curve.csv").read_text().strip().splitlines()[1:]
    for ln in lines:
        eps_s, delta_s, f_s, t_s = ln.split(",")
        b = PrivacyBudget(float(eps_s), float(delta_s))
        assert abs(float(f_s) - optimal_fidelity_utility(10, b)) < 1e-11
        assert abs(float(t_s) - optimal_trace_utility(10, b)) < 1e-11
    _finish(2, "optimal utility reproduction", t0, 30.0)


def test_criterion_03_private_channels_respect_ceiling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    b = PrivacyBudget(1.0, 0.0)
    core = ch.depolarizing(2, optimal_depolarizing_p(2, b))
    ceiling_f = optimal_fidelity_utility(2, b)   # e/(e+1)
    floor_t = optimal_trace_utility(2, b)        # 1/(e+1)
    assert abs(ceiling_f - math.e / (math.e + 1)) < 1e-15
    cert_cfg = SearchConfig(restarts=16, local_steps=60, seed=30)
    util_cfg = SearchConfig(restarts=64, local_steps=200, seed=31)
    for _ in range(50):
        pre = ch.random_channel(2, int(rng.integers(1, 5)), rng)
        post = ch.random_channel(2, int(rng.integers(1, 5)), rng)
        n = ch.compose(post, ch.compose(core, pre))
        assert certify_qldp(n, b, cert_cfg).satisfied
        rep = utility_report(n, util_cfg)
        assert rep.fidelity_utility <= ceiling_f + 1e-6
        assert rep.trace_utility >= floor_t - 1e-6
    _finish(3, "optimality ceiling over 50 private channels", t0, 120.0)


def test_criterion_04_twirl_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    group = enumerate_cliffords(1)
    b = PrivacyBudget(1.0, 0.0)
    cert_cfg = SearchConfig(restarts=24, local_steps=80, seed=40)
    util_cfg = SearchConfig(restarts=48, local_steps=150, seed=41)
    for _ in range(20):
        n = ch.random_channel(2, int(rng.integers(1, 5)), rng)
        twirled = ch.twirl(n, group)
        _, residual = ch.fit_depolarizing(twirled)
        assert residual < 1e-9
        sup_n = certify_qldp(n, b, cert_cfg).sup_estimate
        sup_t = certify_qldp(twirled, b, cert_cfg).sup_estimate
        assert sup_t <= sup_n + 1e-6
        rep_n = utility_report(n, util_cfg)
        rep_t = utility_report(twirled, util_cfg)
        assert rep_t.fidelity_utility >= rep_n.fidelity_utility - 1e-8
        assert rep_t.trace_utility <= rep_n.trace_utility + 1e-8
    _finish(4, "Clifford twirl properties", t0, 60.0)


def test_criterion_05_estimator_unbiasedness():
    t0 = time.perf_counter()
    from test_estimate import exact_estimator_expectation

    rng = np.random.default_rng(5)
    pairs = []
    for m in (1, 2):
        d = 2**m
        for _ in range(10):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            pairs.append((m, qops.hermitize(g), qops.random_density(d, d, rng)))
    for m, obs, rho in pairs:
        dec = decompose(obs, m)
        expected = np.trace(obs @ rho).real
        for q in (0.0, 0.3, 0.8):
            assert abs(exact_estimator_expectation(rho, dec, q) - expected) < 1e-10
    _finish(5, "estimator unbiasedness by enumeration", t0, 10.0)


def test_criterion_06_hoeffding_coverage():
    t0 = time.perf_counter()
    dec = decompose(Z, 1)
    b = PrivacyBudget(1.0, 0.0)
    dem = AccuracyDemand(0.1, 0.05)
    n = required_samples_upper(dec.weight, b, dem)
    assert n == 3455
    trials = 2000
    ests = run_estimation_trials(ZERO, dec, b, dem, trials, seed=6, n=n)
    coverage = float(np.mean(np.abs(ests - 1.0) <= dem.beta))
    sigma = math.sqrt(dem.eta * (1 - dem.eta) / trials)
    assert coverage >= 1 - dem.eta - 3 * sigma
    _finish(6, f"coverage {coverage:.4f} at n=3455", t0, 120.0)


def test_criterion_07_bound_ordering_and_theta_consistency():
    t0 = time.perf_counter()
    dem_eta = 0.1
    for beta in (0.05, 0.1):
        ratios = []
        for eps in (0.25, 0.5, 1.0):
            b = PrivacyBudget(eps, 0.0)
            dem = AccuracyDemand(beta, dem_eta)
            lower = required_samples_lower(1.0, -1.0, b, dem)
            upper = required_samples_upper(1.0, b, dem)
            assert lower <= upper
            ratios.append(upper / lower)
        assert max(ratios) / min(ratios) < 2.0
    _finish(7, "bound ordering and ratio stability", t0, 1.0)


def test_criterion_08_shadow_channel_identity():
    t0 = time.perf_counter()
    from test_shadows import exact_snapshot_average

    rng = np.random.default_rng(8)
    for p_hat in (0.0, 0.3, 0.85):
        comp = composite_shadow_channel(p_hat, 1)
        dep = ch.depolarizing(2, 1.0 - (1.0 - p_hat) / 3.0)
        assert np.abs(comp.superoperator - dep.superoperator).max() < 1e-9
        assert abs(effective_depolarizing_q(p_hat, 2) - (1.0 - (1.0 - p_hat) / 3.0)) < 1e-15
        rho = qops.random_density(2, 2, rng)
        assert np.abs(exact_snapshot_average(rho, p_hat) - rho).max() < 1e-10
    _finish(8, "shadow composite channel identity", t0, 5.0)


def test_criterion_09_shadow_pipeline_coverage():
    t0 = time.perf_counter()
    b = PrivacyBudget(0.5, 0.0)
    dem = AccuracyDemand(0.3, 0.1)
    p_hat = private_shadow_p_hat(2, b)
    e = math.exp(0.5)
    assert abs(p_hat - (1.0 - (e - 1.0) * 3.0 / (e + 1.0))) < 1e-12
    n = shadow_required_samples(float(np.trace(Z @ Z).real), 2, b, dem)
    ell = n // default_batch_count(n, dem.eta)
    trials = 500
    ests = run_shadow_trials(ZERO, decompose(Z, 1), p_hat, n, ell, trials, seed=9)
    coverage = float(np.mean(np.abs(ests - 1.0) <= dem.beta))
    sigma = math.sqrt(dem.eta * (1 - dem.eta) / trials)
    assert coverage >= 1 - dem.eta - 3 * sigma
    _finish(9, f"shadow pipeline coverage {coverage:.4f} at N={n}", t0, 300.0)


def test_criterion_10_reduction_soundness():
    t0 = time.perf_counter()
    beta, eta = 0.1, 0.05
    b = PrivacyBudget(1.0, 0.0)
    dem = AccuracyDemand(beta, eta)
    dec = decompose(Z, 1)
    n = required_samples_upper(dec.weight, b, dem)
    red = build_qht_reduction(Z, beta)
    per_side = 500
    ests0 = run_estimation_trials(red.rho0, dec, b, dem, per_side, seed=100, n=n)
    ests1 = run_estimation_trials(red.rho1, dec, b, dem, per_side, seed=101, n=n)
    err0 = np.mean([threshold_test(v, red) == "H1" for v in ests0])
    err1 = np.mean([threshold_test(v, red) == "H0" for v in ests1])
    avg_error = (err0 + err1) / 2
    sigma = math.sqrt(eta * (1 - eta) / (2 * per_side))
    assert avg_error <= eta + 3 * sigma
    _finish(10, f"reduction average error {avg_error:.4f}", t0, 120.0)
