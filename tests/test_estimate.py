import itertools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from qldp import qops
from qldp.errors import (
    DegenerateObservableError,
    InfeasibleError,
    InvalidInputError,
    NoninvertibleError,
    OutOfRegimeError,
)
from qldp.estimate import (
    H0,
    H1,
    AccuracyDemand,
    build_qht_reduction,
    estimate_from_batch,
    fidelity_lower_bound,
    measurement_operator_protocol,
    qht_sample_bounds,
    required_samples_lower,
    required_samples_upper,
    run_estimation_trials,
    simulate_privatized_batch,
    threshold_test,
    trials_to_csv,
)
from qldp.pauli import (
    PauliDecomposition,
    decompose,
    from_coeffs,
    pauli_labels,
    pauli_matrix,
    sampling_distribution,
)
from qldp.privacy import PrivacyBudget, optimal_depolarizing_p
from qldp.shadows import _trial_estimates, naive_shadow_required_samples, shadow_required_samples

Z = pauli_matrix("Z")
ZERO = np.diag([1.0, 0.0]).astype(complex)


@dataclass(frozen=True)
class PrivatizedSample:
    """One released record: depolarized measurement bit and the Pauli label."""

    y: int
    pauli: str


def privatize_sample(rho: np.ndarray, decomp: PauliDecomposition, q: float,
                     rng: np.random.Generator) -> PrivatizedSample:
    """Oracle: release one (bit, Pauli) record for the state.

    Draws P with probability |alpha_P|/S, samples the two-outcome measurement
    of P, then flips the bit with probability q/2 (the action of qubit
    depolarizing noise on a classical bit).
    """
    if not 0.0 <= q <= 1.0:
        raise InvalidInputError(f"q must be in [0, 1], got {q}")
    labels, probs = sampling_distribution(decomp)
    d = 2**decomp.m
    if rho.shape != (d, d):
        raise InvalidInputError(f"state shape {rho.shape} does not match m={decomp.m}")
    label = labels[rng.choice(len(labels), p=probs)]
    t = (1.0 + np.trace(pauli_matrix(label) @ rho).real) / 2.0  # Pr[outcome 0]
    y = 0 if rng.random() < t else 1
    if rng.random() < q / 2.0:
        y = 1 - y
    return PrivatizedSample(y=y, pauli=label)


def estimate_expectation(samples, decomp: PauliDecomposition, q: float) -> float:
    """Oracle: mean of (S/(1-q)) sgn(alpha_P) (-1)^Y over the records, one at a time."""
    if q >= 1.0:
        raise NoninvertibleError("q = 1 erases the signal; the estimator cannot be debiased")
    if not samples:
        raise InvalidInputError("no samples")
    coeffs = dict(zip(pauli_labels(decomp.m), decomp.coeffs.tolist()))
    scale = decomp.weight / (1.0 - q)
    total = 0.0
    for s in samples:
        a = coeffs.get(s.pauli, 0.0)
        if a == 0.0:
            raise InvalidInputError(f"sample Pauli {s.pauli!r} has zero coefficient")
        total += scale * math.copysign(1.0, a) * (1.0 - 2.0 * s.y)
    return total / len(samples)


def record_cells(rho, decomp, q):
    """Oracle: probability and estimator value of each (Pauli, bit) record.

    Uses the measure-then-flip formulation, independent of the sampler's
    folded outcome probabilities.
    """
    s = decomp.weight
    cells = []
    for lab, a in zip(pauli_labels(decomp.m), decomp.coeffs.tolist()):
        if a == 0.0:
            continue
        t = (1.0 + np.trace(pauli_matrix(lab) @ rho).real) / 2.0
        pr0 = t * (1.0 - q / 2.0) + (1.0 - t) * (q / 2.0)
        for y, pry in ((0, pr0), (1, 1.0 - pr0)):
            cells.append((abs(a) / s * pry, s / (1.0 - q) * math.copysign(1.0, a) * (1.0 - 2.0 * y)))
    return cells


def exact_estimator_expectation(rho, decomp, q):
    """Oracle: the estimator's mean, enumerating every (Pauli, bit) outcome."""
    return sum(p * z for p, z in record_cells(rho, decomp, q))


def test_privatize_noiseless_z_on_zero_state():
    dec = decompose(Z, 1)
    rng = np.random.default_rng(0)
    for _ in range(25):
        s = privatize_sample(ZERO, dec, 0.0, rng)
        assert (s.y, s.pauli) == (0, "Z")


def test_privatize_uniform_on_maximally_mixed():
    dec = decompose(Z, 1)
    rng = np.random.default_rng(1)
    ys = [privatize_sample(np.eye(2, dtype=complex) / 2, dec, 0.4, rng).y for _ in range(4000)]
    assert abs(np.mean(ys) - 0.5) < 0.03


def test_privatize_outcome_probability_with_noise():
    dec = decompose(Z, 1)
    rng = np.random.default_rng(2)
    ys = [privatize_sample(ZERO, dec, 0.5, rng).y for _ in range(8000)]
    # Pr(Y=0) = 1/2 + (1-q)/2 = 0.75
    assert abs(1.0 - np.mean(ys) - 0.75) < 0.02


def test_estimator_on_simple_sample_sets():
    dec = decompose(Z, 1)
    samples = [PrivatizedSample(0, "Z")] * 7
    assert estimate_expectation(samples, dec, 0.0) == 1.0
    assert estimate_expectation([PrivatizedSample(1, "Z")], dec, 0.5) == -2.0


def test_estimator_exact_expectation_diagonal_case():
    dec = decompose(Z, 1)
    rho = np.diag([0.8, 0.2]).astype(complex)
    assert abs(exact_estimator_expectation(rho, dec, 0.5) - 0.6) < 1e-12
    assert abs(np.trace(Z @ rho).real - 0.6) < 1e-15


@pytest.mark.parametrize("q", [0.0, 0.3, 0.8])
@pytest.mark.parametrize("m", [1, 2])
def test_estimator_unbiased_by_enumeration(m, q):
    rng = np.random.default_rng(10 * m + int(10 * q))
    d = 2**m
    for _ in range(5):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        obs = qops.hermitize(g)
        dec = decompose(obs, m)
        rho = qops.random_density(d, d, rng)
        expected = np.trace(obs @ rho).real
        assert abs(exact_estimator_expectation(rho, dec, q) - expected) < 1e-10


def test_batch_sampler_matches_per_sample_distribution():
    dec = from_coeffs({"X": 1.0, "Z": -1.0})
    rng = np.random.default_rng(3)
    rho = qops.random_density(2, 2, rng)
    q = 0.3
    y, idx = simulate_privatized_batch(rho, dec, q, 60_000, rng)
    est_vec = estimate_from_batch(y, idx, dec, q)
    truth = np.trace(dec.reconstruct() @ rho).real
    assert abs(est_vec - truth) < 0.05
    # per-sample reference path agrees with the oracle expectation too
    singles = [privatize_sample(rho, dec, q, rng) for _ in range(25_000)]
    est_ref = estimate_expectation(singles, dec, q)
    assert abs(est_ref - truth) < 0.1


def test_estimator_rejects_degenerate_and_noninvertible():
    dec = decompose(Z, 1)
    with pytest.raises(NoninvertibleError):
        estimate_expectation([PrivatizedSample(0, "Z")], dec, 1.0)
    with pytest.raises(InvalidInputError):
        estimate_expectation([], dec, 0.5)
    with pytest.raises(InvalidInputError):
        estimate_expectation([PrivatizedSample(0, "X")], dec, 0.5)
    zero_dec = decompose(np.zeros((2, 2), dtype=complex), 1)
    with pytest.raises(DegenerateObservableError):
        privatize_sample(ZERO, zero_dec, 0.3, np.random.default_rng(0))


def test_required_samples_upper_frozen_value():
    n = required_samples_upper(1.0, PrivacyBudget(1.0, 0.0), AccuracyDemand(0.1, 0.05))
    assert n == 3455


def test_required_samples_upper_scalings():
    b = PrivacyBudget(1.0, 0.0)
    dem = AccuracyDemand(0.1, 0.05)
    n1 = required_samples_upper(1.0, b, dem)
    n2 = required_samples_upper(2.0, b, dem)
    assert abs(n2 / n1 - 4.0) < 1e-3
    # delta = 1 collapses the privacy factor
    n_free = required_samples_upper(1.0, PrivacyBudget(0.0, 1.0), dem)
    expected = math.ceil(2.0 / 0.1**2 * math.log(2 / 0.05))
    assert n_free == expected


def test_required_samples_upper_infeasible():
    with pytest.raises(InfeasibleError):
        required_samples_upper(1.0, PrivacyBudget(0.0, 0.0), AccuracyDemand(0.1, 0.05))


def test_infeasible_budget_is_named_in_the_message():
    # e^1e-300 rounds to 1, so the Hoeffding denominator is 0 although epsilon is not
    for eps in (0.0, 1e-300):
        with pytest.raises(InfeasibleError, match=f"epsilon = {eps:g} and delta = 0 "):
            required_samples_upper(1.0, PrivacyBudget(eps, 0.0), AccuracyDemand(0.1, 0.05))


def test_testing_bounds_are_out_of_regime_where_e_to_the_epsilon_rounds_to_one():
    with pytest.raises(OutOfRegimeError, match="epsilon = 1e-300"):
        required_samples_lower(1.0, -1.0, PrivacyBudget(1e-300, 0.0), AccuracyDemand(0.1, 0.1))
    # e^(eps/2) rounds to 1 although e^eps does not
    assert math.exp(2e-16) != 1.0 and math.exp(1e-16) == 1.0
    for eps in (1e-300, 2e-16):
        with pytest.raises(OutOfRegimeError, match=f"epsilon = {eps:g}"):
            qht_sample_bounds(0.5, eps, 0.5, 0.1)
    # just above the rounding, both bounds are finite
    assert required_samples_lower(1.0, -1.0, PrivacyBudget(1e-15, 0.0), AccuracyDemand(0.1, 0.1)) > 1e29
    res = qht_sample_bounds(0.5, 1e-15, 0.5, 0.1)
    assert math.isfinite(res.lower) and res.lower <= res.upper


def test_required_samples_lower_frozen_value():
    n = required_samples_lower(1.0, -1.0, PrivacyBudget(1.0, 0.0), AccuracyDemand(0.1, 0.1))
    assert n == 12


def test_required_samples_lower_eta_near_quarter():
    n = required_samples_lower(1.0, -1.0, PrivacyBudget(1.0, 0.0), AccuracyDemand(0.1, 0.2499))
    assert n >= 1  # the log term shrinks toward ln(1/0.75) but stays positive


def test_required_samples_lower_regime_errors():
    dem = AccuracyDemand(0.1, 0.1)
    with pytest.raises(OutOfRegimeError, match="delta"):
        required_samples_lower(1.0, -1.0, PrivacyBudget(1.0, 0.1), dem)
    with pytest.raises(OutOfRegimeError, match="beta"):
        required_samples_lower(1.0, -1.0, PrivacyBudget(1.0, 0.0), AccuracyDemand(0.6, 0.1))
    with pytest.raises(OutOfRegimeError, match="eta"):
        required_samples_lower(1.0, -1.0, PrivacyBudget(1.0, 0.0), AccuracyDemand(0.1, 0.3))
    with pytest.raises(OutOfRegimeError, match="epsilon"):
        required_samples_lower(1.0, -1.0, PrivacyBudget(0.0, 0.0), dem)
    with pytest.raises(OutOfRegimeError, match="lambda"):
        required_samples_lower(1.0, 1.0, PrivacyBudget(1.0, 0.0), dem)


def test_lower_below_upper_with_matched_weight():
    # S = gap/2 = 1 for a bare Pauli
    b = PrivacyBudget(0.7, 0.0)
    dem = AccuracyDemand(0.1, 0.1)
    assert required_samples_lower(1.0, -1.0, b, dem) <= required_samples_upper(1.0, b, dem)


def test_fidelity_lower_bound_frozen_value():
    assert fidelity_lower_bound(1.0, -1.0, AccuracyDemand(0.1, 0.1)) == 26


def test_fidelity_lower_bound_at_a_tiny_alpha():
    # alpha' = 5e-10: 1 - 4 alpha'^2 rounds to 1.0, so a plain log() would divide by 0
    demand = AccuracyDemand(0.1, 0.1)
    alpha_prime = 2 * 0.1 / 4e8
    expected = math.log(1 / (4 * 0.1 * 0.9)) / (4 * alpha_prime**2)
    assert abs(fidelity_lower_bound(2e8, -2e8, demand) / expected - 1.0) < 1e-9
    with pytest.raises(OutOfRegimeError, match="overflows a float"):
        fidelity_lower_bound(1e200, -1e200, demand)


@pytest.mark.parametrize("bound", [
    lambda: required_samples_upper(1e200, PrivacyBudget(1.0, 0.0), AccuracyDemand(0.1, 0.1)),
    lambda: required_samples_lower(1e153, -1e153, PrivacyBudget(1e-3, 0.0), AccuracyDemand(0.1, 0.1)),
    lambda: shadow_required_samples(math.inf, 2, PrivacyBudget(1.0, 0.0), AccuracyDemand(0.1, 0.1)),
    lambda: naive_shadow_required_samples(1e306, 2, PrivacyBudget(1.0, 0.0), AccuracyDemand(0.1, 0.1)),
    lambda: measurement_operator_protocol(np.eye(2), ZERO, PrivacyBudget(1.0, 0.0),
                                          AccuracyDemand(1e-155, 0.1), np.random.default_rng(0)),
], ids=["upper", "lower", "shadow", "naive_shadow", "measurement_operator"])
def test_every_sample_size_past_a_float_is_out_of_regime(bound):
    with pytest.raises(OutOfRegimeError, match="sample size overflows a float"):
        bound()


@pytest.mark.parametrize("bound", [
    lambda dem: shadow_required_samples(1.0, 2, PrivacyBudget(1.0, 0.0), dem),
    lambda dem: naive_shadow_required_samples(1.0, 2, PrivacyBudget(1.0, 0.0), dem),
    lambda dem: required_samples_lower(1.0, -1.0, PrivacyBudget(1.0, 0.0), dem),
], ids=["shadow", "naive_shadow", "lower"])
def test_beta_squared_underflow_is_out_of_regime(bound):
    with pytest.raises(OutOfRegimeError, match="underflows to 0"):
        bound(AccuracyDemand(1e-170, 0.1))
    # beta^2 = 1e-320 is subnormal but not 0: the size itself overflows
    with pytest.raises(OutOfRegimeError, match="sample size overflows a float"):
        bound(AccuracyDemand(1e-160, 0.1))


def test_fidelity_lower_bound_regimes():
    with pytest.raises(DegenerateObservableError):
        fidelity_lower_bound(1.0, -1.0, AccuracyDemand(0.5, 0.1))
    with pytest.raises(OutOfRegimeError):
        fidelity_lower_bound(1.0, -1.0, AccuracyDemand(0.1, 0.4))
    # no privacy argument: value is what it is regardless of any budget
    assert fidelity_lower_bound(2.0, 0.0, AccuracyDemand(0.2, 0.05)) == \
        fidelity_lower_bound(2.0, 0.0, AccuracyDemand(0.2, 0.05))


def test_qht_bounds_frozen_upper():
    res = qht_sample_bounds(1.0, 1.0, 0.5, 0.05)
    assert res.upper == 22
    assert res.lower <= res.upper
    assert res.c_const > 0


def test_qht_bounds_quarter_scaling():
    a = qht_sample_bounds(1.0, 1.0, 0.5, 0.05)
    b = qht_sample_bounds(0.5, 1.0, 0.5, 0.05)
    assert abs(b.upper / a.upper - 4.0) < 0.05


def test_qht_bounds_grid_ordering():
    for eps in np.arange(0.1, 2.01, 0.1):
        for t in np.arange(0.1, 1.001, 0.1):
            res = qht_sample_bounds(float(t), float(eps), 0.5, 0.125)
            assert res.lower <= res.upper


def test_qht_bounds_alpha_regime():
    with pytest.raises(OutOfRegimeError):
        qht_sample_bounds(1.0, 1.0, 0.5, 0.25)
    with pytest.raises(InvalidInputError):
        qht_sample_bounds(0.0, 1.0, 0.5, 0.05)


def test_build_reduction_example():
    red = build_qht_reduction(Z, 0.25)
    assert abs(red.alpha_prime - 0.25) < 1e-12
    assert np.abs(red.rho0 - np.diag([0.75, 0.25])).max() < 1e-12
    assert np.abs(red.rho1 - np.diag([0.25, 0.75])).max() < 1e-12
    assert abs(qops.trace_distance(red.rho0, red.rho1) - 0.5) < 1e-9
    assert red.threshold == 0.0


def test_reduction_invariants_random_observable():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    obs = qops.hermitize(g)
    w = np.linalg.eigvalsh(obs)
    beta = (w[-1] - w[0]) / 5
    red = build_qht_reduction(obs, beta)
    assert abs(qops.trace_distance(red.rho0, red.rho1) - 2 * red.alpha_prime) < 1e-9
    gap_expect = np.trace(obs @ red.rho0).real - np.trace(obs @ red.rho1).real
    assert abs(gap_expect - 4 * beta) < 1e-9
    qops.check_density(red.rho0)
    qops.check_density(red.rho1)


def test_build_reduction_degenerate_and_regime():
    with pytest.raises(DegenerateObservableError):
        build_qht_reduction(np.eye(2, dtype=complex) * 3.0, 0.1)
    with pytest.raises(OutOfRegimeError):
        build_qht_reduction(Z, 0.6)


def test_threshold_test_boundary_goes_to_h0():
    red = build_qht_reduction(Z, 0.1)
    assert threshold_test(red.threshold, red) == H0
    assert threshold_test(red.threshold + 1.0, red) == H0
    assert threshold_test(red.threshold - 1.0, red) == H1


def test_measurement_operator_protocol_identity():
    rho = qops.random_density(2, 2, np.random.default_rng(5))
    b = PrivacyBudget(1.0, 0.0)
    dem = AccuracyDemand(0.2, 0.1)
    runs = [measurement_operator_protocol(np.eye(2, dtype=complex), rho, b, dem, np.random.default_rng(seed))
            for seed in range(1000)]
    n = runs[0][1]
    assert all(m == n for _, m in runs)
    assert n == math.ceil(2 * (b.gamma + 1) ** 2 / (0.2**2 * (b.gamma - 1) ** 2) * math.log(2 / 0.1))
    # Tr[O rho] = 1, so the outcome-0 bit is 1 with probability p0 = 1 - q/2 and
    # the debiased estimate has mean 1 and variance p0 (1 - p0) / (n (1 - q)^2)
    est = np.array([e for e, _ in runs])
    q = optimal_depolarizing_p(2, b)
    p0 = 1.0 - q / 2.0
    var = p0 * (1.0 - p0) / (n * (1.0 - q) ** 2)
    r = len(est)
    assert abs(est.mean() - 1.0) < 4.0 * math.sqrt(var / r)
    # (r - 1) s^2 / var is chi-square with r - 1 degrees of freedom; Wilson-Hilferty
    # bounds at z = 5 on s^2 / var, which is F(r - 1, infinity)
    h = 2.0 / (9.0 * (r - 1))
    lo, hi = ((1.0 - h + sign * 5.0 * math.sqrt(h)) ** 3 for sign in (-1.0, 1.0))
    assert lo < est.var(ddof=1) / var < hi


def test_measurement_operator_protocol_noiseless_projector():
    rng = np.random.default_rng(6)
    b = PrivacyBudget(50.0, 1.0)  # q == 0 exactly at delta = 1
    dem = AccuracyDemand(0.2, 0.1)
    proj = np.diag([1.0, 0.0]).astype(complex)
    est, _ = measurement_operator_protocol(proj, ZERO, b, dem, rng)
    assert est == 1.0


def test_measurement_operator_debias_is_exact_in_expectation():
    # two-outcome enumeration: E[(f0 - q/2)/(1-q)] = Tr[O rho]
    q = 0.5
    t = 0.8
    p0 = q / 2 + t * (1 - q)
    assert abs((p0 - q / 2) / (1 - q) - t) < 1e-15


def test_measurement_operator_rejects_out_of_range():
    rng = np.random.default_rng(7)
    with pytest.raises(InvalidInputError):
        measurement_operator_protocol(Z, ZERO, PrivacyBudget(1.0, 0.0), AccuracyDemand(0.1, 0.1), rng)


def test_coverage_small_scale():
    dec = decompose(Z, 1)
    b = PrivacyBudget(1.0, 0.0)
    dem = AccuracyDemand(0.1, 0.05)
    trials = 300
    ests = run_estimation_trials(ZERO, dec, b, dem, trials, seed=8)
    coverage = np.mean(np.abs(ests - 1.0) <= dem.beta)
    sigma = math.sqrt(dem.eta * (1 - dem.eta) / trials)
    assert coverage >= 1 - dem.eta - 3 * sigma


def test_trials_are_seed_deterministic():
    dec = decompose(Z, 1)
    b = PrivacyBudget(1.0, 0.0)
    dem = AccuracyDemand(0.1, 0.05)
    a = run_estimation_trials(ZERO, dec, b, dem, 10, seed=9, n=200)
    bb = run_estimation_trials(ZERO, dec, b, dem, 10, seed=9, n=200)
    assert np.array_equal(a, bb)


def test_trials_depend_on_the_state_only_through_its_expectation():
    # Tr[O rho] = 0.4 for both states, but their Tr[P rho] differ label by label
    dec = from_coeffs({"Z": 0.5, "X": 0.5})
    b = PrivacyBudget(1.0, 0.0)
    dem = AccuracyDemand(0.1, 0.05)
    rho1 = np.diag([0.9, 0.1]).astype(complex)
    rho2 = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
    for rho in (rho1, rho2):
        assert abs(np.trace(dec.reconstruct() @ rho).real - 0.4) < 1e-15
    a = run_estimation_trials(rho1, dec, b, dem, 50, seed=11, n=300)
    bb = run_estimation_trials(rho2, dec, b, dem, 50, seed=11, n=300)
    assert np.array_equal(a, bb)


def test_trials_reject_bad_record_count_and_state():
    dec = decompose(Z, 1)
    b = PrivacyBudget(1.0, 0.0)
    dem = AccuracyDemand(0.1, 0.05)
    with pytest.raises(InvalidInputError):
        run_estimation_trials(ZERO, dec, b, dem, 2, seed=0, n=0)
    with pytest.raises(InvalidInputError):
        run_estimation_trials(np.eye(4) / 4, dec, b, dem, 2, seed=0, n=10)
    with pytest.raises(NoninvertibleError):
        run_estimation_trials(ZERO, dec, PrivacyBudget(0.0, 0.0), dem, 2, seed=0, n=10)


def test_trials_csv_schema():
    text = trials_to_csv(np.array([0.95, 1.2]), 100, 1.0, 0.1)
    lines = text.strip().splitlines()
    assert lines[0] == "trial,n,estimate,true_value,abs_error,within_beta"
    assert lines[1].split(",") == ["0", "100", "0.95", "1", "0.05", "1"]
    assert lines[2].endswith(",0")


def test_accuracy_demand_validation():
    with pytest.raises(InvalidInputError):
        AccuracyDemand(0.0, 0.1)
    with pytest.raises(InvalidInputError):
        AccuracyDemand(0.1, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="beta"):
            AccuracyDemand(bad, 0.1)
        with pytest.raises(InvalidInputError, match="eta"):
            AccuracyDemand(0.1, bad)


def test_trial_law_is_exact_at_two_records():
    # n = 2: the estimate is the mean of two independent records, so its law is
    # the sum over ordered record pairs, i.e. the multinomial(2) pmf over cells.
    dec = from_coeffs({"X": 1.0, "Z": -0.5})
    rho = qops.random_density(2, 2, np.random.default_rng(31))
    b = PrivacyBudget(1.0, 0.0)
    q = 2.0 / (math.e + 1.0)
    law = {}
    for (p1, z1), (p2, z2) in itertools.product(record_cells(rho, dec, q), repeat=2):
        key = round((z1 + z2) / 2.0, 9)
        law[key] = law.get(key, 0.0) + p1 * p2
    trials = 20_000
    ests = run_estimation_trials(rho, dec, b, AccuracyDemand(0.1, 0.05), trials, seed=32, n=2)
    keys, counts = np.unique(np.round(ests, 9), return_counts=True)
    assert set(keys) <= set(law)
    assert abs(sum(law.values()) - 1.0) < 1e-12
    for key, p in law.items():
        freq = counts[keys == key].sum() / trials
        assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / trials) + 1e-12


def test_count_kernel_matches_record_oracle_in_mean_and_variance():
    dec = from_coeffs({"XZ": 0.7, "ZI": -0.4, "YY": 0.2})
    rho = qops.random_density(4, 4, np.random.default_rng(33))
    b = PrivacyBudget(0.8, 0.0)
    q = 2.0 / (math.exp(0.8) + 1.0)
    n, trials = 40, 4000
    fast = run_estimation_trials(rho, dec, b, AccuracyDemand(0.1, 0.05), trials, seed=34, n=n)
    rng = np.random.default_rng(35)
    slow = np.array([estimate_from_batch(*simulate_privatized_batch(rho, dec, q, n, rng), dec, q)
                     for _ in range(trials)])
    v_fast, v_slow = fast.var(ddof=1), slow.var(ddof=1)
    z = (fast.mean() - slow.mean()) / math.sqrt((v_fast + v_slow) / trials)
    assert abs(z) < 4.5
    # log of the variance ratio has standard deviation close to sqrt(4/(trials-1))
    assert abs(math.log(v_fast / v_slow)) < 5 * math.sqrt(4.0 / (trials - 1))


def traced_peak_mb(fn):
    """(fn(), peak bytes allocated while it ran, in MB), numpy buffers included."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_trials_at_a_billion_records_cost_no_memory_in_n():
    dec = from_coeffs({"Z": 1.0, "X": 0.5})
    rho = np.diag([0.8, 0.2]).astype(complex)
    ests, peak = traced_peak_mb(lambda: run_estimation_trials(
        rho, dec, PrivacyBudget(1.0, 0.0), AccuracyDemand(0.1, 0.05), 3, seed=36, n=10**9))
    assert peak < 32.0  # n records as float64 would take 8000 MB
    assert np.all(np.isfinite(ests)) and np.abs(ests - 0.6).max() < 1e-3


def test_ten_qubit_label_trials_stay_under_128_mib():
    # a dict keyed by all 4^10 label strings peaked at 223 MiB in this test; the
    # coefficient vector and the 1024 x 1024 matrices need well under half that
    rho = np.zeros((1024, 1024), dtype=complex)
    rho[0, 0] = 1.0
    ests, peak = traced_peak_mb(lambda: run_estimation_trials(
        rho, from_coeffs({"Z" * 10: 1.0}), PrivacyBudget(1.0, 0.0), AccuracyDemand(0.1, 0.05),
        trials=10, seed=39))
    assert peak < 128 * 2**20 / 1e6
    assert ests.shape == (10,) and np.all(np.isfinite(ests))


@pytest.mark.parametrize("ell", [3, 4])
def test_kernel_law_is_exact_on_both_sides_of_the_cell_count(ell):
    # One batch of ell records over 4 cells (one of them empty): ell = 3 draws
    # the records' cells, ell = 4 draws the per-cell counts; both must give the
    # law of the mean of ell independent records.
    probs = np.array([0.5, 0.0, 0.3, 0.2])
    vals = np.array([1.0, 100.0, 2.0, 4.0])
    law = {}
    for cells in itertools.product([0, 2, 3], repeat=ell):
        key = round(sum(vals[c] for c in cells) / ell, 9)
        law[key] = law.get(key, 0.0) + math.prod(probs[c] for c in cells)
    trials = 20_000
    ests = _trial_estimates(probs, vals, ell, ell, trials, seed=38)
    keys, counts = np.unique(np.round(ests, 9), return_counts=True)
    assert set(keys) <= set(law)
    for key, p in law.items():
        freq = counts[keys == key].sum() / trials
        assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / trials) + 1e-12


@pytest.mark.parametrize("rho", [ZERO, np.diag([1.0 + 1e-12, 0.0]).astype(complex)])
def test_trials_at_unit_expectation_without_noise(rho):
    # delta = 1 gives q = 0, so Pr[bit 0] = 1/2 + Tr[P rho]/2 reaches 1, and passes
    # it for a state whose trace is off by rounding (the CLI admits 1e-9); no cell
    # may get a negative probability.
    b = PrivacyBudget(1.0, 1.0)
    for obs in ({"Z": 1.0}, {"Z": -1.0}):
        ests = run_estimation_trials(rho, from_coeffs(obs), b, AccuracyDemand(0.1, 0.05),
                                     5, seed=37, n=100)
        assert np.all(ests == obs["Z"])


def test_infinite_pauli_weight_is_out_of_regime():
    # each coefficient is finite, but S = sum |alpha_P| overflows to inf
    with pytest.raises(OutOfRegimeError, match="weight"):
        run_estimation_trials(np.eye(2) / 2, from_coeffs({"Z": 1e308, "X": 1e308}),
                              PrivacyBudget(1.0, 0.0), AccuracyDemand(0.1, 0.1), trials=3, seed=0, n=10)
    with pytest.raises(OutOfRegimeError, match="weight"):
        a = 0.8e308  # alpha_X = alpha_Y = alpha_Z = a, so S = 3a
        decompose(np.array([[a, a - 1j * a], [a + 1j * a, -a]]), 1)
