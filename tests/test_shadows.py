import math

import numpy as np
import pytest

import qldp
from qldp import qops
from qldp.channels import depolarizing
from qldp.errors import DegenerateObservableError, InfeasibleError, InvalidInputError, NoninvertibleError
from qldp.estimate import AccuracyDemand, required_samples_upper, run_estimation_trials
from test_estimate import naive_shadow_required_samples, traced_peak_mb
from test_pauli import orbit_states, pauli_labels, per_label_sum
from qldp.pauli import decompose, enumerate_cliffords, from_coeffs, pauli_matrix
from qldp.privacy import PrivacyBudget, SearchConfig, certify_qldp
from qldp.shadows import (
    _BLOCK_DRAWS,
    _pauli_string_cells,
    _snapshot_tables,
    _trial_estimates,
    ShadowSample,
    composite_shadow_channel,
    default_batch_count,
    effective_depolarizing_q,
    median_of_means_estimate,
    private_shadow_p_hat,
    run_shadow_trials,
    shadow_required_samples,
    shadow_sample,
    snapshot_inverse,
)

Z = pauli_matrix("Z")
ZERO = np.diag([1.0, 0.0]).astype(complex)


def exact_snapshot_average(rho, p_hat, transform=None):
    """Oracle: Born-weighted average of inverted snapshots over all 24 Cliffords."""
    d = rho.shape[0]
    group = enumerate_cliffords(1)
    acc = np.zeros((d, d), dtype=complex)
    total = 0.0
    for u in group:
        omega = (1 - p_hat) * u @ rho @ u.conj().T + p_hat * np.eye(d) / d
        for b in range(d):
            prob = omega[b, b].real / len(group)
            snap = snapshot_inverse(ShadowSample(clifford=u, bits=format(b, "01b")), p_hat, d)
            acc += prob * (snap if transform is None else transform(snap))
            total += prob
    assert abs(total - 1.0) < 1e-12
    return acc


def test_p_hat_formula_and_clamp():
    assert private_shadow_p_hat(2, PrivacyBudget(1.0, 0.0)) == 0.0
    e = math.exp(0.1)
    expected = 1 - 3 * (e - 1) / (e + 1)
    got = private_shadow_p_hat(2, PrivacyBudget(0.1, 0.0))
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.8501) < 1e-4
    assert private_shadow_p_hat(2, PrivacyBudget(0.0, 0.0)) == 1.0


def test_p_hat_clamp_boundary():
    # no extra noise exactly when e^eps + delta (d+1) >= 2
    for d in (2, 4):
        for eps, delta in [(0.0, 2.0 / (d + 1)), (math.log(2), 0.0)]:
            if delta > 1:
                continue
            assert private_shadow_p_hat(d, PrivacyBudget(eps, delta)) <= 1e-12


def test_effective_q_values():
    assert abs(effective_depolarizing_q(0.0, 2) - 2.0 / 3.0) < 1e-15
    assert effective_depolarizing_q(1.0, 5) == 1.0
    with pytest.raises(InvalidInputError):
        effective_depolarizing_q(1.5, 2)


@pytest.mark.parametrize("p_hat", [0.0, 0.3, 0.85])
def test_composite_channel_is_depolarizing(p_hat):
    comp = composite_shadow_channel(p_hat, 1)
    dep = depolarizing(2, effective_depolarizing_q(p_hat, 2))
    assert np.abs(comp.superoperator - dep.superoperator).max() < 1e-9


def test_composite_channel_restricted_to_one_qubit():
    with pytest.raises(InvalidInputError):
        composite_shadow_channel(0.3, 2)


@pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_shadow_mechanism_is_private(eps, delta):
    budget = PrivacyBudget(eps, delta)
    p_hat = private_shadow_p_hat(2, budget)
    comp = composite_shadow_channel(p_hat, 1)
    res = certify_qldp(comp, budget, SearchConfig(restarts=24, local_steps=80, seed=3))
    assert res.sup_estimate <= delta + 1e-6


def test_shadow_sample_uniform_cases():
    rng = np.random.default_rng(0)
    bits = [shadow_sample(np.eye(2, dtype=complex) / 2, 0.2, rng).bits for _ in range(3000)]
    assert abs(np.mean([b == "0" for b in bits]) - 0.5) < 0.04
    bits = [shadow_sample(ZERO, 1.0, rng).bits for _ in range(3000)]
    assert abs(np.mean([b == "0" for b in bits]) - 0.5) < 0.04


def test_shadow_sample_identity_branch_is_deterministic():
    from qldp.shadows import _born_probs

    probs = _born_probs(ZERO, np.eye(2, dtype=complex), 0.0)
    assert np.abs(probs - np.array([1.0, 0.0])).max() < 1e-15


def test_shadow_sample_rejects_bad_dimension():
    rng = np.random.default_rng(1)
    with pytest.raises(InvalidInputError):
        shadow_sample(np.eye(3, dtype=complex) / 3, 0.1, rng)
    for bits in ("01", "2"):
        with pytest.raises(InvalidInputError, match="do not match"):
            ShadowSample(clifford=np.eye(2, dtype=complex), bits=bits)


def test_snapshot_trace_is_one():
    rng = np.random.default_rng(2)
    rho = qops.random_density(2, 2, rng)
    for _ in range(10):
        s = shadow_sample(rho, 0.3, rng)
        snap = snapshot_inverse(s, 0.3, 2)
        assert abs(np.trace(snap).real - 1.0) < 1e-12


def test_snapshot_inverse_rejects_p_hat_one():
    rng = np.random.default_rng(3)
    s = shadow_sample(ZERO, 0.5, rng)
    with pytest.raises(NoninvertibleError):
        snapshot_inverse(s, 1.0, 2)


@pytest.mark.parametrize("p_hat", [float("nan"), float("inf"), float("-inf"), -0.5, 1.5])
def test_snapshot_inverse_rejects_p_hat_outside_the_unit_interval(p_hat):
    s = shadow_sample(ZERO, 0.5, np.random.default_rng(3))
    with pytest.raises(InvalidInputError, match="p_hat"):
        snapshot_inverse(s, p_hat, 2)


@pytest.mark.parametrize("p_hat", [0.0, 0.3, 0.5, 0.85])
def test_snapshot_average_recovers_state(p_hat):
    rng = np.random.default_rng(4)
    for rho in (ZERO, qops.random_density(2, 2, rng), qops.random_density(2, 1, rng)):
        avg = exact_snapshot_average(rho, p_hat)
        assert np.abs(avg - rho).max() < 1e-10


def test_snapshot_average_unbiased_for_observables():
    rng = np.random.default_rng(5)
    rho = qops.random_density(2, 2, rng)
    obs = qops.hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    avg = exact_snapshot_average(rho, 0.3)
    assert abs(np.trace(obs @ avg).real - np.trace(obs @ rho).real) < 1e-10


def test_median_of_means_basics():
    snap = np.diag([0.9, 0.1]).astype(complex)
    obs = Z
    val = np.trace(obs @ snap).real
    assert median_of_means_estimate([snap] * 12, obs, 3) == pytest.approx(val)
    # K = 1 is a plain mean
    snaps = [np.diag([v, 1 - v]).astype(complex) for v in (0.2, 0.4, 0.9)]
    means = [np.trace(obs @ s).real for s in snaps]
    assert median_of_means_estimate(snaps, obs, 3) == pytest.approx(np.mean(means))
    # batch values {1, 2, 100} -> median 2
    outliers = [np.diag([(v + 1) / 2, (1 - v) / 2]).astype(complex) for v in (1.0, 2.0, 100.0)]
    assert median_of_means_estimate(outliers, obs, 1) == pytest.approx(2.0)


def test_median_of_means_requires_divisibility():
    with pytest.raises(InvalidInputError):
        median_of_means_estimate([ZERO] * 10, Z, 3)
    with pytest.raises(InvalidInputError):
        median_of_means_estimate([], Z, 1)


def test_required_samples_recomputed_value():
    # 204*2/0.04 * 1 * ln(40) = 37626.57...; the max-branch collapses at eps=1
    n = shadow_required_samples(2.0, 2, PrivacyBudget(1.0, 0.0), AccuracyDemand(0.2, 0.05))
    assert n == 37627


def test_required_samples_beta_scaling():
    b = PrivacyBudget(1.0, 0.0)
    n1 = shadow_required_samples(2.0, 2, b, AccuracyDemand(0.2, 0.05))
    n2 = shadow_required_samples(2.0, 2, b, AccuracyDemand(0.1, 0.05))
    assert abs(n2 / n1 - 4.0) < 1e-3


def test_required_samples_privacy_branch():
    # below the clamp boundary the privacy factor exceeds 1
    n_low = shadow_required_samples(2.0, 2, PrivacyBudget(0.5, 0.0), AccuracyDemand(0.3, 0.1))
    base = math.ceil(204 * 2 / 0.09 * math.log(20))
    assert n_low > base
    n_high = shadow_required_samples(2.0, 2, PrivacyBudget(1.0, 0.0), AccuracyDemand(0.3, 0.1))
    assert n_high == base


def test_required_samples_infeasible():
    with pytest.raises(InfeasibleError):
        shadow_required_samples(2.0, 2, PrivacyBudget(0.0, 0.0), AccuracyDemand(0.1, 0.1))


def test_infeasible_budget_is_named_in_the_message():
    dem = AccuracyDemand(0.1, 0.1)
    for eps in (0.0, 1e-300):
        for bound in (shadow_required_samples, naive_shadow_required_samples):
            with pytest.raises(InfeasibleError, match=f"epsilon = {eps:g} and delta = 0 "):
                bound(2.0, 2, PrivacyBudget(eps, 0.0), dem)


def test_naive_calibration_is_never_cheaper():
    dem = AccuracyDemand(0.2, 0.1)
    for d in (2, 4, 8):
        for eps in (0.1, 0.5, 1.0, 2.0):
            for delta in (0.0, 0.1, 0.5):
                b = PrivacyBudget(eps, delta)
                if b.gamma - 1 + d * delta <= 0:
                    continue
                assert naive_shadow_required_samples(2.0, d, b, dem) >= \
                    shadow_required_samples(2.0, d, b, dem)


def test_default_batch_count():
    # target floor(2 ln 20) = 5; divisors of 12 nearest are 4 and 6, tie -> 4
    assert default_batch_count(12, 0.1) == 4
    assert default_batch_count(7, 0.1) == 7  # divisors 1 and 7 only
    assert default_batch_count(1, 0.5) == 1


def test_default_batch_count_matches_all_divisors_and_ignores_n_size():
    for eta in (0.5, 0.1, 0.01, 1e-6):
        target = max(1, math.floor(2.0 * math.log(2.0 / eta)))
        for n in range(1, 600):
            divisors = [k for k in range(1, n + 1) if n % k == 0]
            want = min(divisors, key=lambda k: (abs(k - target), k))
            assert default_batch_count(n, eta) == want
    # trial division up to sqrt(n) would not finish on these
    assert default_batch_count(2**61 - 1, 0.05) == 1  # a Mersenne prime
    assert default_batch_count(10**30, 0.05) == 8


def test_run_shadow_trials_deterministic_and_accurate():
    p_hat = 0.3
    a = run_shadow_trials(ZERO, decompose(Z, 1), p_hat, 1200, 300, 8, seed=6)
    b = run_shadow_trials(ZERO, decompose(Z, 1), p_hat, 1200, 300, 8, seed=6)
    assert np.array_equal(a, b)
    big = run_shadow_trials(ZERO, decompose(Z, 1), p_hat, 20_000, 5000, 4, seed=7)
    assert np.abs(big - 1.0).max() < 0.25


def test_run_shadow_trials_validation():
    with pytest.raises(InvalidInputError):
        run_shadow_trials(ZERO, decompose(Z, 1), 0.3, 100, 33, 2, seed=0)
    for n, ell in ((100, 0), (0, 1)):
        with pytest.raises(InvalidInputError):
            run_shadow_trials(ZERO, decompose(Z, 1), 0.3, n, ell, 2, seed=0)
    with pytest.raises(InvalidInputError, match="state of shape"):
        run_shadow_trials(np.eye(3) / 3, decompose(np.eye(2), 1), 0.3, 100, 10, 2, seed=0)
    # past m = 4 only an observable with at most one non-identity Pauli term has a law
    # (a second term of 1e-300 counts too: the closed form is exact or not taken)
    for second in (1.0, 1e-300):
        two_terms = pauli_matrix("ZIIII") + second * pauli_matrix("IXIII")
        with pytest.raises(InvalidInputError, match="more than one non-identity Pauli term"):
            run_shadow_trials(np.eye(32) / 32, decompose(two_terms, 5), 0.3, 100, 10, 2, seed=0)
    assert np.all(run_shadow_trials(np.eye(32) / 32, decompose(np.eye(32), 5), 0.3, 100, 10, 2, seed=0) == 1.0)
    with pytest.raises(DegenerateObservableError, match="zero Pauli weight"):
        run_shadow_trials(ZERO, decompose(0 * Z, 1), 0.3, 100, 10, 2, seed=0)
    with pytest.raises(NoninvertibleError):
        run_shadow_trials(ZERO, decompose(Z, 1), 1.0, 100, 10, 2, seed=0)
    # p_hat = -0.5 once averaged 0.778 on Tr[Z |0><0|] = 1, and NaN reached numpy's multinomial
    for p_hat in (-0.5, float("nan"), 1.5):
        with pytest.raises(InvalidInputError, match="p_hat must be in"):
            run_shadow_trials(ZERO, decompose(Z, 1), p_hat, 200, 200, 200, seed=0)
    assert abs(run_shadow_trials(ZERO, decompose(Z, 1), 0.0, 200, 200, 200, seed=0).mean() - 1.0) < 0.05


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trial_kernels_reject_a_non_finite_or_misshapen_state(bad):
    # a NaN state once reached numpy's binomial and multinomial as a bare ValueError
    dec = decompose(Z, 1)
    for rho in (np.array([[bad, 0.0], [0.0, 0.5]]), np.ones((1, 1)), np.eye(4) / 4):
        with pytest.raises(InvalidInputError, match="state of shape"):
            run_shadow_trials(rho, dec, 0.3, 100, 10, 2, seed=0)
        with pytest.raises(InvalidInputError, match="state of shape"):
            run_estimation_trials(rho, dec, PrivacyBudget(1.0, 0.0), AccuracyDemand(0.1, 0.1), 2, seed=0, n=10)
        with pytest.raises(InvalidInputError, match="state of shape"):
            dec.expectation(rho)


def joint_snapshot_table(rho, obs, p_hat, m):
    """Oracle: (Clifford, outcome) probabilities and Tr[O rho_hat] over the enumerated group."""
    d = 2**m
    us = enumerate_cliffords(m)
    rot = np.einsum("gij,jk,glk->gil", us, rho, us.conj())
    probs = ((1.0 - p_hat) * np.einsum("gii->gi", rot).real + p_hat / d) / len(us)
    x = (d + 1.0) / (1.0 - p_hat)
    rot_obs = np.einsum("gij,jk,gik->gi", us, obs, us.conj()).real
    vals = x * rot_obs - (x - 1.0) * np.trace(obs).real / d
    return probs.ravel(), vals.ravel()


def value_distribution(probs, vals):
    """Distinct snapshot values (to 1e-9) and the probability mass on each."""
    keys, inverse = np.unique(np.round(vals, 9), return_inverse=True)
    return keys, np.bincount(inverse, weights=probs)


@pytest.mark.parametrize("m", [1, 2])
def test_snapshot_table_matches_joint_clifford_table(m):
    rng = np.random.default_rng(10 + m)
    d = 2**m
    for p_hat in (0.0, 0.4, 0.9):
        rho = qops.random_density(d, 2, rng)
        obs = qops.hermitize(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        for o in (obs, pauli_matrix("Z" * m)):
            want = value_distribution(*joint_snapshot_table(rho, o, p_hat, m))
            got = value_distribution(*_snapshot_tables(rho, o, p_hat, m))
            assert np.array_equal(got[0], want[0])
            assert np.abs(got[1] - want[1]).max() < 1e-12


def orbit_snapshot_table(states, rho, obs, p_hat):
    """Oracle: the snapshot table over orbit-built stabilizer states."""
    d = states.shape[1]
    born = np.einsum("si,ij,sj->s", states.conj(), rho, states).real
    expect = np.einsum("si,ij,sj->s", states.conj(), obs, states).real
    probs = np.clip((1.0 - p_hat) * born + p_hat / d, 0.0, None)
    x = (d + 1.0) / (1.0 - p_hat)
    return probs / probs.sum(), x * expect - (x - 1.0) * np.trace(obs).real / d


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_snapshot_table_matches_the_orbit_table(m):
    # the same multiset of (probability, value) pairs as the orbit-built table
    rng = np.random.default_rng(30 + m)
    d = 2**m
    states = orbit_states(m)
    for p_hat in (0.0, 0.6):
        rho = qops.random_density(d, 2, rng)
        obs = qops.hermitize(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        pairs = [np.stack(table, axis=1) for table in (_snapshot_tables(rho, obs, p_hat, m),
                                                       orbit_snapshot_table(states, rho, obs, p_hat))]
        got, want = (p[np.lexsort((p[:, 0], p[:, 1]))] for p in pairs)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_snapshot_table_pauli_values_are_exact(m):
    # A uniform Clifford maps a traceless Pauli P to a Z-type string with probability
    # 1/(d+1); then the inverted value is +-x with P(+) = (1 + (1-p_hat) Tr[P rho])/2.
    rng = np.random.default_rng(20 + m)
    d = 2**m
    rho = qops.random_density(d, d, rng)
    p_hat = 0.35
    x = (d + 1.0) / (1.0 - p_hat)
    for label in ("X" * m, "Z" + "I" * (m - 1), ("YZ" * m)[:m]):
        pauli = pauli_matrix(label)
        probs, vals = _snapshot_tables(rho, pauli, p_hat, m)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.abs(np.abs(vals) * (np.abs(vals) - x)).max() < 1e-9
        t = (1.0 - p_hat) * np.trace(pauli @ rho).real
        assert abs(probs[vals > x / 2].sum() - (1 + t) / (2 * (d + 1))) < 1e-12
        assert abs(probs[vals < -x / 2].sum() - (1 - t) / (2 * (d + 1))) < 1e-12
        assert abs(probs[np.abs(vals) < x / 2].sum() - d / (d + 1)) < 1e-12


def test_run_shadow_trials_at_three_qubits():
    rho = np.diag([0.5, 0.1, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05]).astype(complex)
    obs = pauli_matrix("ZII")
    est = run_shadow_trials(rho, decompose(obs, 3), 0.2, 6000, 1000, 4, seed=12)
    assert np.abs(est - np.trace(obs @ rho).real).max() < 0.25


def test_single_snapshot_trials_follow_the_grouped_table():
    # ell = n = 1: each trial is one snapshot value, drawn from the merged cells.
    rng = np.random.default_rng(40)
    rho = qops.random_density(4, 2, rng)
    obs = qops.hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    keys, mass = value_distribution(*_snapshot_tables(rho, obs, 0.3, 2))
    trials = 20_000
    ests = run_shadow_trials(rho, decompose(obs, 2), 0.3, 1, 1, trials, seed=41)
    got, counts = np.unique(np.round(ests, 9), return_counts=True)
    assert set(got) <= set(keys)
    for key, p in zip(keys, mass):
        freq = counts[got == key].sum() / trials
        assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / trials) + 1e-12


def test_shadow_trials_at_a_billion_snapshots_cost_no_memory_in_n():
    ests, peak = traced_peak_mb(lambda: run_shadow_trials(ZERO, decompose(Z, 1), 0.3, 10**9, 10**8, 3, seed=42))
    assert peak < 32.0  # n records as float64 would take 8000 MB
    assert np.all(np.isfinite(ests)) and np.abs(ests - 1.0).max() < 1e-2


def test_single_snapshot_batches_cost_no_more_than_the_snapshots():
    # ell = 1 with a dense 3-qubit observable: 20 000 batches over 1080 distinct
    # values.  Per-batch counts would take 20 000 x 1080 x 8 B = 173 MB; drawing
    # the snapshots' values takes O(N), and the 500 trials are drawn a bounded
    # block at a time, so their number adds nothing but the output.
    rng = np.random.default_rng(43)
    rho = qops.random_density(8, 8, rng)
    obs = qops.hermitize(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    assert len(np.unique(_snapshot_tables(rho, obs, 0.3, 3)[1])) == 1080
    ests, peak = traced_peak_mb(lambda: run_shadow_trials(rho, decompose(obs, 3), 0.3, 20_000, 1, 500, seed=44))
    assert peak < 16.0
    assert ests.shape == (500,) and np.all(np.isfinite(ests))


def pauli_term_observable(label, rng):
    """c_0 I + c P with a signed c and a nonzero identity offset c_0, and its decomposition."""
    m = len(label)
    c0 = float(rng.normal())
    c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0))
    obs = c0 * np.eye(2**m) + c * pauli_matrix(label)
    dec = decompose(obs, m)
    assert np.count_nonzero(dec.coeffs[1:]) == (0 if set(label) == {"I"} else 1) and dec.one_term
    return obs, dec


def assert_three_cells_match_the_table(rho, label, p_hat, rng):
    m = len(label)
    obs, dec = pauli_term_observable(label, rng)
    got = value_distribution(*_pauli_string_cells(rho, dec, p_hat))
    want = value_distribution(*_snapshot_tables(rho, obs, p_hat, m))
    assert np.array_equal(got[0], want[0]), label
    assert np.abs(got[1] - want[1]).max() < 1e-14, label


@pytest.mark.parametrize("m", [1, 2, 3])
def test_three_cell_law_matches_the_table_at_every_pauli_string(m):
    rng = np.random.default_rng(50 + m)
    d = 2**m
    for p_hat in (0.0, 0.45):
        rho = qops.random_density(d, 2, rng)
        for label in pauli_labels(m):
            assert_three_cells_match_the_table(rho, label, p_hat, rng)


def test_three_cell_law_matches_the_table_at_four_qubits():
    rng = np.random.default_rng(54)
    labels = pauli_labels(4)
    sample = ["ZZZZ", "XXXX", "YYYY", *(labels[k] for k in rng.choice(len(labels), 5, replace=False))]
    rho = qops.random_density(16, 3, rng)
    for label in sample:
        assert_three_cells_match_the_table(rho, label, 0.3, rng)


@pytest.mark.parametrize("coeffs, one_term", [
    ({"II": 0.2, "ZZ": 0.7}, True),
    ({"ZZ": 0.7, "XI": 5e-324}, False),  # a subnormal coefficient is a second term
])
def test_the_one_term_test_picks_the_true_value_and_the_shadow_law_together(monkeypatch, coeffs, one_term):
    # expectation reads the matrix exactly when the shadow law needs the stabilizer table
    calls = {"pauli_sum": 0, "_snapshot_tables": 0}
    for module, name in ((qldp.pauli, "pauli_sum"), (qldp.shadows, "_snapshot_tables")):
        def spy(*args, original=getattr(module, name), name=name):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, spy)
    dec = from_coeffs(coeffs)
    assert dec.one_term is one_term
    rho = qops.random_density(4, 2, np.random.default_rng(58))
    truth = np.trace(per_label_sum(coeffs) @ rho).real
    assert abs(dec.expectation(rho) - truth) < 1e-12
    assert calls == {"pauli_sum": int(not one_term), "_snapshot_tables": 0}
    ests = run_shadow_trials(rho, dec, 0.2, 600, 60, 20, seed=59)
    assert np.isfinite(ests).all()
    assert calls == {"pauli_sum": int(not one_term), "_snapshot_tables": int(not one_term)}


def test_one_pauli_term_runs_past_four_qubits():
    # the table would enumerate 2^8 prod_k (2^k + 1) > 10^12 stabilizer states
    rng = np.random.default_rng(55)
    rho = qops.projector(qops.random_pure(256, rng))
    obs = 0.5 * np.eye(256) - pauli_matrix("Z" * 8)
    truth = float(np.trace(obs @ rho).real)
    ests = run_shadow_trials(rho, decompose(obs, 8), 0.2, 2_000_000, 400_000, 40, seed=56)
    assert np.abs(ests - truth).max() < 0.3


@pytest.mark.parametrize("ell", [63, 64])
def test_trials_are_prefix_stable_across_a_block_boundary(ell):
    # 64 cells: ell = 63 draws uniforms, ell = 64 draws multinomial counts.  A block
    # holds a few trials here, so a run of 2 blocks + 1 trials crosses two boundaries.
    rng = np.random.default_rng(57)
    probs, vals = rng.dirichlet(np.ones(64)), rng.standard_normal(64)
    batches = 300
    block = _BLOCK_DRAWS // (batches * min(ell, len(probs)))
    assert block >= 2
    trials = 2 * block + 1
    full = _trial_estimates(probs, vals, batches * ell, ell, trials, seed=58)
    assert len(np.unique(full)) == trials
    for k in (1, block - 1, block, block + 1, trials):
        assert np.array_equal(_trial_estimates(probs, vals, batches * ell, ell, k, seed=58), full[:k]), k


def test_sufficient_sample_counts_that_underflow_give_one():
    # beta * beta overflows to inf, so each formula rounds to 0 before its ceiling
    budget, demand = PrivacyBudget(1.0, 0.0), AccuracyDemand(1e200, 0.1)
    assert required_samples_upper(1.0, budget, demand) == 1
    assert shadow_required_samples(2.0, 2, budget, demand) == 1
    assert naive_shadow_required_samples(2.0, 2, budget, demand) == 1
