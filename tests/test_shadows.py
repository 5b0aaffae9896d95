import math

import numpy as np
import pytest

from qldp import qops
from qldp.channels import depolarizing
from qldp.errors import InfeasibleError, InvalidInputError, NoninvertibleError
from qldp.estimate import AccuracyDemand
from test_estimate import traced_peak_mb
from test_pauli import orbit_states
from qldp.pauli import enumerate_cliffords, pauli_matrix
from qldp.privacy import PrivacyBudget, SearchConfig, certify_qldp
from qldp.shadows import (
    _snapshot_tables,
    ShadowSample,
    clifford_unitary_group,
    composite_shadow_channel,
    default_batch_count,
    effective_depolarizing_q,
    median_of_means_estimate,
    naive_shadow_required_samples,
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
    a = run_shadow_trials(ZERO, Z, p_hat, 1200, 300, 8, seed=6)
    b = run_shadow_trials(ZERO, Z, p_hat, 1200, 300, 8, seed=6)
    assert np.array_equal(a, b)
    big = run_shadow_trials(ZERO, Z, p_hat, 20_000, 5000, 4, seed=7)
    assert np.abs(big - 1.0).max() < 0.25


def test_run_shadow_trials_validation():
    with pytest.raises(InvalidInputError):
        run_shadow_trials(ZERO, Z, 0.3, 100, 33, 2, seed=0)
    for n, ell in ((100, 0), (0, 1)):
        with pytest.raises(InvalidInputError):
            run_shadow_trials(ZERO, Z, 0.3, n, ell, 2, seed=0)
    with pytest.raises(InvalidInputError):
        run_shadow_trials(np.eye(32) / 32, np.eye(32), 0.3, 100, 10, 2, seed=0)
    with pytest.raises(NoninvertibleError):
        run_shadow_trials(ZERO, Z, 1.0, 100, 10, 2, seed=0)


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
    est = run_shadow_trials(rho, obs, 0.2, 6000, 1000, 4, seed=12)
    assert np.abs(est - np.trace(obs @ rho).real).max() < 0.25


def test_clifford_unitary_group_wrapper():
    g = clifford_unitary_group(1)
    assert g.dim == 2 and len(g) == 24
    assert np.array_equal(g.stack(), enumerate_cliffords(1))


def test_single_snapshot_trials_follow_the_grouped_table():
    # ell = n = 1: each trial is one snapshot value, drawn from the merged cells.
    rng = np.random.default_rng(40)
    rho = qops.random_density(4, 2, rng)
    obs = qops.hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    keys, mass = value_distribution(*_snapshot_tables(rho, obs, 0.3, 2))
    trials = 20_000
    ests = run_shadow_trials(rho, obs, 0.3, 1, 1, trials, seed=41)
    got, counts = np.unique(np.round(ests, 9), return_counts=True)
    assert set(got) <= set(keys)
    for key, p in zip(keys, mass):
        freq = counts[got == key].sum() / trials
        assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / trials) + 1e-12


def test_shadow_trials_at_a_billion_snapshots_cost_no_memory_in_n():
    ests, peak = traced_peak_mb(lambda: run_shadow_trials(ZERO, Z, 0.3, 10**9, 10**8, 3, seed=42))
    assert peak < 32.0  # n records as float64 would take 8000 MB
    assert np.all(np.isfinite(ests)) and np.abs(ests - 1.0).max() < 1e-2


def test_single_snapshot_batches_cost_no_more_than_the_snapshots():
    # ell = 1 with a dense 3-qubit observable: 20 000 batches over 1080 distinct
    # values.  Per-batch counts would take 20 000 x 1080 x 8 B = 173 MB; drawing
    # the snapshots' values takes O(N).
    rng = np.random.default_rng(43)
    rho = qops.random_density(8, 8, rng)
    obs = qops.hermitize(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    assert len(np.unique(_snapshot_tables(rho, obs, 0.3, 3)[1])) == 1080
    ests, peak = traced_peak_mb(lambda: run_shadow_trials(rho, obs, 0.3, 20_000, 1, 3, seed=44))
    assert peak < 32.0
    assert np.all(np.isfinite(ests))
