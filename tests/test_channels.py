import numpy as np
import pytest

import qldp
from qldp import channels as ch
from qldp import privacy, qops, utility
from qldp.errors import InvalidInputError
from qldp.pauli import enumerate_cliffords, pauli_matrix


def qubit_clifford_group():
    elems = [c.matrix for c in enumerate_cliffords(1)]
    return ch.FiniteUnitaryGroup(dim=2, elements=elems, exact=True)


def test_depolarizing_action_matches_formula():
    rng = np.random.default_rng(0)
    for d, p in [(2, 0.0), (2, 1.0), (2, 0.5), (3, 0.3), (4, 0.8)]:
        dep = ch.depolarizing(d, p)
        rho = qops.random_density(d, d, rng)
        expected = (1 - p) * rho + p * np.eye(d) / d
        assert np.abs(ch.apply(dep, rho) - expected).max() < 1e-12


def test_depolarizing_examples():
    ident = ch.depolarizing(2, 0.0)
    rho = qops.random_density(2, 2, np.random.default_rng(1))
    assert np.abs(ch.apply(ident, rho) - rho).max() < 1e-12
    full = ch.depolarizing(2, 1.0)
    assert np.abs(ch.apply(full, rho) - np.eye(2) / 2).max() < 1e-12
    half = ch.depolarizing(2, 0.5)
    zero = np.diag([1.0, 0.0]).astype(complex)
    assert np.abs(ch.apply(half, zero) - np.diag([0.75, 0.25])).max() < 1e-12


def test_depolarizing_rejects_bad_p():
    with pytest.raises(InvalidInputError):
        ch.depolarizing(2, -0.1)
    with pytest.raises(InvalidInputError):
        ch.depolarizing(2, 1.1)


def test_apply_identity_and_inverse_conjugation():
    rng = np.random.default_rng(2)
    rho = qops.random_density(3, 2, rng)
    assert np.abs(ch.apply(ch.identity_channel(3), rho) - rho).max() < 1e-12
    u = qops.random_unitary(3, rng)
    there = ch.unitary_conjugate(u)
    back = ch.unitary_conjugate(u.conj().T)
    assert np.abs(ch.apply(back, ch.apply(there, rho)) - rho).max() < 1e-12


def test_apply_kraus_vs_superop_paths():
    rng = np.random.default_rng(3)
    channel = ch.random_channel(3, 4, rng)
    for _ in range(5):
        rho = qops.random_density(3, 3, rng)
        assert np.abs(ch.apply(channel, rho) - ch.apply_superop(channel, rho)).max() < 1e-12


def test_apply_dim_mismatch():
    with pytest.raises(InvalidInputError):
        ch.apply(ch.depolarizing(2, 0.5), np.eye(3) / 3)


def test_conjugated_depolarizing_is_unchanged():
    rng = np.random.default_rng(4)
    dep = ch.depolarizing(2, 0.4)
    u = qops.random_unitary(2, rng)
    conj = ch.conjugated_channel(dep, u)
    assert np.abs(conj.superoperator - dep.superoperator).max() < 1e-10


def test_conjugated_identity_is_identity():
    u = qops.random_unitary(3, np.random.default_rng(5))
    conj = ch.conjugated_channel(ch.identity_channel(3), u)
    assert ch.channels_close(conj, ch.identity_channel(3), tol=1e-10)


def test_conjugation_preserves_worst_case_divergence():
    # the frame change cannot move the worst-case hockey-stick value
    rng = np.random.default_rng(6)
    n = ch.random_channel(2, 3, rng)
    u = qops.random_unitary(2, rng)
    nu = ch.conjugated_channel(n, u)
    gamma = np.e

    def sup_over_pairs(channel, pairs):
        best = 0.0
        for v in pairs:
            out1 = ch.apply(channel, qops.projector(v[:, 0]))
            out2 = ch.apply(channel, qops.projector(v[:, 1]))
            best = max(best, qops.hockey_stick(out1, out2, gamma))
        return best

    pairs = [qops.random_unitary(2, rng) for _ in range(400)]
    # rotating the sampled pairs by U maps the feasible set onto itself
    s_n = sup_over_pairs(n, [u @ v for v in pairs])
    s_nu = sup_over_pairs(nu, pairs)
    assert abs(s_n - s_nu) < 1e-8


def test_unitary_conjugate_rejects_non_unitary():
    with pytest.raises(InvalidInputError):
        ch.unitary_conjugate(np.array([[1, 1], [0, 1]], dtype=complex))


def test_pauli_measurement_channel_examples():
    z = pauli_matrix("Z")
    x = pauli_matrix("X")
    mz = ch.pauli_measurement_channel(z)
    zero = np.diag([1.0, 0.0]).astype(complex)
    assert np.abs(ch.apply(mz, zero) - zero).max() < 1e-12
    assert np.abs(ch.apply(mz, np.eye(2) / 2) - np.eye(2) / 2).max() < 1e-12
    mx = ch.pauli_measurement_channel(x)
    assert np.abs(ch.apply(mx, zero) - np.eye(2) / 2).max() < 1e-12


def test_pauli_measurement_channel_rejects_non_involution():
    with pytest.raises(InvalidInputError):
        ch.pauli_measurement_channel(np.diag([1.0, 2.0]).astype(complex))


def test_measurement_channel_two_qubit_born_weights():
    rng = np.random.default_rng(7)
    p = pauli_matrix("XZ")
    mp = ch.pauli_measurement_channel(p)
    rho = qops.random_density(4, 4, rng)
    out = ch.apply(mp, rho)
    t0 = np.trace((np.eye(4) + p) / 2 @ rho).real
    assert np.abs(out - np.diag([t0, 1 - t0])).max() < 1e-10


def test_compose_identity_and_depolarizing_semigroup():
    dep = ch.depolarizing(3, 0.35)
    assert ch.channels_close(ch.compose(ch.identity_channel(3), dep), dep, tol=1e-12)
    a, b = 0.3, 0.45
    combined = ch.compose(ch.depolarizing(3, a), ch.depolarizing(3, b))
    assert ch.channels_close(combined, ch.depolarizing(3, a + b - a * b), tol=1e-12)


def test_compose_dim_mismatch():
    with pytest.raises(InvalidInputError):
        ch.compose(ch.depolarizing(3, 0.2), ch.pauli_measurement_channel(pauli_matrix("Z")))


def test_composed_measurement_outcome_probability():
    # Pr(Y=0) after depolarizing the measured bit: 1/2 + (1-q)/2 Tr[P rho]
    rng = np.random.default_rng(8)
    q = 0.37
    for label in ("Z", "X", "Y"):
        p = pauli_matrix(label)
        mech = ch.compose(ch.depolarizing(2, q), ch.pauli_measurement_channel(p))
        rho = qops.random_density(2, 2, rng)
        out = ch.apply(mech, rho)
        expected = 0.5 + (1 - q) / 2 * np.trace(p @ rho).real
        assert abs(out[0, 0].real - expected) < 1e-12


def test_twirl_identity_and_depolarizing_fixed_points():
    g = qubit_clifford_group()
    assert ch.channels_close(ch.twirl(ch.identity_channel(2), g), ch.identity_channel(2), tol=1e-10)
    dep = ch.depolarizing(2, 0.6)
    assert ch.channels_close(ch.twirl(dep, g), dep, tol=1e-10)


def test_clifford_twirl_is_depolarizing():
    rng = np.random.default_rng(9)
    g = qubit_clifford_group()
    for _ in range(5):
        n = ch.random_channel(2, int(rng.integers(1, 5)), rng)
        twirled = ch.twirl(n, g)
        p, residual = ch.fit_depolarizing(twirled)
        assert residual < 1e-9
        # cross-check the fitted level against the Kraus-trace formula
        traces = sum(abs(np.trace(k)) ** 2 for k in n.kraus)
        expected_p = 1 - (traces - 1) / (2**2 - 1)
        assert abs(p - expected_p) < 1e-9


def test_twirl_idempotent():
    rng = np.random.default_rng(10)
    g = qubit_clifford_group()
    n = ch.random_channel(2, 3, rng)
    once = ch.twirl(n, g)
    twice = ch.twirl(once, g)
    assert np.abs(once.superoperator - twice.superoperator).max() < 1e-10


def test_twirl_does_not_hurt_utility():
    from qldp.privacy import SearchConfig
    from qldp.utility import utility_report

    rng = np.random.default_rng(11)
    g = qubit_clifford_group()
    cfg = SearchConfig(restarts=32, local_steps=120, seed=17)
    for _ in range(3):
        n = ch.random_channel(2, int(rng.integers(1, 5)), rng)
        rep_n = utility_report(n, cfg)
        rep_t = utility_report(ch.twirl(n, g), cfg)
        assert rep_t.fidelity_utility >= rep_n.fidelity_utility - 1e-8
        assert rep_t.trace_utility <= rep_n.trace_utility + 1e-8


def test_cptp_preservation_on_random_inputs():
    rng = np.random.default_rng(12)
    constructors = [
        ch.depolarizing(2, 0.3),
        ch.unitary_conjugate(qops.random_unitary(2, rng)),
        ch.conjugated_channel(ch.random_channel(2, 2, rng), qops.random_unitary(2, rng)),
        ch.pauli_measurement_channel(pauli_matrix("X")),
        ch.compose(ch.depolarizing(2, 0.2), ch.random_channel(2, 3, rng)),
        ch.twirl(ch.random_channel(2, 2, rng), qubit_clifford_group()),
        ch.replacement_channel(qops.random_density(2, 2, rng)),
        ch.random_channel(2, 4, rng),
    ]
    for channel in constructors:
        for _ in range(100):
            rho = qops.random_density(channel.dim_in, int(rng.integers(1, channel.dim_in + 1)), rng)
            qops.check_density(ch.apply(channel, rho))


def test_channel_validation_rejects_non_trace_preserving():
    bad = np.array([[[1.0, 0.0], [0.0, 0.5]]], dtype=complex)
    with pytest.raises(InvalidInputError):
        ch.QuantumChannel(bad)


def test_group_validation_rejects_non_unitary():
    with pytest.raises(InvalidInputError):
        ch.FiniteUnitaryGroup(dim=2, elements=[np.array([[1, 1], [0, 1]], dtype=complex)])


def test_superoperator_composition_identity():
    rng = np.random.default_rng(13)
    a = ch.random_channel(2, 2, rng)
    b = ch.random_channel(2, 3, rng)
    composed = ch.compose(a, b)
    assert np.abs(composed.superoperator - a.superoperator @ b.superoperator).max() < 1e-12


# --- superoperator kernel against the kron-sum oracle ------------------------

def kron_superoperator(kraus: np.ndarray) -> np.ndarray:
    """Reference superoperator sum_k conj(K_k) kron K_k, one kron per Kraus operator."""
    s = np.zeros((kraus.shape[1] ** 2, kraus.shape[2] ** 2), dtype=complex)
    for k in kraus:
        s += np.kron(k.conj(), k)
    return s


def test_superoperator_matches_kron_oracle():
    rng = np.random.default_rng(14)
    cases = [ch.random_channel(d, r, rng) for d, r in [(2, 1), (2, 3), (3, 2), (3, 5), (5, 4)]]
    cases += [
        ch.pauli_measurement_channel(pauli_matrix("XZ")),  # 4 -> 2
        ch.replacement_channel(qops.random_density(3, 2, rng)),
        ch.compose(ch.random_channel(3, 2, rng), ch.random_channel(3, 3, rng)),
        ch.twirl(ch.random_channel(2, 3, rng), qubit_clifford_group()),
    ]
    for channel in cases:
        s = channel.superoperator
        assert s.shape == (channel.dim_out**2, channel.dim_in**2)
        assert np.abs(s - kron_superoperator(channel.kraus)).max() < 1e-12


def test_depolarizing_closed_form_matches_kron_oracle():
    for d in (2, 3, 8):
        for p in (0.0, 0.3, 1.0):
            dep = ch.depolarizing(d, p)
            assert np.abs(dep.superoperator - kron_superoperator(dep.kraus)).max() < 1e-12


def test_fit_depolarizing_recovers_p_at_d32():
    for p in (0.0, 0.4, 1.0):
        fitted, residual = ch.fit_depolarizing(ch.depolarizing(32, p))
        assert abs(fitted - p) < 1e-12
        assert residual <= 1e-12


def test_apply_kraus_vs_superop_paths_at_d32():
    rng = np.random.default_rng(15)
    for channel in (ch.depolarizing(32, 0.4), ch.random_channel(32, 4, rng)):
        rho = qops.random_density(32, 32, rng)
        assert np.abs(ch.apply(channel, rho) - ch.apply_superop(channel, rho)).max() < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_channel_rejects_non_finite_kraus(bad):
    with pytest.raises(InvalidInputError):
        ch.QuantumChannel(np.full((2, 2, 2), bad, dtype=complex))
    k = ch.depolarizing(2, 0.5).kraus.copy()
    k[1, 0, 0] = bad
    with pytest.raises(InvalidInputError):
        ch.QuantumChannel(k)


def test_batch_outputs_matches_per_state_apply():
    rng = np.random.default_rng(16)
    for channel in (ch.random_channel(3, 2, rng), ch.pauli_measurement_channel(pauli_matrix("XZ"))):
        psis = np.stack([qops.random_pure(channel.dim_in, rng) for _ in range(6)])
        out = ch.batch_outputs(channel, psis)
        assert out.shape == (6, channel.dim_out, channel.dim_out)
        for psi, o in zip(psis, out):
            assert np.abs(o - ch.apply(channel, qops.projector(psi))).max() < 1e-12
    # one kernel: both objectives use it, and it stays out of the package API
    assert privacy.batch_outputs is ch.batch_outputs
    assert utility.batch_outputs is ch.batch_outputs
    assert not hasattr(privacy, "_batch_outputs") and not hasattr(utility, "_batch_out")
    assert not hasattr(qldp, "batch_outputs")
