import tracemalloc
from unittest import mock

import numpy as np
import pytest

import qldp
from qldp import channels as ch
from qldp import privacy, qops, shadows, utility
from qldp.errors import InvalidInputError
from qldp.pauli import enumerate_cliffords, pauli_matrix


def vec(rho):
    """Column-stacking vectorization."""
    return rho.T.ravel()


def unvec(v, dim):
    return v.reshape(dim, dim).T


def apply_superop(channel, rho):
    """Oracle: the channel's action through its superoperator, independent of ch.apply."""
    rho = np.asarray(rho, dtype=complex)
    return qops.hermitize(unvec(channel.superoperator @ vec(rho), channel.dim_out))


def frame_outputs(channel, frames, weights):
    """Oracle: N(V diag(w) V^dag) per frame, as sum_j w_j apply(channel, v_j v_j^dag)."""
    return np.stack([sum(w * ch.apply(channel, qops.projector(v)) for w, v in zip(weights, f.T))
                     for f in frames])


def channels_close(a, b, tol=ch.SUPEROP_TOL):
    """Channel equality: max-abs difference of superoperator entries below tol."""
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        return False
    return bool(np.abs(a.superoperator - b.superoperator).max() <= tol)


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
        assert np.abs(ch.apply(channel, rho) - apply_superop(channel, rho)).max() < 1e-12


def test_apply_dim_mismatch():
    with pytest.raises(InvalidInputError):
        ch.apply(ch.depolarizing(2, 0.5), np.eye(3) / 3)


def conjugated(channel, u):
    """The frame change rho -> U^dag N(U rho U^dag) U as a one-element twirl, checked against U^dag K_k U."""
    out = ch.twirl(channel, u[None])
    assert np.array_equal(out.kraus, np.einsum("ij,kjl,lm->kim", u.conj().T, channel.kraus, u))
    return out


def test_conjugated_depolarizing_is_unchanged():
    rng = np.random.default_rng(4)
    dep = ch.depolarizing(2, 0.4)
    u = qops.random_unitary(2, rng)
    conj = conjugated(dep, u)
    assert np.abs(conj.superoperator - dep.superoperator).max() < 1e-10


def test_conjugated_identity_is_identity():
    u = qops.random_unitary(3, np.random.default_rng(5))
    conj = conjugated(ch.identity_channel(3), u)
    assert channels_close(conj, ch.identity_channel(3), tol=1e-10)
    rng = np.random.default_rng(27)
    for d, r in [(2, 2), (3, 4), (4, 3)]:
        conjugated(ch.random_channel(d, r, rng), qops.random_unitary(d, rng))


def test_conjugation_preserves_worst_case_divergence():
    # the frame change cannot move the worst-case hockey-stick value
    rng = np.random.default_rng(6)
    n = ch.random_channel(2, 3, rng)
    u = qops.random_unitary(2, rng)
    nu = conjugated(n, u)
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
    assert channels_close(ch.compose(ch.identity_channel(3), dep), dep, tol=1e-12)
    a, b = 0.3, 0.45
    combined = ch.compose(ch.depolarizing(3, a), ch.depolarizing(3, b))
    assert channels_close(combined, ch.depolarizing(3, a + b - a * b), tol=1e-12)


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
    g = enumerate_cliffords(1)
    assert channels_close(ch.twirl(ch.identity_channel(2), g), ch.identity_channel(2), tol=1e-10)
    dep = ch.depolarizing(2, 0.6)
    assert channels_close(ch.twirl(dep, g), dep, tol=1e-10)


def test_clifford_twirl_is_depolarizing():
    rng = np.random.default_rng(9)
    g = enumerate_cliffords(1)
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
    g = enumerate_cliffords(1)
    n = ch.random_channel(2, 3, rng)
    once = ch.twirl(n, g)
    twice = ch.twirl(once, g)
    assert np.abs(once.superoperator - twice.superoperator).max() < 1e-10


def test_twirl_does_not_hurt_utility():
    from qldp.privacy import SearchConfig
    from qldp.utility import utility_report

    rng = np.random.default_rng(11)
    g = enumerate_cliffords(1)
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
        ch.twirl(ch.random_channel(2, 2, rng), qops.random_unitary(2, rng)[None]),
        ch.pauli_measurement_channel(pauli_matrix("X")),
        ch.compose(ch.depolarizing(2, 0.2), ch.random_channel(2, 3, rng)),
        ch.twirl(ch.random_channel(2, 2, rng), enumerate_cliffords(1)),
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
    with pytest.raises(InvalidInputError, match="not unitary"):
        ch.twirl(ch.depolarizing(2, 0.3), [np.eye(2), np.array([[1, 1], [0, 1]], dtype=complex)])


# twirl validates its stack. The ids name the case, not a function: "group" is a twirl over a
# two-element stack, "conjugated_channel" the frame change twirl(ch, u[None]) of a one-element stack.
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("build", [
    lambda u: ch.twirl(ch.depolarizing(2, 0.3), [np.eye(2), u]),
    ch.unitary_conjugate,
    lambda u: ch.twirl(ch.depolarizing(2, 0.3), u[None]),
], ids=["group", "unitary_conjugate", "conjugated_channel"])
def test_unitary_checks_reject_non_finite_entries(build, bad):
    # max |U^dag U - I| is NaN here, and NaN > tol is False: the guard must not pass it
    with pytest.raises(InvalidInputError, match="non-finite"):
        build(np.full((2, 2), bad, dtype=complex))
    u = np.eye(2, dtype=complex)
    u[1, 1] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        build(u)


# ids as above: "group" and "conjugated_channel" are twirls over a two- and a one-element stack
@pytest.mark.parametrize("build, matrix", [
    (lambda m: ch.QuantumChannel(m[None]), [[1e200, 0], [0, 1]]),
    (lambda m: ch.twirl(ch.depolarizing(2, 0.3), [np.eye(2), m]), [[1e200, 0], [0, 1]]),
    (ch.unitary_conjugate, [[1e200, 0], [0, 1]]),
    (lambda m: ch.twirl(ch.depolarizing(2, 0.3), m[None]), [[1e200, 0], [0, 1]]),
    (ch.pauli_measurement_channel, [[1e200, 0], [0, 1]]),
    # P^2 has inf - inf = NaN off the diagonal; a NaN deviation must not pass as an involution
    (ch.pauli_measurement_channel, [[1e200, 1e200], [1e200, -1e200]]),
], ids=["kraus", "group", "unitary_conjugate", "conjugated_channel", "involution", "involution-nan"])
def test_huge_finite_entries_are_rejected_without_numpy_warnings(build, matrix):
    # Tier-1 turns RuntimeWarning into an error, so an overflow warning fails here
    with pytest.raises(InvalidInputError):
        build(np.array(matrix, dtype=complex))


def test_depolarizing_needs_an_integer_dimension():
    # a float d once built a channel that failed later with a TypeError
    for d in (2.5, 3.0, "3"):
        with pytest.raises(InvalidInputError, match="integer"):
            ch.depolarizing(d, 0.5)
    dep = ch.depolarizing(np.int64(3), 0.5)
    assert type(dep.dim_in) is int and dep.kraus.shape == (10, 3, 3)
    assert ch.is_depolarizing(dep)


def test_twirl_takes_one_validated_unitary_stack():
    rng = np.random.default_rng(26)
    cliffords = enumerate_cliffords(1)
    paulis = np.array([pauli_matrix(a) for a in "IXYZ"])
    for group in (cliffords, paulis):
        n = ch.random_channel(2, 3, rng)
        # the Kraus set {U_g^dag K_k U_g / sqrt(|G|)}, bit for bit, from an array or a list of elements
        expected = np.einsum("gji,kjl,glm->gkim", group.conj(), n.kraus, group) * (1.0 / np.sqrt(len(group)))
        for elements in (group, list(group)):
            assert np.array_equal(ch.twirl(n, elements).kraus, expected.reshape(-1, 2, 2))
    qubit = ch.depolarizing(2, 0.3)
    with pytest.raises(InvalidInputError, match="got shape"):
        ch.twirl(qubit, [])
    with pytest.raises(InvalidInputError, match="got shape"):
        ch.twirl(qubit, np.empty((0, 2, 2)))
    with pytest.raises(InvalidInputError, match=r"\(G, 4, 4\) unitary stack"):
        ch.twirl(ch.depolarizing(4, 0.3), cliffords)
    with pytest.raises(InvalidInputError, match=r"\(G, 2, 2\) unitary stack, got shape \(2, 2\)"):
        ch.twirl(qubit, np.eye(2))
    with pytest.raises(InvalidInputError, match="element shapes differ"):
        ch.twirl(qubit, [np.eye(2), np.eye(4)])
    with pytest.raises(InvalidInputError, match="element shapes differ"):  # rows of different lengths
        ch.unitary_conjugate([[1, 0], [0]])
    writable = np.eye(2, dtype=complex)[None]
    ch.twirl(qubit, writable)
    assert writable.flags.writeable


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
        ch.twirl(ch.random_channel(2, 3, rng), enumerate_cliffords(1)),
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
        assert np.abs(ch.apply(channel, rho) - apply_superop(channel, rho)).max() < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_channel_rejects_non_finite_kraus(bad):
    with pytest.raises(InvalidInputError):
        ch.QuantumChannel(np.full((2, 2, 2), bad, dtype=complex))
    k = ch.depolarizing(2, 0.5).kraus.copy()
    k[1, 0, 0] = bad
    with pytest.raises(InvalidInputError):
        ch.QuantumChannel(k)


def _isometry_channel(d_in, d_out, r, rng):
    """Random channel whose stacked (r d_out, d_in) Kraus matrix is an isometry."""
    g = rng.standard_normal((r * d_out, d_in)) + 1j * rng.standard_normal((r * d_out, d_in))
    v, _ = np.linalg.qr(g)
    return ch.QuantumChannel(v.reshape(r, d_out, d_in))


def _fit_depolarizing_oracle(channel):
    """Least squares against the full d^4 basis (S - I) = p (|v><v|/d - I), v = vec(I)."""
    d = channel.dim_in
    s = channel.superoperator
    ident = np.eye(d * d, dtype=complex)
    v = vec(np.eye(d, dtype=complex))
    basis = np.outer(v, v) / d - ident
    p = np.vdot(basis, s - ident).real / np.vdot(basis, basis).real
    return float(p), float(np.abs(s - (ident + p * basis)).max())


def test_lean_fit_matches_the_full_least_squares_oracle():
    rng = np.random.default_rng(18)
    g = enumerate_cliffords(1)
    cases = [ch.random_channel(d, r, rng) for d, r in [(2, 1), (2, 3), (3, 2), (4, 5), (8, 4)]]
    cases += [ch.depolarizing(d, p) for d, p in [(2, 0.0), (3, 0.45), (8, 1.0), (16, 0.7)]]
    cases += [ch.twirl(ch.random_channel(2, 2, rng), g)]
    for channel in cases:
        p, residual = ch.fit_depolarizing(channel)
        p_ref, residual_ref = _fit_depolarizing_oracle(channel)
        assert abs(p - p_ref) < 1e-12
        assert abs(residual - residual_ref) < 1e-12


def test_fit_rejects_one_dimensional_and_non_square_channels():
    with pytest.raises(InvalidInputError):
        ch.fit_depolarizing(ch.identity_channel(1))
    with pytest.raises(InvalidInputError):
        ch.fit_depolarizing(ch.pauli_measurement_channel(pauli_matrix("XZ")))
    assert not ch.is_depolarizing(ch.identity_channel(1))
    assert not ch.is_depolarizing(ch.pauli_measurement_channel(pauli_matrix("XZ")))
    assert ch.is_depolarizing(ch.depolarizing(3, 0.2))
    assert not ch.is_depolarizing(ch.random_channel(3, 2, np.random.default_rng(19)))


def output_spectrum(channel, frames, weights):
    """Oracle: eigenvalues of N(V diag(w) V^dag) per frame, ascending, from the Kraus factor A = K V.

    The matrix is A diag(u) A^dag with u = tile(w, r), of rank at most
    k = r c.  When k < d_out the k eigenvalues that may be nonzero come from
    eigvalsh of the core R diag(u) R^dag of a thin QR A = QR, and the d_out - k
    zeros are left out; otherwise all d_out come from the product itself.
    """
    a, u = ch._kraus_factor(channel, frames), np.tile(np.asarray(weights, dtype=float), len(channel.kraus))
    if a.shape[2] < channel.dim_out:
        a = np.linalg.qr(a, mode="r")
    return np.linalg.eigvalsh((a * u) @ a.conj().transpose(0, 2, 1))


def _full_spectrum(channel, frames, weights):
    """Every eigenvalue of the d_out x d_out matrix, built by the apply oracle."""
    return np.linalg.eigvalsh(frame_outputs(channel, frames, weights))


def _assert_spectrum_matches_the_oracle(channel, frames, weights):
    """The kernel's eigenvalues, with the d_out - k zeros of a k x k core put back, are the full spectrum."""
    spec = output_spectrum(channel, frames, weights)
    full = _full_spectrum(channel, frames, weights)
    k = len(channel.kraus) * frames.shape[2]
    assert spec.shape == (len(frames), min(k, channel.dim_out))
    padded = np.sort(np.concatenate([spec, np.zeros((len(frames), channel.dim_out - spec.shape[1]))], axis=1))
    assert np.abs(padded - full).max() < 1e-12
    return k


def _assert_core_is_the_nonzero_spectrum(channel, frames, weights):
    assert _assert_spectrum_matches_the_oracle(channel, frames, weights) < channel.dim_out


def dense_trace_gradient(channel, psi):
    """Oracle: D and N^dag(P) psi - P psi from the full eigen-solve of N(psi psi^dag) - psi psi^dag."""
    x = frame_outputs(channel, psi[:, :, None], [1.0]) - np.einsum("bi,bj->bij", psi, psi.conj())
    w, v = np.linalg.eigh(x)
    v = v * (w > 0)[:, None, :]
    proj = v @ v.conj().transpose(0, 2, 1)
    adjoint = np.einsum("kji,bjl,klm->bim", channel.kraus.conj(), proj, channel.kraus)
    grads = np.einsum("bij,bj->bi", adjoint - proj, psi)
    return np.where(w > 0, w, 0.0).sum(axis=1), grads


def _assert_trace_kernel_matches_the_oracle(channel, psi):
    """The trace kernel's value and gradient are the full eigen-solve's, from one eigh at size min(k, d_out)."""
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        value, grad = ch.trace_distance_gradient(channel, psi)
    want_value, want_grad = dense_trace_gradient(channel, psi)
    k = len(channel.kraus) + 1
    assert [c.args[0].shape for c in eigh.call_args_list] == [(len(psi),) + (min(k, channel.dim_out),) * 2]
    assert np.abs(value - want_value).max() < 1e-12
    assert np.abs(grad - want_grad).max() < 1e-10
    return k


def dense_seesaw_step(channel, pairs, gamma):
    """Oracle: E_gamma on each pair, and N^dag(P) for the projector P onto the positive part, from full eigen-solves."""
    x = frame_outputs(channel, pairs, [1.0, -gamma])
    w, v = np.linalg.eigh(x)
    positive = w > ch.NULL_TOL  # the null space's rounding noise is no direction
    v = v * positive[:, None, :]
    proj = v @ v.conj().transpose(0, 2, 1)
    adjoint = np.einsum("kji,bjl,klm->bim", channel.kraus.conj(), proj, channel.kraus)
    return np.where(positive, w, 0.0).sum(axis=1), adjoint


def _assert_seesaw_kernel_matches_the_oracle(channel, pairs, gamma):
    """The seesaw kernel's value is the full eigen-solve's, and its next pair is orthonormal, the top and
    bottom eigenvectors of N^dag(P), and no worse; from one eigh at min(2r, d_out), one at d_in."""
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        value, nxt = ch.hockey_stick_step(channel, pairs, gamma)
    want_value, adjoint = dense_seesaw_step(channel, pairs, gamma)
    b, k = len(pairs), min(2 * len(channel.kraus), channel.dim_out)
    assert [c.args[0].shape for c in eigh.call_args_list] == [(b, k, k), (b,) + (channel.dim_in,) * 2]
    assert np.abs(value - want_value).max() < 1e-12
    assert nxt.shape == pairs.shape
    assert np.abs(nxt.conj().transpose(0, 2, 1) @ nxt - np.eye(2)).max() < 1e-12
    ev = np.linalg.eigvalsh(adjoint)
    rayleigh = np.einsum("bic,bij,bjc->bc", nxt.conj(), adjoint, nxt).real
    assert np.abs(rayleigh - ev[:, [-1, 0]]).max() < 1e-10
    assert (dense_seesaw_step(channel, nxt, gamma)[0] >= want_value - 1e-12).all()


def _unit_vectors(rng, b, d):
    psi = rng.standard_normal((b, d)) + 1j * rng.standard_normal((b, d))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def test_output_spectrum_core_matches_the_full_eigen_solve():
    rng = np.random.default_rng(20)
    gamma = np.exp(0.8)
    # (channel, frame columns, trace kernel); k = r c (r + 1 for the trace kernel) < d_out,
    # cases 5-7 at d_out - 1, and d = 64, where the Kraus factor is one product over many frame columns
    cases = [(ch.random_channel(16, 3, rng), 1, False), (ch.random_channel(16, 3, rng), 2, False),
             (ch.random_channel(16, 3, rng), 1, True), (_isometry_channel(8, 16, 2, rng), 2, False),
             (ch.random_channel(7, 3, rng), 2, False), (ch.random_channel(8, 7, rng), 1, False),
             (ch.random_channel(8, 6, rng), 1, True),
             (ch.random_channel(64, 4, rng), 1, False), (ch.random_channel(64, 4, rng), 2, False)]
    for channel, c, trace in cases:
        g = rng.standard_normal((5, channel.dim_in, c)) + 1j * rng.standard_normal((5, channel.dim_in, c))
        frames = np.linalg.qr(g)[0]
        if trace:
            assert _assert_trace_kernel_matches_the_oracle(channel, frames[:, :, 0]) < channel.dim_out
        else:
            _assert_core_is_the_nonzero_spectrum(channel, frames, [1.0, -gamma][:c])
        if c == 2:
            _assert_seesaw_kernel_matches_the_oracle(channel, frames, gamma)
        assert channel._superop is None


def test_output_spectrum_core_of_a_rank_deficient_factor():
    # Kraus set {U/sqrt2, U/sqrt2}: every column of A appears twice, so R is singular
    rng = np.random.default_rng(21)
    u = qops.random_unitary(8, rng)
    channel = ch.QuantumChannel(np.stack([u, u]) / np.sqrt(2))
    gamma = np.exp(0.5)
    frames = np.linalg.qr(rng.standard_normal((4, 8, 2)) + 1j * rng.standard_normal((4, 8, 2)))[0]
    _assert_core_is_the_nonzero_spectrum(channel, frames, [1.0, -gamma])
    assert _assert_trace_kernel_matches_the_oracle(channel, frames[:, :, 0]) < channel.dim_out
    _assert_seesaw_kernel_matches_the_oracle(channel, frames, gamma)
    # N(V diag(w) V^dag) = U V diag(w) V^dag U^dag has spectrum {1, -gamma} and zeros
    core = output_spectrum(channel, frames, [1.0, -gamma])
    assert np.abs(core - [-gamma, 0.0, 0.0, 1.0]).max() < 1e-12
    assert np.abs(ch.hockey_stick_step(channel, frames, gamma)[0] - 1.0).max() < 1e-12


def test_output_spectrum_falls_back_to_the_full_eigen_solve():
    rng = np.random.default_rng(22)
    # (channel, frame columns, trace kernel, sign of k - d_out)
    cases = [(ch.random_channel(8, 3, rng), 2, False, -1),
             (_isometry_channel(8, 16, 2, rng), 2, False, -1),
             (ch.random_channel(4, 2, rng), 2, False, 0),  # certify at k = r c = d_out
             (ch.random_channel(4, 3, rng), 1, True, 0),  # trace at k = r + 1 = d_out
             (ch.random_channel(8, 4, rng), 2, False, 0),
             (ch.random_channel(4, 3, rng), 2, False, 1),
             (ch.random_channel(3, 2, rng), 2, False, 1),
             (ch.pauli_measurement_channel(pauli_matrix("XZ")), 2, False, 1),  # 4 -> 2
             (ch.depolarizing(3, 0.4), 1, True, 1),  # 10 Kraus operators
             (ch.twirl(ch.random_channel(2, 2, rng), enumerate_cliffords(1)), 2, False, 1)]  # 48 operators
    for channel, c, trace, sign in cases:
        frames = np.linalg.qr(rng.standard_normal((3, channel.dim_in, c))
                              + 1j * rng.standard_normal((3, channel.dim_in, c)))[0]
        if trace:
            k = _assert_trace_kernel_matches_the_oracle(channel, frames[:, :, 0])
        else:
            k = _assert_spectrum_matches_the_oracle(channel, frames, [1.0, -2.0][:c])
        if c == 2:
            _assert_seesaw_kernel_matches_the_oracle(channel, frames, 2.0)
        assert np.sign(k - channel.dim_out) == sign
        # the full eigen-solve reads the Kraus stack, never the superoperator
        assert channel._kraus is not None and channel._superop is None
    # one kernel per job: certification reads the seesaw kernel and the exact screen, the
    # utility searches the fidelity residuals and the trace gradient, and all stay out of
    # the package API; the spectrum kernel is the oracle above
    assert privacy.hockey_stick_step is ch.hockey_stick_step
    assert privacy.orthogonal_outputs is ch.orthogonal_outputs
    assert utility.fidelity_residuals is ch.fidelity_residuals
    assert utility.trace_distance_gradient is ch.trace_distance_gradient
    assert not hasattr(ch, "fidelity_gradient") and not hasattr(utility, "fidelity_gradient")
    assert not hasattr(ch, "output_spectrum") and not hasattr(privacy, "output_spectrum")
    assert not hasattr(ch, "pure_fidelities") and not hasattr(utility, "output_spectrum")
    assert not hasattr(ch, "batch_outputs") and not hasattr(privacy, "_batch_outputs")
    assert not hasattr(utility, "_batch_out")
    assert not hasattr(utility, "batch_outputs") and not hasattr(utility, "_fidelity_values")
    for name in ("output_spectrum", "hockey_stick_step", "orthogonal_outputs", "fidelity_residuals",
                 "trace_distance_gradient"):
        assert not hasattr(qldp, name)


@pytest.mark.parametrize("d, r", [(10, 3), (16, 3), (32, 4), (256, 4), (9, 3), (8, 4), (5, 1), (2, 1)])
def test_orthogonal_outputs_exist_exactly_when_d_in_exceeds_r_squared(d, r):
    channel = ch.random_channel(d, r, np.random.default_rng(34 + d))
    pair = ch.orthogonal_outputs(channel)
    if d <= r * r:
        assert pair is None
        return
    assert pair.shape == (d, 2)
    assert np.abs(pair.conj().T @ pair - np.eye(2)).max() < 1e-12
    out1, out2 = (ch.apply(channel, qops.projector(v)) for v in pair.T)
    assert np.abs(out1 @ out2).max() < 1e-12
    for gamma in (1.0, np.e, 50.0):
        assert abs(qops.hockey_stick(out1, out2, gamma) - 1.0) < 1e-12
    assert channel._superop is None


def test_orthogonal_outputs_of_a_non_square_channel_and_its_memory():
    # 12 -> 5 with r = 3: d_in > r^2 although d_out < d_in
    rng = np.random.default_rng(35)
    channel = _isometry_channel(12, 5, 3, rng)
    pair = ch.orthogonal_outputs(channel)
    out1, out2 = (ch.apply(channel, qops.projector(v)) for v in pair.T)
    assert abs(qops.hockey_stick(out1, out2, 2.0) - 1.0) < 1e-12
    assert ch.orthogonal_outputs(_isometry_channel(9, 5, 3, rng)) is None
    # no d_in x d_in array: at d_in = 256 one would take 1 MB, the r^2 span 64 kB
    channel = ch.random_channel(256, 4, rng)
    tracemalloc.start()
    try:
        ch.orthogonal_outputs(channel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 256 * 16 / 2


def within_fit_tolerance_kraus_sets():
    """Kraus sets whose depolarizing fit residual is at most SUPEROP_TOL."""
    rng = np.random.default_rng(23)
    kraus_sets = [ch.depolarizing(d, p).kraus for d, p in [(2, 0.0), (3, 0.45), (8, 1.0), (16, 0.7)]]
    kraus_sets += [ch.twirl(ch.depolarizing(4, 0.3), qops.random_unitary(4, rng)[None]).kraus,
                   ch.identity_channel(5).kraus,
                   ch.twirl(ch.random_channel(2, 2, rng), enumerate_cliffords(1)).kraus]
    # a depolarizing channel mixed with a small weight t of a unitary that tips |0> towards |1>:
    # N(|0><0|) moves off (1-p)|0><0| + p I/d by t in two entries, and the fit
    # residual lands in (SUPEROP_TOL / 2, SUPEROP_TOL]
    theta = 0.7
    tip = np.eye(4, dtype=complex)
    tip[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    dep = ch.depolarizing(4, 0.6).kraus
    half = ch.QuantumChannel(np.concatenate([dep, tip[None]]) / np.sqrt(2))
    per_t = 2 * ch.fit_depolarizing(half)[1]  # the residual is linear in t
    for frac in (0.55, 0.8, 0.99):
        t = frac * ch.SUPEROP_TOL / per_t
        kraus_sets.append(np.concatenate([np.sqrt(1 - t) * dep, np.sqrt(t) * tip[None]]))
    return kraus_sets


def near_depolarizing_channel():
    """A channel whose N(|0><0|) is depolarizing but whose fit is not: a phase on one level of depolarizing(3)."""
    return ch.compose(ch.depolarizing(3, 0.5), ch.unitary_conjugate(np.diag([1.0, 1.0, 1j])))


def test_depolarizing_screen_never_rejects_a_channel_within_the_fit_tolerance():
    for kraus in within_fit_tolerance_kraus_sets():
        _, residual = ch.fit_depolarizing(ch.QuantumChannel(kraus))
        assert residual <= ch.SUPEROP_TOL
        assert ch.is_depolarizing(ch.QuantumChannel(kraus))


def test_screen_keeps_non_depolarizing_searches_off_the_superoperator():
    rng = np.random.default_rng(24)
    channel = ch.random_channel(48, 2, rng)
    cfg = privacy.SearchConfig(restarts=4, local_steps=2)
    assert not ch.is_depolarizing(channel)
    privacy.certify_qldp(channel, privacy.PrivacyBudget(1.0, 0.0), cfg)
    utility.utility_report(channel, cfg)
    assert channel._superop is None
    # N(|0><0|) of this channel is depolarizing; a later matrix unit rules it out
    near = near_depolarizing_channel()
    assert not ch.is_depolarizing(near)
    assert near._superop is None


def test_kraus_channel_searches_never_build_the_superoperator(monkeypatch):
    def refuse(k):
        raise AssertionError("a search built a superoperator")

    monkeypatch.setattr(ch, "_kraus_superoperator", refuse)
    rng = np.random.default_rng(30)
    pauli_group = [pauli_matrix(a) for a in "IXYZ"]
    # stacks on both sides of d_out and of d_in d_out; the Pauli twirl (16 qubit operators),
    # the composition (9) and random_channel(3, 12) are long stacks that the searches reach
    searched = [ch.random_channel(d, r, rng) for d, r in [(2, 2), (4, 3), (4, 16), (8, 4), (16, 3), (3, 12)]]
    searched += [ch.twirl(ch.random_channel(2, 4, rng), pauli_group),
                 ch.compose(ch.random_channel(2, 3, rng), ch.random_channel(2, 3, rng))]
    # depolarizing long stacks, answered by the screen: a Clifford twirl (48) and the shadow channel (240)
    screened = [ch.twirl(ch.random_channel(2, 2, rng), enumerate_cliffords(1)), shadows.composite_shadow_channel(0.3)]
    cfg = privacy.SearchConfig(restarts=4, local_steps=3)
    for channel in searched + screened:
        res = privacy.certify_qldp(channel, privacy.PrivacyBudget(1.0, 0.0), cfg)
        utility.utility_report(channel, cfg)
        assert channel._superop is None
        # random_channel(16, 3) has d_in > r^2: certification is exact there, with no seesaw
        exact = channel in screened or channel is searched[4]
        assert res.restarts_used == (0 if exact else cfg.restarts)


def test_cached_superoperator_is_screened():
    rng = np.random.default_rng(25)
    kraus_sets = within_fit_tolerance_kraus_sets() + [
        ch.random_channel(3, 2, rng).kraus, ch.random_channel(8, 2, rng).kraus,
        near_depolarizing_channel().kraus]
    verdicts = [ch.is_depolarizing(ch.QuantumChannel(k)) for k in kraus_sets]
    assert verdicts == [True] * (len(kraus_sets) - 3) + [False] * 3
    cached = [ch.QuantumChannel(k) for k in kraus_sets]
    for channel in cached:
        channel.superoperator
    assert [ch.is_depolarizing(c) for c in cached] == verdicts
    # a depolarizing channel is answered from p, cached superoperator or not
    dep = ch.depolarizing(3, 0.2)
    dep.superoperator
    assert ch.is_depolarizing(dep) and ch.is_depolarizing(ch.depolarizing(3, 0.2))


def test_depolarizing_fit_reads_only_the_kraus_stack(monkeypatch):
    rng = np.random.default_rng(26)
    accepted = [ch.QuantumChannel(k) for k in within_fit_tolerance_kraus_sets()]
    accepted.append(ch.twirl(ch.random_channel(2, 3, rng), enumerate_cliffords(1)))
    rejected = [near_depolarizing_channel()] + [ch.random_channel(d, 2, rng) for d in (3, 8, 48)]
    # the oracle reads the d^4 superoperator of a copy; at d = 48 that is 85 MB, so it is skipped
    oracle = {id(c): _fit_depolarizing_oracle(ch.QuantumChannel(c.kraus)) for c in accepted + rejected[:-1]}

    def refuse(k):
        raise AssertionError("the depolarizing fit built a superoperator")

    monkeypatch.setattr(ch, "_kraus_superoperator", refuse)
    verdicts = [ch.is_depolarizing(c) for c in accepted + rejected]
    assert verdicts == [True] * len(accepted) + [False] * len(rejected)
    for c, verdict in zip(accepted + rejected, verdicts):
        p, residual = ch.fit_depolarizing(c)
        assert (residual <= ch.SUPEROP_TOL) == verdict
        if id(c) in oracle:
            assert abs(p - oracle[id(c)][0]) < 1e-12 and abs(residual - oracle[id(c)][1]) < 1e-12
        assert c._superop is None


# --- trace-affine channels against their Kraus stacks --------------------------

def depolarizing_kraus_oracle(d, p):
    """Kraus stack of depolarizing(d, p), written out: sqrt(1-p) I, then sqrt(p/d) |i><j|."""
    ops = np.zeros((d * d + 1, d, d), dtype=complex)
    ops[0] = np.sqrt(1 - p) * np.eye(d)
    ij = np.arange(d * d)
    ops[1 + ij, ij // d, ij % d] = np.sqrt(p / d)
    return ops


def replacement_kraus_oracle(sigma):
    """Kraus stack of replacement_channel(sigma), one outer product sqrt(lambda) |s><j| at a time."""
    sigma = qops.check_density(sigma)
    d = sigma.shape[0]
    w, v = np.linalg.eigh(sigma)
    ops = []
    for lam, col in zip(w, v.T):
        if lam < 0:
            lam = 0.0
        for j in range(d):
            e = np.zeros(d, dtype=complex)
            e[j] = 1.0
            ops.append(np.sqrt(lam) * np.outer(col, e))
    return np.stack(ops)


def trace_affine_cases():
    """(make, reference Kraus stack): depolarizing at d = 2..8, p = 0 and 1 included, and replacements.

    Both are trace-affine, N(X) = a X + Tr(X) B; only the depolarizing channel is stored in closed form.
    """
    rng = np.random.default_rng(26)
    cases = [(lambda d=d, p=p: ch.depolarizing(d, p), depolarizing_kraus_oracle(d, p))
             for d, p in [(2, 0.0), (2, 1.0), (2, 0.3), (3, 0.45), (4, 1.0), (5, 0.0), (6, 0.7), (8, 0.2)]]
    sigmas = [np.eye(3, dtype=complex) / 3, qops.projector(qops.random_pure(4, rng)),
              qops.random_density(5, 5, rng), qops.random_density(2, 2, rng)]
    cases += [(lambda s=s: ch.replacement_channel(s), replacement_kraus_oracle(s)) for s in sigmas]
    return cases


def test_lazy_kraus_matches_the_reference_stack():
    for make, reference in trace_affine_cases():
        channel = make()
        # a depolarizing channel builds its stack on first access; a replacement channel is a Kraus channel
        assert (channel._kraus is None) == (channel._p is not None)
        assert np.array_equal(channel.kraus, reference)
        assert channel.kraus is channel.kraus  # built once, then cached
        ch.QuantumChannel(channel.kraus)  # and trace preserving


def test_trace_affine_kernels_match_their_kraus_stack():
    rng = np.random.default_rng(27)
    gamma = np.exp(0.6)
    for make, reference in trace_affine_cases():
        channel, oracle = make(), ch.QuantumChannel(reference)
        closed = channel._p is not None
        d = channel.dim_in
        rho = 1.7 * qops.random_density(d, d, rng)  # trace 1.7, so a dropped Tr(rho) shows
        frames = np.linalg.qr(rng.standard_normal((4, d, 2)) + 1j * rng.standard_normal((4, d, 2)))[0]
        assert np.abs(ch.apply(channel, rho) - ch.apply(oracle, rho)).max() < 1e-12
        p, residual = ch.fit_depolarizing(channel)
        p_ref, residual_ref = ch.fit_depolarizing(oracle)
        assert abs(p - p_ref) < 1e-12 and abs(residual - residual_ref) < 1e-12
        assert ch.is_depolarizing(channel) == ch.is_depolarizing(oracle)
        # the closed form answers apply, the fit and is_depolarizing from p, building nothing
        assert not closed or (channel._kraus is None and channel._superop is None)
        assert np.abs(channel.superoperator - oracle.superoperator).max() < 1e-12
        assert not closed or channel._kraus is None
        # the search kernels read the Kraus stack
        pairs = [(output_spectrum, (frames[:, :, :1], [1.0])),
                 (output_spectrum, (frames, [1.0, -gamma])),
                 (ch.hockey_stick_step, (frames, gamma)),
                 (ch.trace_distance_gradient, (frames[:, :, 0],)),
                 (ch.trace_distance_gradient, (frames[:, :, 1],)),
                 (ch.fidelity_residuals, (frames[:, :, 0],))]
        for kernel, args in pairs:
            got, want = kernel(channel, *args), kernel(oracle, *args)
            if kernel is not output_spectrum:  # a tuple of per-frame arrays as one (B, n) array
                got, want = (np.column_stack([x.reshape(len(x), -1) for x in out]) for out in (got, want))
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-12, kernel.__name__


def test_repr_names_the_form_and_builds_nothing():
    big = ch.depolarizing(64, 0.5)
    assert repr(big) == "QuantumChannel(dim_in=64, dim_out=64, form=depolarizing)"
    assert big._kraus is None and big._superop is None
    measure = ch.pauli_measurement_channel(pauli_matrix("XZ"))
    assert repr(measure) == "QuantumChannel(dim_in=4, dim_out=2, form=kraus)"


def einsum_superoperator(kraus):
    """The one-contraction superoperator: a (d_out, d_out, d_in, d_in) einsum, then reshaped."""
    r, do, di = kraus.shape
    return np.einsum("rij,rkl->ikjl", kraus.conj(), kraus, optimize=True).reshape(do * do, di * di)


def test_blocked_superoperator_matches_the_einsum_oracle():
    rng = np.random.default_rng(28)
    cases = [ch.random_channel(d, r, rng) for d, r in [(2, 1), (3, 4), (8, 3), (16, 2)]]
    cases += [ch.pauli_measurement_channel(pauli_matrix("XZ")),  # 4 -> 2
              _isometry_channel(8, 16, 2, rng),  # 8 -> 16
              _isometry_channel(5, 3, 4, rng),
              ch.QuantumChannel(ch.depolarizing(4, 0.3).kraus)]
    for channel in cases:
        s = channel.superoperator
        assert s.shape == (channel.dim_out**2, channel.dim_in**2)
        assert np.abs(s - einsum_superoperator(channel.kraus)).max() < 1e-12


def fidelity_gradient(channel, psi):
    """F = sum_k |a_k|^2 and its Wirtinger gradient sum_k (conj(a_k) u_k + a_k w_k), from the residual kernel."""
    a, u, w = ch.fidelity_residuals(channel, psi)
    return (a.real**2 + a.imag**2).sum(axis=1), np.einsum("bik,bk->bi", u, a.conj()) + np.einsum("bik,bk->bi", w, a)


@pytest.mark.parametrize("d_in, d_out, r", [(3, 5, 2), (5, 3, 4), (2, 4, 1), (3, 3, 1), (2, 2, 5), (2, 3, 9)])
def test_batched_superoperator_matches_the_kron_sum(d_in, d_out, r):
    # non-square shapes, r = 1, and r > d_in d_out (the batched product's Kraus axis longer than its batch)
    rng = np.random.default_rng(35 + d_in * d_out * r)
    kraus = _isometry_channel(d_in, d_out, r, rng).kraus
    want = sum(np.kron(k.conj(), k) for k in kraus)
    got = ch._kraus_superoperator(kraus)
    assert got.shape == (d_out**2, d_in**2) and got.flags.c_contiguous
    assert np.abs(got - want).max() < 1e-14


def test_fidelity_kernel_matches_the_output_overlap():
    rng = np.random.default_rng(29)
    # short and long stacks (a twirl has r = 24 r_0 > d^2), the trace-affine form
    cases = [ch.random_channel(16, 3, rng), ch.random_channel(3, 9, rng),
             ch.twirl(ch.random_channel(2, 2, rng), enumerate_cliffords(1)),
             ch.depolarizing(5, 0.35), ch.replacement_channel(qops.random_density(4, 2, rng))]
    for channel in cases:
        d = channel.dim_in
        frames = np.linalg.qr(rng.standard_normal((6, d, 1)) + 1j * rng.standard_normal((6, d, 1)))[0]
        fid, _ = fidelity_gradient(channel, frames[:, :, 0])
        for f, value in zip(frames, fid):
            psi = f[:, 0]
            want = np.vdot(psi, ch.apply(channel, qops.projector(psi)) @ psi).real
            assert abs(value - want) < 1e-12


def _gradient_kernel_cases(rng):
    """Square channels on both trace-kernel branches: k = r + 1 below d_out, at it, and above it."""
    return [ch.random_channel(16, 3, rng),  # k = 4 < 16: QR core
            ch.random_channel(4, 3, rng),  # k = 4 = d_out: full product
            ch.random_channel(3, 2, rng),
            ch.depolarizing(3, 0.4),  # its 10-operator Kraus stack
            ch.twirl(ch.random_channel(2, 2, rng), enumerate_cliffords(1))]  # 48 operators


@pytest.mark.parametrize("kernel", [fidelity_gradient, ch.trace_distance_gradient])
def test_gradient_kernels_match_central_differences(kernel):
    # f(psi + h delta) - f(psi - h delta) = 4 h Re<g, delta> + O(h^3) for the Wirtinger gradient g = df/dconj(psi)
    rng = np.random.default_rng(32)
    h = 1e-6
    for channel in _gradient_kernel_cases(rng):
        d = channel.dim_in
        psi, delta = _unit_vectors(rng, 4, d), _unit_vectors(rng, 4, d)
        _, grad = kernel(channel, psi)
        slope = 2 * np.einsum("bi,bi->b", grad.conj(), delta).real
        central = (kernel(channel, psi + h * delta)[0] - kernel(channel, psi - h * delta)[0]) / (2 * h)
        assert np.abs(central - slope).max() <= 1e-6 * np.abs(slope).max(), (len(channel.kraus), d)
        assert channel._superop is None


def test_fidelity_residuals_match_central_differences():
    # a_k(psi + h delta) - a_k(psi - h delta) = 2 h (<w_k|delta> + <delta|u_k>) + O(h^3): the Jacobian the
    # Levenberg-Marquardt search builds; u_k = K_k psi is the Kraus factor, w_k = K_k^dag psi
    rng = np.random.default_rng(34)
    h = 1e-6
    for channel in _gradient_kernel_cases(rng) + [ch.identity_channel(3)]:
        d = channel.dim_in
        psi, delta = _unit_vectors(rng, 4, d), _unit_vectors(rng, 4, d)
        a, u, w = ch.fidelity_residuals(channel, psi)
        slope = np.einsum("bik,bi->bk", w.conj(), delta) + np.einsum("bi,bik->bk", delta.conj(), u)
        central = (ch.fidelity_residuals(channel, psi + h * delta)[0]
                   - ch.fidelity_residuals(channel, psi - h * delta)[0]) / (2 * h)
        assert np.abs(central - slope).max() <= 1e-6 * max(1.0, np.abs(slope).max()), (len(channel.kraus), d)
        assert np.abs(u - np.einsum("kij,bj->bik", channel.kraus, psi)).max() < 1e-14
        assert np.abs(w - np.einsum("kji,bj->bik", channel.kraus.conj(), psi)).max() < 1e-14
        assert np.abs(a - np.einsum("bi,kij,bj->bk", psi.conj(), channel.kraus, psi)).max() < 1e-14
        assert channel._superop is None


def test_trace_value_is_at_least_one_minus_the_fidelity():
    # Fuchs-van de Graaf for a pure input, D(N(psi), psi) >= 1 - <psi|N(psi)|psi>: the trace ascent's warm start
    rng = np.random.default_rng(33)
    for channel in _gradient_kernel_cases(rng) + [ch.random_channel(8, 4, rng), ch.identity_channel(5)]:
        psi = _unit_vectors(rng, 32, channel.dim_in)
        fid, _ = fidelity_gradient(channel, psi)
        trace, _ = ch.trace_distance_gradient(channel, psi)
        assert (trace >= 1 - fid - 1e-12).all()
        assert channel._superop is None


# --- covariant channels never reach a search kernel ----------------------------

def _output(channel, p, psi):
    """N(psi psi^dag), written out: the Kraus sum, or (1-p) psi psi^dag + p I/d without a Kraus stack."""
    if channel._p is None:
        v = channel.kraus @ psi
        return v.T @ v.conj()
    return (1 - p) * qops.projector(psi) + p * np.eye(channel.dim_in) / channel.dim_in


def test_depolarizing_channels_are_evaluated_once_without_the_search_kernels(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a search kernel was called")

    for module in (ch, privacy, utility):
        for name in ("hockey_stick_step", "orthogonal_outputs", "fidelity_residuals", "trace_distance_gradient"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    budget = privacy.PrivacyBudget(0.7, 0.0)
    cfg = privacy.SearchConfig(restarts=4, local_steps=3)
    twirled = ch.twirl(ch.random_channel(2, 2, np.random.default_rng(31)), enumerate_cliffords(1))  # p = 0.66
    cases = [(ch.depolarizing(d, p), p) for d, p in [(2, 0.3), (16, 0.55), (128, 0.5)]]
    cases.append((twirled, ch.fit_depolarizing(twirled)[0]))
    for channel, p in cases:
        d = channel.dim_in
        res = privacy.certify_qldp(channel, budget, cfg)
        rep = utility.utility_report(channel, cfg)
        assert res.restarts_used == 0
        assert abs(res.sup_estimate - privacy.depolarizing_privacy_profile(d, p, budget.gamma)) < 1e-12
        assert abs(rep.fidelity_utility - utility.depolarizing_fidelity_utility(d, p)) < 1e-12
        assert abs(rep.trace_utility - utility.depolarizing_trace_utility(d, p)) < 1e-12
        # the witnesses attain the values, re-checked through qops
        phi1, phi2 = res.witness_pair
        assert abs(np.vdot(phi1, phi2)) < 1e-12
        hs = qops.hockey_stick(_output(channel, p, phi1), _output(channel, p, phi2), budget.gamma)
        assert abs(hs - res.sup_estimate) < 1e-12
        psi = rep.minimizer
        assert abs(np.vdot(psi, _output(channel, p, psi) @ psi).real - rep.fidelity_utility) < 1e-12
        psi = rep.maximizer
        td = qops.trace_distance(_output(channel, p, psi), qops.projector(psi))
        assert abs(td - rep.trace_utility) < 1e-12
    for channel, _ in cases[:3]:
        assert channel._kraus is None and channel._superop is None


def test_searched_replacement_channel_matches_its_kraus_stack_bit_for_bit():
    rng = np.random.default_rng(31)
    budget = privacy.PrivacyBudget(0.9, 0.0)
    cfg = privacy.SearchConfig(restarts=6, local_steps=10, seed=3)
    for d in (3, 4):
        replacement = ch.replacement_channel(qops.random_density(d, d, rng))
        plain = ch.QuantumChannel(replacement.kraus)
        assert not ch.is_depolarizing(replacement)
        a, b = privacy.certify_qldp(replacement, budget, cfg), privacy.certify_qldp(plain, budget, cfg)
        assert a.restarts_used == b.restarts_used == cfg.restarts
        assert a.sup_estimate == b.sup_estimate
        assert all(np.array_equal(x, y) for x, y in zip(a.witness_pair, b.witness_pair))
        ua, ub = utility.utility_report(replacement, cfg), utility.utility_report(plain, cfg)
        assert (ua.fidelity_utility, ua.trace_utility) == (ub.fidelity_utility, ub.trace_utility)
        assert np.array_equal(ua.minimizer, ub.minimizer) and np.array_equal(ua.maximizer, ub.maximizer)
