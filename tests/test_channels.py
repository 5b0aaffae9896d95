import numpy as np
import pytest

import qldp
from qldp import channels as ch
from qldp import privacy, qops, utility
from qldp.errors import InvalidInputError
from qldp.pauli import enumerate_cliffords, pauli_matrix


def qubit_clifford_group():
    return ch.FiniteUnitaryGroup(dim=2, elements=list(enumerate_cliffords(1)))


def vec(rho):
    """Column-stacking vectorization."""
    return rho.T.ravel()


def unvec(v, dim):
    return v.reshape(dim, dim).T


def apply_superop(channel, rho):
    """Oracle: the channel's action through its superoperator, independent of ch.apply."""
    rho = np.asarray(rho, dtype=complex)
    return qops.hermitize(unvec(channel.superoperator @ vec(rho), channel.dim_out))


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


def test_conjugated_depolarizing_is_unchanged():
    rng = np.random.default_rng(4)
    dep = ch.depolarizing(2, 0.4)
    u = qops.random_unitary(2, rng)
    conj = ch.conjugated_channel(dep, u)
    assert np.abs(conj.superoperator - dep.superoperator).max() < 1e-10


def test_conjugated_identity_is_identity():
    u = qops.random_unitary(3, np.random.default_rng(5))
    conj = ch.conjugated_channel(ch.identity_channel(3), u)
    assert channels_close(conj, ch.identity_channel(3), tol=1e-10)


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
    g = qubit_clifford_group()
    assert channels_close(ch.twirl(ch.identity_channel(2), g), ch.identity_channel(2), tol=1e-10)
    dep = ch.depolarizing(2, 0.6)
    assert channels_close(ch.twirl(dep, g), dep, tol=1e-10)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("build", [
    lambda u: ch.FiniteUnitaryGroup(dim=2, elements=[u]),
    ch.unitary_conjugate,
    lambda u: ch.conjugated_channel(ch.depolarizing(2, 0.3), u),
], ids=["group", "unitary_conjugate", "conjugated_channel"])
def test_unitary_checks_reject_non_finite_entries(build, bad):
    # max |U^dag U - I| is NaN here, and NaN > tol is False: the guard must not pass it
    with pytest.raises(InvalidInputError, match="non-finite"):
        build(np.full((2, 2), bad, dtype=complex))
    u = np.eye(2, dtype=complex)
    u[1, 1] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        build(u)


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


def test_batch_outputs_matches_per_state_apply():
    rng = np.random.default_rng(16)
    gamma = np.exp(0.7)
    # (channel, branch): "kraus" when 8 r c <= d_in d_out at c = 1 and 2, "superop" when
    # not; the depolarizing channel's 17 Kraus operators take it to the superoperator
    cases = [(ch.random_channel(16, 3, rng), "kraus"), (_isometry_channel(8, 16, 2, rng), "kraus"),
             (ch.random_channel(3, 2, rng), "superop"), (ch.depolarizing(4, 0.35), "superop"),
             (ch.pauli_measurement_channel(pauli_matrix("XZ")), "superop")]
    for channel, branch in cases:
        g = rng.standard_normal((6, channel.dim_in, 2)) + 1j * rng.standard_normal((6, channel.dim_in, 2))
        frames = np.linalg.qr(g)[0]
        one = ch.batch_outputs(channel, frames[:, :, :1], [1.0])
        two = ch.batch_outputs(channel, frames, [1.0, -gamma])
        assert one.shape == two.shape == (6, channel.dim_out, channel.dim_out)
        for f, o1, o2 in zip(frames, one, two):
            n1 = ch.apply(channel, qops.projector(f[:, 0]))
            n2 = ch.apply(channel, qops.projector(f[:, 1]))
            assert np.abs(o1 - n1).max() < 1e-12
            assert np.abs(o2 - (n1 - gamma * n2)).max() < 1e-12
        # the Kraus branch never builds the superoperator; every kernel reads the Kraus stack
        assert (channel._superop is None) == (branch != "superop")
        assert channel._kraus is not None
    # one kernel per job: the eigenvalue objectives share the spectrum kernel, the
    # fidelity objective its own kernel, and all stay out of the package API
    assert privacy.output_spectrum is utility.output_spectrum is ch.output_spectrum
    assert utility.pure_fidelities is ch.pure_fidelities
    assert not hasattr(privacy, "_batch_outputs") and not hasattr(utility, "_batch_out")
    assert not hasattr(utility, "batch_outputs") and not hasattr(utility, "_fidelity_values")
    for name in ("batch_outputs", "output_spectrum", "pure_fidelities"):
        assert not hasattr(qldp, name)


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
    g = qubit_clifford_group()
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


def _full_spectrum(channel, frames, weights, input_weights=None):
    """Every eigenvalue of the d_out x d_out matrix, the oracle for the k x k core."""
    out = ch.batch_outputs(channel, frames, weights)
    if input_weights is not None:
        out = out + (frames * input_weights) @ frames.conj().transpose(0, 2, 1)
    return np.linalg.eigvalsh(out)


def _assert_core_is_the_nonzero_spectrum(channel, frames, weights, input_weights=None):
    core = ch.output_spectrum(channel, frames, weights, input_weights)
    full = _full_spectrum(channel, frames, weights, input_weights)
    k = len(channel.kraus) * frames.shape[2] + (0 if input_weights is None else frames.shape[2])
    assert k < channel.dim_out and core.shape == (len(frames), k)
    # the core's k eigenvalues, with the d_out - k zeros put back, are the full spectrum
    padded = np.sort(np.concatenate([core, np.zeros((len(frames), channel.dim_out - k))], axis=1))
    assert np.abs(padded - full).max() < 1e-12


def test_output_spectrum_core_matches_the_full_eigen_solve():
    rng = np.random.default_rng(20)
    gamma = np.exp(0.8)
    # (channel, frame columns, input weights); k = r c (+ c) < d_out, the last three at d_out - 1
    cases = [(ch.random_channel(16, 3, rng), 1, None), (ch.random_channel(16, 3, rng), 2, None),
             (ch.random_channel(16, 3, rng), 1, [-1.0]), (_isometry_channel(8, 16, 2, rng), 2, None),
             (ch.random_channel(7, 3, rng), 2, None), (ch.random_channel(8, 7, rng), 1, None),
             (ch.random_channel(8, 6, rng), 1, [-1.0])]
    for channel, c, input_weights in cases:
        g = rng.standard_normal((5, channel.dim_in, c)) + 1j * rng.standard_normal((5, channel.dim_in, c))
        frames = np.linalg.qr(g)[0]
        weights = [1.0, -gamma][:c]
        _assert_core_is_the_nonzero_spectrum(channel, frames, weights, input_weights)
        if input_weights is None:
            assert channel._superop is None


def test_output_spectrum_core_of_a_rank_deficient_factor():
    # Kraus set {U/sqrt2, U/sqrt2}: every column of A appears twice, so R is singular
    rng = np.random.default_rng(21)
    u = qops.random_unitary(8, rng)
    channel = ch.QuantumChannel(np.stack([u, u]) / np.sqrt(2))
    gamma = np.exp(0.5)
    frames = np.linalg.qr(rng.standard_normal((4, 8, 2)) + 1j * rng.standard_normal((4, 8, 2)))[0]
    _assert_core_is_the_nonzero_spectrum(channel, frames, [1.0, -gamma])
    _assert_core_is_the_nonzero_spectrum(channel, frames[:, :, :1], [1.0], [-1.0])
    # N(V diag(w) V^dag) = U V diag(w) V^dag U^dag has spectrum {1, -gamma} and zeros
    core = ch.output_spectrum(channel, frames, [1.0, -gamma])
    assert np.abs(core - [-gamma, 0.0, 0.0, 1.0]).max() < 1e-12


def test_output_spectrum_falls_back_to_the_full_eigen_solve():
    rng = np.random.default_rng(22)
    # k >= d_out: certify at (4, 3) and (8, 4), trace at (4, 3), a depolarizing channel
    for channel, c, input_weights in [(ch.random_channel(4, 3, rng), 2, None),
                                      (ch.random_channel(8, 4, rng), 2, None),
                                      (ch.random_channel(4, 3, rng), 1, [-1.0]),
                                      (ch.depolarizing(3, 0.4), 1, [-1.0])]:
        frames = np.linalg.qr(rng.standard_normal((3, channel.dim_in, c))
                              + 1j * rng.standard_normal((3, channel.dim_in, c)))[0]
        weights = [1.0, -2.0][:c]
        spec = ch.output_spectrum(channel, frames, weights, input_weights)
        assert np.array_equal(spec, _full_spectrum(channel, frames, np.array(weights), input_weights))


def within_fit_tolerance_kraus_sets():
    """Kraus sets whose depolarizing fit residual is at most SUPEROP_TOL."""
    rng = np.random.default_rng(23)
    kraus_sets = [ch.depolarizing(d, p).kraus for d, p in [(2, 0.0), (3, 0.45), (8, 1.0), (16, 0.7)]]
    kraus_sets += [ch.conjugated_channel(ch.depolarizing(4, 0.3), qops.random_unitary(4, rng)).kraus,
                   ch.identity_channel(5).kraus,
                   ch.twirl(ch.random_channel(2, 2, rng), qubit_clifford_group()).kraus]
    # a depolarizing channel mixed with a small weight t of a unitary that tips |0> towards |1>:
    # N(|0><0|) moves off (1-p)|0><0| + p I/d by t in both screened entries, and the fit
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
    """A channel that passes the screen but not the fit: a phase on one level of depolarizing(3)."""
    return ch.compose(ch.depolarizing(3, 0.5), ch.unitary_conjugate(np.diag([1.0, 1.0, 1j])))


def test_depolarizing_screen_never_rejects_a_channel_within_the_fit_tolerance():
    for kraus in within_fit_tolerance_kraus_sets():
        _, residual = ch.fit_depolarizing(ch.QuantumChannel(kraus))
        assert residual <= ch.SUPEROP_TOL
        fresh = ch.QuantumChannel(kraus)
        assert ch._may_be_depolarizing(fresh)
        assert ch.is_depolarizing(fresh)


def test_screen_keeps_non_depolarizing_searches_off_the_superoperator():
    rng = np.random.default_rng(24)
    channel = ch.random_channel(48, 2, rng)
    cfg = privacy.SearchConfig(restarts=4, local_steps=2)
    assert not ch._may_be_depolarizing(channel)
    privacy.certify_qldp(channel, privacy.PrivacyBudget(1.0, 0.0), cfg)
    utility.utility_report(channel, cfg)
    assert channel._superop is None
    # the screen is only necessary: a channel that passes it still gets the full fit
    near = near_depolarizing_channel()
    assert ch._may_be_depolarizing(near) and not ch.is_depolarizing(near)
    assert near._superop is not None


def test_cached_superoperator_is_screened(monkeypatch):
    rng = np.random.default_rng(25)
    kraus_sets = within_fit_tolerance_kraus_sets() + [
        ch.random_channel(3, 2, rng).kraus, ch.random_channel(8, 2, rng).kraus,
        near_depolarizing_channel().kraus]
    verdicts = [ch.is_depolarizing(ch.QuantumChannel(k)) for k in kraus_sets]
    assert verdicts == [True] * (len(kraus_sets) - 3) + [False] * 3
    screened = []
    screen = ch._may_be_depolarizing
    monkeypatch.setattr(ch, "_may_be_depolarizing", lambda c: screened.append(c) or screen(c))
    cached = [ch.QuantumChannel(k) for k in kraus_sets]
    for channel in cached:
        channel.superoperator
    assert [ch.is_depolarizing(c) for c in cached] == verdicts
    assert screened == cached
    # a trace-affine channel is answered from its form, cached superoperator or not
    dep = ch.depolarizing(3, 0.2)
    dep.superoperator
    assert ch.is_depolarizing(dep) and ch.is_depolarizing(ch.depolarizing(3, 0.2))
    assert screened == cached


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
        # the closed form answers apply, the fit and the screen from p, building nothing
        assert not closed or (channel._kraus is None and channel._superop is None)
        assert np.abs(channel.superoperator - oracle.superoperator).max() < 1e-12
        assert not closed or channel._kraus is None
        # the search kernels read the Kraus stack
        pairs = [(ch.batch_outputs, (frames[:, :, :1], [1.0])),
                 (ch.batch_outputs, (frames, [1.0, -gamma])),
                 (ch.output_spectrum, (frames[:, :, :1], [1.0])),
                 (ch.output_spectrum, (frames, [1.0, -gamma])),
                 (ch.output_spectrum, (frames[:, :, :1], [1.0], [-1.0])),
                 (ch.output_spectrum, (frames, [1.0, -gamma], [0.5, -0.25])),
                 (ch.pure_fidelities, (frames[:, :, :1],))]
        for kernel, args in pairs:
            got, want = kernel(channel, *args), kernel(oracle, *args)
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


def test_pure_fidelities_match_the_output_overlap():
    rng = np.random.default_rng(29)
    # Kraus factor (r <= d^2), superoperator route (a twirl has r = 24 r_0 > 4), trace-affine form
    cases = [ch.random_channel(16, 3, rng), ch.random_channel(3, 9, rng),
             ch.twirl(ch.random_channel(2, 2, rng), qubit_clifford_group()),
             ch.depolarizing(5, 0.35), ch.replacement_channel(qops.random_density(4, 2, rng))]
    for channel in cases:
        d = channel.dim_in
        frames = np.linalg.qr(rng.standard_normal((6, d, 1)) + 1j * rng.standard_normal((6, d, 1)))[0]
        fid = ch.pure_fidelities(channel, frames)
        for f, value in zip(frames, fid):
            psi = f[:, 0]
            want = np.vdot(psi, ch.apply(channel, qops.projector(psi)) @ psi).real
            assert abs(value - want) < 1e-12


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
        for name in ("batch_outputs", "output_spectrum", "pure_fidelities"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    budget = privacy.PrivacyBudget(0.7, 0.0)
    cfg = privacy.SearchConfig(restarts=4, local_steps=3)
    twirled = ch.twirl(ch.random_channel(2, 2, np.random.default_rng(31)), qubit_clifford_group())  # p = 0.66
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
