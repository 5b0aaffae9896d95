import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qldp import qops
from qldp.errors import InvalidInputError


def test_positive_part_diagonal():
    h = np.diag([3.0, -1.0]).astype(complex)
    out = qops.positive_part(h)
    assert np.abs(out - np.diag([3.0, 0.0])).max() < 1e-12
    assert abs(np.trace(out).real - 3.0) < 1e-12


def test_positive_part_psd_is_identity():
    rng = np.random.default_rng(0)
    rho = qops.random_density(4, 4, rng)
    assert np.abs(qops.positive_part(rho) - rho).max() < 1e-10


def test_positive_part_pure_pair_trace():
    # H = phi1 - gamma phi2 for orthonormal projectors has eigenvalues {1, -gamma, 0...}
    rng = np.random.default_rng(1)
    u = qops.random_unitary(4, rng)
    phi1, phi2 = qops.projector(u[:, 0]), qops.projector(u[:, 1])
    for gamma in (1.0, 1.5, 3.0):
        out = qops.positive_part(phi1 - gamma * phi2)
        assert abs(np.trace(out).real - 1.0) < 1e-10


def test_positive_part_rejects_non_hermitian():
    with pytest.raises(InvalidInputError):
        qops.positive_part(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_check_hermitian_rejects_non_finite_entries(bad):
    for i, j in ((0, 0), (0, 1)):
        a = np.eye(2, dtype=complex)
        a[i, j] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            qops.check_hermitian(a)


def test_check_hermitian_rejects_huge_entries_without_numpy_warnings():
    # A - A^dag overflows to inf; Tier-1 turns the RuntimeWarning into an error
    with pytest.raises(InvalidInputError, match="not Hermitian"):
        qops.check_hermitian(np.array([[0, 1.7e308], [-1.7e308, 0]], dtype=complex))


def test_trace_distance_basics():
    rng = np.random.default_rng(2)
    rho = qops.random_density(3, 2, rng)
    assert qops.trace_distance(rho, rho) < 1e-12
    u = qops.random_unitary(2, rng)
    p1, p2 = qops.projector(u[:, 0]), qops.projector(u[:, 1])
    assert abs(qops.trace_distance(p1, p2) - 1.0) < 1e-12


def test_trace_distance_dim_mismatch():
    with pytest.raises(InvalidInputError):
        qops.trace_distance(np.eye(2) / 2, np.eye(3) / 3)


def test_fidelity_basics():
    rng = np.random.default_rng(3)
    rho = qops.random_density(3, 3, rng)
    assert abs(qops.fidelity(rho, rho) - 1.0) < 1e-9
    u = qops.random_unitary(3, rng)
    p1, p2 = qops.projector(u[:, 0]), qops.projector(u[:, 1])
    assert qops.fidelity(p1, p2) < 1e-12


def test_fidelity_symmetric():
    rng = np.random.default_rng(4)
    rho = qops.random_density(4, 2, rng)
    sig = qops.random_density(4, 4, rng)
    assert abs(qops.fidelity(rho, sig) - qops.fidelity(sig, rho)) < 1e-10


def test_hockey_stick_same_state_and_orthogonal():
    rng = np.random.default_rng(5)
    rho = qops.random_density(3, 3, rng)
    for gamma in (1.0, 2.0, 5.0):
        assert qops.hockey_stick(rho, rho, gamma) < 1e-10
    u = qops.random_unitary(3, rng)
    p1, p2 = qops.projector(u[:, 0]), qops.projector(u[:, 1])
    for gamma in (1.0, 2.0, 10.0):
        assert abs(qops.hockey_stick(p1, p2, gamma) - 1.0) < 1e-10


def test_hockey_stick_gamma_one_is_trace_distance():
    rng = np.random.default_rng(6)
    rho = qops.random_density(4, 2, rng)
    sig = qops.random_density(4, 3, rng)
    assert abs(qops.hockey_stick(rho, sig, 1.0) - qops.trace_distance(rho, sig)) < 1e-12


def test_hockey_stick_depolarized_orthogonal_pair():
    # closed form for depolarized orthogonal pures: (1 - p(d-1+gamma)/d)_+
    from qldp.channels import apply, depolarizing

    d, p, gamma = 2, 0.5, 1.0
    ch = depolarizing(d, p)
    phi1 = np.diag([1.0, 0.0]).astype(complex)
    phi2 = np.diag([0.0, 1.0]).astype(complex)
    expected = max(0.0, 1.0 - p * (d - 1 + gamma) / d)
    got = qops.hockey_stick(apply(ch, phi1), apply(ch, phi2), gamma)
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.5) < 1e-12


def test_hockey_stick_rejects_gamma_below_one():
    rho = np.eye(2) / 2
    # nan < 1 is False, so a NaN gamma once passed the guard and gave 0.0
    for gamma in (0.9, float("nan")):
        with pytest.raises(InvalidInputError, match="gamma"):
            qops.hockey_stick(rho, rho, gamma)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.integers(2, 6))
def test_hockey_stick_chain_and_monotonicity(seed, dim):
    rng = np.random.default_rng(seed)
    rho = qops.random_density(dim, rng.integers(1, dim + 1), rng)
    sig = qops.random_density(dim, rng.integers(1, dim + 1), rng)
    t = qops.trace_distance(rho, sig)
    prev = None
    for gamma in (1.0, 1.2, 2.0, 4.0, 8.0):
        e = qops.hockey_stick(rho, sig, gamma)
        assert -1e-12 <= e <= t + 1e-10 <= 1 + 1e-10
        if prev is not None:
            assert e <= prev + 1e-10
        prev = e


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.integers(2, 6))
def test_fuchs_van_de_graaf(seed, dim):
    rng = np.random.default_rng(seed)
    rho = qops.random_density(dim, rng.integers(1, dim + 1), rng)
    sig = qops.random_density(dim, rng.integers(1, dim + 1), rng)
    t = qops.trace_distance(rho, sig)
    f = qops.fidelity(rho, sig)
    assert 1 - np.sqrt(f) <= t + 1e-9
    assert t <= np.sqrt(1 - f) + 1e-9


def test_unitary_invariance():
    rng = np.random.default_rng(7)
    rho = qops.random_density(4, 2, rng)
    sig = qops.random_density(4, 3, rng)
    u = qops.random_unitary(4, rng)
    ur, us = u @ rho @ u.conj().T, u @ sig @ u.conj().T
    assert abs(qops.trace_distance(rho, sig) - qops.trace_distance(ur, us)) < 1e-10
    assert abs(qops.fidelity(rho, sig) - qops.fidelity(ur, us)) < 1e-10


def test_positive_part_psd_split():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = qops.hermitize(g)
    pos = qops.positive_part(h)
    assert np.linalg.eigvalsh(pos).min() > -1e-9
    assert np.linalg.eigvalsh(pos - h).min() > -1e-9


def test_random_pure_and_density_invariants():
    rng = np.random.default_rng(9)
    psi = qops.random_pure(5, rng)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    rho = qops.random_density(2, 2, rng)
    qops.check_density(rho)
    w = np.linalg.eigvalsh(rho)
    assert abs(w.sum() - 1.0) < 1e-10
    rank1 = qops.random_density(3, 1, rng)
    qops.check_density(rank1)


def test_random_generation_is_seed_reproducible():
    a = qops.random_pure(4, np.random.default_rng(123))
    b = qops.random_pure(4, np.random.default_rng(123))
    assert np.array_equal(a, b)
    ra = qops.random_density(3, 2, np.random.default_rng(42))
    rb = qops.random_density(3, 2, np.random.default_rng(42))
    assert np.array_equal(ra, rb)


def test_random_density_rank_bounds():
    rng = np.random.default_rng(10)
    with pytest.raises(InvalidInputError):
        qops.random_density(2, 3, rng)
    with pytest.raises(InvalidInputError):
        qops.random_density(2, 0, rng)
