import itertools

import numpy as np
import pytest

from qldp import qops
from qldp.errors import DegenerateObservableError, InvalidInputError
from qldp.pauli import (
    CliffordElement,
    clifford_orbit,
    conjugate_pauli,
    decompose,
    enumerate_cliffords,
    from_coeffs,
    is_clifford,
    pauli_coefficients,
    pauli_labels,
    pauli_matrix,
    pauli_sum,
    random_clifford,
    sampling_distribution,
)


def per_label_coefficients(a, m):
    """Oracle: Tr[P A] / 2^m one dense product per label, in pauli_labels order."""
    return np.array([np.trace(pauli_matrix(lab) @ a) / 2**m for lab in pauli_labels(m)])


def per_label_sum(coeffs):
    """Oracle: sum_P c_P P from explicit Pauli matrices, for a label -> coefficient map."""
    return sum(c * pauli_matrix(lab) for lab, c in coeffs.items())


def labeled(dec):
    """A decomposition's coefficients as a label -> coefficient map, in label order."""
    return dict(zip(pauli_labels(dec.m), dec.coeffs.tolist()))


def sample_pauli(decomp, rng):
    """Oracle: draw one label with probability |alpha_P| / S."""
    labels, probs = sampling_distribution(decomp)
    return labels[rng.choice(len(labels), p=probs)]


def test_pauli_matrix_generators():
    assert np.abs(pauli_matrix("Z") - np.diag([1.0, -1.0])).max() == 0
    assert np.abs(pauli_matrix("II") - np.eye(4)).max() == 0
    xz = pauli_matrix("XZ")
    assert np.abs(xz - np.kron(pauli_matrix("X"), pauli_matrix("Z"))).max() == 0
    assert abs(np.trace(xz)) == 0
    assert np.abs(xz @ xz - np.eye(4)).max() < 1e-15


def test_pauli_matrix_rejects_bad_labels():
    with pytest.raises(InvalidInputError):
        pauli_matrix("A")
    with pytest.raises(InvalidInputError):
        pauli_matrix("")


@pytest.mark.parametrize("m", [1, 2])
def test_pauli_orthogonality(m):
    labels = pauli_labels(m)
    d = 2**m
    for a, b in itertools.product(labels, labels):
        tr = np.trace(pauli_matrix(a) @ pauli_matrix(b))
        assert abs(tr - (d if a == b else 0.0)) < 1e-12


def test_decompose_examples():
    dz = decompose(pauli_matrix("Z"), 1)
    assert labeled(dz)["Z"] == 1.0
    assert all(v == 0.0 for k, v in labeled(dz).items() if k != "Z")
    assert dz.weight == 1.0
    assert (dz.lambda_max, dz.lambda_min) == (1.0, -1.0)

    dxz = decompose((pauli_matrix("X") + pauli_matrix("Z")) / np.sqrt(2), 1)
    assert abs(labeled(dxz)["X"] - 1 / np.sqrt(2)) < 1e-12
    assert abs(labeled(dxz)["Z"] - 1 / np.sqrt(2)) < 1e-12
    assert abs(dxz.weight - np.sqrt(2)) < 1e-12

    di = decompose(np.eye(2, dtype=complex), 1)
    assert labeled(di)["I"] == 1.0 and di.weight == 1.0
    assert di.lambda_max == di.lambda_min == 1.0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_transform_matches_per_label_oracle(m):
    # non-Hermitian input, so the coefficients are complex and no symmetry hides a slip
    rng = np.random.default_rng(100 + m)
    d = 2**m
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    c = pauli_coefficients(a, m)
    assert c.shape == (4**m,)
    assert np.abs(c - per_label_coefficients(a, m)).max() < 1e-12
    assert np.abs(pauli_sum(c, m) - a).max() < 1e-12
    coeffs = rng.standard_normal(4**m) + 1j * rng.standard_normal(4**m)
    oracle = per_label_sum(dict(zip(pauli_labels(m), coeffs)))
    assert np.abs(pauli_sum(coeffs, m) - oracle).max() < 1e-12
    assert np.abs(pauli_coefficients(pauli_sum(coeffs, m), m) - coeffs).max() < 1e-12


def test_transform_rejects_wrong_shape():
    with pytest.raises(InvalidInputError):
        pauli_coefficients(np.eye(4, dtype=complex), 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_decompose_reconstruct_roundtrip(m):
    rng = np.random.default_rng(m)
    g = rng.standard_normal((2**m, 2**m)) + 1j * rng.standard_normal((2**m, 2**m))
    obs = qops.hermitize(g)
    dec = decompose(obs, m)
    assert np.abs(dec.reconstruct() - obs).max() < 1e-10
    assert dec.coeffs.dtype == np.float64 and dec.coeffs.shape == (4**m,)
    assert not dec.coeffs.flags.writeable
    # the kept matrix is a read-only copy; the caller's matrix stays writable
    assert not dec.reconstruct().flags.writeable and obs.flags.writeable
    assert dec.reconstruct() is not obs


def test_from_coeffs_matches_decompose():
    dec = from_coeffs({"XI": 0.5, "ZZ": -1.25})
    redec = decompose(dec.reconstruct(), 2)
    for lab in pauli_labels(2):
        assert abs(labeled(dec)[lab] - labeled(redec)[lab]) < 1e-12


def test_from_coeffs_reconstructs_the_pauli_sum():
    coeffs = {"XIZ": 0.5, "ZZY": -1.25, "III": 0.125, "YXI": 2.0}
    dec = from_coeffs(coeffs)
    obs = per_label_sum(coeffs)
    assert np.abs(dec.reconstruct() - obs).max() < 1e-12
    assert dec.weight == 3.875
    w = np.linalg.eigvalsh(obs)
    assert abs(dec.lambda_max - w[-1]) < 1e-12 and abs(dec.lambda_min - w[0]) < 1e-12
    assert dec.coeffs.dtype == np.float64 and dec.coeffs.shape == (len(pauli_labels(3)),)
    assert all(labeled(dec)[lab] == a for lab, a in coeffs.items())
    assert dec.support() == [lab for lab in pauli_labels(3) if lab in coeffs]
    assert dec.support() == [lab for lab, a in labeled(dec).items() if a != 0.0]
    with pytest.raises(ValueError):
        dec.coeffs[0] = 1.0
    for m in (1, 2, 3):
        labels = pauli_labels(m)
        for lab in labels:
            one = from_coeffs({lab: -0.5})
            assert one.coeffs[labels.index(lab)] == -0.5
            assert np.count_nonzero(one.coeffs) == 1 and one.support() == [lab]


@pytest.mark.parametrize("coeffs", [{}, {"": 1.0}, {"Q": 1.0}, {"X": 1.0, "ZZ": 1.0}])
def test_from_coeffs_rejects_malformed_maps(coeffs):
    with pytest.raises(InvalidInputError):
        from_coeffs(coeffs)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_from_coeffs_rejects_non_finite_coefficients(bad):
    with pytest.raises(InvalidInputError, match="'ZZ' is not finite"):
        from_coeffs({"XI": 0.5, "ZZ": bad})


def test_decompose_rejects_wrong_shape():
    with pytest.raises(InvalidInputError):
        decompose(np.eye(3, dtype=complex), 1)


def test_sampling_single_term():
    dec = from_coeffs({"X": 3.0})
    rng = np.random.default_rng(0)
    assert all(sample_pauli(dec, rng) == "X" for _ in range(20))


def test_sampling_balanced_frequencies():
    dec = decompose((pauli_matrix("X") + pauli_matrix("Z")) / np.sqrt(2), 1)
    labels, probs = sampling_distribution(dec)
    assert sorted(labels) == ["X", "Z"]
    assert np.abs(probs - 0.5).max() < 1e-12
    rng = np.random.default_rng(1)
    n = 8000
    draws = [sample_pauli(dec, rng) for _ in range(n)]
    counts = np.array([draws.count("X"), draws.count("Z")])
    # chi-square with 1 dof; 16.27 is far past the 0.9999 quantile
    chi2 = ((counts - n / 2) ** 2 / (n / 2)).sum()
    assert chi2 < 16.27


def test_sampling_is_seed_reproducible():
    dec = from_coeffs({"X": 1.0, "Y": -2.0, "Z": 0.5})
    a = [sample_pauli(dec, np.random.default_rng(42)) for _ in range(10)]
    b = [sample_pauli(dec, np.random.default_rng(42)) for _ in range(10)]
    assert a == b


def test_zero_observable_is_degenerate():
    dec = decompose(np.zeros((2, 2), dtype=complex), 1)
    with pytest.raises(DegenerateObservableError):
        sampling_distribution(dec)


def test_clifford_enumeration_m1():
    group = enumerate_cliffords(1)
    assert len(group) == 24
    for c in group:
        assert is_clifford(c.matrix, 1)
        phase, label = conjugate_pauli(c.matrix, "Z")
        assert label in ("X", "Y", "Z")
        assert abs(abs(phase) - 1.0) < 1e-9


def test_clifford_enumeration_m2():
    group = enumerate_cliffords(2)
    assert len(group) == 11520
    rng = np.random.default_rng(2)
    for idx in rng.choice(len(group), size=6, replace=False):
        assert is_clifford(group[idx].matrix, 2)


def test_clifford_conjugation_closure_m1():
    # all four Paulis, not just generators, map to signed Paulis
    group = enumerate_cliffords(1)
    rng = np.random.default_rng(3)
    for idx in rng.choice(24, size=8, replace=False):
        u = group[idx].matrix
        for lab in ("I", "X", "Y", "Z"):
            phase, out = conjugate_pauli(u, lab)
            assert out in ("I", "X", "Y", "Z")
            near_unit = min(abs(phase - z) for z in (1, -1, 1j, -1j))
            assert near_unit < 1e-9


@pytest.mark.parametrize("name", ["T", "haar"])
def test_non_clifford_is_detected(name):
    if name == "T":
        u = np.diag([1.0, np.exp(1j * np.pi / 4)])
    else:
        u = qops.random_unitary(2, np.random.default_rng(5))
    # T maps X to (X + Y)/sqrt(2): no single Pauli carries the conjugate
    with pytest.raises(InvalidInputError, match="signed Pauli"):
        conjugate_pauli(u, "X")
    assert not is_clifford(u, 1)
    assert not is_clifford(np.kron(u, np.eye(2)), 2)
    assert is_clifford(np.kron(pauli_matrix("X"), enumerate_cliffords(1)[7].matrix), 2)


def test_random_clifford_uniform_modes():
    rng = np.random.default_rng(4)
    c1 = random_clifford(1, rng)
    assert isinstance(c1, CliffordElement) and c1.matrix.shape == (2, 2)
    c2 = random_clifford(2, rng)
    assert c2.matrix.shape == (4, 4)
    for m in (3, 5):
        with pytest.raises(InvalidInputError):
            random_clifford(m, rng)


def test_enumeration_rejects_large_m():
    with pytest.raises(InvalidInputError):
        enumerate_cliffords(3)


@pytest.mark.parametrize("m, count", [(1, 6), (2, 60), (3, 1080), (4, 36720)])
def test_stabilizer_state_orbit(m, count):
    # 2^m prod_k (2^k + 1) states, and their projectors sum to (count / d) I
    d = 2**m
    zero = np.zeros((d, 1), dtype=complex)
    zero[0, 0] = 1.0
    states = np.concatenate([level[:, :, 0] for level in clifford_orbit(zero)])
    assert states.shape == (count, d)
    assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() < 1e-12
    frame = states.T @ states.conj()
    assert np.abs(frame - count / d * np.eye(d)).max() < 1e-9
    # phase-canonical (first nonzero amplitude real positive) and pairwise distinct
    first = states[np.arange(count), (np.abs(states) > 1e-9).argmax(axis=1)]
    assert np.abs(first - np.abs(first)).max() < 1e-12
    assert len(np.unique(np.round(states, 9), axis=0)) == count
