import functools
import itertools

import numpy as np
import pytest

from qldp import qops
from qldp.errors import DegenerateObservableError, InvalidInputError
from qldp.pauli import (
    decompose,
    enumerate_cliffords,
    from_coeffs,
    pauli_coefficients,
    pauli_matrix,
    pauli_sum,
    pauli_trace,
    random_clifford,
    stabilizer_states,
)


def pauli_labels(m):
    """Oracle: all 4^m labels in lexicographic I, X, Y, Z order, the package's label order."""
    return ["".join(t) for t in itertools.product("IXYZ", repeat=m)]


def per_label_coefficients(a, m):
    """Oracle: Tr[P A] / 2^m one dense product per label, in pauli_labels order."""
    return np.array([np.trace(pauli_matrix(lab) @ a) / 2**m for lab in pauli_labels(m)])


def per_label_sum(coeffs):
    """Oracle: sum_P c_P P from explicit Pauli matrices, for a label -> coefficient map."""
    return sum(c * pauli_matrix(lab) for lab, c in coeffs.items())


def labeled(dec):
    """A decomposition's coefficients as a label -> coefficient map, in label order."""
    return dict(zip(pauli_labels(dec.m), dec.coeffs.tolist()))


def support(dec):
    """Oracle: labels of the nonzero coefficients, in pauli_labels order."""
    labels = pauli_labels(dec.m)
    return [labels[k] for k in np.flatnonzero(dec.coeffs).tolist()]


def sampling_distribution(decomp):
    """Oracle: support labels and their probabilities |alpha_P| / S."""
    if decomp.weight <= 0:
        raise DegenerateObservableError("observable has zero Pauli weight")
    return support(decomp), np.abs(decomp.coeffs[decomp.coeffs != 0.0]) / decomp.weight


def sample_pauli(decomp, rng):
    """Oracle: draw one label with probability |alpha_P| / S."""
    labels, probs = sampling_distribution(decomp)
    return labels[rng.choice(len(labels), p=probs)]


# --- oracle: the Clifford orbit ---------------------------------------------
# Breadth-first closure under the generators {H_i, S_i, CZ_ij}, deduplicated by an
# exact per-entry phase code: an independent construction of the stabilizer states
# and of the Clifford group that the closed-form enumeration is checked against.

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_PHASE = np.array([[1, 0], [0, 1j]], dtype=complex)
_UNIT = np.array([0, 1, 1j, -1, -1j])


def _phase_codes(batch):
    """One int8 row per element of a (k, d, c) stack, fixing each global phase in place.

    After the first nonzero entry is rotated to the positive reals, every nonzero
    entry of a Clifford matrix or stabilizer state is c * i^j with one common
    c > 0.  Entry codes are 0 for zero and 1 + j otherwise, so a row determines
    its element exactly.
    """
    tol = 1e-6  # far below the smallest nonzero modulus, 2^(-m/2)
    flat = batch.reshape(len(batch), -1)
    first = flat[np.arange(len(flat)), (np.abs(flat) > tol).argmax(axis=1)]
    flat *= (first.conj() / np.abs(first))[:, None]
    codes = np.zeros(flat.shape, dtype=np.int8)
    for code, mask in enumerate((flat.real > tol, flat.imag > tol,
                                 flat.real < -tol, flat.imag < -tol), start=1):
        codes[mask] = code
    return codes


def _row_keys(codes):
    """Each code row as one opaque, sortable value."""
    return codes.view(np.dtype((np.void, codes.shape[1]))).ravel()


def _embed_cz(m, i, j):
    b = np.arange(2**m)
    both = (b >> (m - 1 - i)) & (b >> (m - 1 - j)) & 1  # qubit 0 is the leading bit
    return np.diag(1.0 - 2.0 * both).astype(complex)


def _generators(m):
    gens = []
    for i in range(m):
        for g in (_HADAMARD, _PHASE):
            ops = [np.eye(2, dtype=complex)] * m
            ops[i] = g
            gens.append(functools.reduce(np.kron, ops))
    for i in range(m):
        for j in range(i + 1, m):
            gens.append(_embed_cz(m, i, j))
    return gens


def clifford_orbit(start):
    """Breadth-first closure of a (d, c) Clifford matrix or stabilizer state under {H_i, S_i, CZ_ij}.

    Yields the orbit level by level, each level a (k, d, c) stack of
    phase-canonical elements not seen before (the first level is ``start``).
    Elements are rebuilt exactly from their codes, so rounding does not accumulate.
    """
    d, cols = start.shape
    gens = _generators(d.bit_length() - 1)
    codes = _phase_codes(start[None].astype(complex))
    seen = _row_keys(codes)  # keys of every element found so far, kept sorted
    while len(codes):
        level = _UNIT[codes].reshape(-1, d, cols)
        level *= np.sqrt(cols / np.count_nonzero(codes, axis=1))[:, None, None]
        yield level
        fresh = []
        for g in gens:
            cand = _phase_codes(g @ level)
            keys, first = np.unique(_row_keys(cand), return_index=True)
            pos = np.searchsorted(seen, keys)
            new = seen[np.minimum(pos, len(seen) - 1)] != keys
            seen = np.insert(seen, pos[new], keys[new])
            fresh.append(cand[np.sort(first[new])])
        codes = np.concatenate(fresh)


def orbit_states(n):
    """Oracle: the n-qubit stabilizer states, the orbit of |0...0>, as (count, 2^n) rows."""
    zero = np.zeros((2**n, 1), dtype=complex)
    zero[0, 0] = 1.0
    return np.concatenate([level[:, :, 0] for level in clifford_orbit(zero)])


def orbit_group(m):
    """Oracle: the m-qubit Clifford group up to phase, the orbit of the identity."""
    return np.concatenate(list(clifford_orbit(np.eye(2**m, dtype=complex))))


def up_to_phase(rows):
    """Rows with each first nonzero entry rotated to the positive reals, rounded, sorted."""
    flat = np.array(rows, dtype=complex).reshape(len(rows), -1)
    first = flat[np.arange(len(flat)), (np.abs(flat) > 1e-9).argmax(axis=1)]
    flat *= (first.conj() / np.abs(first))[:, None]
    parts = np.round(np.concatenate([flat.real, flat.imag], axis=1), 9) + 0.0
    return parts[np.lexsort(parts.T[::-1])]


def conjugate_pauli(u, label):
    """Resolve U P U^dag as (phase, label); raises if the result is not a Pauli."""
    m = len(label)
    c = pauli_coefficients(u @ pauli_matrix(label) @ u.conj().T, m)
    off = np.abs(c)
    k = int(off.argmax())
    off[k] -= 1.0  # a signed Pauli has one coefficient of modulus 1 and no others
    if not np.abs(off).max() <= 1e-9:
        raise InvalidInputError("conjugation does not map the Pauli to a signed Pauli")
    return complex(c[k]), pauli_labels(m)[k]


def is_clifford(u, m, tol=1e-9):
    """Check that conjugation maps every generator Pauli to a phased Pauli."""
    d = 2**m
    if u.shape != (d, d) or np.abs(u.conj().T @ u - np.eye(d)).max() > tol:
        return False
    for i in range(m):
        for letter in ("X", "Z"):
            label = "".join(letter if k == i else "I" for k in range(m))
            try:
                conjugate_pauli(u, label)
            except InvalidInputError:
                return False
    return True


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
@pytest.mark.parametrize("kind", ["non-hermitian", "hermitian", "diagonal", "pure"])
def test_pauli_trace_is_the_transform_entry_for_every_label(m, kind):
    rng = np.random.default_rng(200 + m)
    d = 2**m
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = {"non-hermitian": g, "hermitian": g + g.conj().T, "diagonal": np.diag(np.diag(g)),
         "pure": qops.projector(qops.random_pure(d, rng))}[kind]
    coeffs = pauli_coefficients(a, m)
    oracle = per_label_coefficients(a, m) * 2**m
    for k in range(4**m):
        t = pauli_trace(a, k, m)
        assert isinstance(t, complex)
        assert t == coeffs[k] * 2**m  # the same sums in the same order
        assert abs(t - oracle[k]) < 1e-14 * max(1.0, abs(oracle[k]))


@pytest.mark.parametrize("a, k, m", [
    (np.eye(4), 0, 1), (np.eye(2), 0, 2), (np.eye(2)[:1], 0, 1),
    (np.eye(2), -1, 1), (np.eye(2), 4, 1), (np.eye(4), 16, 2),
])
def test_pauli_trace_rejects_a_wrong_shape_or_index(a, k, m):
    with pytest.raises(InvalidInputError):
        pauli_trace(a, k, m)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_decompose_reconstruct_roundtrip(m):
    rng = np.random.default_rng(m)
    g = rng.standard_normal((2**m, 2**m)) + 1j * rng.standard_normal((2**m, 2**m))
    obs = qops.hermitize(g)
    dec = decompose(obs, m)
    assert np.abs(dec.matrix - obs).max() < 1e-10
    assert dec.coeffs.dtype == np.float64 and dec.coeffs.shape == (4**m,)
    assert not dec.coeffs.flags.writeable
    # the kept matrix is a read-only copy; the caller's matrix stays writable
    assert not dec.matrix.flags.writeable and obs.flags.writeable
    assert dec.matrix is not obs
    rho = qops.random_density(2**m, 2, rng)
    assert abs(dec.expectation(rho) - np.trace(obs @ rho).real) < 1e-10
    assert abs(dec.trace_square - np.trace(obs @ obs).real) < 1e-12 * np.trace(obs @ obs).real


@pytest.mark.parametrize("coeffs", [{"ZZZ": -0.7}, {"III": 0.3, "XYZ": 1.25}, {"II": 2.0}, {"IY": 0.0},
                                    {"IZYX": 0.5, "IIII": -0.25}])
def test_one_term_expectation_reads_the_pauli_trace_without_the_matrix(coeffs):
    # O = c_0 I + c_k P_k: Tr[O rho] = c_0 Tr rho + c_k Tr[P_k rho], with no 2^m x 2^m observable
    dec = from_coeffs(coeffs)
    d = 2**dec.m
    rng = np.random.default_rng(len(coeffs) + d)
    for rho in (qops.random_density(d, 2, rng), 1.5 * qops.random_density(d, d, rng)):
        got = dec.expectation(rho)
        assert "matrix" not in vars(dec)
        assert abs(got - np.trace(per_label_sum(coeffs) @ rho).real) < 1e-12
    with pytest.raises(InvalidInputError):
        dec.expectation(np.full((d, d), np.nan))
    with pytest.raises(InvalidInputError):
        dec.expectation(np.eye(2 * d))
    # two non-identity terms read the matrix
    two = from_coeffs({**coeffs, "X" * dec.m: 0.5, "Y" * dec.m: 0.5})
    rho = qops.random_density(d, 2, rng)
    assert abs(two.expectation(rho) - np.trace(two.matrix @ rho).real) < 1e-12


@pytest.mark.parametrize("coeffs", [{"Z": -2.0}, {"XY": 0.5, "II": 0.25}, {"III": -1.5},
                                    {"YIZ": -0.75, "III": 0.5}, {"IZ": 3.0, "II": -3.0}])
def test_one_term_spectrum_is_c0_plus_minus_ck_without_the_matrix(coeffs):
    dec = from_coeffs(coeffs)
    lmax, lmin = dec.lambda_max, dec.lambda_min
    assert "matrix" not in vars(dec)
    w = np.linalg.eigvalsh(per_label_sum(coeffs))
    assert abs(lmax - w[-1]) < 1e-12 and abs(lmin - w[0]) < 1e-12


def test_decomposition_equality_and_hashing_are_by_identity():
    a, b = from_coeffs({"Z": 1.0}), from_coeffs({"Z": 1.0})
    assert a == a and a != b and not (a == b)
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_from_coeffs_matches_decompose():
    dec = from_coeffs({"XI": 0.5, "ZZ": -1.25})
    redec = decompose(dec.matrix, 2)
    for lab in pauli_labels(2):
        assert abs(labeled(dec)[lab] - labeled(redec)[lab]) < 1e-12


def test_from_coeffs_reconstructs_the_pauli_sum():
    coeffs = {"XIZ": 0.5, "ZZY": -1.25, "III": 0.125, "YXI": 2.0}
    dec = from_coeffs(coeffs)
    obs = per_label_sum(coeffs)
    assert np.abs(dec.matrix - obs).max() < 1e-12
    assert dec.weight == 3.875
    w = np.linalg.eigvalsh(obs)
    assert abs(dec.lambda_max - w[-1]) < 1e-12 and abs(dec.lambda_min - w[0]) < 1e-12
    assert dec.coeffs.dtype == np.float64 and dec.coeffs.shape == (len(pauli_labels(3)),)
    assert all(labeled(dec)[lab] == a for lab, a in coeffs.items())
    assert support(dec) == [lab for lab in pauli_labels(3) if lab in coeffs]
    assert support(dec) == [lab for lab, a in labeled(dec).items() if a != 0.0]
    with pytest.raises(ValueError):
        dec.coeffs[0] = 1.0
    for m in (1, 2, 3):
        labels = pauli_labels(m)
        for lab in labels:
            one = from_coeffs({lab: -0.5})
            assert one.coeffs[labels.index(lab)] == -0.5
            assert np.count_nonzero(one.coeffs) == 1 and support(one) == [lab]


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
        assert is_clifford(c, 1)
        phase, label = conjugate_pauli(c, "Z")
        assert label in ("X", "Y", "Z")
        assert abs(abs(phase) - 1.0) < 1e-9


def test_clifford_enumeration_m2():
    group = enumerate_cliffords(2)
    assert len(group) == 11520
    rng = np.random.default_rng(2)
    for idx in rng.choice(len(group), size=6, replace=False):
        assert is_clifford(group[idx], 2)


@pytest.mark.parametrize("m", [1, 2])
def test_clifford_enumeration_matches_the_orbit(m):
    group = enumerate_cliffords(m)
    assert group.shape == (len(group), 2**m, 2**m) and not group.flags.writeable
    assert np.array_equal(up_to_phase(group), up_to_phase(orbit_group(m)))
    # phase-canonical: each element's first nonzero entry is real positive
    flat = group.reshape(len(group), -1)
    first = flat[np.arange(len(flat)), (np.abs(flat) > 1e-9).argmax(axis=1)]
    assert np.abs(first - np.abs(first)).max() < 1e-12


def test_clifford_conjugation_closure_m1():
    # all four Paulis, not just generators, map to signed Paulis
    group = enumerate_cliffords(1)
    rng = np.random.default_rng(3)
    for idx in rng.choice(24, size=8, replace=False):
        u = group[idx]
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
    assert is_clifford(np.kron(pauli_matrix("X"), enumerate_cliffords(1)[7]), 2)


def test_random_clifford_uniform_modes():
    rng = np.random.default_rng(4)
    c1 = random_clifford(1, rng)
    assert isinstance(c1, np.ndarray) and c1.shape == (2, 2) and not c1.flags.writeable
    c2 = random_clifford(2, rng)
    assert c2.shape == (4, 4)
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
    chunks = list(stabilizer_states(m))
    assert max(len(c) for c in chunks) <= 4096
    states = np.concatenate(chunks)
    assert states.shape == (count, d)
    assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() < 1e-12
    frame = states.T @ states.conj()
    assert np.abs(frame - count / d * np.eye(d)).max() < 1e-9
    # phase-canonical (first nonzero amplitude real positive) and pairwise distinct
    first = states[np.arange(count), (np.abs(states) > 1e-9).argmax(axis=1)]
    assert np.abs(first - np.abs(first)).max() < 1e-12
    assert len(np.unique(np.round(states, 9), axis=0)) == count
    # the same set, up to phase, as the orbit of |0...0> under {H, S, CZ}
    assert np.array_equal(up_to_phase(states), up_to_phase(orbit_states(m)))
