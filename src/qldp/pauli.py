"""Pauli strings, observable decompositions, and Clifford group access.

Pauli labels are plain strings over {I, X, Y, Z} ("XZ" means X tensor Z).
Label k of :func:`pauli_labels` has the base-4 digits of k, leading qubit
first, with I, X, Y, Z as 0..3.  A matrix converts to its 4^m coefficients
Tr[P A]/2^m in that order, and back, through one transform pair,
:func:`pauli_coefficients` and :func:`pauli_sum`, at one 4x4 product per
qubit.  A :class:`PauliDecomposition` holds the coefficient vector itself;
label strings are made only for its nonzero entries.  Clifford elements are
dense unitaries.
:func:`clifford_orbit` closes a Clifford matrix or a stabilizer state under
the generators {H_i, S_i, CZ_ij}, deduplicating by an exact per-entry phase
code; from the identity it enumerates the group up to global phase (m in
{1, 2}, where :func:`random_clifford` draws uniformly from it), and from
|0...0> it enumerates the 2^m prod_k (2^k + 1) stabilizer states for any m.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import qops
from .errors import DegenerateObservableError, InvalidInputError, OutOfRegimeError

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_PHASE = np.array([[1, 0], [0, 1j]], dtype=complex)


def pauli_labels(m: int) -> list[str]:
    """All 4^m labels in lexicographic I, X, Y, Z order."""
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    return ["".join(t) for t in itertools.product("IXYZ", repeat=m)]


def pauli_matrix(label: str) -> np.ndarray:
    """Tensor product of single-qubit Pauli matrices for a label like "XZI"."""
    if not label or any(c not in PAULI_1Q for c in label):
        raise InvalidInputError(f"invalid Pauli label {label!r}")
    return functools.reduce(np.kron, [PAULI_1Q[c] for c in label])


# One qubit's (row bit i, column bit j) pair is the base-4 digit 2i + j.  Row p
# of _TO_PAULI holds P_p[j, i] / 2, so it maps a digit's entries to Tr[P_p A]/2;
# column p of _FROM_PAULI holds P_p[i, j], so it maps coefficients back.
_PAULI_STACK = np.stack([PAULI_1Q[c] for c in "IXYZ"])
_TO_PAULI = _PAULI_STACK.transpose(0, 2, 1).reshape(4, 4) / 2
_FROM_PAULI = _PAULI_STACK.reshape(4, 4).T


def _per_qubit(t: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """Apply the 4x4 matrix t to each of the m base-4 digits of x's index.

    Each product acts on the leading digit and the transpose moves it last,
    so after m products the digits are back in order: O(m 4^m) in all.
    """
    for _ in range(m):
        x = (t @ x.reshape(4, -1)).T
    return x.ravel()


def pauli_coefficients(a: np.ndarray, m: int) -> np.ndarray:
    """Tr[P A] / 2^m for every P in :func:`pauli_labels` order, any 2^m x 2^m A.

    Reorders A's indices to one (row bit, column bit) digit per qubit and
    applies one 4x4 product per qubit, O(m 4^m) instead of 4^m dense products.
    """
    a = np.asarray(a, dtype=complex)
    d = 2**m
    if a.shape != (d, d):
        raise InvalidInputError(f"matrix shape {a.shape} does not match m={m} (need {d}x{d})")
    digits = np.arange(2 * m).reshape(2, m).T.ravel()  # (i_1, j_1, i_2, j_2, ...)
    return _per_qubit(_TO_PAULI, a.reshape((2,) * (2 * m)).transpose(digits), m)


def pauli_sum(coeffs: np.ndarray, m: int) -> np.ndarray:
    """sum_P coeffs[P] P over :func:`pauli_labels` order; inverse of :func:`pauli_coefficients`."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge coefficients give inf/NaN entries
        x = _per_qubit(_FROM_PAULI, np.asarray(coeffs, dtype=complex), m)
    rows_then_cols = np.arange(2 * m).reshape(m, 2).T.ravel()
    return x.reshape((2,) * (2 * m)).transpose(rows_then_cols).reshape(2**m, 2**m)


_DIGIT_TO_LETTER = str.maketrans("0123", "IXYZ")
_LETTER_TO_DIGIT = str.maketrans("IXYZ", "0123")


def _label(index: int, m: int) -> str:
    """Label ``index`` of :func:`pauli_labels` (m), from its base-4 digits."""
    return np.base_repr(index, 4).rjust(m, "0").translate(_DIGIT_TO_LETTER)


@dataclass(frozen=True)
class PauliDecomposition:
    """Real coefficients alpha_P of a Hermitian observable in the Pauli basis.

    ``coeffs`` is a read-only float64 array of all 4^m coefficients in
    :func:`pauli_labels` order, the order of the transform pair.
    """

    m: int
    coeffs: np.ndarray
    weight: float          # S = sum |alpha_P|
    lambda_max: float
    lambda_min: float
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def reconstruct(self) -> np.ndarray:
        """The observable sum_P alpha_P P, read-only: the matrix the eigenvalues came from."""
        return self._matrix

    def support(self) -> list[str]:
        """Labels of the nonzero coefficients, in :func:`pauli_labels` order."""
        return [_label(k, self.m) for k in np.flatnonzero(self.coeffs).tolist()]


def _decomposition(m: int, coeffs: np.ndarray, obs: np.ndarray) -> PauliDecomposition:
    """Decomposition from all 4^m coefficients in label order and the matrix they sum to.

    Keeps ``obs``, made read-only, as the matrix :meth:`PauliDecomposition.reconstruct`
    returns; callers pass a matrix of their own.

    Raises OutOfRegimeError when the weight S = sum |alpha_P| or an eigenvalue
    is not a finite float.
    """
    coeffs = np.array(coeffs, dtype=float)
    coeffs.flags.writeable = False
    # a left-to-right sum of Python floats: it overflows to inf with no numpy
    # warning, and skipping the zero entries leaves every partial sum unchanged
    weight = float(sum(np.abs(coeffs[coeffs != 0.0]).tolist()))
    if not math.isfinite(weight):
        raise OutOfRegimeError(f"Pauli weight sum |alpha_P| = {weight} is not a finite float")
    w = np.linalg.eigvalsh(obs)
    if not np.isfinite(w).all():
        raise OutOfRegimeError("observable has an eigenvalue that is not a finite float")
    decomp = PauliDecomposition(
        m=m,
        coeffs=coeffs,
        weight=weight,
        lambda_max=float(w[-1]),
        lambda_min=float(w[0]),
    )
    obs.flags.writeable = False
    object.__setattr__(decomp, "_matrix", obs)
    return decomp


def decompose(obs: np.ndarray, m: int) -> PauliDecomposition:
    """Expand a Hermitian observable as sum_P alpha_P P with alpha_P = Tr[P O]/2^m."""
    obs = qops.check_hermitian(obs)
    # obs is exactly Hermitian, so every Tr[P O] is real
    return _decomposition(m, pauli_coefficients(obs, m).real, obs)


def from_coeffs(coeffs: dict[str, float]) -> PauliDecomposition:
    """Decomposition from explicit coefficients (labels must share one length)."""
    if not coeffs:
        raise InvalidInputError("coefficient map is empty")
    lengths = {len(lab) for lab in coeffs}
    if len(lengths) != 1:
        raise InvalidInputError(f"labels of mixed length: {sorted(coeffs)}")
    m = lengths.pop()
    vec = np.zeros(4**m)
    for lab, a in coeffs.items():
        if not lab or not set(lab) <= set(PAULI_1Q):
            raise InvalidInputError(f"invalid Pauli label {lab!r}")
        k = int(lab.translate(_LETTER_TO_DIGIT), 4)
        vec[k] = float(a)
        if not math.isfinite(vec[k]):
            raise InvalidInputError(f"coefficient of {lab!r} is not finite: {a!r}")
    return _decomposition(m, vec, pauli_sum(vec, m))


def sampling_distribution(decomp: PauliDecomposition) -> tuple[list[str], np.ndarray]:
    """Support labels and probabilities |alpha_P| / S."""
    if decomp.weight <= 0:
        raise DegenerateObservableError("observable has zero Pauli weight")
    return decomp.support(), np.abs(decomp.coeffs[decomp.coeffs != 0.0]) / decomp.weight


@dataclass(frozen=True)
class CliffordElement:
    m: int
    matrix: np.ndarray

    def __post_init__(self):
        d = 2**self.m
        if self.matrix.shape != (d, d):
            raise InvalidInputError(f"matrix shape {self.matrix.shape} does not match m={self.m}")


_UNIT = np.array([0, 1, 1j, -1, -1j])


def _phase_codes(batch: np.ndarray) -> np.ndarray:
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


def _row_keys(codes: np.ndarray) -> np.ndarray:
    """Each code row as one opaque, sortable value."""
    return codes.view(np.dtype((np.void, codes.shape[1]))).ravel()


def clifford_orbit(start: np.ndarray):
    """Breadth-first closure of a (d, c) Clifford matrix or stabilizer state under {H_i, S_i, CZ_ij}.

    Yields the orbit level by level, each level a (k, d, c) stack of
    phase-canonical elements not seen before (the first level is ``start``).
    Each level costs one batched product per generator; elements are rebuilt
    exactly from their codes, so rounding does not accumulate.
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


def _generators(m: int) -> list[np.ndarray]:
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


def _embed_cz(m: int, i: int, j: int) -> np.ndarray:
    b = np.arange(2**m)
    both = (b >> (m - 1 - i)) & (b >> (m - 1 - j)) & 1  # qubit 0 is the leading bit
    return np.diag(1.0 - 2.0 * both).astype(complex)


@functools.cache
def enumerate_cliffords(m: int = 1) -> tuple[CliffordElement, ...]:
    """Exhaustive Clifford group up to global phase; 24 elements at m=1, 11520 at m=2.

    The :func:`clifford_orbit` of the identity, in breadth-first order.
    """
    if m not in (1, 2):
        raise InvalidInputError(f"enumeration supports m in {{1, 2}}, got {m}")
    orbit = clifford_orbit(np.eye(2**m, dtype=complex))
    return tuple(CliffordElement(m=m, matrix=u) for level in orbit for u in level)


def random_clifford(m: int, rng: np.random.Generator) -> CliffordElement:
    """Uniform draw for m in {1, 2}, by index into the enumeration."""
    group = enumerate_cliffords(m)
    return group[int(rng.integers(len(group)))]


def conjugate_pauli(u: np.ndarray, label: str) -> tuple[complex, str]:
    """Resolve U P U^dag as (phase, label); raises if the result is not a Pauli."""
    m = len(label)
    c = pauli_coefficients(u @ pauli_matrix(label) @ u.conj().T, m)
    off = np.abs(c)
    k = int(off.argmax())
    off[k] -= 1.0  # a signed Pauli has one coefficient of modulus 1 and no others
    if not np.abs(off).max() <= 1e-9:
        raise InvalidInputError("conjugation does not map the Pauli to a signed Pauli")
    return complex(c[k]), _label(k, m)


def is_clifford(u: np.ndarray, m: int, tol: float = 1e-9) -> bool:
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
