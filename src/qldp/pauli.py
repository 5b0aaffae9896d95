"""Pauli strings, observable decompositions, stabilizer states and the Clifford group.

Pauli labels are plain strings over {I, X, Y, Z} ("XZ" means X tensor Z).
In label order, label k spells the base-4 digits of k, leading qubit first,
with I, X, Y, Z as 0..3.  A matrix converts to its 4^m coefficients
Tr[P A]/2^m in that order, and back, through one transform pair,
:func:`pauli_coefficients` and :func:`pauli_sum`, at one 4x4 product per
qubit; :func:`pauli_trace` reads one of them, Tr[P A], in O(2^m): a Pauli
string meets a state only there.  A :class:`PauliDecomposition` holds the
coefficient vector and its support, and builds its matrix on first read.
:func:`stabilizer_states` writes every n-qubit stabilizer state in closed
form, 2^(-k/2) sum_y i^(l.y) (-1)^(y^T Q y) |t xor y.B>, in bounded chunks.
Clifford elements are dense unitaries: :func:`enumerate_cliffords` reads the
group for m in {1, 2} off the 2m-qubit stabilizer states that are Choi states
of unitaries, and :func:`random_clifford` draws uniformly from it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import qops
from .errors import InvalidInputError, OutOfRegimeError

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

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
_LETTER_TO_DIGIT = str.maketrans("IXYZ", "0123")
_UNIT = np.array([1, 1j, -1, -1j])  # i^j for j = 0..3


def _per_qubit(t: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """Apply the 4x4 matrix t to each of the m base-4 digits of x's index.

    Each product acts on the leading digit and the transpose moves it last,
    so after m products the digits are back in order: O(m 4^m) in all.
    """
    for _ in range(m):
        x = (t @ x.reshape(4, -1)).T
    return x.ravel()


def pauli_coefficients(a: np.ndarray, m: int) -> np.ndarray:
    """Tr[P A] / 2^m for every P in label order, any 2^m x 2^m A.

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
    """sum_P coeffs[P] P over label order; inverse of :func:`pauli_coefficients`."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge coefficients give inf/NaN entries
        x = _per_qubit(_FROM_PAULI, np.asarray(coeffs, dtype=complex), m)
    rows_then_cols = np.arange(2 * m).reshape(m, 2).T.ravel()
    return x.reshape((2,) * (2 * m)).transpose(rows_then_cols).reshape(2**m, 2**m)


def pauli_trace(a: np.ndarray, k: int, m: int) -> complex:
    """Tr[P_k A] for label k and any 2^m x 2^m A, in O(2^m).

    P_k|w> = i^#Y (-1)^(z.w) |w xor x>, with x marking its X/Y qubits and z its Y/Z
    qubits, so Tr[P_k A] = i^#Y sum_w (-1)^(z.w) A[w, w xor x], summed in halves one
    qubit at a time, leading qubit first: the order of :func:`pauli_coefficients`,
    whose entry k times 2^m it equals bit for bit.
    """
    a, d = np.asarray(a), 2**m
    if a.shape != (d, d) or not 0 <= k < d * d:
        raise InvalidInputError(f"no Pauli index {k} for a matrix of shape {a.shape} at m={m}")
    digits = [(k >> 2 * q) & 3 for q in range(m - 1, -1, -1)]  # leading qubit first
    w = np.arange(d)
    v = a[w, w ^ sum(1 << (m - 1 - q) for q, p in enumerate(digits) if p in (1, 2))].astype(complex)
    for p in digits:
        v = v.reshape(2, -1)
        v = v[0] - v[1] if p >= 2 else v[0] + v[1]
    return complex(_UNIT[digits.count(2) % 4] * v[0])


@dataclass(frozen=True, eq=False)
class PauliDecomposition:
    """Real coefficients alpha_P of a Hermitian observable in the Pauli basis.

    ``coeffs`` is a read-only float64 array of all 4^m coefficients in label order;
    ``support``, the one scan of it, is read by everything else.  ``matrix`` and the
    spectrum ``lambda_max``/``lambda_min`` are built on first read and cached; a
    spectrum that is not finite raises OutOfRegimeError there.  Equality and
    hashing go by identity, since the fields are arrays.
    """

    m: int
    coeffs: np.ndarray
    weight: float          # S = sum |alpha_P|
    support: np.ndarray    # label indices P with alpha_P != 0, ascending, read-only

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The observable sum_P alpha_P P, read-only: the matrix the eigenvalues come from."""
        obs = pauli_sum(self.coeffs, self.m)
        obs.flags.writeable = False
        return obs

    @functools.cached_property
    def _eigenvalues(self) -> np.ndarray:
        """The spectrum, ascending; of a :attr:`one_term` O, just c_0 -+ |c_k|, with no matrix."""
        if self.one_term:  # finite, as |c_0| + |c_k| = S is
            c0, ck = self.coeffs[0], np.abs(self.coeffs[self.support[self.support > 0]]).sum()
            return np.array([c0 - ck, c0 + ck])
        w = np.linalg.eigvalsh(self.matrix)
        if not np.isfinite(w).all():
            raise OutOfRegimeError("observable has an eigenvalue that is not a finite float")
        return w

    lambda_max = property(lambda self: float(self._eigenvalues[-1]))
    lambda_min = property(lambda self: float(self._eigenvalues[0]))

    @property
    def trace_square(self) -> float:
        """Tr[O^2] = 2^m sum_P alpha_P^2 in Python floats, which give inf past their range, no warning."""
        return 2**self.m * sum(a * a for a in self.coeffs[self.support].tolist())

    @property
    def one_term(self) -> bool:
        """At most one nonzero non-identity coefficient, O = c_0 I + c_k P_k: no matrix is needed."""
        return bool(np.count_nonzero(self.support) <= 1)

    def check_state(self, rho: np.ndarray) -> np.ndarray:
        """``rho`` as an array; InvalidInputError unless it is 2^m x 2^m with finite entries, O(d^2)."""
        rho = np.asarray(rho)
        if rho.shape != (2**self.m,) * 2 or not np.isfinite(rho).all():
            raise InvalidInputError(f"state of shape {rho.shape} is not a finite {2**self.m} x {2**self.m} matrix")
        return rho

    def expectation(self, rho: np.ndarray) -> float:
        """Tr[O rho] after :meth:`check_state`, O(d^2).

        When :attr:`one_term`, it is c_0 Tr rho + c_k :func:`pauli_trace` (rho, k),
        and no matrix is built; otherwise sum_ij O_ij rho_ji over :attr:`matrix`.
        """
        rho = self.check_state(rho)
        if not self.one_term:
            return float((self.matrix * rho.T).sum().real)
        value = self.coeffs[0] * np.trace(rho).real
        for k in self.support[self.support > 0].tolist():
            value += self.coeffs[k] * pauli_trace(rho, k, self.m).real
        return float(value)


def _decomposition(m: int, coeffs: np.ndarray) -> PauliDecomposition:
    """Decomposition from all 4^m coefficients in label order; matrix and spectrum wait for first read.

    Raises OutOfRegimeError when the weight S = sum |alpha_P| is not a finite float.
    """
    coeffs = np.array(coeffs, dtype=float)
    coeffs.flags.writeable = False
    support = np.flatnonzero(coeffs)
    support.flags.writeable = False
    # a left-to-right sum of Python floats: it overflows to inf with no numpy
    # warning, and skipping the zero entries leaves every partial sum unchanged
    weight = float(sum(np.abs(coeffs[support]).tolist()))
    if not math.isfinite(weight):
        raise OutOfRegimeError(f"Pauli weight sum |alpha_P| = {weight} is not a finite float")
    return PauliDecomposition(m=m, coeffs=coeffs, weight=weight, support=support)


def decompose(obs: np.ndarray, m: int) -> PauliDecomposition:
    """Expand a Hermitian observable as sum_P alpha_P P with alpha_P = Tr[P O]/2^m."""
    obs = qops.check_hermitian(obs)
    # obs is exactly Hermitian, so every Tr[P O] is real
    return _decomposition(m, pauli_coefficients(obs, m).real)


def from_coeffs(coeffs: dict[str, float]) -> PauliDecomposition:
    """Decomposition from explicit coefficients (labels must share one length)."""
    if not coeffs:
        raise InvalidInputError("coefficient map is empty")
    lengths = {len(lab) for lab in coeffs}
    if len(lengths) != 1:
        raise InvalidInputError(f"labels of mixed length: {sorted(coeffs)}")
    m = lengths.pop()
    if 8 * 4**m > np.iinfo(np.intp).max:
        raise OutOfRegimeError(f"m = {m} qubits need 4^{m} float64 coefficients, more bytes than an array can hold")
    vec = np.zeros(4**m)
    for lab, a in coeffs.items():
        if not lab or not set(lab) <= set(PAULI_1Q):
            raise InvalidInputError(f"invalid Pauli label {lab!r}")
        k = int(lab.translate(_LETTER_TO_DIGIT), 4)
        vec[k] = float(a)
        if not math.isfinite(vec[k]):
            raise InvalidInputError(f"coefficient of {lab!r} is not finite: {a!r}")
    return _decomposition(m, vec)


def _bits(k: int) -> np.ndarray:
    """(2^k, k) array whose row y holds y's k bits, leading bit first."""
    return (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1


def _affine_supports(n: int, k: int) -> np.ndarray:
    """Indices t xor y.B, y in F2^k, of every k-dimensional affine subspace of F2^n, one row each.

    B runs over the k x n binary matrices in reduced row echelon form: row i
    has its leading 1 at pivot p_i and any bits after p_i off the pivots.
    t runs over the 2^(n-k) vectors that are zero on the pivots, so it is the
    subspace's smallest index and y = 0 lands on it.  Qubit 0 is the leading bit.
    """
    bit = 1 << np.arange(n - 1, -1, -1)
    ys = _bits(k)
    out = []
    for pivots in itertools.combinations(range(n), k):
        free = [q for q in range(n) if q not in pivots]
        slots = [(i, q) for i, p in enumerate(pivots) for q in free if q > p]
        place = np.zeros((len(slots), k), dtype=np.int64)
        for s, (i, q) in enumerate(slots):
            place[s, i] = bit[q]
        bases = bit[list(pivots)] + _bits(len(slots)) @ place          # (F, k) rows of B as ints
        spans = np.bitwise_xor.reduce(ys * bases[:, None, :], axis=2)  # (F, 2^k) y.B
        shifts = _bits(len(free)) @ bit[free]                          # (2^(n-k),) t
        out.append((spans[:, None, :] ^ shifts[:, None]).reshape(-1, 2**k))
    return np.concatenate(out)


def stabilizer_states(n: int):
    """Every n-qubit stabilizer state, phase-canonical, as (rows, 2^n) chunks, one per (k, Q).

    Each state is 2^(-k/2) sum_y i^(l.y) (-1)^(y^T Q y) |t xor y.B> over y in F2^k
    (Dehaene & De Moor, PRA 68, 042318, 2003): an affine support t + span(B)
    from :func:`_affine_supports`, l in Z4^k and Q strictly upper triangular
    over F2.  Distinct (support, l, Q) give distinct states, 2^n prod_k (2^k + 1)
    in all (6 / 60 / 1080 / 36720 for n = 1..4), and the amplitude at t, the
    first nonzero one, is 2^(-k/2) > 0.  A chunk holds every support and l for
    one (k, Q): at most 2240 rows for n <= 4.
    """
    d = 2**n
    for k in range(n + 1):
        supports = _affine_supports(n, k)
        ys = _bits(k)
        lin = (np.arange(4**k)[:, None] >> 2 * np.arange(k - 1, -1, -1)) & 3  # every l in Z4^k
        iu, ju = np.triu_indices(k, 1)
        pairs = ys[:, iu] * ys[:, ju]  # y_i y_j for i < j, so y^T Q y = pairs @ q
        at = (np.arange(len(supports))[:, None, None], np.arange(4**k)[None, :, None],
              supports[:, None, :])
        for q in _bits(len(iu)):
            chunk = np.zeros((len(supports), 4**k, d), dtype=complex)
            chunk[at] = _UNIT[(lin @ ys.T + 2 * (pairs @ q)) % 4] * math.sqrt(1 / 2**k)
            yield chunk.reshape(-1, d)


@functools.cache
def enumerate_cliffords(m: int = 1) -> np.ndarray:
    """Clifford group up to global phase as one read-only (N, d, d) stack; N = 24 at m=1, 11520 at m=2.

    A Clifford U is its Choi state (U kron I)|Omega>, a 2m-qubit stabilizer
    state, so the group is the :func:`stabilizer_states` (2m) whose
    amplitudes, reshaped to d x d and scaled by sqrt(d), form a unitary.
    Each element's first nonzero entry is real positive.
    """
    if m not in (1, 2):
        raise InvalidInputError(f"enumeration supports m in {{1, 2}}, got {m}")
    d = 2**m
    group = []
    for states in stabilizer_states(2 * m):
        u = states.reshape(-1, d, d) * math.sqrt(d)
        dev = np.abs(u @ u.conj().transpose(0, 2, 1) - np.eye(d)).max(axis=(1, 2))
        group.append(u[dev < 1e-9])
    group = np.concatenate(group)
    group.flags.writeable = False
    return group


def random_clifford(m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw for m in {1, 2}, by index into the enumeration; read-only."""
    group = enumerate_cliffords(m)
    return group[int(rng.integers(len(group)))]
