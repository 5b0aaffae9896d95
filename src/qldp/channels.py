"""CPTP channels as Kraus stacks with lazily cached superoperators.

Superoperators use the column-stacking convention
``vec(A X B) = (B^T kron A) vec(X)``, so a channel with Kraus operators
``K_k`` has superoperator ``S = sum_k conj(K_k) kron K_k``.  It is built as
one contraction over the Kraus index (a single matrix product of cost
r * d_out^2 * d_in^2 for r Kraus operators), not as a sum of r kron products.
Depolarizing channels carry their exact closed form
``S = (1-p) I + (p/d) |vec I><vec I|`` instead, so their superoperator costs
O(d^4) to write down however many Kraus operators they have.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qops
from .errors import InvalidInputError

TRACE_TOL = 1e-9     # tolerance on sum_k K_k^dag K_k = I
UNITARY_TOL = 1e-9   # tolerance on U^dag U = I
SUPEROP_TOL = 1e-9   # channel equality: max-abs superoperator entry difference


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return rho.T.ravel()


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape(dim, dim).T


class QuantumChannel:
    """A CPTP map stored as a stack of Kraus operators.

    Immutable after construction.  The superoperator is built on first access
    and cached; the fill is idempotent, so a concurrent first access at worst
    recomputes the same array.  Constructors that know a channel's exact
    superoperator (:func:`depolarizing`) fill the cache themselves.
    """

    def __init__(self, kraus, dim_in: int | None = None, dim_out: int | None = None):
        k = np.asarray(kraus, dtype=complex)
        if k.ndim != 3 or k.shape[0] == 0:
            raise InvalidInputError(f"expected a nonempty stack of Kraus matrices, got shape {k.shape}")
        self.kraus = k
        self.dim_out, self.dim_in = k.shape[1], k.shape[2]
        if dim_in is not None and dim_in != self.dim_in:
            raise InvalidInputError(f"dim_in {dim_in} does not match Kraus shape {k.shape}")
        if dim_out is not None and dim_out != self.dim_out:
            raise InvalidInputError(f"dim_out {dim_out} does not match Kraus shape {k.shape}")
        if not np.isfinite(k).all():
            raise InvalidInputError("Kraus operators must have finite entries")
        tp = np.einsum("kji,kjl->il", k.conj(), k, optimize=True)
        dev = np.abs(tp - np.eye(self.dim_in)).max()
        if not dev <= TRACE_TOL:
            raise InvalidInputError(f"Kraus set is not trace preserving (max deviation {dev:.3e})")
        self._superop: np.ndarray | None = None

    @property
    def superoperator(self) -> np.ndarray:
        """d_out^2 x d_in^2 matrix acting on column-stacked states."""
        if self._superop is None:
            k = self.kraus
            s = np.einsum("rij,rkl->ikjl", k.conj(), k, optimize=True)
            self._superop = s.reshape(self.dim_out**2, self.dim_in**2)
        return self._superop

    def __repr__(self) -> str:
        return f"QuantumChannel(dim_in={self.dim_in}, dim_out={self.dim_out}, n_kraus={len(self.kraus)})"


@dataclass(frozen=True)
class FiniteUnitaryGroup:
    """A finite set of unitaries used for exact twirling.

    ``exact`` flags sets that are verified closed under multiplication up to
    global phase (e.g. enumerated Clifford groups).
    """

    dim: int
    elements: list = field(repr=False)
    exact: bool = False

    def __post_init__(self):
        if not self.elements:
            raise InvalidInputError("group must be nonempty")
        for u in self.elements:
            if u.shape != (self.dim, self.dim):
                raise InvalidInputError(f"element shape {u.shape} does not match dim {self.dim}")
            dev = np.abs(u.conj().T @ u - np.eye(self.dim)).max()
            if dev > UNITARY_TOL:
                raise InvalidInputError(f"group element is not unitary (max deviation {dev:.3e})")

    def __len__(self) -> int:
        return len(self.elements)

    def stack(self) -> np.ndarray:
        return np.stack(self.elements)


def apply(ch: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Kraus action sum_k K_k rho K_k^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim_in, ch.dim_in):
        raise InvalidInputError(f"state shape {rho.shape} does not match channel input dim {ch.dim_in}")
    # two matrix products, r d^3 each; one unordered three-operand einsum is r d^5
    k_rho = ch.kraus @ rho
    out = np.einsum("kil,kml->im", k_rho, ch.kraus.conj(), optimize=True)
    return qops.hermitize(out)


def batch_outputs(ch: QuantumChannel, states: np.ndarray) -> np.ndarray:
    """Channel outputs for a (B, d_in) stack of pure states, via the superoperator."""
    b, d = states.shape
    rho = states[:, :, None] * states.conj()[:, None, :]
    v = rho.transpose(0, 2, 1).reshape(b, d * d)  # column-stacked
    out = v @ ch.superoperator.T
    do = ch.dim_out
    return out.reshape(b, do, do).transpose(0, 2, 1)


def apply_superop(ch: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Same action through the superoperator; independent code path from :func:`apply`."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim_in, ch.dim_in):
        raise InvalidInputError(f"state shape {rho.shape} does not match channel input dim {ch.dim_in}")
    return qops.hermitize(unvec(ch.superoperator @ vec(rho), ch.dim_out))


def identity_channel(d: int) -> QuantumChannel:
    return QuantumChannel(np.eye(d, dtype=complex)[None, :, :])


def depolarizing(d: int, p: float) -> QuantumChannel:
    """Depolarizing channel rho -> (1-p) rho + p Tr(rho) I/d.

    Kraus set: sqrt(1-p) I together with sqrt(p/d) |i><j| for all i, j.  The
    superoperator cache is filled with the exact closed form
    (1-p) I + (p/d) |vec I><vec I|.
    """
    if d < 2:
        raise InvalidInputError(f"d must be >= 2, got {d}")
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"p must be in [0, 1], got {p}")
    ops = np.zeros((d * d + 1, d, d), dtype=complex)
    ops[0] = np.sqrt(1 - p) * np.eye(d)
    ij = np.arange(d * d)
    ops[1 + ij, ij // d, ij % d] = np.sqrt(p / d)
    ch = QuantumChannel(ops)
    s = np.zeros((d * d, d * d), dtype=complex)
    diag = np.arange(d) * (d + 1)  # positions of the ones in vec(I)
    s[diag[:, None], diag] = p / d
    s.flat[:: d * d + 1] += 1 - p
    ch._superop = s
    return ch


def replacement_channel(sigma: np.ndarray) -> QuantumChannel:
    """Constant channel rho -> sigma Tr(rho)."""
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
    return QuantumChannel(np.stack(ops))


def unitary_conjugate(u: np.ndarray) -> QuantumChannel:
    """The unitary channel rho -> U rho U^dag."""
    u = np.asarray(u, dtype=complex)
    dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if dev > UNITARY_TOL:
        raise InvalidInputError(f"matrix is not unitary (max deviation {dev:.3e})")
    return QuantumChannel(u[None, :, :])


def conjugated_channel(ch: QuantumChannel, u: np.ndarray) -> QuantumChannel:
    """Frame change rho -> U^dag N(U rho U^dag) U; Kraus operators U^dag K_k U."""
    u = np.asarray(u, dtype=complex)
    if ch.dim_in != ch.dim_out or u.shape != (ch.dim_in, ch.dim_in):
        raise InvalidInputError("conjugation needs a square channel and a matching unitary")
    dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if dev > UNITARY_TOL:
        raise InvalidInputError(f"matrix is not unitary (max deviation {dev:.3e})")
    return QuantumChannel(np.einsum("ij,kjl,lm->kim", u.conj().T, ch.kraus, u))


def pauli_measurement_channel(p: np.ndarray) -> QuantumChannel:
    """Two-outcome measurement channel of an involution P (P^2 = I).

    Maps rho to ``Tr[(I+P)/2 rho] |0><0| + Tr[(I-P)/2 rho] |1><1|``; the
    output is a qubit-diagonal state carrying the Born-rule weights.
    """
    p = qops.check_hermitian(p, tol=1e-9)
    d = p.shape[0]
    if np.abs(p @ p - np.eye(d)).max() > 1e-9:
        raise InvalidInputError("operator is not an involution (P^2 != I)")
    w, v = np.linalg.eigh(p)
    ops = []
    for lam, col in zip(w, v.T):
        out = np.zeros(2, dtype=complex)
        out[0 if lam > 0 else 1] = 1.0
        ops.append(np.outer(out, col.conj()))
    return QuantumChannel(np.stack(ops))


def compose(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """Composition a after b: rho -> a(b(rho))."""
    if b.dim_out != a.dim_in:
        raise InvalidInputError(f"cannot compose: inner dims {b.dim_out} vs {a.dim_in}")
    ops = np.einsum("aij,bjl->abil", a.kraus, b.kraus)
    return QuantumChannel(ops.reshape(-1, a.dim_out, b.dim_in))


def twirl(ch: QuantumChannel, group: FiniteUnitaryGroup) -> QuantumChannel:
    """Uniform group average of the conjugated channels U^dag N(U . U^dag) U."""
    if ch.dim_in != ch.dim_out or ch.dim_in != group.dim:
        raise InvalidInputError("twirl needs a square channel matching the group dimension")
    us = group.stack()
    scale = 1.0 / np.sqrt(len(group))
    # Kraus set {U_g^dag K_k U_g / sqrt(|G|)}; rank is not minimized.
    ops = np.einsum("gji,kjl,glm->gkim", us.conj(), ch.kraus, us) * scale
    return QuantumChannel(ops.reshape(-1, ch.dim_out, ch.dim_in))


def channels_close(a: QuantumChannel, b: QuantumChannel, tol: float = SUPEROP_TOL) -> bool:
    """Channel equality: max-abs difference of superoperator entries below tol."""
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        return False
    return bool(np.abs(a.superoperator - b.superoperator).max() <= tol)


def fit_depolarizing(ch: QuantumChannel) -> tuple[float, float]:
    """Least-squares fit of a depolarizing parameter to a square channel.

    Returns ``(p, residual)`` where residual is the max-abs superoperator
    deviation from the fitted depolarizing channel.
    """
    if ch.dim_in != ch.dim_out:
        raise InvalidInputError("fit requires a square channel")
    d = ch.dim_in
    s = ch.superoperator
    ident = np.eye(d * d, dtype=complex)
    v = vec(np.eye(d, dtype=complex))
    basis = np.outer(v, v) / d - ident  # dS/dp
    num = np.vdot(basis, s - ident).real
    den = np.vdot(basis, basis).real
    p = num / den
    residual = float(np.abs(s - (ident + p * basis)).max())
    return float(p), residual


def random_channel(d: int, kraus_rank: int, rng: np.random.Generator) -> QuantumChannel:
    """Random CPTP channel: Ginibre Kraus candidates normalized by (sum G^dag G)^(-1/2)."""
    if kraus_rank < 1:
        raise InvalidInputError(f"kraus_rank must be >= 1, got {kraus_rank}")
    g = rng.standard_normal((kraus_rank, d, d)) + 1j * rng.standard_normal((kraus_rank, d, d))
    m = np.einsum("kji,kjl->il", g.conj(), g)
    w, v = np.linalg.eigh(qops.hermitize(m))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return QuantumChannel(np.einsum("kij,jl->kil", g, inv_sqrt))
