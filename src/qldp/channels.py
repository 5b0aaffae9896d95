"""CPTP channels as Kraus stacks or in trace-affine form, with lazily cached superoperators.

A channel has one of two representations.  ``QuantumChannel(kraus)`` stores a
validated Kraus stack.  :func:`depolarizing` and :func:`replacement_channel`
store the trace-affine form N(X) = a X + Tr(X) B instead: (1-p, p I/d) and
(0, sigma).  :func:`apply`, :func:`batch_outputs` and :func:`fit_depolarizing`
read (a, B) directly, in O(d^2) memory, so the search kernels, which go
through :func:`batch_outputs` for such a channel, never need its Kraus stack
(d^2 + 1 or d^2 operators).  It is built only when something reads
``.kraus``; :func:`compose`, :func:`twirl` and :func:`conjugated_channel` do.

Superoperators use the column-stacking convention
``vec(A X B) = (B^T kron A) vec(X)``, so a channel with Kraus operators
``K_k`` has superoperator ``S = sum_k conj(K_k) kron K_k``.  It is built
straight into its (d_out^2, d_in^2) result, one output row block at a time,
each block one matrix product over the Kraus index (cost r * d_out^2 * d_in^2
for r Kraus operators in all, O(d^3) scratch).  A trace-affine channel has
the closed form ``S = a I + vec(B) vec(I)^T``.

:func:`batch_outputs` and :func:`output_spectrum` are the kernels behind the
search objectives.  For a Kraus channel both start from one factor: for a
stack of frames V and weights w, N(V diag(w) V^dag) = A diag(u) A^dag with
A = K V, the r Kraus operators stacked against the c columns of V, so k = r c
columns and u = w tiled r times.  :func:`batch_outputs` forms that
d_out x d_out matrix at Kraus rank when the Kraus stack is small, so a
low-rank channel never needs its superoperator there.  The objectives take
their eigenvalues at Kraus rank: when k < d_out, :func:`output_spectrum`
reads them off the k x k core of a thin QR of A instead of solving the
d_out x d_out problem.  :func:`pure_fidelities` reads the fidelity objective
<psi|N(psi psi^dag)|psi> off the Kraus factor, forming no output.
:func:`is_depolarizing` tells the searches when a closed form makes them
unnecessary; it screens a Kraus channel at Kraus rank before it builds the
superoperator, and reads a trace-affine channel's fit off (a, B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qops
from .errors import InvalidInputError

TRACE_TOL = 1e-9     # tolerance on sum_k K_k^dag K_k = I
UNITARY_TOL = 1e-9   # tolerance on U^dag U = I
SUPEROP_TOL = 1e-9   # channel equality: max-abs superoperator entry difference


class QuantumChannel:
    """A CPTP map, stored as a stack of Kraus operators or in trace-affine form.

    Immutable after construction.  The superoperator is built on first access
    and cached, and so is the Kraus stack of a trace-affine channel; each fill
    is idempotent, so a concurrent first access at worst recomputes the same
    array.
    """

    def __init__(self, kraus):
        k = np.asarray(kraus, dtype=complex)
        if k.ndim != 3 or k.shape[0] == 0:
            raise InvalidInputError(f"expected a nonempty stack of Kraus matrices, got shape {k.shape}")
        self._kraus = k
        self.dim_out, self.dim_in = k.shape[1], k.shape[2]
        if not np.isfinite(k).all():
            raise InvalidInputError("Kraus operators must have finite entries")
        tp = np.einsum("kji,kjl->il", k.conj(), k, optimize=True)
        dev = np.abs(tp - np.eye(self.dim_in)).max()
        if not dev <= TRACE_TOL:
            raise InvalidInputError(f"Kraus set is not trace preserving (max deviation {dev:.3e})")
        self._affine = None
        self._superop: np.ndarray | None = None

    @classmethod
    def _trace_affine(cls, a: float, b: np.ndarray, build_kraus) -> QuantumChannel:
        """The channel X -> a X + Tr(X) B; ``build_kraus()`` returns its Kraus stack on demand."""
        ch = cls.__new__(cls)
        ch.dim_out = ch.dim_in = b.shape[0]
        ch._kraus, ch._build_kraus = None, build_kraus
        ch._affine = (a, b)
        ch._superop = None
        return ch

    @property
    def kraus(self) -> np.ndarray:
        """(r, d_out, d_in) Kraus stack; a trace-affine channel builds it on first access."""
        if self._kraus is None:
            self._kraus = self._build_kraus()
        return self._kraus

    @property
    def superoperator(self) -> np.ndarray:
        """d_out^2 x d_in^2 matrix acting on column-stacked states."""
        if self._superop is None:
            if self._affine is None:
                self._superop = _kraus_superoperator(self._kraus)
            else:
                self._superop = _affine_superoperator(*self._affine)
        return self._superop

    def __repr__(self) -> str:
        form = "kraus" if self._affine is None else "trace-affine"
        return f"QuantumChannel(dim_in={self.dim_in}, dim_out={self.dim_out}, form={form})"


def _kraus_superoperator(k: np.ndarray) -> np.ndarray:
    """sum_r conj(K_r) kron K_r, written one output row block at a time.

    Row block i holds S[i d_out + m, j d_in + l] = sum_r conj(K_r[i, j]) K_r[m, l]:
    one (d_in, r) x (r, d_out d_in) product, transposed into place.
    """
    r, do, di = k.shape
    flat = k.reshape(r, do * di)
    s = np.empty((do * do, di * di), dtype=complex)
    for i in range(do):
        blk = k[:, i, :].conj().T @ flat  # rows j, columns m d_in + l
        s[i * do:(i + 1) * do].reshape(do, di, di)[...] = blk.reshape(di, do, di).transpose(1, 0, 2)
    return s


def _affine_superoperator(a: float, b: np.ndarray) -> np.ndarray:
    """a I + vec(B) vec(I)^T, writing only the rows where vec(B) is nonzero."""
    d = b.shape[0]
    s = np.zeros((d * d, d * d), dtype=complex)
    diag = np.arange(d) * (d + 1)  # positions of the ones in vec(I)
    vb = b.T.ravel()  # column-stacked
    rows = np.flatnonzero(vb)
    s[rows[:, None], diag] = vb[rows, None]
    s.flat[:: d * d + 1] += a
    return s


def _check_unitary(u) -> np.ndarray:
    """Validate a finite square unitary (U^dag U = I within UNITARY_TOL) and return it."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise InvalidInputError("matrix has non-finite (NaN or inf) entries")
    dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if not dev <= UNITARY_TOL:
        raise InvalidInputError(f"matrix is not unitary (max deviation {dev:.3e})")
    return u


@dataclass(frozen=True)
class FiniteUnitaryGroup:
    """A finite set of unitaries used for exact twirling."""

    dim: int
    elements: list = field(repr=False)

    def __post_init__(self):
        if not self.elements:
            raise InvalidInputError("group must be nonempty")
        for u in self.elements:
            if u.shape != (self.dim, self.dim):
                raise InvalidInputError(f"element shape {u.shape} does not match dim {self.dim}")
            _check_unitary(u)

    def __len__(self) -> int:
        return len(self.elements)

    def stack(self) -> np.ndarray:
        return np.stack(self.elements)


def apply(ch: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """The channel's action: a rho + Tr(rho) B, or the Kraus sum sum_k K_k rho K_k^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim_in, ch.dim_in):
        raise InvalidInputError(f"state shape {rho.shape} does not match channel input dim {ch.dim_in}")
    if ch._affine is not None:
        a, b = ch._affine
        return qops.hermitize(a * rho + np.trace(rho) * b)
    # two matrix products, r d^3 each; one unordered three-operand einsum is r d^5
    k_rho = ch.kraus @ rho
    out = np.einsum("kil,kml->im", k_rho, ch.kraus.conj(), optimize=True)
    return qops.hermitize(out)


def _kraus_factor(ch: QuantumChannel, frames: np.ndarray) -> np.ndarray:
    """The (B, d_out, r c) factor A = K V with N(V diag(w) V^dag) = A diag(tile(w, r)) A^dag."""
    b, d, c = frames.shape
    r, do = len(ch.kraus), ch.dim_out
    # rows i r + k hold row i of K_k, so the product reshapes to columns k c + j
    stacked = ch.kraus.transpose(1, 0, 2).reshape(do * r, d)
    return (stacked @ frames).reshape(b, do, r * c)


def batch_outputs(ch: QuantumChannel, frames: np.ndarray, weights) -> np.ndarray:
    """N(V diag(w) V^dag) for a (B, d_in, c) stack of frames V and c real weights w.

    A trace-affine channel gives a X + Tr(X) B for X = V diag(w) V^dag.  A
    Kraus channel goes through its r Kraus operators when 8 r c <= d_in d_out,
    at cost B r c d_in d_out (plus B r c d_out^2 for the product); otherwise
    through the superoperator, applied once to X.
    """
    b, d, c = frames.shape
    w = np.asarray(weights, dtype=float)
    do = ch.dim_out
    if ch._affine is None and 8 * len(ch.kraus) * c <= d * do:
        a = _kraus_factor(ch, frames)
        return (a * np.tile(w, len(ch.kraus))) @ a.conj().transpose(0, 2, 1)
    x = (frames * w) @ frames.conj().transpose(0, 2, 1)
    if ch._affine is not None:
        a, bmat = ch._affine
        return a * x + np.trace(x, axis1=1, axis2=2).real[:, None, None] * bmat
    v = x.transpose(0, 2, 1).reshape(b, d * d)  # column-stacked
    out = v @ ch.superoperator.T
    return out.reshape(b, do, do).transpose(0, 2, 1)


def output_spectrum(ch: QuantumChannel, frames: np.ndarray, weights, input_weights=None) -> np.ndarray:
    """Eigenvalues of N(V diag(w) V^dag) + V diag(s) V^dag, one ascending row per frame.

    ``frames`` is a (B, d_in, c) stack V, ``weights`` the c real weights w and
    ``input_weights`` the c real weights s of the optional input term (square
    channels only).  For a Kraus channel the matrix is A diag(u) A^dag with
    A = [K V, V] and u = [tile(w, r), s], so it has rank at most k = r c (plus
    c with s).  When k < d_out, a thin QR A = QR gives its k eigenvalues that
    may be nonzero as the spectrum of the k x k core R diag(u) R^dag, at cost
    B d_out k^2; the d_out - k zeros are left out.  Otherwise, and for a
    trace-affine channel, all d_out come from eigvalsh of the
    :func:`batch_outputs` matrix.
    """
    w = np.asarray(weights, dtype=float)
    s = None if input_weights is None else np.asarray(input_weights, dtype=float)
    c = frames.shape[2]
    if ch._affine is None and len(ch.kraus) * c + (0 if s is None else c) < ch.dim_out:
        a, u = _kraus_factor(ch, frames), np.tile(w, len(ch.kraus))
        if s is not None:
            a, u = np.concatenate([a, frames], axis=2), np.concatenate([u, s])
        core = np.linalg.qr(a, mode="r")
        return np.linalg.eigvalsh((core * u) @ core.conj().transpose(0, 2, 1))
    out = batch_outputs(ch, frames, w)
    if s is not None:
        out = out + (frames * s) @ frames.conj().transpose(0, 2, 1)
    return np.linalg.eigvalsh(out)


def pure_fidelities(ch: QuantumChannel, frames: np.ndarray) -> np.ndarray:
    """<psi| N(psi psi^dag) |psi> for a (B, d, 1) stack of pure states psi, square channels.

    A Kraus channel with r <= d^2 gives sum_k |<psi|K_k psi>|^2 off the
    (B, d, r) Kraus factor at cost B r d^2, with no output matrix.  A
    trace-affine channel, and a Kraus channel with more operators than its
    superoperator has rows, take the output from :func:`batch_outputs`.
    """
    psi = frames[:, :, 0]
    if ch._affine is None and len(ch.kraus) <= ch.dim_in * ch.dim_out:
        overlaps = np.einsum("bi,bik->bk", psi.conj(), _kraus_factor(ch, frames))
        return (overlaps.real**2 + overlaps.imag**2).sum(axis=1)
    out = batch_outputs(ch, frames, np.ones(1))
    return np.einsum("bi,bij,bj->b", psi.conj(), out, psi).real


def identity_channel(d: int) -> QuantumChannel:
    return QuantumChannel(np.eye(d, dtype=complex)[None, :, :])


def depolarizing(d: int, p: float) -> QuantumChannel:
    """Depolarizing channel rho -> (1-p) rho + p Tr(rho) I/d, in trace-affine form (1-p, p I/d).

    Kraus set, built on first access to ``.kraus``: sqrt(1-p) I together with
    sqrt(p/d) |i><j| for all i, j.
    """
    if d < 2:
        raise InvalidInputError(f"d must be >= 2, got {d}")
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"p must be in [0, 1], got {p}")

    def kraus():
        ops = np.zeros((d * d + 1, d, d), dtype=complex)
        ops[0] = np.sqrt(1 - p) * np.eye(d)
        ij = np.arange(d * d)
        ops[1 + ij, ij // d, ij % d] = np.sqrt(p / d)
        return ops

    return QuantumChannel._trace_affine(1 - p, p / d * np.eye(d, dtype=complex), kraus)


def replacement_channel(sigma: np.ndarray) -> QuantumChannel:
    """Constant channel rho -> sigma Tr(rho), in trace-affine form (0, sigma).

    Kraus set, built on first access to ``.kraus``: sqrt(lambda_i) |s_i><j| for
    each eigenpair (lambda_i, s_i) of sigma (negative rounding clipped to 0) and
    each basis vector |j>, eigenpair-major.
    """
    sigma = qops.check_density(sigma)
    d = sigma.shape[0]

    def kraus():
        w, v = np.linalg.eigh(sigma)
        ops = np.zeros((d, d, d, d), dtype=complex)  # [eigenpair, j, row, column]
        j = np.arange(d)
        ops[:, j, :, j] = (np.sqrt(np.where(w < 0, 0.0, w)) * v).T
        return ops.reshape(d * d, d, d)

    return QuantumChannel._trace_affine(0.0, sigma, kraus)


def unitary_conjugate(u: np.ndarray) -> QuantumChannel:
    """The unitary channel rho -> U rho U^dag."""
    return QuantumChannel(_check_unitary(u)[None, :, :])


def conjugated_channel(ch: QuantumChannel, u: np.ndarray) -> QuantumChannel:
    """Frame change rho -> U^dag N(U rho U^dag) U; Kraus operators U^dag K_k U."""
    u = _check_unitary(u)
    if ch.dim_in != ch.dim_out or u.shape != (ch.dim_in, ch.dim_in):
        raise InvalidInputError("conjugation needs a square channel and a matching unitary")
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


def fit_depolarizing(ch: QuantumChannel) -> tuple[float, float]:
    """Least-squares fit of a depolarizing parameter to a square channel.

    Returns ``(p, residual)`` where residual is the max-abs superoperator
    deviation from the fitted depolarizing channel.  With v = vec(I),
    p = [(v^dag S v - d)/d - (Tr S - d^2)] / (d^2 - 1) reads O(d^2) entries
    of S, and the residual is taken d rows at a time.  A trace-affine channel
    a X + Tr(X) B is fitted exactly from its form: S differs from the fit by
    vec(B - (Tr B/d) I) vec(I)^T, so p = 1 - a and the residual is
    max |B - (Tr B/d) I|, in O(d^2) with no superoperator.
    """
    if ch.dim_in != ch.dim_out:
        raise InvalidInputError("fit requires a square channel")
    d = ch.dim_in
    if d < 2:
        raise InvalidInputError(f"fit requires d >= 2, got {d}")
    if ch._affine is not None:
        a, b = ch._affine
        dev = b.copy()
        dev.flat[:: d + 1] -= np.trace(b) / d
        return float(1 - a), float(np.abs(dev).max())
    s = ch.superoperator
    diag = np.arange(d) * (d + 1)  # positions of the ones in vec(I)
    vsv = s[diag[:, None], diag].sum().real
    p = float(((vsv - d) / d - (np.trace(s).real - d * d)) / (d * d - 1))
    # row block a holds rows a d .. a d + d - 1; its row a is row diag[a]
    rows = np.arange(d)
    residual = 0.0
    for a in range(d):
        blk = s[a * d:(a + 1) * d].copy()
        blk[rows, a * d + rows] -= 1 - p
        blk[a, diag] -= p / d
        residual = max(residual, float(np.abs(blk).max()))
    return p, residual


def _may_be_depolarizing(ch: QuantumChannel) -> bool:
    """Necessary condition for a fit residual <= SUPEROP_TOL, read from N(|0><0|) at cost r d^2.

    N(|0><0|) is column 0 of the superoperator, and a depolarizing channel maps
    it to (1-p)|0><0| + p I/d.  Within SUPEROP_TOL of a fit, every off-diagonal
    entry is within SUPEROP_TOL of 0 and diagonal entries 1..d-1 are within
    SUPEROP_TOL of p/d, so within 2 SUPEROP_TOL of each other.  The screen
    allows twice both bounds, which covers rounding.
    """
    col = ch.kraus[:, :, 0]
    out = np.einsum("ki,kj->ij", col, col.conj())
    diag = out.diagonal().real
    off = np.abs(out - np.diag(out.diagonal())).max()
    return bool(off <= 2 * SUPEROP_TOL and np.ptp(diag[1:]) <= 4 * SUPEROP_TOL)


def is_depolarizing(ch: QuantumChannel) -> bool:
    """True for a square channel, d >= 2, within SUPEROP_TOL of its depolarizing fit.

    A Kraus channel that fails the r d^2 screen :func:`_may_be_depolarizing`
    is ruled out before the fit reads (or builds) its superoperator; a
    trace-affine channel is answered from its form, with no screen.
    """
    if not ch.dim_in == ch.dim_out >= 2:
        return False
    if ch._affine is None and not _may_be_depolarizing(ch):
        return False
    return fit_depolarizing(ch)[1] <= SUPEROP_TOL


def random_channel(d: int, kraus_rank: int, rng: np.random.Generator) -> QuantumChannel:
    """Random CPTP channel: Ginibre Kraus candidates normalized by (sum G^dag G)^(-1/2)."""
    if kraus_rank < 1:
        raise InvalidInputError(f"kraus_rank must be >= 1, got {kraus_rank}")
    g = rng.standard_normal((kraus_rank, d, d)) + 1j * rng.standard_normal((kraus_rank, d, d))
    m = np.einsum("kji,kjl->il", g.conj(), g)
    w, v = np.linalg.eigh(qops.hermitize(m))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return QuantumChannel(np.einsum("kij,jl->kil", g, inv_sqrt))
