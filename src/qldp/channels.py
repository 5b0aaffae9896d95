"""CPTP channels as Kraus stacks, with lazily cached superoperators.

``QuantumChannel(kraus)`` stores a validated Kraus stack.  The one closed form
is the depolarizing channel's: :func:`depolarizing` stores only its parameter
p, and :func:`apply`, ``.superoperator``, :func:`fit_depolarizing`,
:func:`is_depolarizing` and ``repr`` read p directly, in O(d^2) memory (the
superoperator in O(d^4)).  Its d^2 + 1 Kraus operators are built only when
something reads ``.kraus``; :func:`compose`, :func:`twirl` and the search
kernels do.  The searches never reach those kernels with a depolarizing
channel: :func:`is_depolarizing` sends it to one evaluation through
:func:`apply`.

Superoperators use the column-stacking convention
``vec(A X B) = (B^T kron A) vec(X)``, so a channel with Kraus operators
``K_k`` has superoperator ``S = sum_k conj(K_k) kron K_k``.  It is built
straight into its (d_out^2, d_in^2) result by one batched matrix product over
the Kraus index (cost r * d_out^2 * d_in^2 for r Kraus operators, O(r d^2)
scratch).  The depolarizing channel has
the closed form ``S = (1-p) I + (p/d) vec(I) vec(I)^T``.  No function in
this package reads ``.superoperator``; it is there for callers.

The search kernels read only ``.kraus``, never the superoperator, and all
start from one factor: for a stack of frames V and weights w,
N(V diag(w) V^dag) = A diag(u) A^dag with A = K V, the r Kraus operators
stacked against the c columns of V, so k = r c columns and u = w tiled r
times.  One core, :func:`_positive_part`, finds the projector P onto the
positive part of A diag(u) A^dag with one eigenproblem per frame: the k x k
core of a thin QR of A when k < d_out, else the d_out x d_out product itself.
Certification's seesaw reads :func:`hockey_stick_step`, with A = K [psi, phi]:
the value E_gamma at a pair and the next pair, the extreme eigenvectors of
N^dag(P).  :func:`orthogonal_outputs` answers d_in > r^2 exactly, with a pair
whose outputs are orthogonal, from one thin QR.  The utility searches read
each pure state's factor: :func:`fidelity_residuals` gives the overlaps
a_k = <psi|K_k psi> with K_k psi and K_k^dag psi, the residuals of F and
their Jacobian, forming no output, and :func:`trace_distance_gradient` gives
a value and its Wirtinger gradient from P with A = [K psi, psi], for
N(psi psi^dag) - psi psi^dag, mapped back through the adjoint in one product
with the stacked conj(K).  :func:`fit_depolarizing` and
:func:`is_depolarizing` read the Kraus stack only, one matrix unit at a time.
"""

from __future__ import annotations

import itertools
import numbers

import numpy as np

from . import qops
from .errors import InvalidInputError

TRACE_TOL = 1e-9     # tolerance on sum_k K_k^dag K_k = I
UNITARY_TOL = 1e-9   # tolerance on U^dag U = I
SUPEROP_TOL = 1e-9   # channel equality: max-abs superoperator entry difference
NULL_TOL = 1e-13     # an eigenvalue of an output difference up to this is rounding noise in its null space


class QuantumChannel:
    """A CPTP map, stored as a stack of Kraus operators or as a depolarizing parameter.

    Immutable after construction.  The superoperator is built on first access
    and cached, and so is the Kraus stack of a depolarizing channel; each fill
    is idempotent, so a concurrent first access at worst recomputes the same
    array.
    """

    def __init__(self, kraus):
        k = np.asarray(kraus, dtype=complex)
        if k.ndim != 3 or 0 in k.shape:
            raise InvalidInputError(f"expected a nonempty stack of nonempty Kraus matrices, got shape {k.shape}")
        self._kraus = k
        self.dim_out, self.dim_in = k.shape[1], k.shape[2]
        if not np.isfinite(k).all():
            raise InvalidInputError("Kraus operators must have finite entries")
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: an inf or NaN deviation fails below
            dev = np.abs(np.einsum("kji,kjl->il", k.conj(), k, optimize=True) - np.eye(self.dim_in)).max()
        if not dev <= TRACE_TOL:
            raise InvalidInputError(f"Kraus set is not trace preserving (max deviation {dev:.3e})")
        self._p: float | None = None  # the depolarizing parameter, for depolarizing() only
        self._superop: np.ndarray | None = None

    @classmethod
    def _depolarizing(cls, d: int, p: float, build_kraus) -> QuantumChannel:
        """The channel X -> (1-p) X + p Tr(X) I/d; ``build_kraus()`` returns its Kraus stack on demand."""
        ch = cls.__new__(cls)
        ch.dim_out = ch.dim_in = d
        ch._kraus, ch._build_kraus = None, build_kraus
        ch._p, ch._superop = p, None
        return ch

    @property
    def kraus(self) -> np.ndarray:
        """(r, d_out, d_in) Kraus stack; a depolarizing channel builds it on first access."""
        if self._kraus is None:
            self._kraus = self._build_kraus()
        return self._kraus

    @property
    def superoperator(self) -> np.ndarray:
        """d_out^2 x d_in^2 matrix acting on column-stacked states."""
        if self._superop is None and self._p is None:
            self._superop = _kraus_superoperator(self._kraus)
        elif self._superop is None:
            # (1-p) I + (p/d) vec(I) vec(I)^T, writing only its nonzero entries
            d = self.dim_in
            s = np.zeros((d * d, d * d), dtype=complex)
            diag = np.arange(d) * (d + 1)  # positions of the ones in vec(I)
            s[diag[:, None], diag] = self._p / d
            s.flat[:: d * d + 1] += 1 - self._p
            self._superop = s
        return self._superop

    def __repr__(self) -> str:
        form = "kraus" if self._p is None else "depolarizing"
        return f"QuantumChannel(dim_in={self.dim_in}, dim_out={self.dim_out}, form={form})"


def _kraus_superoperator(k: np.ndarray) -> np.ndarray:
    """sum_r conj(K_r) kron K_r, as one batched product written straight into place.

    S[i d_out + m, j d_in + l] = sum_r conj(K_r[i, j]) K_r[m, l]: for each pair
    (i, m) of output rows, the (d_in, r) x (r, d_in) product of conj(K)[:, i, :]^T
    and K[:, m, :], broadcast over (i, m) into the (d_out, d_out, d_in, d_in) view of S.
    """
    r, do, di = k.shape
    s = np.empty((do * do, di * di), dtype=complex)
    np.matmul(k.conj().transpose(1, 2, 0)[:, None], k.transpose(1, 0, 2)[None], out=s.reshape(do, do, di, di))
    return s


def _check_unitary(u) -> np.ndarray:
    """Validate a finite square unitary, or a stack of them (U^dag U = I within UNITARY_TOL), and return it."""
    try:
        u = np.asarray(u, dtype=complex)
    except ValueError:  # a list of matrices of different shapes
        raise InvalidInputError("element shapes differ; a stack needs matrices of one shape") from None
    if u.ndim not in (2, 3) or 0 in u.shape or u.shape[-2] != u.shape[-1]:
        raise InvalidInputError(f"expected a square matrix or a stack of them, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise InvalidInputError("matrix has non-finite (NaN or inf) entries")
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: an inf or NaN deviation fails below
        dev = np.abs(u.conj().swapaxes(-2, -1) @ u - np.eye(u.shape[-1])).max()
    if not dev <= UNITARY_TOL:
        raise InvalidInputError(f"matrix is not unitary (max deviation {dev:.3e})")
    return u


def apply(ch: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """The channel's action: (1-p) rho + p Tr(rho) I/d, or the Kraus sum sum_k K_k rho K_k^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim_in, ch.dim_in):
        raise InvalidInputError(f"state shape {rho.shape} does not match channel input dim {ch.dim_in}")
    if ch._p is not None:
        return qops.hermitize((1 - ch._p) * rho + np.trace(rho) * (ch._p / ch.dim_in * np.eye(ch.dim_in)))
    # two matrix products, r d^3 each; one unordered three-operand einsum is r d^5
    k_rho = ch.kraus @ rho
    out = np.einsum("kil,kml->im", k_rho, ch.kraus.conj(), optimize=True)
    return qops.hermitize(out)


def _kraus_factor(ch: QuantumChannel, frames: np.ndarray) -> np.ndarray:
    """The (B, d_out, r c) factor A = K V with N(V diag(w) V^dag) = A diag(tile(w, r)) A^dag."""
    b, d, c = frames.shape
    r, do = len(ch.kraus), ch.dim_out
    # rows i r + k hold row i of K_k: one product for all B c frame columns, reshaped to columns k c + j
    stacked = ch.kraus.transpose(1, 0, 2).reshape(do * r, d)
    out = stacked @ frames.transpose(1, 0, 2).reshape(d, b * c)
    return out.reshape(do * r, b, c).transpose(1, 0, 2).reshape(b, do, r * c)


def _positive_part(a: np.ndarray, u: np.ndarray, d_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Tr(P X) and U, P = U U^dag projecting onto the positive part of X = A diag(u) A^dag, per frame.

    For a (B, d_out, k) stack A and k weights u: when k < d_out the thin QR
    A = QR puts X's nonzero eigenvalues in the k x k core R diag(u) R^dag =
    W L W^dag, and U = Q W_+; otherwise eigh runs on X itself.  Eigenvalues up
    to ``NULL_TOL`` count as zeros, the rounding noise of X's null space, and
    U's columns outside P are zeroed.
    """
    q = None
    if a.shape[2] < d_out:
        q, a = np.linalg.qr(a)
    w, v = np.linalg.eigh((a * u) @ a.conj().transpose(0, 2, 1))
    positive = w > NULL_TOL
    v = v * positive[:, None, :]
    return np.where(positive, w, 0.0).sum(axis=1), v if q is None else q @ v


def hockey_stick_step(ch: QuantumChannel, pairs: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """E_gamma(N(psi psi^dag) || N(phi phi^dag)) at each pair, and the seesaw's next pair.

    ``pairs`` is a (B, d_in, 2) stack of orthonormal frames V = [psi, phi].
    X = N(psi psi^dag) - gamma N(phi phi^dag) is A diag(u) A^dag with A = K V
    and u = tile((1, -gamma), r), so k = 2r columns, and the value is Tr(P X),
    the sum of X's positive eigenvalues, with P = U U^dag the projector onto
    their eigenvectors (:func:`_positive_part`).  For fixed P the value is
    <psi|N^dag(P)|psi> - gamma <phi|N^dag(P)|phi>, largest over orthonormal
    pairs at the top and bottom eigenvectors of N^dag(P) = G^dag G, G the
    stacked U^dag K_k: those are the next pair, so E_gamma there is at least
    the value here.  Returns the (B,) values and the (B, d_in, 2) next pairs;
    an empty P (value 0) gives an arbitrary one.
    """
    values, v = _positive_part(_kraus_factor(ch, pairs), np.tile([1.0, -gamma], len(ch.kraus)), ch.dim_out)
    r, do, di = ch.kraus.shape
    g = (v.conj().transpose(0, 2, 1) @ ch.kraus.transpose(1, 0, 2).reshape(do, r * di)).reshape(len(v), -1, di)
    _, e = np.linalg.eigh(g.conj().transpose(0, 2, 1) @ g)
    return values, e[:, :, [-1, 0]]


def orthogonal_outputs(ch: QuantumChannel) -> np.ndarray | None:
    """A (d_in, 2) orthonormal pair [psi, phi] with N(psi psi^dag) N(phi phi^dag) = 0, or None.

    Tr[N(psi psi^dag) N(phi phi^dag)] = sum_ij |<phi|K_j^dag K_i|psi>|^2, so
    any unit phi orthogonal to the r^2 vectors K_j^dag K_i psi has an output
    orthogonal to psi's, and E_gamma = 1 on the pair for every gamma.  psi = e_0
    lies in their span (it is sum_i K_i^dag K_i psi), so phi is orthogonal to
    psi too.  Such a phi exists when d_in > r^2: a thin QR of the d_in x r^2
    matrix of those vectors gives an orthonormal Q spanning them, and the
    basis vector e_j with the shortest row of Q keeps a part of squared norm
    at least 1 - r^2/d_in outside it.  Otherwise returns None.  Cost r^2 d_out
    d_in; no d_in x d_in array is formed.
    """
    k = ch.kraus
    r, _, d = k.shape
    if d <= r * r:
        return None
    # rows [j, i] of conj(conj(K_i e_0)^T K_j) are K_j^dag K_i e_0
    span = (k[:, :, 0].conj() @ k).conj().reshape(r * r, d).T
    q = np.linalg.qr(span)[0]
    phi = np.zeros(d, dtype=complex)
    phi[np.argmin((q.real**2 + q.imag**2).sum(axis=1))] = 1.0
    for _ in range(2):  # Gram-Schmidt twice keeps phi orthogonal to Q to working precision
        phi -= q @ (q.conj().T @ phi)
    pair = np.zeros((d, 2), dtype=complex)
    pair[0, 0] = 1.0
    pair[:, 1] = phi / np.linalg.norm(phi)
    return pair


def _adjoint_sum(ch: QuantumChannel, w: np.ndarray) -> np.ndarray:
    """sum_k K_k^dag w_k for a (B, r, d_out) stack of vectors w_k: one product with the stacked conj(K)."""
    r, do, di = ch.kraus.shape
    return w.reshape(len(w), r * do) @ ch.kraus.conj().reshape(r * do, di)


def fidelity_residuals(ch: QuantumChannel, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The residuals a_k = <psi|K_k psi> of F = sum_k |a_k|^2 and their Jacobian factors, square channels.

    ``psi`` is a (B, d) stack of unit vectors.  Returns the (B, r) overlaps
    a_k and the (B, d, r) stacks u_k = K_k psi (the Kraus factor) and
    w_k = K_k^dag psi, so that a_k(psi + delta) = a_k + <w_k|delta> +
    <delta|u_k> to first order and the Wirtinger gradient dF/dconj(psi) is
    sum_k (conj(a_k) u_k + a_k w_k).  Cost B r d^2 with no output matrix.
    """
    r, do, di = ch.kraus.shape
    u = _kraus_factor(ch, psi[:, :, None])
    # conj(w_k) = K_k^T conj(psi): one product with the Kraus operators stacked side by side
    w = (psi.conj() @ ch.kraus.transpose(1, 0, 2).reshape(do, r * di)).reshape(len(psi), r, di)
    return np.einsum("bi,bik->bk", psi.conj(), u), u, w.conj().transpose(0, 2, 1)


def trace_distance_gradient(ch: QuantumChannel, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D = ||N(psi psi^dag) - psi psi^dag||_1 / 2 and its Wirtinger gradient dD/dconj(psi), square channels.

    ``psi`` is a (B, d) stack of unit vectors.  X = N(psi psi^dag) - psi psi^dag
    is A diag(u) A^dag with A = [K psi, psi] and u = (1, ..., 1, -1), k = r + 1
    columns.  X is traceless, so D = Tr(P X), the sum of its positive
    eigenvalues, with P = U U^dag the projector onto their eigenvectors
    (:func:`_positive_part`), and the gradient is
    N^dag(P) psi - P psi = sum_k K_k^dag (P A)_k - (P A)_last.  No d x d
    eigen-solve happens at Kraus rank, and no superoperator is built.
    """
    a = np.concatenate([_kraus_factor(ch, psi[:, :, None]), psi[:, :, None]], axis=2)
    values, v = _positive_part(a, np.append(np.ones(a.shape[2] - 1), -1.0), ch.dim_out)
    pa = v @ (v.conj().transpose(0, 2, 1) @ a)
    return values, _adjoint_sum(ch, pa[:, :, :-1].transpose(0, 2, 1)) - pa[:, :, -1]


def identity_channel(d: int) -> QuantumChannel:
    return QuantumChannel(np.eye(d, dtype=complex)[None, :, :])


def depolarizing(d: int, p: float) -> QuantumChannel:
    """Depolarizing channel rho -> (1-p) rho + p Tr(rho) I/d, stored as p.

    Kraus set, built on first access to ``.kraus``: sqrt(1-p) I together with
    sqrt(p/d) |i><j| for all i, j.  The searches never build it: certification
    and utility evaluate a depolarizing channel once, through :func:`apply`.
    """
    if not isinstance(d, numbers.Integral) or d < 2:
        raise InvalidInputError(f"d must be an integer >= 2, got {d!r}")
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"p must be in [0, 1], got {p}")
    d = int(d)

    def kraus():
        ops = np.zeros((d * d + 1, d, d), dtype=complex)
        ops[0] = np.sqrt(1 - p) * np.eye(d)
        ij = np.arange(d * d)
        ops[1 + ij, ij // d, ij % d] = np.sqrt(p / d)
        return ops

    return QuantumChannel._depolarizing(d, float(p), kraus)


def replacement_channel(sigma: np.ndarray) -> QuantumChannel:
    """Constant channel rho -> sigma Tr(rho).

    Kraus set: sqrt(lambda_i) |s_i><j| for each eigenpair (lambda_i, s_i) of
    sigma (negative rounding clipped to 0) and each basis vector |j>,
    eigenpair-major.
    """
    sigma = qops.check_density(sigma)
    d = sigma.shape[0]
    w, v = np.linalg.eigh(sigma)
    ops = np.zeros((d, d, d, d), dtype=complex)  # [eigenpair, j, row, column]
    j = np.arange(d)
    ops[:, j, :, j] = (np.sqrt(np.where(w < 0, 0.0, w)) * v).T
    return QuantumChannel(ops.reshape(d * d, d, d))


def unitary_conjugate(u: np.ndarray) -> QuantumChannel:
    """The unitary channel rho -> U rho U^dag."""
    return QuantumChannel(_check_unitary(u)[None, :, :])


def pauli_measurement_channel(p: np.ndarray) -> QuantumChannel:
    """Two-outcome measurement channel of an involution P (P^2 = I).

    Maps rho to ``Tr[(I+P)/2 rho] |0><0| + Tr[(I-P)/2 rho] |1><1|``; the
    output is a qubit-diagonal state carrying the Born-rule weights.
    """
    p = qops.check_hermitian(p, tol=1e-9)
    d = p.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.abs(p @ p - np.eye(d)).max()
    if not dev <= 1e-9:
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


def twirl(ch: QuantumChannel, unitaries) -> QuantumChannel:
    """Uniform average of U^dag N(U . U^dag) U over a (G, d, d) unitary stack; ``u[None]`` is the frame change."""
    us = _check_unitary(unitaries)
    if us.ndim != 3 or ch.dim_in != ch.dim_out or us.shape[1] != ch.dim_in:
        raise InvalidInputError(f"twirl needs a square channel and a (G, {ch.dim_in}, {ch.dim_in}) "
                                f"unitary stack, got shape {us.shape}")
    # Kraus set {U_g^dag K_k U_g / sqrt(|G|)}; rank is not minimized.
    ops = np.einsum("gji,kjl,glm->gkim", us.conj(), ch.kraus, us) * (1.0 / np.sqrt(len(us)))
    return QuantumChannel(ops.reshape(-1, ch.dim_out, ch.dim_in))


def fit_depolarizing(ch: QuantumChannel) -> tuple[float, float]:
    """Least-squares fit of a depolarizing parameter to a square channel.

    Returns ``(p, residual)`` where residual is the max-abs superoperator
    deviation from the fitted depolarizing channel, read off the Kraus stack
    (:func:`_depolarizing_fit`).  A depolarizing channel is its own fit:
    ``(p, 0.0)``.
    """
    if ch.dim_in != ch.dim_out:
        raise InvalidInputError("fit requires a square channel")
    if ch.dim_in < 2:
        raise InvalidInputError(f"fit requires d >= 2, got {ch.dim_in}")
    return _depolarizing_fit(ch, np.inf)


def _depolarizing_fit(ch: QuantumChannel, stop: float) -> tuple[float, float]:
    """(p, residual) of the depolarizing fit, returning once the residual passes ``stop``.

    With v = vec(I), p = [(v^dag S v - d)/d - (Tr S - d^2)] / (d^2 - 1), where
    v^dag S v = sum_k ||K_k||_F^2 and Tr S = sum_k |Tr K_k|^2.  The d^2 images
    N(|a><b|) = sum_k K_k[:, a] K_k[:, b]^dag hold exactly the entries of S;
    each is one (d, r) x (r, d) product, compared with (1-p)|a><b| + p delta_ab I/d,
    starting at N(|0><0|).
    """
    if ch._p is not None:
        return ch._p, 0.0
    k = ch.kraus
    d = ch.dim_in
    traces = k.trace(axis1=1, axis2=2)
    p = float(((np.vdot(k, k).real - d) / d - (np.vdot(traces, traces).real - d * d)) / (d * d - 1))
    residual = 0.0
    cols = k.transpose(2, 1, 0)  # cols[a] holds the columns K_k[:, a] as a (d, r) matrix
    for a, b in itertools.product(range(d), repeat=2):
        out = cols[a] @ cols[b].conj().T
        out[a, b] -= 1 - p
        if a == b:
            out.ravel()[:: d + 1] -= p / d
        residual = max(residual, float(np.abs(out).max()))
        if residual > stop:
            break
        if a == b == 0:  # N(|0><0|) passed: copy now, so a rejected channel never pays for it
            cols = np.ascontiguousarray(cols)
    return p, residual


def is_depolarizing(ch: QuantumChannel) -> bool:
    """True for a square channel, d >= 2, within SUPEROP_TOL of its depolarizing fit.

    The fit stops at the first matrix unit past SUPEROP_TOL, so most other
    channels are ruled out by N(|0><0|) at cost r d^2.
    """
    if not ch.dim_in == ch.dim_out >= 2:
        return False
    return _depolarizing_fit(ch, SUPEROP_TOL)[1] <= SUPEROP_TOL


def random_channel(d: int, kraus_rank: int, rng: np.random.Generator) -> QuantumChannel:
    """Random CPTP channel: Ginibre Kraus candidates normalized by (sum G^dag G)^(-1/2)."""
    if kraus_rank < 1:
        raise InvalidInputError(f"kraus_rank must be >= 1, got {kraus_rank}")
    g = rng.standard_normal((kraus_rank, d, d)) + 1j * rng.standard_normal((kraus_rank, d, d))
    m = np.einsum("kji,kjl->il", g.conj(), g)
    w, v = np.linalg.eigh(qops.hermitize(m))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return QuantumChannel(np.einsum("kij,jl->kil", g, inv_sqrt))
