"""Dense Hermitian spectral calculus and state distinguishability measures.

All operators are plain complex ``numpy`` arrays.  Density matrices are
Hermitian, positive semi-definite, unit-trace; pure states are unit vectors.
Every spectral computation symmetrizes its input (``(H + H^dag)/2``) before
the eigendecomposition to keep numerical drift out of the spectrum.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

# Tolerances, stated once and reused everywhere.
TOL_HERM = 1e-10   # max-abs deviation from the conjugate transpose
TOL_PSD = 1e-10    # eigenvalue floor for positivity checks


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a^dag)/2; halving first keeps entries near the float limit finite."""
    return a / 2 + a.conj().T / 2


def check_hermitian(a: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Validate Hermiticity and return the symmetrized matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix has non-finite (NaN or inf) entries")
    with np.errstate(over="ignore"):  # huge entries: an inf deviation fails below
        dev = np.abs(a - a.conj().T).max()
    if not dev <= tol:
        raise InvalidInputError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return hermitize(a)


def check_density(rho: np.ndarray, tol: float = TOL_PSD) -> np.ndarray:
    """Validate the density-matrix invariants: Hermitian, PSD, unit trace."""
    rho = check_hermitian(rho)
    w = np.linalg.eigvalsh(rho)
    if w.min() < -tol:
        raise InvalidInputError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > tol:
        raise InvalidInputError(f"trace is {tr!r}, expected 1")
    return rho


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-one projector |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def positive_part(h: np.ndarray) -> np.ndarray:
    """Spectral positive part: keep the eigenspaces with nonnegative eigenvalues.

    For ``H = sum_i a_i |i><i|`` returns ``sum_{i: a_i >= 0} a_i |i><i|``.
    The result and ``result - H`` are both PSD.
    """
    h = check_hermitian(h)
    w, v = np.linalg.eigh(h)
    w = np.where(w >= 0, w, 0.0)
    return hermitize((v * w) @ v.conj().T)


def psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """Matrix square root of a PSD matrix; eigenvalues below 0 are clamped.

    PSD inputs routinely carry -1e-12 eigenvalue noise, hence the clamp.
    Eigenvalues within 1e-14 (relative) of zero are treated as exact zeros:
    taking their square root would otherwise inject ~1e-8 null-space noise.
    """
    rho = check_hermitian(rho)
    w, v = np.linalg.eigh(rho)
    cut = 1e-14 * max(w.max(), 0.0)
    w = np.sqrt(np.where(w > cut, w, 0.0))
    return hermitize((v * w) @ v.conj().T)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Normalized trace distance (1/2)||rho - sigma||_1 via eigenvalues."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise InvalidInputError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    w = np.linalg.eigvalsh(hermitize(rho - sigma))
    return float(np.abs(w).sum() / 2)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity ||sqrt(rho) sqrt(sigma)||_1^2.

    Computed as ``(sum_i sqrt(lam_i))^2`` where ``lam_i`` are the eigenvalues
    of ``sqrt(rho) sigma sqrt(rho)``; symmetric in its arguments.  Eigenvalues
    at the numerical noise floor are zeroed before the square root, which
    would otherwise lift them to ~1e-8.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise InvalidInputError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    r = psd_sqrt(rho)
    w = np.linalg.eigvalsh(hermitize(r @ sigma @ r))
    cut = 1e-14 * max(w.max(), 0.0)
    return float(np.sqrt(np.where(w > cut, w, 0.0)).sum() ** 2)


def hockey_stick(rho: np.ndarray, sigma: np.ndarray, gamma: float) -> float:
    """Hockey-stick divergence Tr[(rho - gamma*sigma)_+] for gamma >= 1.

    At gamma = 1 this equals the trace distance.
    """
    if not gamma >= 1:
        raise InvalidInputError(f"gamma must be >= 1, got {gamma}")
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise InvalidInputError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    w = np.linalg.eigvalsh(hermitize(rho - gamma * sigma))
    return float(w[w > 0].sum())


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed pure state: normalized complex Gaussian vector."""
    if dim < 1:
        raise InvalidInputError(f"dim must be >= 1, got {dim}")
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random density matrix: ``rank`` Haar pure states mixed with flat Dirichlet weights."""
    if not 1 <= rank <= dim:
        raise InvalidInputError(f"rank must be in [1, {dim}], got {rank}")
    weights = rng.dirichlet(np.ones(rank))
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        rho += w * projector(random_pure(dim, rng))
    return hermitize(rho)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # Fix the phase ambiguity of QR so the distribution is exactly Haar.
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
