"""Local differential privacy of quantum channels.

Calibration of the depolarizing mechanism is closed-form; certification of
arbitrary channels is numerical.  The certifier estimates the worst-case
hockey-stick divergence over pairs of orthogonal pure inputs; every pair it
evaluates is feasible, so the estimate is a certified lower bound on the true
supremum and the returned witness attains it.  No global-optimality guarantee
is claimed; ``restarts`` trades time for confidence.  A depolarizing channel is
unitarily covariant, so every orthogonal pair attains its supremum: it is
evaluated once, at the first two basis vectors, through :func:`channels.apply`
and :func:`qops.hockey_stick`, with no search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qops
from .channels import QuantumChannel, apply, is_depolarizing, output_spectrum
from .errors import InvalidInputError, OutOfRegimeError

CERT_TOL = 1e-7  # separates "satisfied" from "violated"; borderline results are flagged
STEP_SIZE = 0.25  # initial step of every restart in the refinement search


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) privacy demand with gamma = e^epsilon derived."""

    epsilon: float
    delta: float = 0.0
    gamma: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise InvalidInputError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0.0 <= self.delta <= 1.0:
            raise InvalidInputError(f"delta must be in [0, 1], got {self.delta}")
        try:
            object.__setattr__(self, "gamma", math.exp(self.epsilon))
        except OverflowError:
            raise OutOfRegimeError(f"e^epsilon overflows a float at epsilon = {self.epsilon}") from None


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the searches: ``restarts`` starts drawn from ``default_rng(seed)``.

    ``local_steps`` is the exact number of hill-climb steps for
    :func:`certify_qldp` and a cap on the gradient iterations of each
    utility search (:func:`utility.utility_report`), which stops earlier once
    converged.
    """

    restarts: int = 64
    local_steps: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise InvalidInputError(f"restarts must be >= 1, got {self.restarts}")
        if self.local_steps < 0:
            raise InvalidInputError(f"local_steps must be >= 0, got {self.local_steps}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of a numerical privacy certification."""

    sup_estimate: float
    witness_pair: tuple[np.ndarray, np.ndarray]
    restarts_used: int
    satisfied: bool
    borderline: bool


def optimal_depolarizing_p(d: int, budget: PrivacyBudget) -> float:
    """Smallest depolarizing parameter meeting the privacy demand: d(1-delta)/(e^eps + d - 1)."""
    if d < 2:
        raise InvalidInputError(f"d must be >= 2, got {d}")
    p = d * (1.0 - budget.delta) / (budget.gamma + (d - 1.0))
    return min(1.0, max(0.0, p))


def depolarizing_privacy_profile(d: int, p: float, gamma: float) -> float:
    """Exact worst-case hockey-stick value of the depolarizing channel.

    Equals ``(1 - p (d - 1 + gamma)/d)_+``; the channel meets an
    (eps, delta) demand iff this value at gamma = e^eps is <= delta.
    """
    if d < 2:
        raise InvalidInputError(f"d must be >= 2, got {d}")
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"p must be in [0, 1], got {p}")
    if not gamma >= 1:
        raise InvalidInputError(f"gamma must be >= 1, got {gamma}")
    return max(0.0, 1.0 - p * (d - 1.0 + gamma) / d)


def _orthonormalize(batch: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(batch)
    return q


def _complex_noise(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def refine_extremum(value_fn, dim: int, ncols: int, config: SearchConfig, maximize: bool = True):
    """Random-restart stochastic hill climb over d x ncols isometries.

    ``value_fn`` maps a (B, dim, ncols) stack of isometries to a (B,) array.
    Each restart owns an adaptive step size; perturbations are Gaussian and
    re-orthonormalized, so every candidate is exactly feasible.  Returns
    ``(best_value, best_point)``.
    """
    rng = np.random.default_rng(config.seed)
    b = config.restarts
    pts = _orthonormalize(_complex_noise(rng, (b, dim, ncols)))
    vals = np.asarray(value_fn(pts), dtype=float)
    steps = np.full(b, STEP_SIZE)
    sign = 1.0 if maximize else -1.0
    for _ in range(config.local_steps):
        noise = _complex_noise(rng, (b, dim, ncols)) * steps[:, None, None]
        cand = _orthonormalize(pts + noise)
        cvals = np.asarray(value_fn(cand), dtype=float)
        better = sign * cvals > sign * vals
        pts[better] = cand[better]
        vals[better] = cvals[better]
        steps = np.where(better, steps * 1.4, steps * 0.8)
        np.clip(steps, 1e-9, 2.0, out=steps)
    i = int(np.argmax(sign * vals))
    return float(vals[i]), pts[i]


def certify_qldp(ch: QuantumChannel, budget: PrivacyBudget,
                 search: SearchConfig = SearchConfig()) -> CertificationResult:
    """Estimate the worst-case hockey-stick divergence of a channel.

    Searches over pairs of orthogonal pure inputs (two columns of an
    orthonormalized random frame) with derivative-free local refinement; a
    depolarizing channel (:func:`is_depolarizing`) is evaluated once at
    (e_0, e_1) through :func:`apply` instead, with ``restarts_used = 0``.
    ``satisfied`` compares the estimate against delta + CERT_TOL.
    """
    if ch.dim_in < 2:
        raise InvalidInputError(f"certification needs an orthogonal input pair, but dim_in = {ch.dim_in}")
    weights = np.array([1.0, -budget.gamma])

    def value(pairs: np.ndarray) -> np.ndarray:
        w = output_spectrum(ch, pairs, weights)
        return np.where(w > 0, w, 0.0).sum(axis=1)

    if is_depolarizing(ch):
        pair = np.eye(ch.dim_in, 2, dtype=complex)
        out1, out2 = (apply(ch, qops.projector(e)) for e in pair.T)
        best, restarts = qops.hockey_stick(out1, out2, budget.gamma), 0
    else:
        best, pair = refine_extremum(value, ch.dim_in, 2, search, maximize=True)
        restarts = search.restarts
    phi1, phi2 = pair[:, 0].copy(), pair[:, 1].copy()
    sup = max(0.0, best)
    return CertificationResult(
        sup_estimate=sup,
        witness_pair=(phi1, phi2),
        restarts_used=restarts,
        satisfied=sup <= budget.delta + CERT_TOL,
        borderline=abs(sup - budget.delta) <= CERT_TOL,
    )
