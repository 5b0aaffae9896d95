"""Local differential privacy of quantum channels.

Calibration of the depolarizing mechanism is closed-form.  Certification of
an arbitrary channel estimates the worst-case hockey-stick divergence E_gamma
over orthogonal pure input pairs, exactly where it can:

- a depolarizing channel is unitarily covariant, so it is evaluated once, at
  (e_0, e_1), through :func:`channels.apply` and :func:`qops.hockey_stick`;
- with d_in > r^2 for r Kraus operators, :func:`channels.orthogonal_outputs`
  gives a pair with orthogonal outputs, so the supremum is exactly 1;
- otherwise a seesaw (:func:`channels.hockey_stick_step`; Hirche, Rouze and
  Franca, arXiv:2202.10717) climbs from ``restarts`` random orthonormal pairs.
  A move is kept only if the value does not fall; a start retires at a gain
  of at most ``CONVERGED`` relative, or an empty positive part; every
  ``HALVING_PERIOD`` iterations the better half of the live starts goes on,
  down to ``HALVING_FLOOR`` (successive halving, Jamieson and Talwalkar
  2016).  It stops within ``BOUND_TOL`` of the bound E_gamma <= 1, or after
  ``local_steps`` iterations.

The first two report ``restarts_used = 0``.  Every evaluated pair is
orthonormal, so the estimate is a certified lower bound that the returned
witness attains; no global optimality is claimed.  :func:`refine_extremum`,
a random-restart hill climb over isometries, is no longer called here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qops
from .channels import QuantumChannel, apply, hockey_stick_step, is_depolarizing, orthogonal_outputs
from .errors import InvalidInputError, OutOfRegimeError

CERT_TOL = 1e-7  # separates "satisfied" from "violated"; borderline results are flagged
STEP_SIZE = 0.25  # initial step of every restart in the refinement search
CONVERGED = 1e-12  # a seesaw gain at most this times max(1, |value|) retires a start
BOUND_TOL = 1e-12  # the seesaw stops once its best value is this close to E_gamma <= 1
HALVING_PERIOD, HALVING_FLOOR = 5, 4  # every 5 iterations keep the better half of the live starts, down to 4


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

    ``local_steps`` caps the seesaw iterations of :func:`certify_qldp` and
    the gradient iterations of each utility search
    (:func:`utility.utility_report`); each stops earlier once converged.
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


def _seesaw(ch: QuantumChannel, gamma: float, search: SearchConfig) -> tuple[float, np.ndarray]:
    """Best (value, (d_in, 2) pair) of the seesaw from ``search.restarts`` random orthonormal pairs."""
    rng = np.random.default_rng(search.seed)
    pairs = _orthonormalize(_complex_noise(rng, (search.restarts, ch.dim_in, 2)))
    vals, nxt = hockey_stick_step(ch, pairs, gamma)
    live = np.flatnonzero(vals > 0)  # an empty positive part gives no direction
    for it in range(1, search.local_steps + 1):
        if live.size == 0 or vals.max() >= 1.0 - BOUND_TOL:
            break
        cvals, cnxt = hockey_stick_step(ch, nxt[live], gamma)
        gain = cvals - vals[live]
        up = gain >= 0
        moved = live[up]
        pairs[moved], vals[moved], nxt[moved] = nxt[moved], cvals[up], cnxt[up]
        live = live[gain > CONVERGED * np.maximum(1.0, np.abs(cvals))]
        if it % HALVING_PERIOD == 0 and live.size > HALVING_FLOOR:
            live = live[np.argsort(-vals[live], kind="stable")[:max(HALVING_FLOOR, live.size // 2)]]
    i = int(np.argmax(vals))
    return float(vals[i]), pairs[i]


def certify_qldp(ch: QuantumChannel, budget: PrivacyBudget,
                 search: SearchConfig = SearchConfig()) -> CertificationResult:
    """Estimate the worst-case hockey-stick divergence of a channel.

    A depolarizing channel (:func:`is_depolarizing`) is evaluated once at
    (e_0, e_1) through :func:`apply`, and a channel with d_in > r^2 at the
    pair of :func:`orthogonal_outputs`, both with ``restarts_used = 0``;
    every other channel runs the seesaw over orthogonal pure pairs (see the
    module docstring).  The estimate is clipped to [0, 1], the a-priori range
    of E_gamma.  ``satisfied`` compares it against delta + CERT_TOL.
    """
    if ch.dim_in < 2:
        raise InvalidInputError(f"certification needs an orthogonal input pair, but dim_in = {ch.dim_in}")
    if is_depolarizing(ch):
        pair = np.eye(ch.dim_in, 2, dtype=complex)
        out1, out2 = (apply(ch, qops.projector(e)) for e in pair.T)
        best, restarts = qops.hockey_stick(out1, out2, budget.gamma), 0
    elif (pair := orthogonal_outputs(ch)) is not None:
        best, restarts = float(hockey_stick_step(ch, pair[None], budget.gamma)[0][0]), 0
    else:
        best, pair = _seesaw(ch, budget.gamma, search)
        restarts = search.restarts
    phi1, phi2 = pair[:, 0].copy(), pair[:, 1].copy()
    sup = min(1.0, max(0.0, best))
    return CertificationResult(
        sup_estimate=sup,
        witness_pair=(phi1, phi2),
        restarts_used=restarts,
        satisfied=sup <= budget.delta + CERT_TOL,
        borderline=abs(sup - budget.delta) <= CERT_TOL,
    )
