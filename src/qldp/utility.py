"""Worst-case channel utility: fidelity and trace-distance to the input.

:func:`utility_report` is the one search entry point: it runs both searches
and returns both values with their witnesses.  Optimization runs over pure
states only; concavity of fidelity and convexity of the trace norm place the
extremum at pure states, so the restriction is lossless.  A depolarizing
channel is unitarily covariant, so every pure state attains both values: it is
evaluated once, at the first basis vector, through :func:`channels.apply`, with
no search.

Every other channel is searched by projected-gradient steps on the unit
sphere (Absil, Mahony and Sepulchre, *Optimization Algorithms on Matrix
Manifolds*, 2008), reading values and Wirtinger gradients at Kraus rank from
:func:`channels.fidelity_gradient` and :func:`channels.trace_distance_gradient`.
A start moves along the tangent part of its gradient and renormalizes; a
candidate is kept only if it improves the value, so every reported value is
evaluated at a feasible point.  Each start owns a step that grows by
``STEP_UP`` on an accepted move and shrinks by ``STEP_DOWN`` on a rejected
one; a start retires once an accepted gain falls to ``CONVERGED`` relative to
its value or its step below ``MIN_STEP``.  The search stops when every start
has retired, when the best value is within ``BOUND_TOL`` of its a-priori
bound (F >= 0, D <= 1), or after ``local_steps`` iterations.  For a pure
input D(N(psi), psi) >= 1 - <psi|N(psi)|psi> (Fuchs and van de Graaf, 1999),
so the trace search starts from the fidelity search's final points: a
fidelity minimizer at F = 0 already attains D = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import qops
from .channels import QuantumChannel, apply, fidelity_gradient, is_depolarizing, trace_distance_gradient
from .errors import InvalidInputError
from .privacy import PrivacyBudget, SearchConfig

STEP_SIZE = 0.5     # initial step of every start
STEP_UP, STEP_DOWN = 1.5, 0.5
CONVERGED = 1e-13   # an accepted gain at most this times max(1, |value|) retires a start
MIN_STEP = 1e-12    # a step below this retires a start
BOUND_TOL = 1e-12   # the search stops once its best value is this close to the a-priori bound


@dataclass(frozen=True)
class UtilityReport:
    fidelity_utility: float
    trace_utility: float
    anti_trace_utility: float
    minimizer: np.ndarray  # pure state attaining the fidelity value
    maximizer: np.ndarray  # pure state attaining the trace-distance value


def _square(ch: QuantumChannel) -> int:
    if ch.dim_in != ch.dim_out:
        raise InvalidInputError("utility requires equal input and output dimensions")
    return ch.dim_in


def _ascend(kernel, psi: np.ndarray, sign: float, bound: float, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Projected-gradient ascent of sign * f from the (B, d) unit vectors psi.

    ``kernel`` maps a stack of unit vectors to their values and Wirtinger
    gradients; ``bound`` is the a-priori bound on f (a floor when
    minimizing).  Returns the (B,) final values and (B, d) final points; only
    starts still live are evaluated at each iteration.
    """
    vals, grads = kernel(psi)
    psi = psi.copy()
    steps = np.full(len(psi), STEP_SIZE)
    live = np.arange(len(psi))
    for _ in range(cap):
        if live.size == 0 or sign * bound - (sign * vals).max() <= BOUND_TOL:
            break
        p, g = psi[live], sign * grads[live]
        tangent = g - np.einsum("bi,bi->b", p.conj(), g).real[:, None] * p
        cand = p + steps[live, None] * tangent
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cvals, cgrads = kernel(cand)
        gain = sign * (cvals - vals[live])
        better = gain > 0
        moved = live[better]
        psi[moved], vals[moved], grads[moved] = cand[better], cvals[better], cgrads[better]
        steps[live] *= np.where(better, STEP_UP, STEP_DOWN)
        done = (better & (gain <= CONVERGED * np.maximum(1.0, np.abs(cvals)))) | (steps[live] < MIN_STEP)
        live = live[~done]
    return vals, psi


def utility_report(ch: QuantumChannel, search: SearchConfig = SearchConfig()) -> UtilityReport:
    """Run both utility searches and report values with their witnesses.

    The fidelity value is an upper bound on the true minimum and the
    trace-distance value a lower bound on the true maximum: every evaluated
    state is feasible.  ``search.restarts`` unit vectors drawn from
    ``default_rng(search.seed)`` start the fidelity search, whose final points
    start the trace search; ``search.local_steps`` caps each search's
    iterations.  A depolarizing channel (:func:`is_depolarizing`) is evaluated
    once at e_0 through :func:`apply`, which attains both.
    """
    d = _square(ch)
    if is_depolarizing(ch):
        fpt = tpt = np.eye(d, 1, dtype=complex)[:, 0]
        e0 = qops.projector(fpt)
        out = apply(ch, e0)
        fval, tval = out[0, 0].real, qops.trace_distance(out, e0)
    else:
        rng = np.random.default_rng(search.seed)
        shape = (search.restarts, d)
        starts = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        starts /= np.linalg.norm(starts, axis=1, keepdims=True)
        # F(N(psi), psi) = <psi| N(psi) |psi> for pure psi, bounded below by 0; D by 1
        fvals, fpts = _ascend(partial(fidelity_gradient, ch), starts, -1.0, 0.0, search.local_steps)
        tvals, tpts = _ascend(partial(trace_distance_gradient, ch), fpts, 1.0, 1.0, search.local_steps)
        i, j = int(np.argmin(fvals)), int(np.argmax(tvals))
        fval, fpt, tval, tpt = fvals[i], fpts[i], tvals[j], tpts[j]
    return UtilityReport(
        fidelity_utility=float(np.clip(fval, 0.0, 1.0)),
        trace_utility=float(np.clip(tval, 0.0, 1.0)),
        anti_trace_utility=float(1.0 - np.clip(tval, 0.0, 1.0)),
        minimizer=fpt.copy(),
        maximizer=tpt.copy(),
    )


def optimal_fidelity_utility(d: int, budget: PrivacyBudget) -> float:
    """Best achievable worst-case fidelity under the privacy demand.

    Closed form (e^eps + delta (d-1)) / (e^eps + d - 1); attained by the
    depolarizing channel at its calibrated noise level.
    """
    if d < 2:
        raise InvalidInputError(f"d must be >= 2, got {d}")
    return (budget.gamma + budget.delta * (d - 1.0)) / (budget.gamma + d - 1.0)


def optimal_trace_utility(d: int, budget: PrivacyBudget) -> float:
    """Best achievable worst-case trace distance: (d-1)(1-delta)/(e^eps + d - 1)."""
    if d < 2:
        raise InvalidInputError(f"d must be >= 2, got {d}")
    return (d - 1.0) * (1.0 - budget.delta) / (budget.gamma + d - 1.0)


def depolarizing_fidelity_utility(d: int, p: float) -> float:
    """Closed-form worst-case fidelity of the depolarizing channel: 1 - p(d-1)/d."""
    return 1.0 - p * (d - 1.0) / d


def depolarizing_trace_utility(d: int, p: float) -> float:
    """Closed-form worst-case trace distance of the depolarizing channel: p(d-1)/d."""
    return p * (d - 1.0) / d


def utility_curve(d: int, deltas, eps_grid) -> list[tuple[float, float, float, float]]:
    """Rows (epsilon, delta, optimal_fidelity, optimal_trace) in grid order."""
    deltas = list(deltas)
    eps_grid = list(eps_grid)
    if not deltas or not eps_grid:
        raise InvalidInputError("delta and epsilon grids must be nonempty")
    rows = []
    for delta in deltas:
        for eps in eps_grid:
            b = PrivacyBudget(eps, delta)
            rows.append((eps, delta, optimal_fidelity_utility(d, b), optimal_trace_utility(d, b)))
    return rows
