"""Worst-case channel utility: fidelity and trace-distance to the input.

:func:`utility_report` is the one search entry point: it runs both searches
and returns both values with their witnesses.  Optimization runs over pure
states only; concavity of fidelity and convexity of the trace norm place the
extremum at pure states, so the restriction is lossless.  A depolarizing
channel is unitarily covariant, so every pure state attains both values: it is
evaluated once, at the first basis vector, through :func:`channels.apply`, with
no search.

Every other channel is searched on the unit sphere from ``restarts`` random
starts at Kraus rank; a candidate is kept only if it improves the value, so
every reported value is evaluated at a feasible point.  F = sum_k |a_k|^2,
a_k = <psi|K_k psi>, is a least-squares problem with zero residual where
F = 0, so it is minimized by Levenberg-Marquardt steps (More, *Lecture Notes
in Math.* 630, 1978) on :func:`channels.fidelity_residuals`.  D is ascended
along the tangent part of the gradient of :func:`channels.trace_distance_gradient`
(Absil, Mahony and Sepulchre, 2008) with Barzilai-Borwein step lengths (*IMA
J. Numer. Anal.* 8, 1988), under the seesaw's successive halving.  For a pure
input D(N(psi), psi) >= 1 - <psi|N(psi)|psi> (Fuchs and van de Graaf, 1999),
so the trace search starts from the fidelity search's final points: a
fidelity minimizer at F = 0 already attains D = 1.  A start retires once an
accepted gain falls to ``CONVERGED`` relative to its value or its step below
``MIN_STEP``; a search stops when every start has retired, when its best
value is within ``BOUND_TOL`` of its a-priori bound (F >= 0, D <= 1), or
after ``local_steps`` iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qops
from .channels import QuantumChannel, apply, fidelity_residuals, is_depolarizing, trace_distance_gradient
from .errors import InvalidInputError
from .privacy import HALVING_FLOOR, HALVING_PERIOD, PrivacyBudget, SearchConfig

STEP_SIZE = 0.5      # initial trace step of every start
STEP_CLIP = (1e-3, 1e3)  # Barzilai-Borwein trace steps are clipped to this range
DAMPING = 1e-2       # initial Levenberg-Marquardt damping of every start
DAMPING_FLOOR = 1e-12  # keeps the damped normal equations nonsingular at a rank-deficient Jacobian
CONVERGED = 1e-13    # an accepted gain at most this times max(1, |value|) retires a start
MIN_STEP = 1e-12     # a step below this retires a start
BOUND_TOL = 1e-12    # a search stops once its best value is this close to the a-priori bound


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


def _retired(gain: np.ndarray, value: np.ndarray, step: np.ndarray) -> np.ndarray:
    """A start retires on an accepted gain of at most CONVERGED relative, or a step below MIN_STEP."""
    return (gain > 0) & (gain <= CONVERGED * np.maximum(1.0, np.abs(value))) | (step < MIN_STEP)


def _tangent(psi: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The part of each gradient g tangent to the unit sphere at psi: g - Re<psi, g> psi."""
    return g - np.einsum("bi,bi->b", psi.conj(), g).real[:, None] * psi


def _real(z: np.ndarray) -> np.ndarray:
    """(..., n) complex to (..., 2n) real: real parts, then imaginary parts."""
    return np.concatenate([z.real, z.imag], axis=-1)


def _levenberg_marquardt(ch: QuantumChannel, psi: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimize F from the (B, d) unit vectors psi; returns the (B,) final values and (B, d) points.

    Each start solves the damped Gauss-Newton equations of the 2r real residuals
    (Re a, Im a), their Jacobian projected onto the sphere's tangent space, in
    the 2r x 2r or 2d x 2d form, whichever is smaller.  The damping is divided
    by 3 on a kept step and multiplied by 4 on a rejected one.
    """
    d = psi.shape[1]
    a, u, w = fidelity_residuals(ch, psi)
    vals = (a.real**2 + a.imag**2).sum(axis=1)
    psi = psi.copy()
    damping = np.full(len(psi), DAMPING)
    live = np.arange(len(psi))
    for _ in range(cap):
        if live.size == 0 or vals.min() <= BOUND_TOL:
            break
        p, s, t = psi[live], (w[live] + u[live]).transpose(0, 2, 1), (u[live] - w[live]).transpose(0, 2, 1)
        # d(Re a_k) = s_k . delta and d(Im a_k) = (-i t_k) . delta over real coordinates, s = w + u, t = u - w
        jac = np.concatenate([_real(s), _real(-1j * t)], axis=1)
        x = _real(p)
        jac -= (jac @ x[:, :, None]) * x[:, None, :]
        res = _real(a[live])
        lam = damping[live, None, None]
        if jac.shape[1] <= jac.shape[2]:
            gram = jac @ jac.transpose(0, 2, 1) + lam * np.eye(jac.shape[1])
            step = -(jac.transpose(0, 2, 1) @ np.linalg.solve(gram, res[:, :, None]))[:, :, 0]
        else:
            gram = jac.transpose(0, 2, 1) @ jac + lam * np.eye(2 * d)
            step = -np.linalg.solve(gram, (res[:, None, :] @ jac).transpose(0, 2, 1))[:, :, 0]
        cand = p + step[:, :d] + 1j * step[:, d:]
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        ca, cu, cw = fidelity_residuals(ch, cand)
        cvals = (ca.real**2 + ca.imag**2).sum(axis=1)
        gain = vals[live] - cvals
        better = gain > 0
        moved = live[better]
        psi[moved], vals[moved], a[moved], u[moved], w[moved] = (
            cand[better], cvals[better], ca[better], cu[better], cw[better])
        damping[live] = np.maximum(DAMPING_FLOOR, damping[live] * np.where(better, 1 / 3, 4.0))
        live = live[~_retired(gain, cvals, np.linalg.norm(step, axis=1))]
    return vals, psi


def _ascend(ch: QuantumChannel, psi: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Maximize D from the (B, d) unit vectors psi; returns the (B,) final values and (B, d) points.

    The step is the Barzilai-Borwein length |s|^2 / |Re<s, y>| of the start's
    last accepted move s, y the change in tangent gradient across it, clipped
    to ``STEP_CLIP`` and halved on a rejected candidate.
    """
    vals, grads = trace_distance_gradient(ch, psi)
    psi, tangent = psi.copy(), _tangent(psi, grads)
    steps = np.full(len(psi), STEP_SIZE)
    live = np.arange(len(psi))
    for it in range(1, cap + 1):
        if live.size == 0 or 1.0 - vals.max() <= BOUND_TOL:
            break
        p, g = psi[live], tangent[live]
        cand = p + steps[live, None] * g
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cvals, cgrads = trace_distance_gradient(ch, cand)
        ctangent = _tangent(cand, cgrads)
        gain = cvals - vals[live]
        better = gain > 0
        moved = live[better]
        s, y = cand[better] - p[better], ctangent[better] - g[better]
        ss, sy = np.einsum("bi,bi->b", s.conj(), s).real, np.abs(np.einsum("bi,bi->b", s.conj(), y).real)
        # a rounding-level gain can accept a candidate equal to its start, s = 0: that step falls to the floor
        denom = np.maximum(sy, ss / STEP_CLIP[1])
        steps[live[~better]] *= 0.5
        steps[moved] = np.clip(np.divide(ss, denom, out=np.zeros_like(ss), where=denom > 0), *STEP_CLIP)
        psi[moved], vals[moved], tangent[moved] = cand[better], cvals[better], ctangent[better]
        live = live[~_retired(gain, cvals, steps[live])]
        if it % HALVING_PERIOD == 0 and live.size > HALVING_FLOOR:
            live = live[np.argsort(-vals[live], kind="stable")[:max(HALVING_FLOOR, live.size // 2)]]
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
        fvals, fpts = _levenberg_marquardt(ch, starts, search.local_steps)
        tvals, tpts = _ascend(ch, fpts, search.local_steps)
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
