"""Worst-case channel utility: fidelity and trace-distance to the input.

Optimization runs over pure states only; concavity of fidelity and convexity
of the trace norm place the extremum at pure states, so the restriction is
lossless.  A mixed-state parameterization exists behind a debug flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, apply, batch_outputs
from .errors import InvalidInputError
from .privacy import PrivacyBudget, SearchConfig, optimal_depolarizing_p, refine_extremum


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


def _fidelity_values(ch: QuantumChannel, states: np.ndarray) -> np.ndarray:
    # F(N(psi), psi) = <psi| N(psi) |psi> for pure psi
    out = batch_outputs(ch, states)
    return np.einsum("bi,bij,bj->b", states.conj(), out, states).real


def _trace_values(ch: QuantumChannel, states: np.ndarray) -> np.ndarray:
    out = batch_outputs(ch, states)
    proj = states[:, :, None] * states.conj()[:, None, :]
    w = np.linalg.eigvalsh(out - proj)
    return np.abs(w).sum(axis=1) / 2


def _dominant_eigvec(frame: np.ndarray) -> np.ndarray:
    rho = frame @ frame.conj().T
    rho /= np.trace(rho).real
    _, v = np.linalg.eigh(rho)
    return v[:, -1].copy()


def _mixed_value_fn(ch: QuantumChannel, metric):
    from . import qops

    def value(pts: np.ndarray) -> np.ndarray:
        # pts columns span a frame; use the normalized Gram square as the state
        vals = np.empty(pts.shape[0])
        for i, a in enumerate(pts):
            rho = a @ a.conj().T
            rho = rho / np.trace(rho).real
            vals[i] = metric(apply(ch, rho), rho)
        return vals

    return value


def utility_report(ch: QuantumChannel, search: SearchConfig = SearchConfig(),
                   mixed_debug: bool = False) -> UtilityReport:
    """Run both utility searches and report values with their witnesses.

    The fidelity value is an upper bound on the true minimum and the
    trace-distance value a lower bound on the true maximum: every evaluated
    state is feasible.  With ``mixed_debug`` the search runs over mixed
    states (diagnostic only; by concavity/convexity it cannot beat the pure
    search, and the witnesses are then the dominant eigenvectors of the best
    mixed states rather than exact attainers).
    """
    from . import qops

    d = _square(ch)
    if mixed_debug:
        fval, fpt = refine_extremum(_mixed_value_fn(ch, qops.fidelity), d, d, search, maximize=False)
        tval, tpt = refine_extremum(_mixed_value_fn(ch, qops.trace_distance), d, d, search, maximize=True)
        fmin = _dominant_eigvec(fpt)
        tmax = _dominant_eigvec(tpt)
    else:
        fval, fpt = refine_extremum(lambda s: _fidelity_values(ch, s[:, :, 0]), d, 1, search, maximize=False)
        tval, tpt = refine_extremum(lambda s: _trace_values(ch, s[:, :, 0]), d, 1, search, maximize=True)
        fmin, tmax = fpt[:, 0].copy(), tpt[:, 0].copy()
    return UtilityReport(
        fidelity_utility=float(np.clip(fval, 0.0, 1.0)),
        trace_utility=float(np.clip(tval, 0.0, 1.0)),
        anti_trace_utility=float(1.0 - np.clip(tval, 0.0, 1.0)),
        minimizer=fmin,
        maximizer=tmax,
    )


def fidelity_utility(ch: QuantumChannel, search: SearchConfig = SearchConfig()) -> UtilityReport:
    """Worst-case fidelity min_rho F(N(rho), rho), searched over pure states."""
    return utility_report(ch, search)


def trace_utility(ch: QuantumChannel, search: SearchConfig = SearchConfig()) -> UtilityReport:
    """Worst-case trace distance max_rho T(N(rho), rho), searched over pure states."""
    return utility_report(ch, search)


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


def postprocessed_fidelity_utility(d: int, budget: PrivacyBudget) -> float:
    """Optimum when an arbitrary recovery channel may post-process the output.

    Post-processing does not improve the optimum: the value coincides with
    :func:`optimal_fidelity_utility` (identity recovery on the calibrated
    depolarizing channel attains it).
    """
    return optimal_fidelity_utility(d, budget)


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


def curve_to_csv(rows) -> str:
    """Serialize curve rows with 12 significant digits."""
    lines = ["epsilon,delta,optimal_fidelity,optimal_trace"]
    for eps, delta, f, t in rows:
        lines.append(f"{eps:.12g},{delta:.12g},{f:.12g},{t:.12g}")
    return "\n".join(lines) + "\n"


def calibrated_depolarizing_p(d: int, budget: PrivacyBudget) -> float:
    """Noise level whose depolarizing channel attains the optimal utilities."""
    return optimal_depolarizing_p(d, budget)
