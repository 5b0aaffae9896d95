"""Worst-case channel utility: fidelity and trace-distance to the input.

:func:`utility_report` is the one search entry point: it runs both searches
and returns both values with their witnesses.  Optimization runs over pure
states only; concavity of fidelity and convexity of the trace norm place the
extremum at pure states, so the restriction is lossless.  A depolarizing
channel is unitarily covariant, so every pure state attains both values: it is
evaluated once, at the first basis vector, through :func:`channels.apply`, with
no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import qops
from .channels import QuantumChannel, apply, is_depolarizing, output_spectrum, pure_fidelities
from .errors import InvalidInputError
from .privacy import PrivacyBudget, SearchConfig, refine_extremum

_ONE = np.ones(1)  # weights of a single-column frame


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


def _trace_values(ch: QuantumChannel, frames: np.ndarray) -> np.ndarray:
    # eigenvalues of N(psi) - psi psi^dag; the zeros left out at Kraus rank add nothing
    w = output_spectrum(ch, frames, _ONE, -_ONE)
    return np.abs(w).sum(axis=1) / 2


def utility_report(ch: QuantumChannel, search: SearchConfig = SearchConfig()) -> UtilityReport:
    """Run both utility searches and report values with their witnesses.

    The fidelity value is an upper bound on the true minimum and the
    trace-distance value a lower bound on the true maximum: every evaluated
    state is feasible.  A depolarizing channel (:func:`is_depolarizing`) is
    evaluated once at e_0 through :func:`apply`, which attains both.
    """
    d = _square(ch)
    if is_depolarizing(ch):
        fpt = tpt = np.eye(d, 1, dtype=complex)
        e0 = qops.projector(fpt[:, 0])
        out = apply(ch, e0)
        fval, tval = out[0, 0].real, qops.trace_distance(out, e0)
    else:
        # F(N(psi), psi) = <psi| N(psi) |psi> for pure psi, one per (d, 1) frame
        fval, fpt = refine_extremum(partial(pure_fidelities, ch), d, 1, search, maximize=False)
        tval, tpt = refine_extremum(partial(_trace_values, ch), d, 1, search, maximize=True)
    return UtilityReport(
        fidelity_utility=float(np.clip(fval, 0.0, 1.0)),
        trace_utility=float(np.clip(tval, 0.0, 1.0)),
        anti_trace_utility=float(1.0 - np.clip(tval, 0.0, 1.0)),
        minimizer=fpt[:, 0].copy(),
        maximizer=tpt[:, 0].copy(),
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


def curve_to_csv(rows) -> str:
    """Serialize curve rows with 12 significant digits."""
    lines = ["epsilon,delta,optimal_fidelity,optimal_trace"]
    for eps, delta, f, t in rows:
        lines.append(f"{eps:.12g},{delta:.12g},{f:.12g},{t:.12g}")
    return "\n".join(lines) + "\n"
