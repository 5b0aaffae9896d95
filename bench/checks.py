"""Correctness checks on the outputs of benchmark jobs.

Each check recomputes what it can through a path independent of the one the
program took and raises :class:`CheckFailed` when the output disagrees.  A
failed check counts against the job; it is never retried or re-seeded.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from qldp import qops

ORTHO_TOL = 1e-9     # witness pair: unit norms and mutual overlap
VALUE_TOL = 1e-9     # hockey-stick and trace-distance re-evaluations, closed forms
# Uhlmann fidelity takes square roots of eigenvalues at the noise floor, which
# costs it a few digits against the direct overlap <psi|N(psi)|psi>.
FIDELITY_TOL = 1e-8
# Two-sided z-test on the mean of the trial estimates.  With the standard
# error taken from at least MIN_TRIALS trials, a correct sampler exceeds
# |z| = 6 with probability below 2e-6 (Student t, 29 degrees of freedom).
Z_MAX = 6.0
MIN_TRIALS = 30
CSV_HEADER = ["trial", "n", "estimate", "true_value", "abs_error", "within_beta"]


class CheckFailed(Exception):
    """A job's output disagrees with its independent re-evaluation."""


def kraus_output(kraus: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Channel output on the pure input psi, as sum_k (K_k psi)(K_k psi)^dag."""
    v = kraus @ psi
    return v.T @ v.conj()


def check_certification(kraus, result, gamma: float, exact: float | None = None) -> float:
    """Witness pair is orthonormal and attains ``sup_estimate``; returns the bound."""
    phi1, phi2 = result.witness_pair
    dev = max(abs(np.vdot(phi1, phi1) - 1.0), abs(np.vdot(phi2, phi2) - 1.0),
              abs(np.vdot(phi1, phi2)))
    if not dev <= ORTHO_TOL:
        raise CheckFailed(f"witness pair is not orthonormal (deviation {dev:.3e})")
    value = qops.hockey_stick(kraus_output(kraus, phi1), kraus_output(kraus, phi2), gamma)
    if not abs(value - result.sup_estimate) <= VALUE_TOL:
        raise CheckFailed(f"witness pair reaches {value!r}, certificate claims {result.sup_estimate!r}")
    if exact is not None and not abs(exact - result.sup_estimate) <= VALUE_TOL:
        raise CheckFailed(f"certificate {result.sup_estimate!r} differs from the exact profile {exact!r}")
    return float(result.sup_estimate)


def check_utility(kraus, report, exact_fidelity: float | None = None,
                  exact_trace: float | None = None) -> tuple[float, float]:
    """Witness states attain the reported utilities; returns (fidelity, trace distance)."""
    for name, psi in (("minimizer", report.minimizer), ("maximizer", report.maximizer)):
        dev = abs(np.linalg.norm(psi) - 1.0)
        if not dev <= ORTHO_TOL:
            raise CheckFailed(f"{name} is not a unit vector (deviation {dev:.3e})")
    psi = report.minimizer
    fid = qops.fidelity(kraus_output(kraus, psi), qops.projector(psi))
    if not abs(fid - report.fidelity_utility) <= FIDELITY_TOL:
        raise CheckFailed(f"minimizer has fidelity {fid!r}, report claims {report.fidelity_utility!r}")
    psi = report.maximizer
    td = qops.trace_distance(kraus_output(kraus, psi), qops.projector(psi))
    if not abs(td - report.trace_utility) <= VALUE_TOL:
        raise CheckFailed(f"maximizer has trace distance {td!r}, report claims {report.trace_utility!r}")
    if not abs(report.anti_trace_utility - (1.0 - report.trace_utility)) <= VALUE_TOL:
        raise CheckFailed("anti-trace utility is not 1 - trace utility")
    for name, exact, got in (("fidelity", exact_fidelity, report.fidelity_utility),
                             ("trace", exact_trace, report.trace_utility)):
        if exact is not None and not abs(exact - got) <= VALUE_TOL:
            raise CheckFailed(f"{name} utility {got!r} differs from the closed form {exact!r}")
    return float(report.fidelity_utility), float(report.trace_utility)


def check_trials_csv(text: str, trials: int, true_value: float) -> None:
    """Row count, true-value column, and a z-test of the mean estimate.

    The standard error comes from the spread of the trial estimates, so the
    test is on the mean alone and assumes nothing about the sampler's variance.
    """
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != CSV_HEADER:
        raise CheckFailed(f"unexpected CSV header {rows[0] if rows else None!r}")
    body = rows[1:]
    if len(body) != trials:
        raise CheckFailed(f"CSV has {len(body)} trial rows, expected {trials}")
    if trials < MIN_TRIALS:
        raise CheckFailed(f"z-test needs at least {MIN_TRIALS} trials, got {trials}")
    try:
        est = np.array([float(r[2]) for r in body])
        truth = np.array([float(r[3]) for r in body])
    except (IndexError, ValueError) as exc:
        raise CheckFailed(f"malformed CSV row: {exc}") from None
    if not np.all(np.abs(truth - true_value) <= VALUE_TOL):
        raise CheckFailed(f"true_value column differs from the exact value {true_value!r}")
    if not np.all(np.isfinite(est)):
        raise CheckFailed("non-finite estimate")
    se = est.std(ddof=1) / math.sqrt(trials)
    gap = abs(est.mean() - true_value)
    if gap > 0 and not gap <= Z_MAX * se:
        raise CheckFailed(f"mean estimate {est.mean()!r} is {gap / se if se else math.inf:.1f} "
                          f"standard errors from the true value {true_value!r}")
