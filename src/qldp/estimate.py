"""Private estimation of observable expectations from privatized samples.

The mechanism releases, per input copy, a Pauli label drawn proportionally to
the observable's coefficient magnitudes and one depolarized measurement bit.
The estimator consumes those released records only; it never sees the state.
The observable enters through its coefficient vector alpha
(:class:`~qldp.pauli.PauliDecomposition`): every record is worth +-S/(1-q)
with S = sum |alpha_P|, and Tr[O rho] is ``decomp.expectation(rho)``, so
Monte Carlo trials draw the count of positive records from one binomial
instead of the records.  :func:`simulate_privatized_batch` (Tr[P rho] from
:func:`~qldp.pauli.pauli_trace`) and :func:`estimate_from_batch` sample and
score records, as an independent check on that law; the one-record-at-a-time
oracles are in the test suite.
Sample-size calculators cover the achievable Hoeffding bound, the
hypothesis-testing lower bound, its privacy-independent fidelity variant, and
the generic private-testing bounds they derive from.  Out-of-regime
parameters raise structured errors naming the violated condition; the bounds
are regime-scoped and must not be clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qops
from .errors import (
    DegenerateObservableError,
    InfeasibleError,
    InvalidInputError,
    NoninvertibleError,
    OutOfRegimeError,
)
from .pauli import PauliDecomposition, pauli_trace
from .privacy import PrivacyBudget, optimal_depolarizing_p

H0 = "H0"
H1 = "H1"


@dataclass(frozen=True)
class AccuracyDemand:
    """Additive error tolerance beta with failure probability eta."""

    beta: float
    eta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise InvalidInputError(f"beta must be finite and > 0, got {self.beta}")
        if self.beta * self.beta == 0.0:  # the sample-size formulas divide by beta^2
            raise OutOfRegimeError(f"beta^2 underflows to 0 at beta = {self.beta:g}")
        if not (math.isfinite(self.eta) and 0.0 < self.eta < 1.0):
            raise InvalidInputError(f"eta must be in (0, 1), got {self.eta}")


@dataclass(frozen=True)
class QhtReduction:
    """Two-state discrimination instance embedded in the estimation task."""

    rho0: np.ndarray
    rho1: np.ndarray
    alpha_prime: float
    threshold: float


@dataclass(frozen=True)
class QhtBounds:
    lower: float
    upper: float
    c_const: float


def simulate_privatized_batch(rho: np.ndarray, decomp: PauliDecomposition, q: float,
                              n: int, rng: np.random.Generator):
    """Vectorized sampler: n records as (bit array, support-index array).

    Each record draws P from ``decomp.support`` (nonzero alpha_P, label order) with
    probability |alpha_P|/S, measures P, and flips the bit with probability
    q/2 (qubit depolarizing noise on a classical bit), folded into the outcome
    probability ``1/2 + (1-q)/2 Tr[P rho]``; Tr[P rho] is :func:`pauli_trace`'s.
    """
    if not 0.0 <= q <= 1.0:
        raise InvalidInputError(f"q must be in [0, 1], got {q}")
    if decomp.weight <= 0:
        raise DegenerateObservableError("observable has zero Pauli weight")
    t = np.array([0.5 + (1.0 - q) / 2.0 * pauli_trace(rho, k, decomp.m).real
                  for k in decomp.support.tolist()])
    idx = rng.choice(len(t), size=n, p=np.abs(decomp.coeffs[decomp.support]) / decomp.weight)
    y = (rng.random(n) >= t[idx]).astype(np.int8)
    return y, idx


def estimate_from_batch(y: np.ndarray, idx: np.ndarray, decomp: PauliDecomposition,
                        q: float) -> float:
    """Estimator applied to a vectorized record batch."""
    if q >= 1.0:
        raise NoninvertibleError("q = 1 erases the signal; the estimator cannot be debiased")
    if decomp.weight <= 0:
        raise DegenerateObservableError("observable has zero Pauli weight")
    signs = np.sign(decomp.coeffs[decomp.support])  # in support order, as idx indexes
    scale = decomp.weight / (1.0 - q)
    return float(scale * np.mean(signs[idx] * (1.0 - 2.0 * y)))


def sample_count(v: float, source: str) -> int:
    """ceil(v) for a sample-size formula; a size that overflows a float is out of regime.

    The formulas square by multiplication: a Python float's ``**`` raises
    OverflowError where ``*`` gives the inf that this check reports.
    """
    if not math.isfinite(v):
        raise OutOfRegimeError(f"the sample size overflows a float ({source})")
    return math.ceil(v)


def required_samples_upper(s_weight: float, budget: PrivacyBudget,
                           demand: AccuracyDemand) -> int:
    """Hoeffding sample size sufficient for the Pauli-sampling mechanism.

    ceil of 2 S^2 (e^eps + 1)^2 / (beta^2 (e^eps - 1 + 2 delta)^2) ln(2/eta).
    """
    denom = budget.gamma - 1.0 + 2.0 * budget.delta
    if denom <= 0:
        raise InfeasibleError(
            f"epsilon = {budget.epsilon:g} and delta = {budget.delta:g} admit no finite sample size")
    r = s_weight * (budget.gamma + 1.0) / (demand.beta * denom)
    v = 2.0 * r * r * math.log(2.0 / demand.eta)
    return max(1, sample_count(v, f"Hoeffding bound, S = {s_weight:g}"))


def required_samples_lower(lmax: float, lmin: float, budget: PrivacyBudget,
                           demand: AccuracyDemand) -> int:
    """Hypothesis-testing lower bound on the sample complexity (delta = 0 only).

    ceil of ln(1/(4 eta (1-eta))) e^eps (lmax - lmin)^2 / (32 (e^eps - 1)^2 beta^2),
    valid for beta <= (lmax - lmin)/4, eta in (0, 1/4), eps > 0.
    """
    if lmax <= lmin:
        raise OutOfRegimeError(f"need lambda_max > lambda_min, got {lmax} <= {lmin}")
    if budget.delta != 0.0:
        raise OutOfRegimeError("the lower bound is proven only for delta = 0")
    if budget.epsilon <= 0.0:
        raise OutOfRegimeError("the lower bound requires epsilon > 0")
    gap = lmax - lmin
    if demand.beta > gap / 4.0:
        raise OutOfRegimeError(f"beta must satisfy beta <= (lambda_max - lambda_min)/4 = {gap / 4.0}")
    if not 0.0 < demand.eta < 0.25:
        raise OutOfRegimeError(f"eta must lie in (0, 1/4), got {demand.eta}")
    e = budget.gamma
    if e == 1.0:  # epsilon > 0, but below about 2.2e-16 e^epsilon rounds to 1
        raise OutOfRegimeError(f"e^epsilon - 1 is 0 in floating point at epsilon = {budget.epsilon:g}")
    v = math.log(1.0 / (4.0 * demand.eta * (1.0 - demand.eta))) * e * (gap * gap) \
        / (32.0 * ((e - 1.0) * (e - 1.0)) * (demand.beta * demand.beta))
    return sample_count(v, "testing lower bound")


def fidelity_lower_bound(lmax: float, lmin: float, demand: AccuracyDemand) -> int:
    """Privacy-independent lower bound ceil(ln(4 eta (1-eta)) / ln(1 - 4 alpha'^2)).

    alpha' = 2 beta / (lmax - lmin); requires alpha' < 1/2 and eta in (0, 1/4).
    """
    if lmax <= lmin:
        raise OutOfRegimeError(f"need lambda_max > lambda_min, got {lmax} <= {lmin}")
    gap = lmax - lmin
    alpha_prime = 2.0 * demand.beta / gap
    if alpha_prime >= 0.5:
        raise DegenerateObservableError(
            f"beta must be < (lambda_max - lambda_min)/2; alpha' = {alpha_prime} makes the states distinguishable")
    if not 0.0 < demand.eta < 0.25:
        raise OutOfRegimeError(f"eta must lie in (0, 1/4), got {demand.eta}")
    # log1p: at alpha' below ~1e-8, 1 - 4 alpha'^2 rounds to 1 and log() would return 0
    den = math.log1p(-4.0 * alpha_prime**2)
    v = math.log(4.0 * demand.eta * (1.0 - demand.eta)) / den if den else math.inf
    return sample_count(v, "fidelity lower bound")


def qht_sample_bounds(trace_dist: float, eps: float, p: float, alpha: float) -> QhtBounds:
    """Generic private-testing sample-complexity envelope at prior (p, 1-p).

    lower = max{ C/T, ln(pq/(alpha(1-alpha))) e^eps / (2 (e^eps-1)^2 T^2) }
    upper = ceil( 2 ln(sqrt(pq)/alpha) ((e^eps+1)/((e^eps-1) T))^2 )
    C     = max{ ln(pq/(alpha(1-alpha))) (e^eps+1) / (eps (e^eps-1)),
                 (1 - alpha(1-alpha)/(pq)) (e^eps+1) / (2 (e^(eps/2)-1)^2) }
    """
    if not 0.0 < trace_dist <= 1.0:
        raise InvalidInputError(f"trace distance must be in (0, 1], got {trace_dist}")
    if not (math.isfinite(eps) and eps > 0):
        raise InvalidInputError(f"eps must be finite and > 0, got {eps}")
    if not 0.0 < p < 1.0:
        raise InvalidInputError(f"p must be in (0, 1), got {p}")
    q = 1.0 - p
    if not 0.0 < alpha < p * q:
        raise OutOfRegimeError(f"alpha must lie in (0, pq) = (0, {p * q}), got {alpha}")
    try:
        e, e_half = math.exp(eps), math.exp(eps / 2.0)
    except OverflowError:
        raise OutOfRegimeError(f"e^epsilon overflows a float at epsilon = {eps}") from None
    if e_half == 1.0:  # e^eps >= e^(eps/2), so e^eps - 1 is 0 only where this one is
        raise OutOfRegimeError(f"e^(epsilon/2) - 1 is 0 in floating point at epsilon = {eps:g}")
    t = trace_dist
    # squares by products: a Python float's ** raises OverflowError where * gives inf
    den = 2.0 * ((e - 1.0) * (e - 1.0)) * (t * t)
    if not 0.0 < den < math.inf:
        raise OutOfRegimeError(f"2 (e^eps - 1)^2 T^2 is {den:g} in floating point at epsilon = {eps:g}, T = {t:g}")
    log_ratio = math.log(p * q / (alpha * (1.0 - alpha)))
    c_const = max(
        log_ratio * (e + 1.0) / (eps * (e - 1.0)),
        (1.0 - alpha * (1.0 - alpha) / (p * q)) * (e + 1.0) / (2.0 * ((e_half - 1.0) * (e_half - 1.0))),
    )
    lower = max(c_const / t, log_ratio * e / den)
    r = (e + 1.0) / ((e - 1.0) * t)
    upper = float(sample_count(2.0 * math.log(math.sqrt(p * q) / alpha) * (r * r), "private-testing upper bound"))
    return QhtBounds(lower=lower, upper=upper, c_const=c_const)


def build_qht_reduction(obs: np.ndarray, beta: float) -> QhtReduction:
    """Embed accuracy-beta estimation into discriminating two engineered states.

    rho0 and rho1 mix the extreme eigenvectors with weights 1/2 +- alpha',
    alpha' = 2 beta / (lmax - lmin); their expectations differ by exactly
    4 beta and their trace distance is 2 alpha'.
    """
    obs = qops.check_hermitian(obs)
    w, v = np.linalg.eigh(obs)
    lmin, lmax = float(w[0]), float(w[-1])
    if lmax - lmin <= 1e-12:
        raise DegenerateObservableError(
            "observable is proportional to the identity; its expectation needs no samples")
    if beta <= 0 or beta > (lmax - lmin) / 4.0:
        raise OutOfRegimeError(f"beta must lie in (0, (lambda_max - lambda_min)/4] = (0, {(lmax - lmin) / 4.0}]")
    alpha_prime = 2.0 * beta / (lmax - lmin)
    pmax = qops.projector(v[:, -1])
    pmin = qops.projector(v[:, 0])
    rho0 = (0.5 + alpha_prime) * pmax + (0.5 - alpha_prime) * pmin
    rho1 = (0.5 - alpha_prime) * pmax + (0.5 + alpha_prime) * pmin
    return QhtReduction(
        rho0=qops.hermitize(rho0),
        rho1=qops.hermitize(rho1),
        alpha_prime=alpha_prime,
        threshold=(lmax + lmin) / 2.0,
    )


def threshold_test(estimate: float, reduction: QhtReduction) -> str:
    """Declare H0 iff the estimate reaches the spectral midpoint (boundary -> H0)."""
    return H0 if estimate >= reduction.threshold else H1


def measurement_operator_protocol(obs: np.ndarray, rho: np.ndarray, budget: PrivacyBudget,
                                  demand: AccuracyDemand, rng: np.random.Generator):
    """Estimate Tr[O rho] for a measurement operator 0 <= O <= I.

    Simulates the two-outcome instrument {O, I - O}, depolarizes the outcome
    bit with q = 2(1-delta)/(e^eps + 1), and debiases the outcome-0 frequency
    as (f0 - q/2)/(1 - q).  Returns (estimate, n_used) with n_used the
    Hoeffding-sufficient sample size, :func:`required_samples_upper` at S = 1.
    """
    obs = qops.check_hermitian(obs)
    w = np.linalg.eigvalsh(obs)
    if w.min() < -1e-9 or w.max() > 1.0 + 1e-9:
        raise InvalidInputError("operator must satisfy 0 <= O <= I")
    if rho.shape != obs.shape:
        raise InvalidInputError(f"state shape {rho.shape} does not match operator {obs.shape}")
    n = required_samples_upper(1.0, budget, demand)
    q = optimal_depolarizing_p(2, budget)
    t = float(np.trace(obs @ rho).real)
    p0 = q / 2.0 + t * (1.0 - q)
    f0 = rng.binomial(n, p0) / n
    return float((f0 - q / 2.0) / (1.0 - q)), n


def run_estimation_trials(rho: np.ndarray, decomp: PauliDecomposition,
                          budget: PrivacyBudget, demand: AccuracyDemand,
                          trials: int, seed: int, n: int | None = None) -> np.ndarray:
    """Monte Carlo estimates, one per trial, each from n privatized records.

    Every record is worth +-S/(1-q), positive with probability
    p+ = 1/2 + (1-q) Tr[O rho]/(2S), so a trial is S/(1-q) (2K/n - 1) with
    K ~ Binomial(n, p+): one draw for all trials, whatever n is.  Tr[O rho]
    is ``decomp.expectation(rho)``, which checks the state.  The record-level
    :func:`simulate_privatized_batch` and :func:`estimate_from_batch` sample
    the same law one record at a time.
    """
    if n is None:
        n = required_samples_upper(decomp.weight, budget, demand)
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if n > np.iinfo(np.int64).max:
        raise OutOfRegimeError(f"n = {n} records exceed the 2**63 - 1 a trial can count")
    q = optimal_depolarizing_p(2, budget)
    if q >= 1.0:
        raise NoninvertibleError("q = 1 erases the signal; the estimator cannot be debiased")
    if decomp.weight <= 0:
        raise DegenerateObservableError("observable has zero Pauli weight")
    expectation = decomp.expectation(rho)
    # the clip absorbs |Tr[O rho]| rounding just past S; unlike min/max it passes
    # NaN on, so binomial() rejects it instead of drawing from p+ = 0
    p_plus = np.clip(0.5 + (1.0 - q) * expectation / (2.0 * decomp.weight), 0.0, 1.0)
    k = np.random.default_rng(seed).binomial(n, p_plus, size=trials)
    return decomp.weight / (1.0 - q) * (2.0 * k / n - 1.0)


def trials_to_csv(estimates: np.ndarray, n: int, true_value: float, beta: float) -> str:
    """CSV rows ``trial,n,estimate,true_value,abs_error,within_beta``, one per estimate.

    Each row's tail after the trial index depends on the estimate alone, so
    each distinct estimate is formatted once, keyed by its float64 bit pattern
    (which keeps 0.0 and -0.0, and NaN payloads, apart), and the file is one
    join.  The text is fixed by the estimates: a seeded run writes the same bytes.
    """
    est = np.asarray(estimates, dtype=np.float64)
    keys = est.view(np.int64).tolist()
    truth = f"{true_value:.12g}"
    tails = {}
    for key, x in dict(zip(keys, est.tolist())).items():
        err = abs(x - true_value)
        tails[key] = f",{n},{x:.12g},{truth},{err:.12g},{int(err <= beta)}\n"
    rows = [f"{i}{tails[key]}" for i, key in enumerate(keys)]
    return "trial,n,estimate,true_value,abs_error,within_beta\n" + "".join(rows)
