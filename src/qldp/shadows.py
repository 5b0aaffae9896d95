"""Private classical shadows: noisy snapshots, inversion, median-of-means.

One snapshot: rotate by a uniformly random Clifford, depolarize with strength
p_hat, measure in the computational basis, and keep the rotated-back outcome
projector.  The group average of that procedure is itself a depolarizing
channel with q = 1 - (1 - p_hat)/(d + 1), which is what makes the linear
snapshot inversion unbiased and pins the privacy calibration.

The inverted snapshot depends on the Clifford U and outcome b only through
the stabilizer state s = U^dag|b>, whose exact distribution gives the law of
the snapshot value Tr[O rho_hat], O given as a
:class:`~qldp.pauli.PauliDecomposition`.  For O = c_0 I + c P with P one
Pauli string (the decomposition's ``one_term`` test),
:func:`_pauli_string_cells` writes that law in closed form from O's support
and Tr[P rho], one O(d) :func:`~qldp.pauli.pauli_trace`: three values, c_0
and c_0 +- x c, at any m.  For any other observable, :func:`_snapshot_tables`
reads O's ``matrix`` and all 2^m prod_k (2^k + 1)
stabilizer states (6 / 60 / 1080 / 36720 for m = 1..4) chunk by chunk from
the closed-form enumeration :func:`qldp.pauli.stabilizer_states`; no Clifford
group is built.  A median-of-means batch reads its snapshots only through the
count of each distinct value, so :func:`_trial_estimates` draws those counts
from a multinomial (or, for a batch smaller than the number of values, its
snapshots' values), in O(batches * min(ell, values)) time per trial, with all
trials drawn in bounded blocks from one RNG stream.  :func:`shadow_sample`
and :func:`snapshot_inverse` draw and invert one (Clifford, outcome) record
at a time for m <= 2, with the Clifford as a plain d x d array, an
independent path that tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qops
from .channels import (
    QuantumChannel,
    compose,
    depolarizing,
    pauli_measurement_channel,
    twirl,
)
from .errors import (
    DegenerateObservableError,
    InfeasibleError,
    InvalidInputError,
    NoninvertibleError,
    OutOfRegimeError,
)
from .estimate import AccuracyDemand, sample_count
from .pauli import (
    PauliDecomposition,
    enumerate_cliffords,
    pauli_matrix,
    pauli_trace,
    random_clifford,
    stabilizer_states,
)
from .privacy import PrivacyBudget


@dataclass(frozen=True)
class ShadowSample:
    """One snapshot record: the sampled Clifford, a d x d unitary, and the measured bitstring."""

    clifford: np.ndarray
    bits: str

    def __post_init__(self):
        shape = np.shape(self.clifford)
        if shape != (2 ** len(self.bits),) * 2 or any(c not in "01" for c in self.bits):
            raise InvalidInputError(f"bits {self.bits!r} do not match a {shape} Clifford")


def private_shadow_p_hat(d: int, budget: PrivacyBudget) -> float:
    """Depolarizing strength calibrating the snapshot mechanism to the budget.

    1 - min{1, (e^eps - 1 + d delta)(d + 1)/(e^eps + d - 1)}; clamps to 0
    whenever e^eps + delta (d + 1) >= 2 (no noise needed beyond measurement).
    """
    if d < 2:
        raise InvalidInputError(f"d must be >= 2, got {d}")
    ratio = (budget.gamma - 1.0 + d * budget.delta) * (d + 1.0) / (budget.gamma + d - 1.0)
    return 1.0 - min(1.0, ratio)


def effective_depolarizing_q(p_hat: float, d: int) -> float:
    """Depolarizing level of the group-averaged snapshot channel: 1 - (1-p_hat)/(d+1)."""
    if not 0.0 <= p_hat <= 1.0:
        raise InvalidInputError(f"p_hat must be in [0, 1], got {p_hat}")
    return 1.0 - (1.0 - p_hat) / (d + 1.0)


def _born_probs(rho: np.ndarray, u: np.ndarray, p_hat: float) -> np.ndarray:
    d = rho.shape[0]
    rot = u @ rho @ u.conj().T
    probs = (1.0 - p_hat) * np.diag(rot).real + p_hat / d
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def shadow_sample(rho: np.ndarray, p_hat: float, rng: np.random.Generator) -> ShadowSample:
    """Draw one snapshot record from the state (m in {1, 2})."""
    if not 0.0 <= p_hat <= 1.0:
        raise InvalidInputError(f"p_hat must be in [0, 1], got {p_hat}")
    d = rho.shape[0]
    m = int(round(math.log2(d)))
    if 2**m != d:
        raise InvalidInputError(f"state dimension {d} is not a power of two")
    element = random_clifford(m, rng)
    probs = _born_probs(rho, element, p_hat)
    b = int(rng.choice(d, p=probs))
    return ShadowSample(clifford=element, bits=format(b, f"0{m}b"))


def snapshot_inverse(sample: ShadowSample, p_hat: float, d: int) -> np.ndarray:
    """Unbiased linear inversion of one snapshot.

    With x = (d+1)/(1-p_hat): ``x U^dag |b><b| U - (x - 1) I/d``.  Unit trace
    by construction; the average over Cliffords and outcomes reproduces the
    input state exactly.
    """
    if p_hat == 1.0:
        raise NoninvertibleError("p_hat = 1 erases the state; snapshots cannot be inverted")
    if not 0.0 <= p_hat < 1.0:
        raise InvalidInputError(f"p_hat must be in [0, 1), got {p_hat}")
    u = sample.clifford
    if u.shape[0] != d:
        raise InvalidInputError(f"snapshot dimension {u.shape[0]} does not match d={d}")
    x = (d + 1.0) / (1.0 - p_hat)
    b = int(sample.bits, 2)
    v = u.conj().T[:, b]
    return qops.hermitize(x * np.outer(v, v.conj()) - (x - 1.0) * np.eye(d) / d)


def median_of_means_estimate(snapshots, obs: np.ndarray, ell: int) -> float:
    """Median over per-batch means of Tr[O rho_hat], batches of ell consecutive snapshots."""
    n = len(snapshots)
    if n == 0:
        raise InvalidInputError("no snapshots")
    if ell < 1 or n % ell != 0:
        raise InvalidInputError(f"batch size {ell} does not divide the snapshot count {n}")
    vals = np.array([np.trace(obs @ s).real for s in snapshots])
    batches = vals.reshape(n // ell, ell).mean(axis=1)
    return float(np.median(batches))


def shadow_required_samples(tr_obs_sq: float, d: int, budget: PrivacyBudget, demand: AccuracyDemand) -> int:
    """Snapshot count sufficient for the private shadow pipeline; its max is 1 iff e^eps + delta (d+1) >= 2.

    ceil of (204 Tr[O^2]/beta^2) max{1, ((e^eps+d-1)/((e^eps-1+d delta)(d+1)))^2} ln(2/eta), at least 1.
    """
    denom = budget.gamma - 1.0 + d * budget.delta
    if denom <= 0:
        raise InfeasibleError(
            f"epsilon = {budget.epsilon:g} and delta = {budget.delta:g} admit no finite sample size")
    ratio = (budget.gamma + d - 1.0) / (denom * (d + 1.0))
    v = 204.0 * tr_obs_sq / (demand.beta * demand.beta) * max(1.0, ratio * ratio) \
        * math.log(2.0 / demand.eta)
    return max(1, sample_count(v, f"shadow bound, Tr[O^2] = {tr_obs_sq:g}"))


def default_batch_count(n: int, eta: float) -> int:
    """Divisor of n closest to max(1, floor(2 ln(2/eta))); ties take the smaller.

    1 divides n and lies target - 1 away, so no divisor from 2 target on can
    win: the search costs O(target), not O(sqrt(n)).
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    target = max(1, math.floor(2.0 * math.log(2.0 / eta)))
    return min((k for k in range(1, 2 * target) if n % k == 0),
               key=lambda k: (abs(k - target), k))


def composite_shadow_channel(p_hat: float, m: int = 1) -> QuantumChannel:
    """Exact group-averaged snapshot channel, built by full enumeration (m = 1).

    The Clifford twirl of a Z measurement after depolarizing noise: Kraus
    operators U^dag |b><b| A_k U / sqrt(|G|) over all group elements,
    outcomes, and depolarizing Kraus terms A_k.
    """
    if m != 1:
        raise InvalidInputError("exact composite enumeration is supported at m = 1 only")
    z_measurement = pauli_measurement_channel(pauli_matrix("Z"))
    return twirl(compose(z_measurement, depolarizing(2, p_hat)), enumerate_cliffords(1))


def _snapshot_tables(rho: np.ndarray, obs: np.ndarray, p_hat: float, m: int):
    """Stabilizer-state distribution of one snapshot and Tr[O rho_hat] per state.

    A uniform Clifford U with outcome b reaches each stabilizer state s = U^dag|b>
    equally often, so s has probability proportional to (1 - p_hat)<s|rho|s> + p_hat/d,
    and the inverted snapshot gives x <s|O|s> - (x - 1) Tr[O]/d.
    """
    d = 2**m
    born, expect = [], []
    for states in stabilizer_states(m):
        born.append(((states.conj() @ rho) * states).sum(axis=1).real)
        expect.append(((states.conj() @ obs) * states).sum(axis=1).real)
    probs = (1.0 - p_hat) * np.concatenate(born) + p_hat / d
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    x = (d + 1.0) / (1.0 - p_hat)
    vals = x * np.concatenate(expect) - (x - 1.0) * np.trace(obs).real / d
    return probs, vals


def _pauli_string_cells(rho: np.ndarray, decomp: PauliDecomposition, p_hat: float):
    """Snapshot law of a :attr:`~qldp.pauli.PauliDecomposition.one_term` O = c_0 I + c_k P_k.

    A uniform Clifford maps the non-identity P_k to a Z-type string with
    probability 1/(d + 1), and the stabilizer state s then has <s|P_k|s> = +-1;
    otherwise <s|P_k|s> = 0.  So Tr[O rho_hat] = c_0 + x c_k <s|P_k|s> takes
    the value c_0 +- x c_k with probability (1 +- t)/(2(d + 1)), where
    t = (1 - p_hat) Tr[P_k rho] (one O(d) :func:`~qldp.pauli.pauli_trace`), and
    c_0 with probability d/(d + 1).  With no non-identity term the value is c_0.
    """
    d, c0 = 2**decomp.m, decomp.coeffs[0]
    terms = decomp.support[decomp.support > 0].tolist()
    if not terms:
        return np.ones(1), np.array([c0])
    k = terms[0]
    t = (1.0 - p_hat) * pauli_trace(rho, k, decomp.m).real
    probs = np.clip([(1.0 + t) / (2.0 * (d + 1.0)), (1.0 - t) / (2.0 * (d + 1.0)), d / (d + 1.0)],
                    0.0, None)
    xc = (d + 1.0) / (1.0 - p_hat) * decomp.coeffs[k]
    return probs / probs.sum(), np.array([c0 + xc, c0 - xc, c0])


# A block of trials holds at most about this many draws (uniforms or cell counts).
_BLOCK_DRAWS = 2**16


def _trial_estimates(cell_probs: np.ndarray, cell_vals: np.ndarray, n: int, ell: int,
                     trials: int, seed: int) -> np.ndarray:
    """Median-of-means estimates, one per trial, drawn exactly from per-cell laws.

    A trial's n snapshots fall in n // ell batches of ell, each snapshot in
    cell c with probability cell_probs[c] and value cell_vals[c]; a trial
    returns the median over batches of the batch means.  A batch with at least
    as many snapshots as cells draws its per-cell counts from one multinomial;
    a smaller one draws its snapshots' cells by inverse CDF.  Both give the
    same law.  All trials read one stream, ``default_rng(seed)``, a block of
    trials per call: a block holds at most about ``_BLOCK_DRAWS`` draws and at
    least one trial, so memory is O(max(_BLOCK_DRAWS, n/ell * min(ell, cells)))
    for any trial count.  The block size does not depend on ``trials`` and
    each call fills its block in order, so the first k trials of a run equal a
    k-trial run at the same seed.
    """
    if n > np.iinfo(np.int64).max:
        raise OutOfRegimeError(f"n = {n} records exceed the 2**63 - 1 a trial can count")
    batches = n // ell
    cells = len(cell_probs)
    block = max(1, _BLOCK_DRAWS // (batches * min(ell, cells)))
    cum = np.cumsum(cell_probs)
    cum[-1] = 1.0
    rng = np.random.default_rng(seed)
    out = np.empty(trials)
    for start in range(0, trials, block):
        k = min(block, trials - start)
        if ell < cells:
            idx = np.searchsorted(cum, rng.random((k, batches, ell)), side="right")
            sums = cell_vals[idx].sum(axis=2)
        else:
            sums = rng.multinomial(ell, cell_probs, size=(k, batches)) @ cell_vals
        sums.sort(axis=1)
        out[start:start + k] = (sums[:, (batches - 1) // 2] + sums[:, batches // 2]) / 2.0 / ell
    return out


def run_shadow_trials(rho: np.ndarray, decomp: PauliDecomposition, p_hat: float, n: int,
                      ell: int, trials: int, seed: int) -> np.ndarray:
    """Monte Carlo median-of-means estimates of Tr[O rho], one per trial, for O = ``decomp``.

    The snapshot law comes from :func:`_pauli_string_cells` when
    ``decomp.one_term``, at any m; otherwise from the stabilizer-state table
    :func:`_snapshot_tables` on ``decomp.matrix``, which covers m <= 4.  Equal
    values merge into one cell, and :func:`_trial_estimates` draws every batch
    exactly from that cell law, in O(n/ell * min(ell, cells)) time per trial.  All trials read one RNG stream
    seeded by ``seed``, and the first k trials of a run equal a k-trial run at
    the same seed.
    """
    if p_hat == 1.0:
        raise NoninvertibleError("p_hat = 1 erases the state; snapshots cannot be inverted")
    if not 0.0 <= p_hat <= 1.0:
        raise InvalidInputError(f"p_hat must be in [0, 1], got {p_hat}")
    rho = decomp.check_state(rho)
    if n < 1 or ell < 1 or n % ell != 0:
        raise InvalidInputError(f"batch size {ell} does not divide n={n}")
    if decomp.weight <= 0:
        raise DegenerateObservableError("observable has zero Pauli weight")
    if decomp.one_term:
        probs, vals = _pauli_string_cells(rho, decomp, p_hat)
    elif decomp.m <= 4:
        probs, vals = _snapshot_tables(rho, decomp.matrix, p_hat, decomp.m)
    else:
        raise InvalidInputError(
            f"an observable with more than one non-identity Pauli term needs the "
            f"stabilizer-state table, which covers m in 1..4; got m = {decomp.m}")
    vals, cell = np.unique(vals, return_inverse=True)
    return _trial_estimates(np.bincount(cell, weights=probs), vals, n, ell, trials, seed)
