import math
from functools import partial

import numpy as np
import pytest

from qldp import channels as ch
from qldp import qops, utility
from qldp.cli import main
from qldp.errors import InvalidInputError
from qldp.pauli import enumerate_cliffords, pauli_matrix
from qldp.privacy import PrivacyBudget, SearchConfig, optimal_depolarizing_p
from qldp.utility import (
    depolarizing_fidelity_utility,
    depolarizing_trace_utility,
    optimal_fidelity_utility,
    optimal_trace_utility,
    utility_curve,
    utility_report,
)
from test_channels import fidelity_gradient
from test_privacy import bench_false_satisfied_member

CFG = SearchConfig(restarts=48, local_steps=150, seed=0)


def test_identity_channel_utilities():
    rep = utility_report(ch.identity_channel(2), CFG)
    assert abs(rep.fidelity_utility - 1.0) < 1e-9
    assert rep.trace_utility < 1e-9
    assert abs(rep.anti_trace_utility - 1.0) < 1e-9


def test_depolarizing_closed_forms():
    for d, p in [(2, 0.3), (2, 1.0), (3, 0.6), (4, 0.85)]:
        rep = utility_report(ch.depolarizing(d, p), CFG)
        assert abs(rep.fidelity_utility - depolarizing_fidelity_utility(d, p)) < 1e-9
        assert abs(rep.trace_utility - depolarizing_trace_utility(d, p)) < 1e-9


def test_depolarizing_complementarity():
    for d, p in [(2, 0.4), (3, 0.7)]:
        rep = utility_report(ch.depolarizing(d, p), CFG)
        assert abs(rep.fidelity_utility + rep.trace_utility - 1.0) < 1e-9


def test_replacement_channel_fidelity():
    d = 3
    rep = utility_report(ch.replacement_channel(np.eye(d) / d), CFG)
    assert abs(rep.fidelity_utility - 1.0 / d) < 1e-8


def test_qubit_full_depolarizing_trace_value():
    rep = utility_report(ch.depolarizing(2, 1.0), CFG)
    assert abs(rep.trace_utility - 0.5) < 1e-9


def test_witnesses_reproduce_reported_values():
    rng = np.random.default_rng(1)
    n = ch.random_channel(2, 3, rng)
    rep = utility_report(n, CFG)
    rho_min = qops.projector(rep.minimizer)
    rho_max = qops.projector(rep.maximizer)
    assert abs(qops.fidelity(ch.apply(n, rho_min), rho_min) - rep.fidelity_utility) < 1e-8
    assert abs(qops.trace_distance(ch.apply(n, rho_max), rho_max) - rep.trace_utility) < 1e-8


def test_utility_requires_square_channel():
    from qldp.pauli import pauli_matrix

    with pytest.raises(InvalidInputError):
        utility_report(ch.pauli_measurement_channel(pauli_matrix("XZ")), CFG)


def test_optimal_fidelity_examples():
    assert abs(optimal_fidelity_utility(2, PrivacyBudget(50.0, 0.0)) - 1.0) < 1e-12
    assert abs(optimal_fidelity_utility(2, PrivacyBudget(math.log(3), 0.0)) - 0.75) < 1e-12
    assert abs(optimal_fidelity_utility(10, PrivacyBudget(0.0, 0.0)) - 0.1) < 1e-12


def test_optimal_trace_examples():
    assert optimal_trace_utility(3, PrivacyBudget(1.0, 1.0)) == 0.0
    assert abs(optimal_trace_utility(2, PrivacyBudget(math.log(3), 0.0)) - 0.25) < 1e-12
    expected = 9 * 0.9 / (math.e + 9)
    assert abs(optimal_trace_utility(10, PrivacyBudget(1.0, 0.1)) - expected) < 1e-12


def test_optimal_values_sum_to_one():
    for d in (2, 5, 10):
        for eps in (0.0, 0.5, 2.0):
            for delta in (0.0, 0.2, 1.0):
                b = PrivacyBudget(eps, delta)
                assert abs(optimal_fidelity_utility(d, b) + optimal_trace_utility(d, b) - 1.0) < 1e-12


def test_optimum_attained_by_calibrated_depolarizing():
    for d in (2, 4):
        b = PrivacyBudget(0.8, 0.1)
        p_star = optimal_depolarizing_p(d, b)
        assert abs(depolarizing_fidelity_utility(d, p_star) - optimal_fidelity_utility(d, b)) < 1e-12
        assert abs(depolarizing_trace_utility(d, p_star) - optimal_trace_utility(d, b)) < 1e-12


def test_private_channels_respect_the_ceiling():
    rng = np.random.default_rng(2)
    b = PrivacyBudget(1.0, 0.0)
    p_star = optimal_depolarizing_p(2, b)
    ceiling_f = optimal_fidelity_utility(2, b)
    ceiling_t = optimal_trace_utility(2, b)
    private_core = ch.depolarizing(2, p_star)
    for _ in range(10):
        pre = ch.random_channel(2, int(rng.integers(1, 4)), rng)
        post = ch.random_channel(2, int(rng.integers(1, 4)), rng)
        n = ch.compose(post, ch.compose(private_core, pre))
        rep = utility_report(n, CFG)
        assert rep.fidelity_utility <= ceiling_f + 1e-6
        assert rep.trace_utility >= ceiling_t - 1e-6


def test_utility_curve_rows_and_monotonicity():
    eps_grid = [0.0, 0.5, 1.0, 2.0, 5.0]
    rows = utility_curve(10, [0.0, 0.1], eps_grid)
    assert len(rows) == 10
    assert rows[0][:2] == (0.0, 0.0)
    assert abs(rows[0][2] - 0.1) < 1e-12
    for delta in (0.0, 0.1):
        fids = [r[2] for r in rows if r[1] == delta]
        assert all(a <= b + 1e-15 for a, b in zip(fids, fids[1:]))
    # larger delta sits pointwise above
    f0 = [r[2] for r in rows if r[1] == 0.0]
    f1 = [r[2] for r in rows if r[1] == 0.1]
    assert all(a <= b + 1e-15 for a, b in zip(f0, f1))


def test_utility_drops_with_dimension():
    b = PrivacyBudget(1.0, 0.1)
    vals = [optimal_fidelity_utility(d, b) for d in (2, 10, 100)]
    assert vals[0] > vals[1] > vals[2]


def test_curve_csv_roundtrip(tmp_path):
    rows = utility_curve(10, [0.0], [0.0, 1.0])
    assert main(["utility-curve", "--d", "10", "--deltas", "0", "--eps-start", "0", "--eps-stop", "1",
                 "--eps-points", "2", "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "utility_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "epsilon,delta,optimal_fidelity,optimal_trace"
    parsed = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    for got, want in zip(parsed, rows):
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


def test_empty_grids_rejected():
    with pytest.raises(InvalidInputError):
        utility_curve(10, [], [1.0])
    with pytest.raises(InvalidInputError):
        utility_curve(10, [0.0], [])


@pytest.mark.parametrize("d", [2, 3, 8, 16])
def test_depolarizing_utilities_are_the_closed_forms_at_one_point(d):
    for p in (0.0, 0.35, 1.0):
        channel = ch.depolarizing(d, p)
        rep = utility_report(channel, CFG)
        assert abs(rep.fidelity_utility - depolarizing_fidelity_utility(d, p)) < 1e-12
        assert abs(rep.trace_utility - depolarizing_trace_utility(d, p)) < 1e-12
        # one evaluation, at e_0, which attains both values
        e0 = np.eye(d)[0]
        assert np.array_equal(rep.minimizer, e0) and np.array_equal(rep.maximizer, e0)
        rho = qops.projector(e0)
        assert abs(qops.trace_distance(ch.apply(channel, rho), rho) - rep.trace_utility) < 1e-12


def test_clifford_twirled_utilities_are_the_closed_forms():
    g = enumerate_cliffords(1)
    u = np.array([[np.cos(0.4), -1j * np.sin(0.4)], [-1j * np.sin(0.4), np.cos(0.4)]])
    p = 4 * np.sin(0.4) ** 2 / 3  # 1 - (|Tr U|^2 - 1)/(d^2 - 1)
    rep = utility_report(ch.twirl(ch.unitary_conjugate(u), g), CFG)
    assert abs(rep.fidelity_utility - depolarizing_fidelity_utility(2, p)) < 1e-12
    assert abs(rep.trace_utility - depolarizing_trace_utility(2, p)) < 1e-12


def test_rotated_depolarizing_channel_still_searches():
    # F(N(U psi U^dag), psi) = (1 - p) |<psi|U|psi>|^2 + p/d, least at cos^2(theta)
    theta, p = 0.05, 0.4
    u = np.array([[np.cos(theta), -1j * np.sin(theta)], [-1j * np.sin(theta), np.cos(theta)]])
    channel = ch.compose(ch.depolarizing(2, p), ch.unitary_conjugate(u))
    assert not ch.is_depolarizing(channel)
    rep = utility_report(channel, CFG)
    exact = (1 - p) * np.cos(theta) ** 2 + p / 2
    assert exact - 1e-12 <= rep.fidelity_utility < exact + 1e-6
    assert not np.array_equal(rep.minimizer, np.eye(2)[0])


# --- the searches against the adaptive-step ascent they replaced ------------------

ORACLE_STEP, ORACLE_UP, ORACLE_DOWN = 0.5, 1.5, 0.5  # initial step, and its factors on accept / reject
ORACLE_CONVERGED, ORACLE_MIN_STEP, ORACLE_BOUND_TOL = 1e-13, 1e-12, 1e-12


def adaptive_step_ascent(kernel, psi, sign, bound, cap):
    """Projected-gradient ascent of sign * f from the (B, d) unit vectors psi, one adaptive step per start.

    A start moves along the tangent part of its Wirtinger gradient and renormalizes; a candidate
    is kept only if it improves f, and the start's step grows by 1.5 on a kept candidate and halves
    otherwise.  A start retires at a gain of at most 1e-13 relative or a step below 1e-12; the search
    stops within 1e-12 of ``bound`` or after ``cap`` iterations.  Returns the final values and points.
    """
    vals, grads = kernel(psi)
    psi = psi.copy()
    steps = np.full(len(psi), ORACLE_STEP)
    live = np.arange(len(psi))
    for _ in range(cap):
        if live.size == 0 or sign * bound - (sign * vals).max() <= ORACLE_BOUND_TOL:
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
        steps[live] *= np.where(better, ORACLE_UP, ORACLE_DOWN)
        done = (better & (gain <= ORACLE_CONVERGED * np.maximum(1.0, np.abs(cvals)))) | (steps[live] < ORACLE_MIN_STEP)
        live = live[~done]
    return vals, psi


def adaptive_step_report(channel, search):
    """(fidelity, trace) of the adaptive-step ascents from utility_report's starts, clipped to [0, 1]."""
    rng = np.random.default_rng(search.seed)
    shape = (search.restarts, channel.dim_in)
    starts = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    fvals, fpts = adaptive_step_ascent(partial(fidelity_gradient, channel), starts, -1.0, 0.0, search.local_steps)
    tvals, _ = adaptive_step_ascent(partial(ch.trace_distance_gradient, channel), fpts, 1.0, 1.0, search.local_steps)
    return float(np.clip(fvals.min(), 0.0, 1.0)), float(np.clip(tvals.max(), 0.0, 1.0))


def _assert_witnesses_attain(channel, rep):
    # for a pure input F(N(psi), psi) = <psi|N(psi)|psi>, read off the output matrix
    psi, rho_max = rep.minimizer, qops.projector(rep.maximizer)
    assert abs(np.vdot(psi, ch.apply(channel, qops.projector(psi)) @ psi).real - rep.fidelity_utility) < 1e-10
    assert abs(qops.trace_distance(ch.apply(channel, rho_max), rho_max) - rep.trace_utility) < 1e-10


def test_searches_never_lose_to_the_adaptive_step_ascent():
    # the bench shapes, the bench's fixed member, a Pauli-twirled and a composed channel, at the default 64 x 200
    rng = np.random.default_rng(42)
    paulis = [pauli_matrix(c) for c in "IXYZ"]
    pool = [ch.random_channel(d, r, rng) for d, r in [(2, 2), (4, 3), (8, 4), (16, 3)]]
    pool += [ch.twirl(ch.random_channel(2, 2, rng), paulis),
             ch.compose(ch.random_channel(4, 2, rng), ch.random_channel(4, 3, rng)),
             bench_false_satisfied_member()]
    for i, channel in enumerate(pool):
        cfg = SearchConfig(seed=i)
        rep = utility_report(channel, cfg)
        fref, tref = adaptive_step_report(channel, cfg)
        assert rep.fidelity_utility <= fref + 1e-12, (channel.kraus.shape, rep.fidelity_utility, fref)
        assert rep.trace_utility >= tref - 1e-12, (channel.kraus.shape, rep.trace_utility, tref)
        _assert_witnesses_attain(channel, rep)


def bench_cap_member():
    """random-4-r3 of the benchmark's certify pool at workload seed 2, with its search seed.

    The pool draws, per (d, r), a depolarizing level and then random_channel(d, r); the
    search seeds follow, one per member in order (depolarizing-2, random-2-r2,
    depolarizing-4, random-4-r3, ...).
    """
    rng = np.random.default_rng([2, 1])
    members = {}
    for d, r in [(2, 2), (4, 3), (8, 4), (16, 3)]:
        rng.uniform(0.3, 0.9)
        members[d] = ch.random_channel(d, r, rng)
    seeds = [int(rng.integers(2**31)) for _ in range(4)]
    return members[4], SearchConfig(seed=seeds[3])


def test_fidelity_search_converges_on_the_cap_case(monkeypatch):
    # the adaptive-step ascent ran 201 + 201 kernel calls here and stopped at F = 7.5e-12
    calls = {"fidelity": 0, "trace": 0}

    def counting(key, kernel):
        def wrapped(channel, psi):
            calls[key] += 1
            return kernel(channel, psi)
        return wrapped

    monkeypatch.setattr(utility, "fidelity_residuals", counting("fidelity", ch.fidelity_residuals))
    monkeypatch.setattr(utility, "trace_distance_gradient", counting("trace", ch.trace_distance_gradient))
    channel, cfg = bench_cap_member()
    rep = utility_report(channel, cfg)
    assert rep.fidelity_utility <= utility.BOUND_TOL
    assert calls["fidelity"] - 1 <= 20  # Levenberg-Marquardt iterations after the first evaluation
    # D >= 1 - F at the minimizers, within BOUND_TOL of 1, so the trace search stops at its first evaluation
    assert calls["trace"] == 1 and rep.trace_utility >= 1 - 2 * utility.BOUND_TOL
    _assert_witnesses_attain(channel, rep)


@pytest.mark.parametrize("d", [2, 3])
def test_degenerate_channels_search_without_numerical_errors(d):
    # a constant or rank-deficient Jacobian must not make the damped normal equations singular;
    # Tier-1 turns RuntimeWarning into an error, so a division by zero fails here too
    rng = np.random.default_rng(50 + d)
    theta, p = 0.3, 0.4
    phase = np.diag(np.exp(1j * theta * (np.arange(d) > 0)))  # numerical range [1, e^{i theta}]
    sigma = qops.random_density(d, d, rng)
    rotated = ch.compose(ch.depolarizing(d, p), ch.unitary_conjugate(phase))
    assert len(rotated.kraus) == d * d + 1 and not ch.is_depolarizing(rotated)
    cases = [(ch.identity_channel(d), 1.0, 0.0),
             (ch.unitary_conjugate(qops.random_unitary(d, rng)), None, None),
             (ch.replacement_channel(sigma), np.linalg.eigvalsh(sigma)[0], 1 - np.linalg.eigvalsh(sigma)[0]),
             (rotated, (1 - p) * np.cos(theta / 2) ** 2 + p / d, None)]
    for channel, fid, trace in cases:
        rep = utility_report(channel, CFG)
        if fid is not None:
            assert abs(rep.fidelity_utility - fid) < 1e-9
        if trace is not None:
            assert abs(rep.trace_utility - trace) < 1e-9
        assert rep.trace_utility >= 1 - rep.fidelity_utility - 1e-12
        _assert_witnesses_attain(channel, rep)
