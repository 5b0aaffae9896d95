import math

import numpy as np
import pytest

from qldp import channels as ch
from qldp import qops
from qldp.cli import main
from qldp.errors import InvalidInputError
from qldp.pauli import enumerate_cliffords
from qldp.privacy import PrivacyBudget, SearchConfig, optimal_depolarizing_p
from qldp.utility import (
    depolarizing_fidelity_utility,
    depolarizing_trace_utility,
    optimal_fidelity_utility,
    optimal_trace_utility,
    utility_curve,
    utility_report,
)

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
    g = ch.FiniteUnitaryGroup(dim=2, elements=list(enumerate_cliffords(1)))
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
