"""Self-test of the benchmark: each correctness check trips on a corrupted result,
failures are counted, and all four workloads run end to end at minimal size.

    python3 bench/selftest.py

Exits 0 when every case passes and prints one line per case.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import run  # sets the BLAS thread variables before numpy is imported

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402
from qldp import channels, estimate, privacy, utility  # noqa: E402

from checks import (CheckFailed, check_certification, check_trials_csv,  # noqa: E402
                    check_utility)
from workloads import NAMES, Job  # noqa: E402

CASES = []


def case(name):
    def deco(fn):
        CASES.append((name, fn))
        return fn
    return deco


def trips(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except CheckFailed:
        return
    raise AssertionError("the check accepted a corrupted result")


def holds(condition, message):
    if not condition:
        raise AssertionError(message)


BUDGET = privacy.PrivacyBudget(1.0, 0.0)
SEARCH = privacy.SearchConfig(restarts=8, local_steps=20, seed=1)
DEP_P = 0.4
DEP = channels.depolarizing(4, DEP_P)
RAND = channels.random_channel(4, 3, np.random.default_rng(1))
CERT = privacy.certify_qldp(RAND, BUDGET, SEARCH)
REPORT = utility.utility_report(RAND, SEARCH)


@case("certification check accepts the program's result")
def _():
    check_certification(RAND.kraus, CERT, BUDGET.gamma)
    exact = privacy.depolarizing_privacy_profile(4, DEP_P, BUDGET.gamma)
    check_certification(DEP.kraus, privacy.certify_qldp(DEP, BUDGET, SEARCH), BUDGET.gamma, exact)


@case("witness pair rotated off orthogonality trips")
def _():
    phi1, phi2 = CERT.witness_pair
    t = 1e-6
    bad = dataclasses.replace(CERT, witness_pair=(phi1, math.cos(t) * phi2 + math.sin(t) * phi1))
    trips(check_certification, RAND.kraus, bad, BUDGET.gamma)


@case("certificate above what its witness reaches trips")
def _():
    bad = dataclasses.replace(CERT, sup_estimate=CERT.sup_estimate + 1e-7)
    trips(check_certification, RAND.kraus, bad, BUDGET.gamma)


@case("depolarizing certificate off the exact profile trips")
def _():
    res = privacy.certify_qldp(DEP, BUDGET, SEARCH)
    exact = privacy.depolarizing_privacy_profile(4, DEP_P, BUDGET.gamma)
    trips(check_certification, DEP.kraus, res, BUDGET.gamma, exact + 1e-7)


@case("utility check accepts the program's result")
def _():
    check_utility(RAND.kraus, REPORT)


@case("utility values off their witnesses trip")
def _():
    trips(check_utility, RAND.kraus, dataclasses.replace(REPORT, fidelity_utility=REPORT.fidelity_utility - 1e-6))
    trips(check_utility, RAND.kraus, dataclasses.replace(REPORT, trace_utility=REPORT.trace_utility + 1e-7))
    trips(check_utility, RAND.kraus, dataclasses.replace(REPORT, minimizer=REPORT.minimizer * (1 + 1e-6)))
    rep = utility.utility_report(DEP, SEARCH)
    trips(check_utility, DEP.kraus, rep, utility.depolarizing_fidelity_utility(4, DEP_P) + 1e-7, None)


def _csv(estimates, truth):
    return estimate.trials_to_csv(np.asarray(estimates), 100, truth, 0.1)


TRUTH = 0.3
GOOD = TRUTH + np.random.default_rng(2).standard_normal(200) * 0.05


@case("trials CSV check accepts unbiased estimates")
def _():
    check_trials_csv(_csv(GOOD, TRUTH), 200, TRUTH)


@case("trials CSV with a shifted mean, a missing row, a wrong truth or too few trials trips")
def _():
    se = GOOD.std(ddof=1) / math.sqrt(len(GOOD))
    trips(check_trials_csv, _csv(GOOD + 7 * se, TRUTH), 200, TRUTH)
    trips(check_trials_csv, _csv(GOOD[:-1], TRUTH), 200, TRUTH)
    trips(check_trials_csv, _csv(GOOD, TRUTH + 1e-6), 200, TRUTH)
    trips(check_trials_csv, _csv(GOOD[:10], TRUTH), 10, TRUTH)


@case("jobs that raise, fail a check or exit nonzero count as failed")
def _():
    def boom(tracer):
        raise RuntimeError("job raised")

    def bad_check(out):
        raise CheckFailed("wrong output")

    def exit_one(out):
        if out != 0:
            raise CheckFailed(f"exit code {out}")
        return {}

    jobs = [Job("raises", boom, dict), Job("wrong", lambda tr: 0, bad_check),
            Job("exit", lambda tr: 1, exit_one), Job("fine", lambda tr: 0, exit_one)]
    tally = {"attempted": 0, "failed": 0, "passes": 0, "values": {}}
    run.run_passes(jobs, 0, None, tally)
    holds((tally["attempted"], tally["failed"]) == (4, 3), f"tally {tally}")


SPEC = run._spec()


@case("smoke run of all four workloads, untraced and traced")
def _():
    for workload in NAMES:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            res = run.run(workload, 5, 0, trace, smoke=True, setup_repeats=1)
            names = {m["name"] for m in SPEC[group]}
            holds(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{workload} trace={trace}: {res['attempted']} attempted, {res['failed']} failed")
            holds(set(res["metrics"]) == names, f"{workload} trace={trace}: metric names differ")
            holds(all(math.isfinite(m["value"]) for m in res["metrics"].values()),
                  f"{workload} trace={trace}: non-finite metric")


@case("without the program's sources the benchmark exits nonzero and prints no result")
def _():
    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    holds(proc.returncode != 0, "exit code 0")
    for line in proc.stdout.splitlines():
        try:
            json.loads(line)
        except ValueError:
            continue
        raise AssertionError(f"printed a result: {line}")


def main() -> int:
    failures = 0
    for name, fn in CASES:
        try:
            fn()
        except Exception as exc:  # report every case, then fail the run
            failures += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    print(f"{failures} case(s) failed" if failures else "all cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
