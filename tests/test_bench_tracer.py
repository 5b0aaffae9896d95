"""The benchmark's tracer wraps qldp functions by name and reads some of their parameters.

``bench/tracing.py`` is installed at run time around the package's public
functions; renaming one of them, or a parameter it reads such as
``run_shadow_trials(trials, n)``, breaks the traced benchmark run.  This test
installs and uninstalls the tracer so that such a change fails here first.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import qldp
import qldp.cli  # noqa: F401  (the tracer wraps qldp.cli.main)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


def test_tracer_installs_and_uninstalls():
    tracing = _tracing()
    originals = {name: getattr(qldp.shadows, name)
                 for name in ("run_shadow_trials", "shadow_sample", "random_clifford")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, fn in originals.items():
            assert getattr(qldp.shadows, name) is not fn
        qldp.pauli.random_clifford(1, np.random.default_rng(0))
        assert tracer.spans[0].name == "pauli.random_clifford"
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert getattr(qldp.shadows, name) is fn


def test_tracer_records_certification_and_utility():
    # certification calls no wrapped search, so its time is carried by the certify_qldp span alone
    tracing = _tracing()
    originals = [(qldp, "certify_qldp"), (qldp.privacy, "certify_qldp"), (qldp.cli, "certify_qldp"),
                 (qldp.privacy, "refine_extremum"), (qldp, "utility_report"), (qldp.utility, "utility_report")]
    before = [getattr(owner, name) for owner, name in originals]
    channel = qldp.random_channel(3, 2, np.random.default_rng(0))
    cfg = qldp.SearchConfig(restarts=4, local_steps=5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, name) is not fn for (owner, name), fn in zip(originals, before))
        qldp.certify_qldp(channel, qldp.PrivacyBudget(1.0, 0.0), cfg)
        qldp.utility_report(channel, cfg)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert "privacy.certify_qldp" in names and "utility.utility_report" in names
    assert "privacy.refine_extremum" not in names
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["privacy.certify_calls"] == 1 and metrics["privacy.certify_s"] > 0
    assert metrics["utility.report_calls"] == 1
    assert [getattr(owner, name) for owner, name in originals] == before


def test_bench_selftest_passes():
    # the smoke runs of all four workloads, untraced and traced, and every check's trip case
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("all cases passed")
