"""The benchmark's tracer wraps qldp functions by name and reads some of their parameters.

``bench/tracing.py`` is installed at run time around the package's public
functions; renaming one of them, or a parameter it reads such as
``run_shadow_trials(trials, n)``, breaks the traced benchmark run.  This test
installs and uninstalls the tracer so that such a change fails here first.
"""

import sys
from pathlib import Path

import numpy as np

import qldp
import qldp.cli  # noqa: F401  (the tracer wraps qldp.cli.main)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
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
