"""Spans around calls into the ``qldp`` modules, installed from outside at run time.

:meth:`Tracer.install` replaces each traced public function with a wrapper on
every ``qldp`` module that holds it, so names bound at import time
(``qldp.cli.certify_qldp``, ``qldp.utility.refine_extremum``,
``qldp.shadows.random_clifford``, ...) are covered too; :meth:`Tracer.uninstall`
puts the originals back.  Spans are kept in memory and written out at the end.
The untraced run creates no tracer and installs nothing.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass

import qldp


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int           # index of the enclosing span, -1 at top level
    job: str              # "setup" or "<pass>:<job name>"
    attrs: dict | None = None


def _getter(fn, name):
    """Read argument ``name`` of ``fn`` from a call's (args, kwargs)."""
    pos = list(inspect.signature(fn).parameters).index(name)
    return lambda a, k: a[pos] if pos < len(a) else k[name]


def _targets():
    """(span name, owner, attribute, attrs(args, kwargs, result) or None)."""
    ch, pr, ut, pa, es, sh, cl = (qldp.channels, qldp.privacy, qldp.utility, qldp.pauli,
                                  qldp.estimate, qldp.shadows, qldp.cli)
    trials = _getter(es.run_estimation_trials, "trials")
    records = _getter(es.simulate_privatized_batch, "n")
    sh_trials = _getter(sh.run_shadow_trials, "trials")
    sh_n = _getter(sh.run_shadow_trials, "n")
    return [
        ("channels.QuantumChannel", ch.QuantumChannel, "__init__",
         lambda a, k, out: {"kraus_ops": len(a[0].kraus)}),
        ("channels.depolarizing", ch, "depolarizing", lambda a, k, out: {"kraus_ops": len(out.kraus)}),
        ("privacy.certify_qldp", pr, "certify_qldp", None),
        ("privacy.refine_extremum", pr, "refine_extremum", None),
        ("utility.utility_report", ut, "utility_report", None),
        ("pauli.enumerate_cliffords", pa, "enumerate_cliffords", lambda a, k, out: {"group_size": len(out)}),
        ("pauli.random_clifford", pa, "random_clifford", None),
        ("pauli.decompose", pa, "decompose", None),
        ("pauli.from_coeffs", pa, "from_coeffs", None),
        ("estimate.run_estimation_trials", es, "run_estimation_trials",
         lambda a, k, out: {"trials": trials(a, k)}),
        ("estimate.simulate_privatized_batch", es, "simulate_privatized_batch",
         lambda a, k, out: {"records": records(a, k)}),
        ("estimate.estimate_from_batch", es, "estimate_from_batch", None),
        ("shadows.run_shadow_trials", sh, "run_shadow_trials",
         lambda a, k, out: {"trials": sh_trials(a, k), "snapshots": sh_trials(a, k) * sh_n(a, k)}),
        ("shadows.shadow_sample", sh, "shadow_sample", None),
        ("shadows.snapshot_inverse", sh, "snapshot_inverse", None),
        ("shadows.median_of_means_estimate", sh, "median_of_means_estimate", None),
        ("cli.main", cl, "main", lambda a, k, out: {"exit_code": out}),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, out)
            return out
        return traced

    def _wrap_search(self, fn):
        """refine_extremum, with a span around each call of the objective it is passed."""
        inner = self.wrap("privacy.refine_extremum", fn)
        points = lambda a, k, out: {"points": len(out)}  # noqa: E731

        @functools.wraps(fn)
        def traced(value_fn, *args, **kwargs):
            return inner(self.wrap("privacy.objective", value_fn, points), *args, **kwargs)
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "qldp" or n.startswith("qldp.")]
        for name, owner, attr, attrs in _targets():
            orig = getattr(owner, attr)
            if name == "privacy.refine_extremum":
                wrapper = self._wrap_search(orig)
            else:
                wrapper = self.wrap(name, orig, attrs)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        self._patches.append((holder, key, orig))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches.clear()

    def write(self, path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


# --- per-layer metrics from spans -------------------------------------------

LAYERS = ("cli", "channels", "privacy", "utility", "pauli", "estimate", "shadows")
_CONSTRUCT = {"channels.QuantumChannel", "channels.depolarizing"}
_SEARCH = {"privacy.refine_extremum", "privacy.objective"}


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer times and counts for one set-up plus one pass of the job list.

    Set-up spans count once; spans from the traced passes are averaged over
    ``passes``.  A span's self time is its duration minus its children's.
    Search and objective spans under ``utility_report`` belong to ``utility``.
    """
    n = len(spans)
    children_time = [0.0] * n
    for s in spans:
        if s.parent >= 0:
            children_time[s.parent] += s.end - s.start
    layer = [""] * n
    inside_construct = [False] * n
    for i, s in enumerate(spans):
        p = s.parent
        layer[i] = s.name.split(".")[0]
        if s.name in _SEARCH and p >= 0 and layer[p] == "utility":
            layer[i] = "utility"
        inside_construct[i] = p >= 0 and (inside_construct[p] or spans[p].name in _CONSTRUCT)

    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    for i, s in enumerate(spans):
        w = 1.0 if s.job == "setup" else 1.0 / passes
        dur = s.end - s.start
        add(f"{layer[i]}.self_s", w * (dur - children_time[i]))
        a = s.attrs or {}
        key = s.name if s.name not in _SEARCH else f"{layer[i]}.{s.name.split('.')[1]}"
        if key in _CONSTRUCT and not inside_construct[i]:
            add("channels.construct_s", w * dur)
            add("channels.construct_calls", w)
            add("channels.kraus_ops", w * a.get("kraus_ops", 0))
        elif key == "channels.superoperator":
            add("channels.superop_s", w * dur)
            add("channels.superop_calls", w)
            add("channels.superop_bytes", w * a.get("bytes", 0))
        elif key == "privacy.certify_qldp":
            add("privacy.certify_s", w * dur)
            add("privacy.certify_calls", w)
        elif key == "utility.utility_report":
            add("utility.report_s", w * dur)
            add("utility.report_calls", w)
        elif key.endswith(".refine_extremum"):
            add(f"{layer[i]}.search_s", w * dur)
        elif key.endswith(".objective"):
            add(f"{layer[i]}.objective_s", w * dur)
            add(f"{layer[i]}.objective_points", w * a["points"])
        elif key == "pauli.enumerate_cliffords":
            add("pauli.enumerate_s", w * dur)
            m["pauli.group_size"] = max(m.get("pauli.group_size", 0), a["group_size"])
        elif key == "pauli.random_clifford":
            add("pauli.random_clifford_s", w * dur)
            add("pauli.random_clifford_calls", w)
        elif key == "pauli.decompose":
            add("pauli.decompose_s", w * dur)
            add("pauli.decompose_calls", w)
        elif key == "pauli.from_coeffs":
            add("pauli.from_coeffs_s", w * dur)
        elif key == "estimate.run_estimation_trials":
            add("estimate.trials", w * a["trials"])
        elif key == "estimate.simulate_privatized_batch":
            add("estimate.sample_s", w * dur)
            add("estimate.records", w * a["records"])
        elif key == "estimate.estimate_from_batch":
            add("estimate.aggregate_s", w * dur)
        elif key == "shadows.run_shadow_trials":
            add("shadows.fast_s", w * dur)
            add("shadows.trials", w * a["trials"])
            add("shadows.snapshots", w * a["snapshots"])
            add("shadows.fast_snapshots", w * a["snapshots"])
        elif key == "shadows.shadow_sample":
            add("shadows.sample_s", w * dur)
            add("shadows.snapshots", w)
            add("shadows.slow_snapshots", w)
        elif key == "shadows.snapshot_inverse":
            add("shadows.invert_s", w * dur)
        elif key == "shadows.median_of_means_estimate":
            add("shadows.aggregate_s", w * dur)
            add("shadows.trials", w)
        elif key == "cli.main":
            add("cli.calls", w)
            add("cli.nonzero_exits", w * (a.get("exit_code") != 0))

    def rate(num, den):
        return m.get(num, 0.0) / m[den] if m.get(den, 0.0) > 0 else 0.0

    m["privacy.points_per_s"] = rate("privacy.objective_points", "privacy.objective_s")
    m["estimate.records_per_s"] = rate("estimate.records", "estimate.sample_s")
    m["shadows.fast_snapshots_per_s"] = rate("shadows.fast_snapshots", "shadows.fast_s")
    slow_s = m.get("shadows.sample_s", 0.0) + m.get("shadows.invert_s", 0.0)
    m["shadows.slow_snapshots_per_s"] = m.pop("shadows.slow_snapshots", 0.0) / slow_s if slow_s else 0.0
    m.pop("shadows.fast_snapshots", None)
    return m
