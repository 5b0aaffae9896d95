"""The four benchmark workloads: seeded inputs and the jobs that consume them.

Every input (Kraus stacks, depolarizing levels, observables, states, search
and CLI seeds) is drawn here from the workload seed before any timing starts.
A job's ``run`` is the timed call into the public ``qldp`` API or CLI; its
``check`` re-evaluates the output outside the timed region.  Modules are
looked up at call time (``channels.depolarizing``, ``cli.main``) so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import qldp
from qldp import channels, cli, privacy, utility

from checks import CheckFailed, check_certification, check_trials_csv, check_utility

EPSILON = 1.0   # certification budget (delta = 0) for the certify workloads
SHADOW_SETUP = "qldp.pauli.enumerate_cliffords(1); qldp.pauli.enumerate_cliffords(2)"


@dataclass
class Job:
    name: str
    run: Callable          # run(tracer) -> output; the timed part
    check: Callable        # check(output) -> dict of measured values; raises CheckFailed


@dataclass
class Workload:
    jobs: list
    setup_code: str        # lazy one-time set-up, run after ``import qldp``

    def setup(self) -> None:
        """Run the set-up in this process; attribute lookups reach traced wrappers."""
        exec(self.setup_code, {"qldp": qldp})


def _touch_superoperator(ch, tracer) -> None:
    if tracer is None:
        ch.superoperator
        return
    with tracer.span("channels.superoperator") as span:
        s = ch.superoperator
        span.attrs = {"bytes": s.nbytes + ch.kraus.nbytes}


# --- certify and certify-wide ------------------------------------------------

def _certify_job(name, kraus, dep_p, budget, search, util_search):
    """Build the channel, touch its superoperator, certify it, and (optionally) report utility.

    ``dep_p`` is the depolarizing level for a ``depolarizing(d, p)`` member, or
    None for a member given by its Kraus stack.
    """
    d = kraus.shape[2]

    def run(tracer):
        ch = channels.depolarizing(d, dep_p) if dep_p is not None else channels.QuantumChannel(kraus)
        _touch_superoperator(ch, tracer)
        res = privacy.certify_qldp(ch, budget, search)
        rep = utility.utility_report(ch, util_search) if util_search is not None else None
        return res, rep

    def check(out):
        res, rep = out
        exact = None
        if dep_p is not None:
            exact = privacy.depolarizing_privacy_profile(d, dep_p, budget.gamma)
        values = {"cert_lb": check_certification(kraus, res, budget.gamma, exact)}
        if rep is not None:
            ef = et = None
            if dep_p is not None:
                ef = utility.depolarizing_fidelity_utility(d, dep_p)
                et = utility.depolarizing_trace_utility(d, dep_p)
            values["util_fid"], values["util_trace"] = check_utility(kraus, rep, ef, et)
        return values

    return Job(name, run, check)


def _depolarizing_kraus(d: int, p: float) -> np.ndarray:
    """Kraus stack of depolarizing(d, p), written out here for the re-evaluation checks."""
    ops = np.zeros((d * d + 1, d, d), dtype=complex)
    ops[0] = math.sqrt(1.0 - p) * np.eye(d)
    for i, j in itertools.product(range(d), repeat=2):
        ops[1 + i * d + j, i, j] = math.sqrt(p / d)
    return ops


def _false_satisfied_member() -> np.ndarray:
    """random_channel(8, 4) drawn after six others from default_rng(7).

    The default search certifies it at 0.98384 although an orthogonal pure
    pair reaches 0.99852; it is fixed so that a better search shows in
    ``privacy.cert_lb_mean``.
    """
    rng = np.random.default_rng(7)
    for d, r in [(2, 2)] * 3 + [(4, 3)] * 3:
        channels.random_channel(d, r, rng)
    return channels.random_channel(8, 4, rng).kraus


def _certify_pool(rng, dims_ranks, search_of, with_utility, extra=()):
    budget = privacy.PrivacyBudget(EPSILON, 0.0)
    jobs = []
    members = []
    for d, rank in dims_ranks:
        p_star = d / (budget.gamma + d - 1.0)
        p = float(p_star * rng.uniform(0.3, 0.9))
        members.append((f"depolarizing-{d}", _depolarizing_kraus(d, p), p))
        members.append((f"random-{d}-r{rank}", channels.random_channel(d, rank, rng).kraus, None))
    members.extend(extra)
    for name, kraus, p in members:
        search = search_of(int(rng.integers(2**31)))
        jobs.append(_certify_job(name, kraus, p, budget, search, search if with_utility else None))
    return jobs


def certify(seed: int, smoke: bool) -> Workload:
    rng = np.random.default_rng([seed, 1])
    if smoke:
        jobs = _certify_pool(rng, [(2, 2), (4, 3)],
                             lambda s: privacy.SearchConfig(restarts=4, local_steps=5, seed=s), True)
    else:
        jobs = _certify_pool(rng, [(2, 2), (4, 3), (8, 4), (16, 3)],
                             lambda s: privacy.SearchConfig(seed=s), True,
                             extra=[("random-8-r4-fixed", _false_satisfied_member(), None)])
    return Workload(jobs, "")


def certify_wide(seed: int, smoke: bool) -> Workload:
    rng = np.random.default_rng([seed, 2])
    d = 8 if smoke else 32
    steps = 5 if smoke else 20
    jobs = _certify_pool(rng, [(d, 4)],
                         lambda s: privacy.SearchConfig(restarts=16, local_steps=steps, seed=s), False)
    return Workload(jobs, "")


# --- estimate and shadows (CLI) -----------------------------------------------

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _pauli(label: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for c in label:
        out = np.kron(out, PAULI_1Q[c])
    return out


def _diag_expectation(coeffs: dict, probs: np.ndarray) -> float:
    """Tr[O rho] for rho = diag(probs); only I/Z strings have a diagonal."""
    m = int(round(math.log2(len(probs))))
    total = 0.0
    for label, a in coeffs.items():
        if set(label) <= {"I", "Z"}:
            signs = np.ones(len(probs))
            for q, c in enumerate(label):
                if c == "Z":
                    bit = (np.arange(len(probs)) >> (m - 1 - q)) & 1
                    signs = signs * (1 - 2 * bit)
            total += a * float(signs @ probs)
    return total


def _diag_state(rng, d: int) -> tuple[str, np.ndarray]:
    probs = rng.dirichlet(np.ones(d))
    spec = "diag:" + ",".join(f"{x:.17g}" for x in probs)
    return spec, np.array([float(x) for x in spec[5:].split(",")])


def _weights(rng, labels) -> dict:
    """Signed coefficients with Pauli weight S = sum |alpha_P| = 1."""
    mags = rng.dirichlet(np.ones(len(labels)))
    signs = rng.choice([-1.0, 1.0], size=len(labels))
    return {lab: float(s * a) for lab, s, a in zip(labels, signs, mags)}


def _hoeffding_beta(n: int, epsilon: float, eta: float) -> float:
    """Smallest beta whose Hoeffding sample size (weight 1, delta = 0) is at most n."""
    g = math.exp(epsilon)
    return 1.0001 * math.sqrt(2.0 * ((g + 1.0) / (g - 1.0)) ** 2 * math.log(2.0 / eta) / n)


def _cli_job(name, argv, csv_name, trials, true_value, outdir: Path):
    argv = argv + ["--output-dir", str(outdir)]

    def run(tracer):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
        return code, captured.getvalue()

    def check(out):
        code, text = out
        if code != 0:
            raise CheckFailed(f"exit code {code}: {text.strip()[-300:]}")
        data = (outdir / csv_name).read_text()
        check_trials_csv(data, trials, true_value)
        return {"bytes_written": len(data.encode())}

    return Job(name, run, check)


def estimate(seed: int, smoke: bool, workdir: Path) -> Workload:
    """Pauli-list observables at m = 1..4 and one dense ``file:`` observable at m = 4."""
    rng = np.random.default_rng([seed, 3])
    eps, eta = 1.0, 0.05
    # (labels, trials, n); n None keeps the CLI's Hoeffding sample size.  An explicit
    # n comes with the beta whose Hoeffding size it meets, so the CLI's gate holds.
    if smoke:
        shapes = [(["Z", "X"], 30, 500), (["ZI", "XX", "YZ"], 30, 500), ("file", 30, 500)]
        dense_m = 2
    else:
        shapes = [(["Z", "X"], 2000, None),
                  (["ZI", "XX", "YZ"], 2000, None),
                  (["ZZI", "XIX", "IYZ", "ZIZ"], 3000, 200),
                  (["ZZZZ", "XIXI", "IYIY", "ZIIZ", "XXYY"], 30, 200000),
                  ("file", 30, 20000)]
        dense_m = 4
    jobs = []
    for i, (labels, trials, n) in enumerate(shapes):
        outdir = workdir / f"estimate-{i}"
        outdir.mkdir(parents=True, exist_ok=True)
        if labels == "file":
            m = dense_m
            coeffs = _weights(rng, ["".join(t) for t in itertools.product("IXYZ", repeat=m)])
            obs = sum(a * _pauli(lab) for lab, a in coeffs.items())
            path = outdir / "observable.txt"
            path.write_text("".join(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) + "\n"
                                    for row in obs))
            spec = f"file:{path}"
        else:
            m = len(labels[0])
            coeffs = _weights(rng, labels)
            spec = ",".join(f"{lab}:{a:.17g}" for lab, a in coeffs.items())
            coeffs = {lab: float(a) for lab, a in (p.split(":") for p in spec.split(","))}
        state, probs = _diag_state(rng, 2**m)
        argv = ["estimate", "--observable", spec, "--state", state, "--trials", str(trials),
                "--epsilon", str(eps), "--eta", str(eta), "--seed", str(int(rng.integers(2**31)))]
        if n is not None:
            argv += ["--n", str(n), "--beta", repr(_hoeffding_beta(n, eps, eta))]
        jobs.append(_cli_job(f"estimate-m{m}-{i}", argv, "estimate_trials.csv",
                             trials, _diag_expectation(coeffs, probs), outdir))
    return Workload(jobs, "")


def shadows(seed: int, smoke: bool, workdir: Path) -> Workload:
    """m = 1, 2 at the CLI defaults (vectorized path); m = 3, 4 capped (per-snapshot path)."""
    rng = np.random.default_rng([seed, 4])
    # (m, trials, beta, eta); None keeps the CLI's default.  Larger beta and
    # eta keep the per-snapshot jobs short.
    if smoke:
        shapes = [(1, 30, 3, 0.5), (2, 30, 3, 0.5), (3, 30, 30, 0.5), (4, 30, 60, 0.5)]
    else:
        shapes = [(1, 500, None, None), (2, 500, None, None), (3, 30, 9, 0.5), (4, 30, 17, 0.5)]
    jobs = []
    for m, trials, beta, eta in shapes:
        outdir = workdir / f"shadows-m{m}"
        outdir.mkdir(parents=True, exist_ok=True)
        # one signed Z-string, so Tr[O^2] and hence N do not depend on the seed
        zs = [lab for lab in ("".join(t) for t in itertools.product("IZ", repeat=m)) if "Z" in lab]
        label = zs[int(rng.integers(len(zs)))]
        sign = float(rng.choice([-1.0, 1.0]))
        state, probs = _diag_state(rng, 2**m)
        argv = ["shadows", "--m", str(m), "--observable", f"{label}:{sign:g}", "--state", state,
                "--trials", str(trials), "--seed", str(int(rng.integers(2**31)))]
        if beta is not None:
            argv += ["--beta", str(beta), "--eta", str(eta)]
        jobs.append(_cli_job(f"shadows-m{m}", argv, "shadow_trials.csv", trials,
                             _diag_expectation({label: sign}, probs), outdir))
    return Workload(jobs, SHADOW_SETUP)


def build(name: str, seed: int, smoke: bool, workdir: Path) -> Workload:
    if name == "certify":
        return certify(seed, smoke)
    if name == "certify-wide":
        return certify_wide(seed, smoke)
    if name == "estimate":
        return estimate(seed, smoke, workdir)
    if name == "shadows":
        return shadows(seed, smoke, workdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("certify", "certify-wide", "estimate", "shadows")
