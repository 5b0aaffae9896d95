"""Command-line experiment harness.

Subcommands: utility-curve, certify, estimate, shadows, cost-report, bounds.
Options resolve as CLI flag > config file ("key = value" lines) > default; a
value that fails to convert is a usage error led by its source ("--seed: ...").
Exit codes: 0 success/satisfied, 1 violated/failed coverage, 2 usage error,
3 any other package error (out-of-regime parameters, an infeasible budget, a
degenerate observable), an array too large to allocate, or too few trials for
a coverage verdict.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import estimate as est
from . import qops, shadows, utility
from .channels import QuantumChannel, depolarizing
from .charts import svg_line_chart
from .errors import ChannelParseError, InvalidInputError, QldpError
from .pauli import PauliDecomposition, decompose, from_coeffs
from .privacy import PrivacyBudget, SearchConfig, certify_qldp

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_REGIME = 3


def _nonempty(items: list, s: str) -> list:
    if not items:
        raise InvalidInputError(f"expected a nonempty comma-separated list, got {s!r}")
    return items


def _float_list(s: str) -> list[float]:
    return _nonempty([float(x) for x in s.split(",") if x.strip() != ""], s)


def _int_list(s: str) -> list[int]:
    return _nonempty([int(x) for x in s.split(",") if x.strip() != ""], s)


def _seed(s: str) -> int:
    if not s.strip().isdecimal():
        raise InvalidInputError(f"must be a non-negative integer, got {s!r}")
    return int(s)


# Per-command option tables: name -> (converter, default, help).
_SEED = {"seed": (_seed, None, "RNG seed (default: env QLDP_SEED or 0)")}
_OUTPUT_DIR = {"output_dir": (str, "out", "directory for emitted files")}

_OPTS = {
    "utility-curve": {
        **_OUTPUT_DIR,
        "d": (int, 10, "system dimension for the per-delta curves"),
        "deltas": (_float_list, [0.0, 0.1, 0.3], "delta values, comma-separated"),
        "eps_start": (float, 0.0, "epsilon grid start"),
        "eps_stop": (float, 5.0, "epsilon grid stop (inclusive)"),
        "eps_points": (int, 51, "epsilon grid size"),
        "dims": (_int_list, [2, 10, 100], "dimensions for the per-d curves"),
        "delta_fixed": (float, 0.1, "delta for the per-d curves"),
    },
    "certify": {
        **_SEED,
        "channel": (str, "depolarizing 2 0.5", "'depolarizing D P', or 'file:PATH' for a Kraus text file"),
        "epsilon": (float, 1.0, "privacy epsilon"),
        "delta": (float, 0.0, "privacy delta"),
        "restarts": (int, 64, "search restarts"),
        "local_steps": (int, 200, "cap on the search iterations"),
    },
    "estimate": {
        **_SEED, **_OUTPUT_DIR,
        "observable": (str, "Z", "Pauli list 'Z:1,X:0.5', bare label, or 'file:PATH'"),
        "state": (str, "zero", "zero | mixed | random-pure | diag:p0,p1,..."),
        "epsilon": (float, 1.0, "privacy epsilon"),
        "delta": (float, 0.0, "privacy delta"),
        "beta": (float, 0.1, "accuracy tolerance"),
        "eta": (float, 0.05, "failure probability"),
        "trials": (int, 2000, "Monte Carlo trials"),
        "n": (int, None, "override the per-trial sample count"),
    },
    "shadows": {
        **_SEED, **_OUTPUT_DIR,
        "m": (int, None, "qubit count: read off the observable, and checked against it when given"),
        "observable": (str, "Z", "Pauli list, bare label, or 'file:PATH'"),
        "state": (str, "zero", "zero | mixed | random-pure | diag:p0,p1,..."),
        "epsilon": (float, 0.5, "privacy epsilon"),
        "delta": (float, 0.0, "privacy delta"),
        "beta": (float, 0.3, "accuracy tolerance"),
        "eta": (float, 0.1, "failure probability"),
        "trials": (int, 500, "Monte Carlo trials"),
        "ell": (int, None, "batch size override (must divide N)"),
    },
    "cost-report": {
        **_OUTPUT_DIR,
        "m_list": (_int_list, [1, 2, 3, 4], "qubit counts to tabulate"),
        "bits_per_complex": (int, 128, "precision charged per complex entry"),
    },
    "bounds": {
        **_OUTPUT_DIR,
        "observable": (str, "Z", "Pauli list, bare label, or 'file:PATH'"),
        "eps_list": (_float_list, [0.25, 0.5, 1.0], "epsilon grid"),
        "beta_list": (_float_list, [0.05, 0.1], "beta grid"),
        "eta": (float, 0.1, "failure probability"),
        "delta": (float, 0.0, "privacy delta (upper bounds only)"),
    },
}


def load_config(path: str) -> dict[str, str]:
    cfg = {}
    for lineno, line in _content_lines(path):
        if "=" not in line:
            raise InvalidInputError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _convert(conv, value: str, source: str):
    """``conv(value)``; a conversion error is re-raised as ``source: message``.

    The one place that names where a value came from (``--seed``, ``run.cfg: seed``
    or ``QLDP_SEED``): no converter, builtin or the package's own, names it.
    """
    try:
        return conv(value)
    except ValueError as exc:  # InvalidInputError is a ValueError
        raise InvalidInputError(f"{source}: {exc}") from None


def resolve_options(command: str, args: argparse.Namespace) -> dict:
    table = _OPTS[command]
    cfg = load_config(args.config) if args.config else {}
    unknown = set(cfg) - set(table)
    if unknown:
        raise InvalidInputError(f"unknown config keys for {command}: {sorted(unknown)}")
    out = {}
    for name, (conv, default, _help) in table.items():
        cli_val = getattr(args, name.replace("-", "_"))
        if cli_val is not None:
            out[name] = _convert(conv, cli_val, f"--{name.replace('_', '-')}")
        elif name in cfg:
            out[name] = _convert(conv, cfg[name], f"{args.config}: {name}")
        else:
            out[name] = default
    if "seed" in table and out["seed"] is None:
        out["seed"] = _convert(_seed, os.environ.get("QLDP_SEED", "0"), "QLDP_SEED")
    return out


def _content_lines(path: str) -> list[tuple[int, str]]:
    """(line number, text) of each line left nonblank once its '#' comment is cut."""
    try:
        raw = Path(path).read_text().splitlines()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    lines = [(no, ln.split("#", 1)[0].strip()) for no, ln in enumerate(raw, start=1)]
    return [(no, ln) for no, ln in lines if ln]


def parse_complex_matrix(path: str, rows, d: int) -> np.ndarray:
    """Matrix from (line number, text) rows of d complex literals; errors name the file and line."""
    out = []
    for lineno, text in rows:
        toks = text.split()
        if len(toks) != d:
            raise ChannelParseError(path, lineno, f"expected {d} entries, got {len(toks)}")
        try:
            out.append([complex(t) for t in toks])
        except ValueError as exc:
            raise ChannelParseError(path, lineno, f"bad complex literal: {exc}") from exc
    return np.array(out, dtype=complex)


def load_kraus_file(path: str) -> QuantumChannel:
    """Text format: 'dims D_OUT D_IN' then blocks of 'kraus' + D_OUT rows of D_IN entries."""
    lines = _content_lines(path)
    if not lines:
        raise ChannelParseError(path, 1, "empty channel file")
    no, head = lines[0]
    toks = head.split()
    if len(toks) != 3 or toks[0] != "dims":
        raise ChannelParseError(path, no, f"expected 'dims D_OUT D_IN', got {head!r}")
    try:
        d_out, d_in = int(toks[1]), int(toks[2])
    except ValueError:
        raise ChannelParseError(path, no, f"bad dimensions in {head!r}") from None
    if d_out < 1 or d_in < 1:
        raise ChannelParseError(path, no, f"dimensions must be >= 1, got {head!r}")
    ops = []
    i = 1
    while i < len(lines):
        no, ln = lines[i]
        if ln != "kraus":
            raise ChannelParseError(path, no, f"expected 'kraus', got {ln!r}")
        block = lines[i + 1:i + 1 + d_out]
        if len(block) < d_out:
            raise ChannelParseError(path, no, f"kraus block needs {d_out} rows")
        ops.append(parse_complex_matrix(path, block, d_in))
        i += 1 + d_out
    if not ops:
        raise ChannelParseError(path, lines[-1][0], "no kraus blocks found")
    try:
        return QuantumChannel(np.stack(ops))
    except InvalidInputError as exc:
        raise ChannelParseError(path, lines[0][0], str(exc)) from exc


def parse_channel_spec(spec: str) -> QuantumChannel:
    """'depolarizing D P', or 'file:PATH' for a Kraus text file, as --observable reads 'file:PATH'."""
    if spec.startswith("file:"):
        return load_kraus_file(spec[5:])
    toks = spec.split()
    if toks and toks[0] == "depolarizing":
        if len(toks) != 3:
            raise InvalidInputError(f"expected 'depolarizing D P', got {spec!r}")
        d = _convert(int, toks[1], f"channel spec {spec!r}: D")
        return depolarizing(d, _convert(float, toks[2], f"channel spec {spec!r}: P"))
    raise InvalidInputError(f"unknown channel spec {spec!r}; use 'depolarizing D P' or 'file:PATH'")


def parse_observable(spec: str) -> PauliDecomposition:
    """The Pauli decomposition of a ``file:`` matrix or label list; matrix and spectrum wait for first read."""
    if spec.startswith("file:"):
        path = spec[5:]
        rows = _content_lines(path)
        if not rows:
            raise InvalidInputError(f"observable file {path} has no matrix rows")
        d = len(rows[0][1].split())
        mat = parse_complex_matrix(path, rows, d)
        m = int(round(math.log2(d)))
        if 2**m != d:
            raise InvalidInputError(f"observable dimension {d} is not a power of two")
        try:
            return decompose(mat, m)
        except InvalidInputError as exc:
            raise InvalidInputError(f"observable file {path}: {exc}") from exc
    coeffs = {}
    for part in filter(str.strip, spec.split(",")):
        lab, colon, val = part.partition(":")
        lab = lab.strip()
        if lab in coeffs:
            raise InvalidInputError(f"Pauli label {lab!r} appears more than once in {spec!r}")
        coeffs[lab] = float(val) if colon else 1.0
    return from_coeffs(coeffs)


def parse_state(spec: str, d: int, rng: np.random.Generator) -> np.ndarray:
    if spec == "zero":
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    if spec == "mixed":
        return np.eye(d, dtype=complex) / d
    if spec == "random-pure":
        return qops.projector(qops.random_pure(d, rng))
    if spec.startswith("diag:"):
        probs = _float_list(spec[5:])
        if not all(math.isfinite(p) for p in probs):
            raise InvalidInputError(f"state spec {spec!r} has a non-finite entry")
        if len(probs) != d or abs(sum(probs) - 1.0) > 1e-9 or min(probs) < 0:
            raise InvalidInputError(f"diag state needs {d} nonnegative entries summing to 1")
        return np.diag(np.array(probs, dtype=complex))
    raise InvalidInputError(f"unknown state spec {spec!r}")


def _write_output(path: Path, text: str) -> None:
    """Make the file's directory and write it; an OSError is a usage error naming the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc


def _write_table(path: Path, header: list[str], rows) -> None:
    """Write a CSV table, floats at 12 significant digits: the writer of every table file."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{c:.12g}" if isinstance(c, float) else c for c in row] for row in rows)
    _write_output(path, buf.getvalue())


def _trial_inputs(opts: dict):
    """Check trials >= 1, parse the observable (m is read off it) and the state, build budget and demand.

    Returns (decomposition, state, true value Tr[O rho] from ``decomp.expectation``, budget, demand).
    """
    if opts["trials"] < 1:
        raise InvalidInputError(f"trials must be >= 1, got {opts['trials']}")
    decomp = parse_observable(opts["observable"])
    if opts.get("m") not in (None, decomp.m):  # a shadows --m is only checked
        raise InvalidInputError(f"observable acts on {decomp.m} qubits, expected {opts['m']}")
    rho = parse_state(opts["state"], 2**decomp.m, np.random.default_rng(opts["seed"]))
    true_value = decomp.expectation(rho)
    budget = PrivacyBudget(opts["epsilon"], opts["delta"])
    demand = est.AccuracyDemand(opts["beta"], opts["eta"])
    return decomp, rho, true_value, budget, demand


def _report_trials(opts: dict, name: str, estimates: np.ndarray, n: int,
                   true_value: float, demand: est.AccuracyDemand) -> tuple[Path, np.ndarray, str, int]:
    """Write the trials CSV; return its path, the abs errors, and the coverage line and exit code.

    The verdict is the 3-sigma gate 1 - eta - 3 sqrt(eta (1-eta)/trials); a gate
    at or below 0 passes every run, so it gives none and exits EXIT_REGIME.
    """
    errors = np.abs(estimates - true_value)
    coverage = float(np.mean(errors <= demand.beta))
    path = Path(opts["output_dir"]) / name
    _write_output(path, est.trials_to_csv(estimates, n, true_value, demand.beta))
    eta = demand.eta
    threshold = 1.0 - eta - 3.0 * math.sqrt(eta * (1.0 - eta) / len(estimates))
    if threshold <= 0.0:
        return (path, errors,
                f"coverage = {coverage:.4f}  (insufficient trials for a coverage verdict)", EXIT_REGIME)
    code = EXIT_OK if coverage >= threshold else EXIT_VIOLATED
    return path, errors, f"coverage = {coverage:.4f}  (target >= {threshold:.4f})", code


def cmd_utility_curve(opts: dict) -> int:
    d = opts["d"]
    eps_grid = list(np.linspace(opts["eps_start"], opts["eps_stop"], opts["eps_points"]))
    rows = utility.utility_curve(d, opts["deltas"], eps_grid)
    dim_rows = [(dd, utility.utility_curve(dd, [opts["delta_fixed"]], eps_grid))
                for dd in opts["dims"]]
    out = Path(opts["output_dir"])
    _write_table(out / "utility_curve.csv", ["epsilon", "delta", "optimal_fidelity", "optimal_trace"], rows)
    _write_table(out / "utility_curve_dims.csv", ["epsilon", "dimension", "optimal_fidelity", "optimal_trace"],
                 [(eps, dd, f, t) for dd, curve in dim_rows for eps, _, f, t in curve])

    series = [(f"delta={delta:g}", eps_grid, [r[2] for r in rows if r[1] == delta]) for delta in opts["deltas"]]
    _write_output(out / "fig_optimal_fidelity_by_delta.svg", svg_line_chart(
        series, f"Optimal fidelity utility (d={d})", "epsilon", "optimal fidelity"))
    series = [(f"d={dd}", eps_grid, [r[2] for r in curve]) for dd, curve in dim_rows]
    _write_output(out / "fig_optimal_fidelity_by_dimension.svg", svg_line_chart(
        series, f"Optimal fidelity utility (delta={opts['delta_fixed']:g})",
        "epsilon", "optimal fidelity"))
    print(f"wrote {len(rows)} rows to {out / 'utility_curve.csv'} (+dims CSV, 2 SVG charts)")
    return EXIT_OK


def cmd_certify(opts: dict) -> int:
    ch = parse_channel_spec(opts["channel"])
    budget = PrivacyBudget(opts["epsilon"], opts["delta"])
    cfg = SearchConfig(restarts=opts["restarts"], local_steps=opts["local_steps"], seed=opts["seed"])
    res = certify_qldp(ch, budget, cfg)
    print(f"sup_estimate = {res.sup_estimate:.12g}  (delta = {budget.delta:.12g}, restarts = {res.restarts_used})")
    phi1, phi2 = res.witness_pair
    print("witness phi1 =", np.array2string(phi1, precision=6, suppress_small=True))
    print("witness phi2 =", np.array2string(phi2, precision=6, suppress_small=True))
    verdict = "SATISFIED" if res.satisfied else "VIOLATED"
    if res.borderline:
        verdict += " (borderline)"
    print("verdict:", verdict)
    return EXIT_OK if res.satisfied else EXIT_VIOLATED


def cmd_estimate(opts: dict) -> int:
    decomp, rho, true_value, budget, demand = _trial_inputs(opts)
    n_upper = est.required_samples_upper(decomp.weight, budget, demand)
    try:
        n_lower_note = str(est.required_samples_lower(decomp.lambda_max, decomp.lambda_min,
                                                      budget, demand))
    except QldpError as exc:
        n_lower_note = f"unavailable ({exc})"
    n = opts["n"] if opts["n"] is not None else n_upper
    estimates = est.run_estimation_trials(rho, decomp, budget, demand,
                                          opts["trials"], opts["seed"], n=n)
    path, errors, verdict, code = _report_trials(opts, "estimate_trials.csv", estimates, n,
                                                 true_value, demand)
    print(f"n_upper = {n_upper}   n_lower = {n_lower_note}   n_used = {n}")
    print(f"true value = {true_value:.12g}")
    print(verdict)
    print(f"mean abs error = {errors.mean():.12g}")
    print(f"wrote {path}")
    return code


def cmd_shadows(opts: dict) -> int:
    decomp, rho, true_value, budget, demand = _trial_inputs(opts)
    d = 2**decomp.m
    p_hat = shadows.private_shadow_p_hat(d, budget)
    n = shadows.shadow_required_samples(decomp.trace_square, d, budget, demand)
    ell = opts["ell"] if opts["ell"] is not None else n // shadows.default_batch_count(n, demand.eta)
    estimates = shadows.run_shadow_trials(rho, decomp, p_hat, n, ell, opts["trials"], opts["seed"])
    path, _, verdict, code = _report_trials(opts, "shadow_trials.csv", estimates, n,
                                            true_value, demand)
    print(f"N = {n}   ell = {ell}   batches = {n // ell}")
    print(f"p_hat = {p_hat:.12g}   effective q = {shadows.effective_depolarizing_q(p_hat, d):.12g}")
    print(f"true value = {true_value:.12g}")
    print(verdict)
    print(f"wrote {path}")
    return code


def cmd_cost_report(opts: dict) -> int:
    if opts["bits_per_complex"] < 1:
        raise InvalidInputError(f"bits per complex entry must be >= 1, got {opts['bits_per_complex']}")
    digits = sys.get_int_max_str_digits()  # 0: no limit
    rows = []
    for m in opts["m_list"]:
        if m < 1:
            raise InvalidInputError(f"m must be >= 1, got {m}")
        # the longest entry, 4^m bits, has floor(log10(4^m bits)) + 1 digits: checked before it is built
        if digits and 2 * m * math.log10(2) + math.log10(opts["bits_per_complex"]) >= digits:
            raise InvalidInputError(f"m = {m} makes shadow_bits = 4^m * bits_per_complex longer than "
                                    f"the {digits} decimal digits Python prints")
        d = 2**m
        rows.append((m, 2 * m + 1, d * d, d * d * opts["bits_per_complex"]))
    header = f"{'m':>3} {'pauli_bits':>11} {'shadow_entries':>15} {'shadow_bits':>12}"
    print(header)
    for m, pb, se, sb in rows:
        print(f"{m:>3} {pb:>11} {se:>15} {sb:>12}")
    print("note: sending the depolarized state itself costs quantum communication,")
    print("      not classical bits; it is not priced in this table.")
    if opts["output_dir"]:
        path = Path(opts["output_dir"]) / "cost_report.csv"
        _write_table(path, ["m", "pauli_bits", "shadow_complex_entries", "shadow_bits"], rows)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_bounds(opts: dict) -> int:
    decomp = parse_observable(opts["observable"])
    d = 2**decomp.m
    tr_sq = decomp.trace_square
    eta = opts["eta"]
    delta = opts["delta"]
    rows = []
    violations = 0
    for eps in opts["eps_list"]:
        for beta in opts["beta_list"]:
            budget = PrivacyBudget(eps, delta)
            demand = est.AccuracyDemand(beta, eta)
            cells = {"epsilon": f"{eps:g}", "beta": f"{beta:g}"}
            upper = est.required_samples_upper(decomp.weight, budget, demand)
            cells["upper_pauli"] = str(upper)
            shadow_upper = shadows.shadow_required_samples(tr_sq, d, budget, demand)
            cells["upper_shadow"] = str(shadow_upper)
            lower_val = None
            try:
                lower_val = est.required_samples_lower(
                    decomp.lambda_max, decomp.lambda_min,
                    PrivacyBudget(eps, 0.0), demand)
                cells["lower_qht"] = str(lower_val)
            except QldpError as exc:
                cells["lower_qht"] = f"out-of-regime ({exc})"
            try:
                cells["lower_fidelity"] = str(est.fidelity_lower_bound(
                    decomp.lambda_max, decomp.lambda_min, demand))
            except QldpError as exc:
                cells["lower_fidelity"] = f"out-of-regime ({exc})"
            cells["theta_regime"] = "yes" if 0 < eps <= 1 else "out-of-regime (eps > 1)"
            if lower_val is not None and 0 < eps <= 1:
                ok = lower_val <= min(upper, shadow_upper)
                cells["ordering_ok"] = "yes" if ok else "VIOLATED"
                if not ok:
                    violations += 1
            else:
                cells["ordering_ok"] = "n/a"
            rows.append(cells)
    cols = ["epsilon", "beta", "lower_qht", "lower_fidelity", "upper_pauli",
            "upper_shadow", "theta_regime", "ordering_ok"]
    widths = {c: max(len(c), *(len(r[c]) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(r[c].ljust(widths[c]) for c in cols))
    if opts["output_dir"]:
        path = Path(opts["output_dir"]) / "bounds.csv"
        _write_table(path, cols, [[r[c] for c in cols] for r in rows])
        print(f"wrote {path}")
    return EXIT_VIOLATED if violations else EXIT_OK


_COMMANDS = {
    "utility-curve": cmd_utility_curve,
    "certify": cmd_certify,
    "estimate": cmd_estimate,
    "shadows": cmd_shadows,
    "cost-report": cmd_cost_report,
    "bounds": cmd_bounds,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand, built once per process; parsing leaves no state on it."""
    parser = argparse.ArgumentParser(prog="qldp", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in _OPTS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="flat key = value config file")
        for name, (_conv, default, help_text) in table.items():
            p.add_argument(f"--{name.replace('_', '-')}", dest=name.replace("-", "_"),
                           default=None, help=f"{help_text} (default: {default})")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = resolve_options(args.command, args)
        return _COMMANDS[args.command](opts)
    except (ChannelParseError, ValueError) as exc:  # InvalidInputError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QldpError as exc:
        print(f"out of regime: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except MemoryError as exc:  # numpy's _ArrayMemoryError is one
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_REGIME


if __name__ == "__main__":
    sys.exit(main())
