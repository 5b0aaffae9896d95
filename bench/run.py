"""qldp benchmark: time-to-result and search quality on four workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives the public ``qldp`` API and CLI in this process as a closed
loop: jobs run back to back, and the whole job list repeats until ``S``
seconds have passed.  Every job's output is checked.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` reports the per-layer
metrics from spans recorded around calls into each module, and writes the
spans to ``.bench_out/trace-NAME.json``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it hold the run record and a readable table.
"""

from __future__ import annotations

import os

# BLAS runs on one thread, below the 2 cores of the reference machine, so that
# runs are steady.  Set before numpy is imported, here and in the set-up
# subprocesses.
BLAS_THREADS = "1"
BLAS_ENV = {v: BLAS_THREADS for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _measure_setup(code: str, repeats: int) -> float:
    """Median, over fresh processes, of ``import qldp`` plus the workload's set-up."""
    prog = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
            f"import qldp; {code}; print(time.perf_counter() - t)")
    env = {**os.environ, **BLAS_ENV}
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", prog], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_passes(jobs, seconds: float, tracer, tally: dict) -> list[float]:
    """Run the job list until ``seconds`` have passed (at least once); returns pass times.

    A pass time sums the timed ``run`` calls only; checks run outside them.
    ``tally`` accumulates attempted/failed counts and the checks' values of
    the first pass (the values repeat exactly on later passes).
    """
    pass_times = []
    start = time.perf_counter()
    while True:
        total = 0.0
        first = not pass_times
        for job in jobs:
            if tracer is not None:
                tracer.job = f"{len(pass_times)}:{job.name}"
            tally["attempted"] += 1
            try:
                t0 = time.perf_counter()
                out = job.run(tracer)
                total += time.perf_counter() - t0
                values = job.check(out)
                del out
            except Exception:  # a failing job is counted, and the loop goes on
                tally["failed"] += 1
                print(f"job {job.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            for key, v in values.items():
                if first or key == "bytes_written":
                    tally["values"].setdefault(key, []).append(v)
        pass_times.append(total)
        tally["passes"] += 1
        if time.perf_counter() - start >= seconds:
            return pass_times


def checked_values(tally: dict) -> dict[str, float]:
    """Means of the checked values; a value counts only if its job's checks passed."""
    v = tally["values"]
    out = {name: statistics.fmean(v[key]) for name, key in
           (("privacy.cert_lb_mean", "cert_lb"), ("utility.fid_mean", "util_fid"),
            ("utility.trace_mean", "util_trace")) if v.get(key)}
    if v.get("bytes_written"):
        out["cli.bytes_written"] = sum(v["bytes_written"]) / tally["passes"]
    return out


def run_record(args) -> dict:
    import numpy as np
    import qldp

    files = sorted((SRC / "qldp").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "src_lines": lines,
        "public_exports": sum(1 for k, v in vars(qldp).items()
                              if not k.startswith("_") and not isinstance(v, types.ModuleType)),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import workloads
    from tracing import Tracer, layer_metrics

    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    out_root = ROOT / ".bench_out"
    workdir = out_root / f"run-{os.getpid()}"
    tally = {"attempted": 0, "failed": 0, "passes": 0, "values": {}}
    try:
        wl = workloads.build(workload, seed, smoke, workdir)
        if not trace:
            setup_s = _measure_setup(wl.setup_code or "pass", setup_repeats)
            wl.setup()
            passes = run_passes(wl.jobs, seconds, None, tally)
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            table = {**metrics, "failed_frac": tally["failed"] / tally["attempted"],
                     **checked_values(tally), "pass_s": passes}
        else:
            tracer = Tracer()
            tracer.install()
            try:
                wl.setup()
            finally:
                tracer.uninstall()
            untraced = run_passes(wl.jobs, seconds / 2, None, tally)
            traced_tally = {"attempted": 0, "failed": 0, "passes": 0, "values": {}}
            tracer.install()
            try:
                traced = run_passes(wl.jobs, seconds / 2, tracer, traced_tally)
            finally:
                tracer.uninstall()
            for key in ("attempted", "failed"):
                tally[key] += traced_tally[key]
            metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
            metrics.update(layer_metrics(tracer.spans, len(traced)))
            metrics.update(checked_values(traced_tally))
            metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
            out_root.mkdir(exist_ok=True)
            tracer.write(out_root / f"trace-{workload}.json")
            table = {**metrics, "failed_frac": tally["failed"] / tally["attempted"],
                     "untraced_pass_s": untraced, "traced_pass_s": traced}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        "table": table,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "qldp" / "__init__.py").is_file():
        print(f"error: no qldp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    print("run record:", json.dumps(run_record(args)))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, value in result.pop("table").items():
        unit = result["metrics"].get(name, {}).get("unit", "")
        if isinstance(value, list):
            print(f"  {name:34s} {' '.join(f'{v:.4g}' for v in value)}")
        else:
            print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
