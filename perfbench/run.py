"""rectpf benchmark: CLI latency on seeded cases, with a per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload desk-mix --seed 1 --seconds 55 --trace 0

The run generates the workload's case files and references from the seed,
measures ``setup_s`` (a fresh interpreter importing ``rectpf.cli``, the
median of several before and after the passes) and starts one fresh
measuring process (``worker.py``) that drives the CLI in process: a closed
loop with one client, BLAS threads pinned to 1, a warm-up, then timed
passes over the fixed operation list for ``--seconds``.  Every output is
checked against the references.

A shared host's speed can halve within a second and stay so for minutes,
in CPU time as much as in wall time.  So a fixed 1 ms pure-Python
loop (``speed.spin``) is timed before and after every operation and every
import, each time is scaled to the reference speed by the spins around
it, and an operation's time for the run is the median of its scaled
times over the passes.  On a quiet host scaled and measured times agree.
The spin slows more under load than dense factorization does, so on a
loaded host the scaled times of factorization-heavy operations read up
to a fifth low; without the scaling they read up to half high.  The
details line also gives the sum of the fastest measured times.

``--trace 0`` prints the end-to-end metrics.  Each operation's time runs
from path in to stdout out: ``wall_s`` is one pass, the sum of the
operations' times; ``op_ms.p50`` and ``op_ms.p90`` are taken across the
pass's operations; then ``peak_rss_mb`` of the measuring process and
``setup_s``.  ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics of the traced ones, plus
``trace.overhead_s`` (traced minus untraced pass).

The last stdout line is the result object; the line before it holds the
run's environment and details, which are also written to
``perfbench/results/``.  Workloads:

- ``feeder-large``: radial feeders of 400, 800 and 1200 buses, each
  ``solve --oracle --format json``.  Dense factorization, Newton, the
  O(N^2) structure check and big-file parsing dominate.
- ``desk-mix``: 40 cases of 10 to 80 buses and 135 operations per
  pass across solve/check/compare, every format, with and without the
  oracle, and a few operations that must fail with exit 2 or 3.  Parsing,
  validation and emission dominate; factorization is small.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Pinned before numpy is imported, here and in every child process.
os.environ.update({var: "1" for var in THREAD_VARS})
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import at_reference  # noqa: E402
from tracer import is_time  # noqa: E402

# Imports timed before and again after the measured passes, so that the
# median of setup_s spans the run rather than its first seconds.
SETUP_RUNS = 5
# Prints the import time and the middle of five spins before and after it;
# ``speed`` imports only ``time``, so the import measured is unchanged.
IMPORT_PROBE = (
    f"import sys; sys.path.insert(0, {str(HERE)!r}); import time, speed; "
    "spins = lambda: sorted(speed.spin() for _ in range(5))[2]; "
    "a = spins(); t = time.perf_counter(); import rectpf.cli; "
    "d = time.perf_counter() - t; print(d, a, spins())")
# Whole-run limit, leaving room to report within the 180 s contract.
RUN_LIMIT_S = 170.0


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def setup_seconds(env: dict, runs: int) -> list[float]:
    """Import time of ``rectpf.cli`` in ``runs`` fresh interpreters, each
    scaled to the reference speed by the spins around it."""
    times = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(at_reference(*map(float, out.stdout.split())))
    return times


def _git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path) -> dict:
    import importlib.metadata as md

    import numpy
    import scipy
    import yaml
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "click": md.version("click"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _units(key: str) -> str:
    if is_time(key):
        return "s"
    if key.endswith(("bytes_in", "bytes_out")):
        return "bytes"
    if key.endswith("flops_computed"):
        return "flop"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "rectpf" / "cli.py").is_file():
        print(f"no rectpf sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = _child_env(src)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        workdir = Path(tmp)
        ops, case_info = workloads.build(args.workload, args.seed, workdir)
        # the first import, which may compile bytecode, is dropped
        setup = [] if args.trace else setup_seconds(env, SETUP_RUNS + 1)[1:]
        spec = {"ops": ops, "workdir": tmp, "seconds": args.seconds,
                "trace": bool(args.trace),
                "spans": str(results / f"{stem}.spans.jsonl")}
        (workdir / "spec.json").write_text(json.dumps(spec))
        remaining = RUN_LIMIT_S - (time.perf_counter() - t_start)
        try:
            subprocess.run([sys.executable, str(HERE / "worker.py"),
                            str(workdir / "spec.json"),
                            str(workdir / "result.json")],
                           env=env, check=True, timeout=remaining)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"measuring process failed: {exc}", file=sys.stderr)
            return 1
        res = json.loads((workdir / "result.json").read_text())
    if not args.trace:
        setup += setup_seconds(env, SETUP_RUNS)

    if args.trace:
        metrics = {key: {"value": val, "unit": _units(key)}
                   for key, val in res["layers"].items()}
    else:
        op_ms = res["op_time_ms"]
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "op_ms.p50": {"value": statistics.median(op_ms), "unit": "ms"},
            # inclusive: the p90 stays within the observed samples
            "op_ms.p90": {"value": statistics.quantiles(
                op_ms, n=10, method="inclusive")[-1], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        **environment(root),
        "cases": case_info,
        "ops_per_pass": len(ops),
        "passes": res["passes"],
        "op_samples": len(res["op_time_ms"]),
        "setup_samples": setup,
        "pass_s": res["pass_s"],
        "spin_ms": res["spin_ms"],
        "wall_s_best_measured": res["wall_s_best_measured"],
        "failed_ratio": res["failed"] / res["attempted"],
        "failures": res["failures"],
    }
    for key in ("traced_passes", "traced_pass_s", "counts_repeat"):
        if key in res:
            details[key] = res[key]
    summary = {"correct": res["failed"] == 0, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps(
        {"details": details, "result": summary, "op_ms": res["op_ms"],
         "spins_ms": res["spins_ms"], "layers": res.get("table")}))
    for name, m in metrics.items():
        count = (f" (of {len(ops)} operations over {res['passes']} passes)"
                 if name.startswith("op_ms.") else "")
        print(f"{name} = {m['value']:.6g} {m['unit']}{count}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
