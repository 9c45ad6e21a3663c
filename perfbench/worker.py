"""The measuring process: one closed-loop client driving the rectpf CLI.

Usage: ``worker.py SPEC_JSON RESULT_JSON``.  The spec names the operation
list, the case directory, the run length and whether to trace.  Every
operation calls ``rectpf.cli.main(argv, standalone_mode=False)`` in this
process with stdout and stderr captured; the timed region runs from the
call to the captured output, and the output is checked afterwards,
untimed.  A spin (``speed.py``) is timed before the first operation and
after each one, so every operation's time can be scaled to the reference
host speed by the spins around it.  A warm-up runs the first
operation of each kind before the timed passes.

Traced runs alternate untraced and traced passes so the tracing overhead
is measured under the same conditions; per-layer figures come from the
traced passes only.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import click  # noqa: E402

import cases  # noqa: E402
from check import check  # noqa: E402
from speed import at_reference, spin  # noqa: E402
from tracer import Tracer, aggregate, is_time, layer_metrics  # noqa: E402


def invoke(cli, argv):
    """Run one CLI command; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv, standalone_mode=False) or 0
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            rc = exc.exit_code
        except Exception as exc:  # a traceback is a failed operation
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def best_op_ms(passes: list[list[float]]) -> list[float]:
    """Each operation's fastest time (ms) over the passes."""
    return [min(op) for op in zip(*passes)]


def op_time_ms(passes: list[tuple[list[float], list[float]]]) -> list[float]:
    """Each operation's time (ms) for the run, from (times, spins) passes:
    the median over the passes of its times scaled to the reference speed
    by the spins on either side."""
    scaled = [[at_reference(t, a, b)
               for t, a, b in zip(times, spins, spins[1:])]
              for times, spins in passes]
    return [statistics.median(op) for op in zip(*scaled)]


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.patch_kernels()
    import rectpf.cli as cli
    if tracer:
        tracer.wrap_rectpf()

    workdir = Path(spec["workdir"])
    refs = {p.stem: cases.load_ref(p) for p in workdir.glob("*.npz")}
    ops = spec["ops"]
    failures: list[str] = []
    attempted = 0

    def run_pass(plan, traced: bool) -> tuple[list[float], list[float]]:
        """Run ``plan`` once; returns each operation's time in ms and the
        spins (s) before the first operation and after each."""
        nonlocal attempted
        times, spins = [], [spin()]
        if tracer:
            tracer.reset()
        for op in plan:
            if tracer:
                tracer.enabled = traced
            t0 = time.perf_counter()
            if traced:
                rc, out, err = tracer.call("cli", invoke, (cli, op["argv"]))
            else:
                rc, out, err = invoke(cli, op["argv"])
            times.append((time.perf_counter() - t0) * 1e3)
            if tracer:
                tracer.enabled = False
            spins.append(spin())
            attempted += 1
            reason = check(op, rc, out, err, refs[op["case"]])
            if reason is not None:
                failures.append(f"{' '.join(op['argv'])}: {reason}")
        if traced:
            traces.append((tracer.spans, tracer.counts))
        return times, spins

    traces: list = []
    # Warm-up: the first operation of each kind, checked but not timed.
    kinds: dict = {}
    for op in ops:
        kinds.setdefault((op["cmd"], op["fmt"], op["oracle"], op["rc"]), op)
    run_pass(list(kinds.values()), False)

    # Passes run while the next one, as long as the last, still ends within
    # the run length; at least one (untraced and traced, when tracing).
    samples: dict = {False: [], True: []}
    deadline = time.perf_counter() + spec["seconds"]
    k = 0
    while True:
        traced = bool(tracer) and k % 2 == 1
        t0 = time.perf_counter()
        samples[traced].append(run_pass(ops, traced))
        k += 1
        now = time.perf_counter()
        if now + (now - t0) > deadline and (not tracer or k >= 2):
            break

    untraced = samples[False]
    op_ms = op_time_ms(untraced)
    raw = [times for times, _ in untraced]
    result = {
        "passes": len(untraced),
        "wall_s": sum(op_ms) / 1e3,
        "wall_s_best_measured": sum(best_op_ms(raw)) / 1e3,
        "pass_s": [sum(p) / 1e3 for p in raw],
        "spin_ms": [statistics.median(s) * 1e3 for _, s in untraced],
        "op_time_ms": op_ms,
        "op_ms": [t for p in raw for t in p],
        "spins_ms": [[x * 1e3 for x in s] for _, s in untraced],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        with open(spec["spans"], "w") as fh:
            for number, (spans, _) in enumerate(traces):
                for span in spans:
                    fh.write(json.dumps([number] + span) + "\n")
        layer_passes = [layer_metrics(spans, counts) for spans, counts in traces]
        result["table"] = aggregate(traces[0][0])
        result["traced_passes"] = len(layer_passes)
        result["traced_pass_s"] = [sum(t) / 1e3 for t, _ in samples[True]]
        # counts repeat exactly from pass to pass; times are medians
        result["layers"] = {
            key: statistics.median(p[key] for p in layer_passes)
            if is_time(key) else layer_passes[0][key]
            for key in layer_passes[0]}
        result["counts_repeat"] = all(
            p[key] == layer_passes[0][key] for p in layer_passes
            for key in p if not is_time(key))
        result["layers"]["trace.overhead_s"] = (
            sum(op_time_ms(samples[True])) - sum(op_ms)) / 1e3
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
