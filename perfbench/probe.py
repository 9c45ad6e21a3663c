"""Calibration of the tracer against counts known from reading the code.

Run from the repository root: ``python3 perfbench/probe.py``.  It traces
one ``solve --oracle --format json`` on a small radial feeder (``auto``
resolves to ``noload``) and compares the counts with those of rectpf as
first benchmarked:

- ``check_noload_structure``: 2 calls (method choice and the solve),
- ``compute_noload_voltage``: 2 calls (the solve and Newton's start),
- 3 factorizations of order N, and one of order 2N per Newton iteration.

Exit status 0 when the counts match, 1 otherwise.  A change that removes
repeated work is expected to move these counts; the probe then documents
the old ones.
"""

from __future__ import annotations

import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

from tracer import Tracer  # noqa: E402

N = 30


def main() -> int:
    tracer = Tracer()
    tracer.patch_kernels()
    import numpy as np
    import rectpf.cli as cli
    tracer.wrap_rectpf()

    import cases
    from worker import invoke
    case = cases.radial_feeder(np.random.default_rng(0), N, "probe")
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".probe-") as tmp:
        path = Path(tmp) / "probe.yaml"
        path.write_text(cases.to_yaml(case))
        tracer.enabled = True
        rc, out, _ = invoke(cli, ["solve", str(path), "--oracle", "--format", "json"])
        tracer.enabled = False
    iterations = json.loads(out)["oracle"]["iterations"]
    calls = Counter(s[0] for s in tracer.spans)
    orders = Counter(s[4] for s in tracer.spans
                     if s[0] == "kernel.scipy.linalg.lu_factor")
    seen = {
        "exit code": rc,
        "method": json.loads(out)["method"],
        "check_noload_structure calls": calls["netmodel.check_noload_structure"],
        "compute_noload_voltage calls": calls["linearize.compute_noload_voltage"],
        "order-N factorizations": orders[N],
        "order-2N factorizations": orders[2 * N],
        "Newton iterations (output)": iterations,
        "Newton iterations (traced)": tracer.counts["newton.iterations"],
    }
    expected = {
        "exit code": 0, "method": "noload",
        "check_noload_structure calls": 2, "compute_noload_voltage calls": 2,
        "order-N factorizations": 3, "order-2N factorizations": iterations,
        "Newton iterations (output)": iterations,
        "Newton iterations (traced)": iterations,
    }
    for key, val in seen.items():
        mark = "ok" if val == expected[key] else f"expected {expected[key]}"
        print(f"{key}: {val} ({mark})")
    return 0 if seen == expected else 1


if __name__ == "__main__":
    sys.exit(main())
