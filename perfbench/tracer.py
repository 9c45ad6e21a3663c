"""In-memory span tracer that times rectpf's layers from the outside.

Nothing inside ``rectpf`` is edited.  ``patch_kernels`` replaces the dense
and sparse factorization entry points of numpy and scipy, and must run
before ``rectpf`` is imported because rectpf binds some of them by name at
import time.  ``wrap_rectpf`` replaces every public function in every
``rectpf.*`` namespace that binds it, so calls between rectpf modules pass
through the wrapper too.  Spans are recorded only while ``enabled`` is set.

A span is ``[name, start, end, parent, n, outer_name, outer_module]``:
``parent`` is the index of the enclosing span (-1 at the root), ``n`` the
matrix order of a factorization kernel, and the two flags say whether no
enclosing span has the same name, or the same module prefix, so inclusive
times can be summed without double counting.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict

# Kernels that factor a matrix (possibly as part of a solve), by module.
FACTOR_KERNELS = {
    "numpy.linalg": ("solve", "inv"),
    "scipy.linalg": ("lu_factor", "lu", "solve", "inv", "cho_factor"),
    "scipy.sparse.linalg": ("splu", "spilu", "factorized", "spsolve"),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def call(self, name: str, fn, args=(), kwargs=None, n=None):
        """Run ``fn`` inside a span called ``name``."""
        kwargs = kwargs or {}
        if not self.enabled:
            return fn(*args, **kwargs)
        module = name.split(".", 1)[0]
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, n,
                self._active[name] == 0, self._active["/" + module] == 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._active[name] += 1
        self._active["/" + module] += 1
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._active[name] -= 1
            self._active["/" + module] -= 1
            self._stack.pop()

    def wrap(self, name: str, fn, after=None, n_of=None):
        """``fn`` timed as ``name``; ``after(tracer, args, result)`` may
        record counts, ``n_of(args)`` gives a kernel's matrix order."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            result = self.call(name, fn, args, kwargs,
                               n_of(args) if n_of else None)
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def patch_kernels(self) -> None:
        import numpy.linalg
        import scipy.linalg
        import scipy.sparse.linalg
        for modname, names in FACTOR_KERNELS.items():
            mod = sys.modules[modname]
            for fn_name in names:
                fn = getattr(mod, fn_name, None)
                if fn is not None:
                    setattr(mod, fn_name, self.wrap(
                        f"kernel.{modname}.{fn_name}", fn, n_of=_order))
        scipy.linalg.lu_solve = self.wrap("kernel.scipy.linalg.lu_solve",
                                          scipy.linalg.lu_solve)
        get = scipy.linalg.get_lapack_funcs

        @functools.wraps(get)
        def get_lapack_funcs(names, *args, **kwargs):
            funcs = get(names, *args, **kwargs)
            single = isinstance(names, str)
            out = [self.wrap(f"kernel.lapack.{f.__name__}", f)
                   for f in ([funcs] if single else funcs)]
            return out[0] if single else tuple(out)
        scipy.linalg.get_lapack_funcs = get_lapack_funcs

    def wrap_rectpf(self) -> None:
        """Wrap public rectpf functions everywhere they are bound."""
        import yaml
        yaml.safe_load = self.wrap("caseio.yaml_load", yaml.safe_load)
        hooks = {
            "caseio.parse_case": _count_bytes_in,
            "newton.solve_newton": _count_iterations,
            "report.emit_report": _count_bytes_out,
            "report.emit_check": _count_bytes_out,
            "report.emit_compare": _count_bytes_out,
        }
        wrapped: dict = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "rectpf" and not modname.startswith("rectpf."):
                continue
            for attr, val in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(val, types.FunctionType)
                        or not val.__module__.startswith("rectpf.")):
                    continue
                if val not in wrapped:
                    name = f"{val.__module__.split('.', 1)[1]}.{val.__name__}"
                    wrapped[val] = self.wrap(name, val, after=hooks.get(name))
                setattr(mod, attr, wrapped[val])

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()


def _order(args):
    shape = getattr(args[0], "shape", None) if args else None
    return int(shape[0]) if shape else None


def _count_bytes_in(tracer, args, result):
    tracer.counts["caseio.bytes_in"] += len(args[0].encode("utf-8"))


def _count_iterations(tracer, args, result):
    tracer.counts["newton.iterations"] += result.iterations


def _count_bytes_out(tracer, args, result):
    tracer.counts["report.emit.bytes_out"] += len(result.encode("utf-8"))


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name and per module: calls, inclusive seconds, self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly, so children never overlap.  Module rows
    (keyed ``module.*``) sum the spans that are outermost within their
    module.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, n, outer, outer_mod) in enumerate(spans):
        dur = end - start
        for key, counted in ((name, outer),
                             (name.split(".", 1)[0] + ".*", outer_mod)):
            row = table[key]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if counted:
                row["s"] += dur
    return dict(table)


def is_time(key: str) -> bool:
    """True for a per-layer figure in seconds, False for a count."""
    return key.endswith((".s", "_s", ".s_per_iter"))


def _is_factor(name: str) -> bool:
    mod, _, fn = name[len("kernel."):].rpartition(".")
    return fn in FACTOR_KERNELS.get(mod, ())


def layer_metrics(spans, counts) -> dict[str, float]:
    """The per-layer figures of one pass, named as in BENCHMARK.json.

    ``trace.overhead_s`` needs an untraced pass too and is added by the
    caller.
    """
    table = aggregate(spans)

    def row(name):
        return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    factors = [s for s in spans if s[0].startswith("kernel.") and _is_factor(s[0])]
    condest = [s for s in spans if s[0].startswith("kernel.lapack.")
               and s[0].endswith("con")]
    emits = [row(f"report.emit_{kind}") for kind in ("report", "check", "compare")]
    newton_s = row("newton.solve_newton")["s"]
    return {
        "caseio.yaml_load.s": row("caseio.yaml_load")["s"],
        "caseio.yaml_load.calls": row("caseio.yaml_load")["calls"],
        "caseio.parse_case.s": row("caseio.parse_case")["s"],
        "caseio.validate.s": (row("caseio.parse_case")["s"]
                              - row("caseio.yaml_load")["s"]),
        "caseio.bytes_in": counts["caseio.bytes_in"],
        "netmodel.build_admittance.s": row("netmodel.build_admittance")["s"],
        "netmodel.check_noload_structure.calls":
            row("netmodel.check_noload_structure")["calls"],
        "netmodel.check_noload_structure.s":
            row("netmodel.check_noload_structure")["s"],
        "linalg.factor.calls": len(factors),
        "linalg.factor.s": sum(s[2] - s[1] for s in factors if s[5]),
        "linalg.factor.n_max": max((s[4] or 0 for s in factors), default=0),
        # computed, not measured: 2/3 n^3 per dense factorization
        "linalg.factor.flops_computed": sum(
            2 * s[4] ** 3 // 3 for s in factors
            if s[4] and ".sparse." not in s[0]),
        "linalg.condest.calls": len(condest),
        "linalg.condest.s": sum(s[2] - s[1] for s in condest),
        "linearize.compute_noload_voltage.calls":
            row("linearize.compute_noload_voltage")["calls"],
        "linearize.compute_noload_voltage.s":
            row("linearize.compute_noload_voltage")["s"],
        "distribution.calls": row("distribution.*")["calls"],
        "distribution.s": row("distribution.*")["s"],
        "transmission.calls": row("transmission.*")["calls"],
        "transmission.build_lossless_system.calls":
            row("transmission.build_lossless_system")["calls"],
        "newton.solve_newton.calls": row("newton.solve_newton")["calls"],
        "newton.solve_newton.s": newton_s,
        "newton.iterations": counts["newton.iterations"],
        "newton.s_per_iter": newton_s / max(1, counts["newton.iterations"]),
        "residuals.quadratic_residual.s": row("residuals.quadratic_residual")["s"],
        "residuals.nonlinear_mismatch.s": row("residuals.nonlinear_mismatch")["s"],
        "report.run_pipeline.calls": row("report.run_pipeline")["calls"],
        "report.run_pipeline.s": row("report.run_pipeline")["s"],
        "report.run_compare.calls": row("report.run_compare")["calls"],
        "report.emit.s": sum(r["s"] for r in emits),
        "report.emit.bytes_out": counts["report.emit.bytes_out"],
        "cli.calls": row("cli")["calls"],
        "cli.s": row("cli")["s"],
        "cli.self_s": row("cli")["self_s"],
        "trace.spans": len(spans),
    }
