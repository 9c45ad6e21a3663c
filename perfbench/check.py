"""Correctness check of one CLI operation's output.

Outputs are compared with tolerances, never byte digests: a change of
factorization may legitimately move the last printed digits.  ``check``
returns ``None`` for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import json

import numpy as np

from cases import Case, injection, row_abs_sum

# |dv - dv_ref| <= DV_RTOL * max|dv_ref|, bus by bus.
DV_RTOL = 1e-6
# Quadratic-term norms of an alpha sweep, relative to the reference.
SHOT_RTOL = 1e-6
# Independent power-flow mismatch allowed at the printed Newton voltage:
# MISMATCH_RTOL of the largest bus power, plus ROUNDING times the largest
# absolute row sum of Y times max|V|^2 for the 12-significant-digit printing
# (which leaves up to about 1e-12 of that).  On the generated cases the
# linear, not Newton, voltage leaves a mismatch 100 times the allowance.
MISMATCH_RTOL = 1e-6
ROUNDING = 1e-11


def check(op: dict, rc: int, out: str, err: str, ref: Case | None) -> str | None:
    if rc != op["rc"]:
        return f"exit code {rc}, expected {op['rc']}"
    if op["rc"] != 0:
        first = err.splitlines()[0] if err else ""
        if not first.startswith(op["code"] + ":"):
            return f"stderr {first[:80]!r} does not start with {op['code']}"
        return None
    try:
        if op["fmt"] == "json":
            doc = json.loads(out)
            return {"solve": _solve_json, "check": _check_json,
                    "compare": _compare_json}[op["cmd"]](op, doc, ref)
        return _row_count(op, out.splitlines(), ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _solve_json(op, doc, ref: Case):
    if doc["method"] != op["method"]:
        return f"method {doc['method']}, expected {op['method']}"
    buses = doc["buses"]
    if [b["bus"] for b in buses] != list(range(1, ref.n + 1)):
        return "bus rows do not cover 1..N"
    dv = np.array([complex(b["dv_re"], b["dv_im"]) for b in buses])
    scale = float(np.abs(ref.dv_ref).max())
    gap = float(np.abs(dv - ref.dv_ref).max())
    if not gap <= DV_RTOL * scale:
        return f"dv off the reference by {gap:.3e} (scale {scale:.3e})"
    if not all(b["satisfied"] for b in doc["bounds"]) or not doc["bounds"]:
        return "a bound is not satisfied"
    if not op["oracle"]:
        return None if doc["oracle"] is None else "unexpected oracle block"
    if not doc["oracle"]["converged"]:
        return "Newton oracle did not converge"
    v = np.array([complex(b["v_oracle_re"], b["v_oracle_im"]) for b in buses])
    return _mismatch(ref, v)


def _mismatch(ref: Case, v: np.ndarray):
    ds = injection(ref, v) - ref.s
    per_bus = np.where(ref.pv, np.abs(ds.real), np.abs(ds))
    vmag_gap = np.where(ref.pv, np.abs(np.abs(v) - 1.0), 0.0)
    worst = float(per_bus.max())
    tol = (MISMATCH_RTOL * float(np.abs(ref.s).max())
           + ROUNDING * float(row_abs_sum(ref).max() * np.abs(v).max() ** 2))
    if not worst <= tol:
        return f"oracle voltage leaves mismatch {worst:.3e} > {tol:.3e}"
    if not vmag_gap.max() <= MISMATCH_RTOL:
        return f"oracle misses a PV magnitude by {vmag_gap.max():.3e}"
    return None


def _check_json(op, doc, ref: Case):
    if doc["lossless_gate"] != (ref.kind == "grid"):
        return f"lossless_gate {doc['lossless_gate']} for a {ref.kind}"
    expected = {"feeder": True, "mesh": False}.get(ref.kind)
    if expected is not None and doc["noload_verdict"] != expected:
        return f"noload_verdict {doc['noload_verdict']} for a {ref.kind}"
    return None


def _compare_json(op, doc, ref: Case):
    if doc["method"] != op["method"]:
        return f"method {doc['method']}, expected {op['method']}"
    rows = doc["sweep"]
    if [r["alpha"] for r in rows] != op["alphas"]:
        return "sweep rows do not match the alpha list"
    for k, r in enumerate(rows):
        if not r["newton_converged"]:
            return f"Newton did not converge at alpha {r['alpha']}"
        ratio = r["voltage_error"] / r["alpha"] ** 2
        if not abs(r["error_over_alpha_sq"] - ratio) <= 1e-9 * abs(ratio):
            return f"error_over_alpha_sq inconsistent at alpha {r['alpha']}"
        want = op["s_hot"][k]
        if not abs(r["s_hot_norm"] - want) <= SHOT_RTOL * want:
            return (f"s_hot_norm {r['s_hot_norm']} off the reference "
                    f"{want} at alpha {r['alpha']}")
    return None


def _row_count(op, lines, ref: Case):
    """Exit code and row count for table and csv outputs."""
    if op["cmd"] == "solve":
        if op["fmt"] == "table":
            if lines[0] != f"method: {op['method']}":
                return f"first line {lines[0]!r}"
            lines = lines[lines.index("") + 1:]
        want = ref.n + 1
    elif op["cmd"] == "compare":
        want = len(op["alphas"]) + 1 + (op["fmt"] == "table")
    else:   # check --format csv: header, 7 or 10 checks, reasons
        want = 1 + 7 + 3 * (ref.kind == "grid") + 1
    if len(lines) != want:
        return f"{len(lines)} rows, expected {want}"
    return None
