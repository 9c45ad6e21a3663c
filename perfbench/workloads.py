"""The benchmark's workloads: seeded cases plus a fixed operation list.

``build(workload, seed, workdir)`` writes every case file and reference
into ``workdir`` and returns the operations one pass runs, in order.  An
operation is a plain dict: the CLI ``argv`` and what its output must show.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import cases

DESK_ALPHAS = [1.0, 0.5, 0.25]


def _op(path, case, cmd, fmt="json", oracle=False, method=None, rc=0,
        code=None, alphas=None, s_hot=None):
    argv = [cmd, path]
    if alphas is not None:
        argv += ["--alpha-list", ",".join(repr(a) for a in alphas)]
    if method is not None:
        argv += ["--method", method]
    if oracle:
        argv.append("--oracle")
    argv += ["--format", fmt]
    expected = case.method if method in (None, "auto") else method
    return {"argv": argv, "case": case.name, "cmd": cmd, "fmt": fmt,
            "oracle": oracle, "rc": rc, "code": code, "method": expected,
            "alphas": alphas, "s_hot": s_hot}


def _s_hot_sweep(case: cases.Case, method: str, alphas) -> list[float]:
    """Reference quadratic-term norm ``|dv * conj(Y dv)|`` at each alpha."""
    y, _ = cases.stamp(case)
    out = []
    for a in alphas:
        dv = cases.reference_dv(replace(case, s=case.s * a), method)
        out.append(float(np.linalg.norm(dv * (y @ dv).conj())))
    return out


def _feeder_large(rng):
    feeders = [cases.radial_feeder(rng, n, f"feeder{n}") for n in (400, 800, 1200)]
    return feeders, lambda p: [_op(p[c.name], c, "solve", oracle=True)
                               for c in feeders]


def _sizes(lo: int, hi: int, count: int) -> list[int]:
    """Evenly spread bus counts, so every seed does about the same work."""
    return [int(round(x)) for x in np.linspace(lo, hi, count)]


# The formats and flags a desk user cycles through, one per case in turn.
DESK_SECOND = [("json", True), ("csv", True), ("table", False), ("table", True)]
DESK_THIRD = [("check", "json"), ("solve", "csv"), ("check", "csv"),
              ("solve", "table")]


def _desk_mix(rng):
    made = [cases.radial_feeder(rng, n, f"feeder{k}")
            for k, n in enumerate(_sizes(10, 80, 20))]
    made += [cases.lossless_grid(rng, n, f"grid{k}")
             for k, n in enumerate(_sizes(10, 80, 14))]
    made += [cases.lossy_mesh(rng, n, f"mesh{k}")
             for k, n in enumerate(_sizes(10, 40, 6))]
    bad_field = cases.unknown_field(rng, 20, "unknown_field")
    capacitive = cases.capacitive_grid(rng, 20, "capacitive")

    def ops(p):
        out = []
        for k, c in enumerate(made):
            path = p[c.name]
            fmt, oracle = DESK_SECOND[k % 4]
            cmd, fmt3 = DESK_THIRD[(k // 4) % 4]
            out += [_op(path, c, "solve"),
                    _op(path, c, "solve", fmt=fmt, oracle=oracle),
                    _op(path, c, cmd, fmt=fmt3)]
            if k % 4 == 1:
                shot = _s_hot_sweep(c, c.method, DESK_ALPHAS)
                out.append(_op(path, c, "compare", alphas=DESK_ALPHAS, s_hot=shot))
        for fmt in ("json", "table"):
            out.append(_op(p[bad_field.name], bad_field, "solve", fmt=fmt,
                           rc=2, code="VALIDATION_ERROR"))
            out.append(_op(p[capacitive.name], capacitive, "solve", fmt=fmt,
                           method="lossless", rc=3,
                           code="FLAT_CONDITIONS_VIOLATED"))
        out.append(_op(p[bad_field.name], bad_field, "check", rc=2,
                       code="VALIDATION_ERROR"))
        order = rng.permutation(len(out))
        return [out[i] for i in order]
    return made + [bad_field, capacitive], ops


WORKLOADS = {
    "feeder-large": _feeder_large,
    "desk-mix": _desk_mix,
}


def build(workload: str, seed: int, workdir) -> tuple[list[dict], list[dict]]:
    """Write the workload's cases into ``workdir``.

    Returns the operation list and one record per case (name, N, branch
    count, file size) for the run's environment block.
    """
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    made, make_ops = WORKLOADS[workload](rng)
    paths, info = {}, []
    for c in made:
        path = workdir / f"{c.name}.yaml"
        text = cases.to_yaml(c)
        path.write_text(text, encoding="utf-8")
        cases.save_ref(c, workdir / f"{c.name}.npz")
        paths[c.name] = str(path)
        info.append({"case": c.name, "kind": c.kind, "n": c.n,
                     "branches": c.n_branches, "bytes": len(text)})
    return make_ops(paths), info
