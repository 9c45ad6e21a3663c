"""Seeded case generators and independent numpy references.

Every case is built from plain arrays (branch endpoints and admittances,
bus loads) and written as a rectpf YAML case file.  The reference solution
each output is checked against is computed here, at generation time, from
an admittance matrix stamped independently of ``rectpf`` with plain numpy.

Bus numbering follows the case format: non-slack buses are 1..N and the
slack is bus N+1.  Array position ``k`` holds bus ``k + 1``; position N is
the slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Largest linear voltage step max|dv|/|V0| the generators aim at.  At 5 %
# the Newton reference converges in three to four iterations.
STEP_TARGET = 0.05
# X/R ratio shared by every feeder branch and constant-impedance load.
FEEDER_XR = 2.0


@dataclass
class Case:
    """One generated network plus the reference data its checks need."""

    name: str
    kind: str              # feeder, grid (lossless, PV), mesh (lossy), or an
                           # expected-error case: capacitive, unknown_field
    method: str            # what `--method auto` must resolve to
    f: np.ndarray          # branch from-position, (M,) int
    t: np.ndarray          # branch to-position, (M,) int
    y: np.ndarray          # series admittance, (M,) complex
    line_b: np.ndarray     # total line-charging susceptance, (M,) float
    shunt: np.ndarray      # bus shunt admittance, (N,) complex
    i_load: np.ndarray     # constant-current injection, (N,) complex
    s: np.ndarray          # power target, (N,) complex; PV: p + 0j
    pv: np.ndarray         # PV mask, (N,) bool
    v_slack: complex = 1.0 + 0j
    extra_field: bool = False   # writes an unknown field (a parse error)
    dv_ref: np.ndarray = field(default=None)

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @property
    def n_branches(self) -> int:
        return self.f.shape[0]


# -- independent network algebra ---------------------------------------------


def stamp(case: Case) -> tuple[np.ndarray, np.ndarray]:
    """Dense (N, N) block Y and (N,) slack column, stamped with np.add.at."""
    m = case.n + 1
    full = np.zeros((m, m), dtype=complex)
    half = 0.5j * case.line_b
    np.add.at(full, (case.f, case.f), case.y + half)
    np.add.at(full, (case.t, case.t), case.y + half)
    np.add.at(full, (case.f, case.t), -case.y)
    np.add.at(full, (case.t, case.f), -case.y)
    idx = np.arange(case.n)
    full[idx, idx] += case.shunt
    return full[:-1, :-1], full[:-1, -1]


def injection(case: Case, v: np.ndarray) -> np.ndarray:
    """Complex power injected at each non-slack bus, from branch currents.

    Uses the branch list directly (no admittance matrix), so it shares no
    code with either ``stamp`` or ``rectpf``.
    """
    vf = np.append(v, case.v_slack)
    half = 0.5j * case.line_b
    cur = np.zeros(case.n + 1, dtype=complex)
    np.add.at(cur, case.f, case.y * (vf[case.f] - vf[case.t]) + half * vf[case.f])
    np.add.at(cur, case.t, case.y * (vf[case.t] - vf[case.f]) + half * vf[case.t])
    cur = cur[:-1] + case.shunt * v - case.i_load
    return v * cur.conj()


def row_abs_sum(case: Case) -> np.ndarray:
    """Sum of |entries| in each non-slack row of the full admittance matrix."""
    out = np.zeros(case.n + 1)
    for ends in (case.f, case.t):
        np.add.at(out, ends, 2 * np.abs(case.y) + 0.5 * np.abs(case.line_b))
    return out[:-1] + np.abs(case.shunt)


def noload_voltage(y: np.ndarray, ybar: np.ndarray, case: Case) -> np.ndarray:
    return np.linalg.solve(y, case.i_load - ybar * case.v_slack)


def reference_dv(case: Case, method: str) -> np.ndarray:
    """The perturbation ``method`` must produce, by plain numpy.

    ``noload``: ``Y dv = conj(s) / conj(V0)`` at the no-load profile.
    ``lossless``: ``dv = j x`` with ``(-(B - diag(Bsh)) - diag(Im I_L)) x
    = P + Re I_L`` at the flat profile.  ``general``: the first-order
    expansion of the injections around the flat profile, solved as a 2N real
    system whose columns are the images of the unit real and imaginary
    perturbations.
    """
    y, ybar = stamp(case)
    if method == "noload":
        v0 = noload_voltage(y, ybar, case)
        return np.linalg.solve(y, case.s.conj() / v0.conj())
    if method == "lossless":
        bsh = np.zeros(case.n + 1)
        np.add.at(bsh, case.f, 0.5 * case.line_b)
        np.add.at(bsh, case.t, 0.5 * case.line_b)
        bsh = bsh[:-1] + case.shunt.imag
        a = -(y.imag - np.diag(bsh)) - np.diag(case.i_load.imag)
        return 1j * np.linalg.solve(a, case.s.real + case.i_load.real)
    if method == "general":
        v0 = np.ones(case.n, dtype=complex)
        i0 = y @ v0 + ybar * case.v_slack - case.i_load
        a_re = np.diag(i0.conj()) + v0[:, None] * y.conj()
        a_im = 1j * np.diag(i0.conj()) - 1j * v0[:, None] * y.conj()
        m = np.block([[a_re.real, a_im.real], [a_re.imag, a_im.imag]])
        rhs = case.s - v0 * i0.conj()
        x = np.linalg.solve(m, np.concatenate([rhs.real, rhs.imag]))
        return x[:case.n] + 1j * x[case.n:]
    raise ValueError(f"no reference for method {method!r}")


def step_ratio(case: Case) -> float:
    """max |dv| / |V0| of the no-load closed form for the case's loading."""
    y, ybar = stamp(case)
    v0 = noload_voltage(y, ybar, case)
    dv = np.linalg.solve(y, case.s.conj() / v0.conj())
    return float((np.abs(dv) / np.abs(v0)).max())


def finish(case: Case) -> Case:
    """Rescale the loading to the target step and attach the reference."""
    case.s = case.s * (STEP_TARGET / step_ratio(case))
    case.dv_ref = reference_dv(case, case.method)
    return case


# -- topologies ----------------------------------------------------------------


def _tree(rng, n: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Random tree on positions 0..n, rooted at the slack (position n).

    Position 0 hangs off the slack and position ``k`` off one of the
    ``window`` positions before it, which gives long feeder-like paths with
    short laterals.  Returns (child, parent) branch endpoints.
    """
    k = np.arange(1, n)
    lo = np.maximum(0, k - window)
    parent = np.concatenate([[n], lo + (rng.random(n - 1) * (k - lo)).astype(int)])
    return np.arange(n), parent


def _mesh(rng, n: int, window: int, chords: int, span: int):
    """``_tree`` plus ``chords`` extra branches between non-slack positions
    at most ``span`` apart."""
    f, t = _tree(rng, n, window)
    present = {tuple(sorted(e)) for e in zip(f, t)}
    extra = []
    while len(extra) < chords:
        a = int(rng.integers(0, n))
        b = int(min(n - 1, a + rng.integers(2, span + 1)))
        if a != b and (a, b) not in present:
            present.add((a, b))
            extra.append((a, b))
    return (np.concatenate([f, [a for a, _ in extra]]).astype(int),
            np.concatenate([t, [b for _, b in extra]]).astype(int))


# -- generators ----------------------------------------------------------------


def radial_feeder(rng, n: int, name: str) -> Case:
    """Radial ZIP feeder with one X/R ratio on every branch.

    Shared branch phase makes every interior row of Y tie in diagonal
    dominance and the slack-adjacent rows strictly dominant, so ``auto``
    resolves to ``noload``.  Constant-impedance loads use the same phase for
    the same reason.
    """
    f, t = _tree(rng, n, window=3)
    r = rng.uniform(0.002, 0.01, size=n)
    z = complex(1.0, FEEDER_XR)
    y = 1.0 / (r * z)
    phase = 1.0 / z * abs(z)    # |phase| = 1, the angle of every y
    shunt = np.where(rng.random(n) < 0.3, rng.uniform(0.0, 0.02, n), 0.0) * phase
    i_load = np.zeros(n, dtype=complex)
    mask = rng.random(n) < 0.3
    i_load[mask] = -rng.uniform(0.0, 0.01, mask.sum()) * np.exp(-0.4j)
    p = -rng.uniform(0.2, 1.0, n)
    s = p + 1j * p * rng.uniform(0.2, 0.6, n)
    return finish(Case(name, "feeder", "noload", f, t, y, np.zeros(n), shunt,
                       i_load, s, np.zeros(n, dtype=bool),
                       v_slack=complex(rng.uniform(1.0, 1.05))))


def lossless_grid(rng, n: int, name: str, pv_fraction: float = 0.2) -> Case:
    """Meshed lossless grid, unity slack, PV buses at one per-unit.

    Inductive lines (negative series susceptance) and no current loads make
    the flat-profile dominance conditions hold by construction, so ``auto``
    resolves to ``lossless``.
    """
    f, t = _mesh(rng, n, window=30, chords=max(1, n // 4), span=30)
    m = f.shape[0]
    y = -1j * rng.uniform(5.0, 40.0, m)
    line_b = np.where(rng.random(m) < 0.3, rng.uniform(0.0, 0.005, m), 0.0)
    pv = rng.random(n) < pv_fraction
    p = rng.uniform(-1.0, 1.0, n)
    q = np.where(pv, 0.0, -rng.uniform(0.0, 0.3, n))
    return finish(Case(name, "grid", "lossless", f, t, y, line_b,
                       np.zeros(n, dtype=complex), np.zeros(n, dtype=complex),
                       p + 1j * q, pv))


def lossy_mesh(rng, n: int, name: str) -> Case:
    """Meshed lossy all-ZIP case that ``auto`` must send to ``general``.

    Branch X/R ratios vary, and a capacitor bank at the far end of the
    feeder breaks the weak diagonal dominance the no-load form needs.
    """
    f, t = _mesh(rng, n, window=4, chords=max(1, n // 5), span=5)
    m = f.shape[0]
    y = 1.0 / (rng.uniform(0.005, 0.02, m) * (1.0 + 1j * rng.uniform(1.0, 4.0, m)))
    shunt = np.zeros(n, dtype=complex)
    shunt[n - 1] = 1j * rng.uniform(0.5, 1.0)
    p = -rng.uniform(0.2, 1.0, n)
    s = p + 1j * p * rng.uniform(0.2, 0.5, n)
    return finish(Case(name, "mesh", "general", f, t, y, np.zeros(m), shunt,
                       np.zeros(n, dtype=complex), s, np.zeros(n, dtype=bool),
                       v_slack=complex(rng.uniform(1.0, 1.05))))


def capacitive_grid(rng, n: int, name: str) -> Case:
    """Lossless grid with one capacitive series branch.

    ``--method lossless`` must refuse it with FLAT_CONDITIONS_VIOLATED
    (exit 3): the capacitive branch breaks weak dominance at its ends.
    """
    case = lossless_grid(rng, n, name, pv_fraction=0.0)
    k = case.n_branches - 1
    case.y = case.y.copy()
    case.y[k] = 2j * abs(case.y[k])
    case.kind = "capacitive"
    case.dv_ref = None
    return case


def unknown_field(rng, n: int, name: str) -> Case:
    """A valid feeder written with one unknown bus field (exit 2)."""
    case = radial_feeder(rng, n, name)
    case.extra_field = True
    case.kind = "unknown_field"
    return case


# -- YAML emission --------------------------------------------------------------


def num(x: float) -> str:
    """Float literal PyYAML's YAML 1.1 resolver reads back as the same float.

    YAML 1.1 floats need a decimal point, so ``1e-05`` becomes ``1.0e-05``.
    """
    r = repr(float(x))
    if "e" in r and "." not in r:
        mant, exp = r.split("e")
        r = f"{mant}.0e{exp}"
    return r


def to_yaml(case: Case) -> str:
    lines = ['schema_version: "1"', "base_mva: 100.0", "buses:"]
    for k in range(case.n):
        fields = [f"id: {k + 1}"]
        if case.pv[k]:
            fields += ["kind: pv", "v_setpoint: 1.0", f"p: {num(case.s[k].real)}"]
        else:
            fields += ["kind: zip", f"p: {num(case.s[k].real)}",
                       f"q: {num(case.s[k].imag)}"]
        for key, val in (("shunt_g", case.shunt[k].real),
                         ("shunt_b", case.shunt[k].imag),
                         ("i_load_re", case.i_load[k].real),
                         ("i_load_im", case.i_load[k].imag)):
            if val:
                fields.append(f"{key}: {num(val)}")
        if case.extra_field and k == 0:
            fields.append("colour: red")
        lines.append("  - {" + ", ".join(fields) + "}")
    vs = case.v_slack
    lines.append(f"  - {{id: {case.n + 1}, kind: slack, v_setpoint: {num(abs(vs))}, "
                 "theta_deg: 0.0}")
    lines.append("branches:")
    for a, b, yy, lb in zip(case.f, case.t, case.y, case.line_b):
        entry = (f"from: {a + 1}, to: {b + 1}, series_g: {num(yy.real)}, "
                 f"series_b: {num(yy.imag)}")
        if lb:
            entry += f", shunt_b_total: {num(lb)}"
        lines.append("  - {" + entry + "}")
    return "\n".join(lines) + "\n"


# -- reference files --------------------------------------------------------------


def save_ref(case: Case, path) -> None:
    fields = dict(vars(case))
    if fields["dv_ref"] is None:
        fields["dv_ref"] = np.zeros(0, dtype=complex)
    np.savez(path, **fields)


def load_ref(path) -> Case:
    with np.load(path) as data:
        return Case(**{k: (v.item() if v.ndim == 0 else v)
                       for k, v in data.items()})
