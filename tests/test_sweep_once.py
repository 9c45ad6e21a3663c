"""A lossless sweep builds its system once: one factor of ``im_coeff`` and
one evaluation of the flat-profile conditions serve every alpha."""

import numpy as np

import casegen
import rectpf._linalg
import rectpf.transmission
from rectpf import build_admittance, build_lossless_system, run_compare


def test_lossless_compare_builds_the_system_once(monkeypatch):
    case = casegen.random_lossless_case(np.random.default_rng(61), n_min=6,
                                        n_max=6, pv_fraction=0.3,
                                        newton_ready=True)
    part = build_admittance(case)
    im_coeff = build_lossless_system(part).im_coeff.toarray()

    factored, evaluated = [], []
    splu = rectpf._linalg.spla.splu
    flat_conditions = rectpf.transmission._flat_conditions

    def counting_splu(a, *args, **kwargs):
        factored.append(a.toarray())
        return splu(a, *args, **kwargs)

    def counting_conditions(*args):
        evaluated.append(args)
        return flat_conditions(*args)

    monkeypatch.setattr(rectpf._linalg.spla, "splu", counting_splu)
    monkeypatch.setattr(rectpf.transmission, "_flat_conditions",
                        counting_conditions)
    report = run_compare(case, [1, 0.5, 0.25])
    assert report.method == "lossless"
    assert sum(np.array_equal(a, im_coeff) for a in factored) == 1
    assert len(evaluated) == 1
