"""Operation times are scaled to the reference speed by the spins around
them."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from speed import SPIN_REF_S, spin  # noqa: E402
from worker import op_time_ms  # noqa: E402


def test_times_are_scaled_to_reference_speed():
    # the host runs at half speed in the first and last pass
    slow = ([20.0, 600.0], [2 * SPIN_REF_S] * 3)
    quick = ([10.0, 300.0], [SPIN_REF_S] * 3)
    assert op_time_ms([slow, quick, slow]) == pytest.approx([10.0, 300.0])


def test_each_operation_uses_the_spins_on_its_own_sides():
    # the host slows between the two operations
    passes = [([10.0, 40.0], [SPIN_REF_S, SPIN_REF_S, 3 * SPIN_REF_S])]
    assert op_time_ms(passes) == pytest.approx([10.0, 20.0])


def test_spin_takes_measurable_time():
    assert 0 < spin() < 1.0
