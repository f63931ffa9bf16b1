import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qafactor.capacity import CapacityInput, CapacityReport, capacity_estimate
from qafactor.cli import main


def test_reference_design_numbers():
    rep = capacity_estimate(CapacityInput())
    assert rep == CapacityReport(
        units_across=36, units_down=35, units_side=35,
        units_per_chip=1225, total_units=122500, product_bits=350,
    )


def test_single_chip():
    rep = capacity_estimate(CapacityInput(chips=1))
    assert rep.total_units == 1225
    assert rep.product_bits == 35


def test_unit_larger_than_usable_area():
    rep = capacity_estimate(CapacityInput(unit_w_um=20000.0, unit_h_um=20000.0))
    assert rep.units_side == 0
    assert rep.total_units == 0
    assert rep.product_bits == 0


def test_pre_mcm_unit_size_fits_more():
    small = capacity_estimate(CapacityInput(unit_w_um=495.0, unit_h_um=510.0))
    assert small.units_side >= 36


def test_validation():
    with pytest.raises(ValueError):
        CapacityInput(unit_w_um=0.0)
    with pytest.raises(ValueError):
        CapacityInput(margin_um=-1.0)
    with pytest.raises(ValueError):
        CapacityInput(margin_um=9500.0)
    with pytest.raises(ValueError):
        CapacityInput(chips=0)
    for field in ("unit_w_um", "unit_h_um", "chip_mm", "margin_um"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=field):
                CapacityInput(**{field: value})


@pytest.mark.parametrize("argv", [("--chip-mm", "1e306"),
                                  ("--chip-mm", "1e300", "--unit-w", "1e-300")])
def test_chip_edge_overflowing_in_microns_is_usage_error(capsys, argv):
    assert main(["capacity", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "chip_mm" in err


@given(
    margin=st.floats(0.0, 5000.0),
    chips=st.integers(1, 500),
)
@settings(max_examples=50, deadline=None)
def test_monotone_in_margin_and_chips(margin, chips):
    rep = capacity_estimate(CapacityInput(margin_um=margin, chips=chips))
    tighter = capacity_estimate(CapacityInput(margin_um=margin + 100.0, chips=chips))
    assert tighter.units_side <= rep.units_side
    assert rep.total_units == rep.units_per_chip * chips
    assert rep.product_bits ** 2 <= rep.total_units
