"""Chip-capacity arithmetic: unit cells per chip and factorable bit width.

A w x h unit tiles the usable chip area (chip edge minus a margin on each
side); the integration estimate takes the smaller per-dimension count
squared, and the bit estimate assumes a P-bit product needs P**2 cells.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CapacityInput:
    unit_w_um: float = 515.0
    unit_h_um: float = 530.0
    chip_mm: float = 19.0
    margin_um: float = 200.0
    chips: int = 100

    def __post_init__(self):
        for name in ("unit_w_um", "unit_h_um", "chip_mm", "margin_um"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if min(self.unit_w_um, self.unit_h_um, self.chip_mm) <= 0:
            raise ValueError("dimensions must be positive")
        # The estimate works in microns and counts units per edge.
        if not math.isfinite(self.chip_mm * 1000.0 / min(self.unit_w_um, self.unit_h_um)):
            raise ValueError(f"chip_mm {self.chip_mm!r} in microns per unit edge is not finite")
        if self.margin_um < 0:
            raise ValueError("margin must be >= 0")
        if self.margin_um * 2 >= self.chip_mm * 1000.0:
            raise ValueError("margin must be smaller than the chip edge")
        if self.chips < 1:
            raise ValueError("chip count must be >= 1")


@dataclass(frozen=True)
class CapacityReport:
    units_across: int        # usable width // unit width
    units_down: int          # usable width // unit height
    units_side: int          # min of the two, used per dimension
    units_per_chip: int
    total_units: int
    product_bits: int


def capacity_estimate(inp: CapacityInput) -> CapacityReport:
    # Positive: CapacityInput refuses a margin of half the chip edge or more.
    usable_um = inp.chip_mm * 1000.0 - 2.0 * inp.margin_um
    across = int(usable_um // inp.unit_w_um)
    down = int(usable_um // inp.unit_h_um)
    side = min(across, down)
    per_chip = side * side
    total = per_chip * inp.chips
    bits = math.isqrt(total)
    return CapacityReport(across, down, side, per_chip, total, bits)
