#!/usr/bin/env python3
"""Shaping a null to cover an uncertain interferer direction.

A 20-element linear array serves a user at 30 degrees while an interferer
sits somewhere near boresight, known only as a Gaussian with a 1 degree
standard deviation. Sampling that belief over +/- kappa sigma and
weighting each sample by its probability turns the single sharp null into
a shaped notch: the larger kappa, the wider the notch.
"""

import math

from nullshaper import (
    ArrayModel,
    Direction,
    InterfererBelief,
    Objective,
    build_grid,
    null_width,
    optimize,
    pattern_cut,
)

ARRAY = ArrayModel.half_wavelength(20, 1, 0.015)
USER = Direction(math.radians(30.0), 0.0)
BELIEF = InterfererBelief.isotropic(0.0, 0.0, math.radians(1.0))

print(__doc__)
print(f"{'kappa':>6} {'design value [dB]':>18} {'-40 dB notch width [deg]':>26} "
      f"{'loading':>10}")
for kappa in (1, 2, 3):
    grid = build_grid(BELIEF, samples_per_axis=5, kappa=kappa)
    result = optimize(Objective(ARRAY, [USER], [grid]))
    angles, levels = pattern_cut(ARRAY, result.weights, phi_cut=0.0, samples=3601)
    width = null_width(angles, levels, center=0.0, depth_db=40.0)
    print(f"{kappa:>6} {result.psi_db:>18.1f} {math.degrees(width):>26.2f} "
          f"{result.loading:>10.2e}")

print(
    "\nThe notch width tracks the sampled band (+/- kappa degrees here)"
    "\nwhile the user lobe stays put. Export the full pattern for a kappa by"
    "\nsetting shaping.kappa in demos/scenarios/linear_null_widening.json and running:"
    "\n  nullshaper pattern --scenario demos/scenarios/linear_null_widening.json \\"
    "\n      --out out/ --format both"
)
