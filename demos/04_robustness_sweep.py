#!/usr/bin/env python3
"""Sharp nulls win on the drawing board, shaped nulls win in the field.

Designs weights for several assumed uncertainty levels (sigma_s), then
scores every design against interferer positions drawn with increasing
actual error (sigma_i). The sharp design is unbeatable when the interferer
is exactly where expected and collapses as soon as it is not; shaped
designs give up peak suppression for a flat, robust curve. Capacity tells
the same story in bits/s/Hz.
"""

import math
from pathlib import Path

from nullshaper import crossover_sigma, design_weights, load_scenario, monte_carlo_sweeps

scenario = load_scenario(Path(__file__).parent / "scenarios" / "leo_capacity.json")

SIGMA_S_DEG = (0.0, 0.1, 0.3, 0.5)
SIGMA_I_DEG = [0.1 * i for i in range(11)]
TRIALS = 300

print(__doc__)
print(f"{TRIALS} trials per point, seed {scenario.seed}; every design sees the same draws\n")

weights = [
    design_weights(scenario.with_sigma_s(math.radians(sigma_s))).weights for sigma_s in SIGMA_S_DEG
]
results = monte_carlo_sweeps(
    scenario, weights, [math.radians(s) for s in SIGMA_I_DEG], trials=TRIALS
)
sweeps = {sigma_s: psi for sigma_s, (psi, _) in zip(SIGMA_S_DEG, results)}

header = "sigma_i [deg]:" + "".join(f"{s:7.1f}" for s in SIGMA_I_DEG)
print(header)
for sigma_s, sweep in sweeps.items():
    row = "".join(f"{v:7.1f}" for v in sweep.mean_db)
    print(f"sigma_s={sigma_s:3.1f}  {row}   [mean dB]")

baseline = sweeps[0.0]
print("\nwhere each shaped design overtakes the sharp one:")
for sigma_s in SIGMA_S_DEG[1:]:
    cross = crossover_sigma(baseline, sweeps[sigma_s])
    print(f"  sigma_s={sigma_s}: first better at sigma_i = {cross} deg")

print(
    "\nFull-size sweeps (500+ trials) plus capacity curves and SVG charts:"
    "\n  nullshaper sweep --scenario demos/scenarios/leo_capacity.json \\"
    "\n      --sigma-s 0,0.1,0.3,0.5 --trials 500 --capacity --format both --out out/"
)
