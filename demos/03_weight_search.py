#!/usr/bin/env python3
"""Anatomy of one weight design for the LEO uplink scenario.

Loads the satellite/user/interferer geometry from a scenario file, maps
the ground positions into the nadir-pointing array frame, and solves for
the weights in closed form (one generalized eigenvector). The printout
shows what the design balances: gain toward the user against
probability-weighted gain over the interferer's uncertainty region.
"""

import math
from pathlib import Path

from nullshaper import build_objective, design_weights, gain, load_scenario

scenario = load_scenario(Path(__file__).parent / "scenarios" / "leo_capacity.json")

print(__doc__)
user = scenario.user_directions()[0]
interferer = scenario.interferer_directions()[0]
print(f"user as seen from the satellite:      off-nadir {math.degrees(user.theta):6.2f} deg, "
      f"azimuth {math.degrees(user.phi):6.2f} deg")
print(f"interferer as seen from the satellite: off-nadir {math.degrees(interferer.theta):6.2f} deg, "
      f"azimuth {math.degrees(interferer.phi):6.2f} deg")
print(f"shaping: sigma_s {math.degrees(scenario.interferers[0].sigma_s):.2f} deg, "
      f"L {scenario.samples_per_axis}, kappa {scenario.kappa}\n")

result = design_weights(scenario)
objective = build_objective(scenario)

user_gain = gain(scenario.array, result.weights, user)
interferer_gain = objective.interferer_gain_mean(result.weights)
print(f"design: one eigen-solve, diagonal loading {result.loading:.3e}")
print(f"design objective: {result.psi_db:.1f} dB"
      + (" (at the eps_den clamp)" if result.clamped else ""))
print(f"  gain toward the user:              {10 * math.log10(user_gain):6.2f} dB "
      f"(ceiling {10 * math.log10(scenario.array.size):.2f} dB)")
print(f"  weighted gain over the null region: {10 * math.log10(max(interferer_gain, 1e-30)):6.2f} dB")

print(
    "\nThe same design via the CLI writes weights.csv and trace.csv:"
    "\n  nullshaper optimize --scenario demos/scenarios/leo_capacity.json --out out/"
)
