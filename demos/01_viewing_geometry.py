#!/usr/bin/env python3
"""How much ground does a pointing error cover?

A LEO satellite looks at a ground target along an azimuth/elevation ray.
If the assumed direction is off by a fraction of a degree, the ray lands
kilometres away, and the miss grows with orbit altitude. This script
quantifies that with the exact ellipsoid geometry: ray intersection,
geodetic conversion, and great-circle distance between the footprints.
"""

import math

import numpy as np

from nullshaper import AerPosition, GeodeticPosition, angular_deviation_to_ground_distance

SAT_LON_DEG, SAT_LAT_DEG = 138.53, -22.024

# expected look direction: 10 degrees off nadir toward the east
EXPECTED = AerPosition(azimuth=math.radians(90.0), elevation=math.radians(-80.0), srange=1.0)

print(__doc__)
print(f"satellite ground position: lon {SAT_LON_DEG} deg, lat {SAT_LAT_DEG} deg")
print("expected ray: azimuth 90 deg (east), elevation -80 deg (10 deg off nadir)\n")

print("ground miss for a 0.5 deg azimuth error, by altitude:")
altitudes_km = (400, 600, 800, 1000, 1200)
sats = [GeodeticPosition.from_degrees(SAT_LON_DEG, SAT_LAT_DEG, alt_km * 1000.0)
        for alt_km in altitudes_km]
# a list of satellites adds a leading axis: one call solves every altitude's rays
zetas = angular_deviation_to_ground_distance(sats, EXPECTED, math.radians(0.5), 0.0)
for alt_km, zeta in zip(altitudes_km, zetas):
    print(f"  {alt_km:5d} km altitude -> {zeta / 1000.0:7.3f} km on the ground")

print("\nground miss at 800 km, by elevation error:")
sat = GeodeticPosition.from_degrees(SAT_LON_DEG, SAT_LAT_DEG, 800e3)
deviations_deg = np.array([0.1, 0.25, 0.5, 0.75, 1.0])
# one call solves every deviated ray; a ray that missed the planet would read NaN
zetas = angular_deviation_to_ground_distance(sat, EXPECTED, 0.0, np.radians(deviations_deg))
for dev_deg, zeta in zip(deviations_deg, zetas):
    print(f"  {dev_deg:5.2f} deg elevation error -> {zeta / 1000.0:7.3f} km")

print(
    "\nEven half-degree errors displace the footprint by kilometres, so a"
    "\nnull pointed at a single assumed direction can miss the interferer"
    "\nentirely. The same tables come from the CLI:"
    "\n  nullshaper geodesy --scenario demos/scenarios/leo_capacity.json --out out/"
)
