"""Null-shaped beamforming for satellite uplinks under interferer location
uncertainty.

The package covers the full desk-scale pipeline: exact LEO viewing
geometry on the World Geodetic System 1984 datum (`geodesy`), planar-array
gain evaluation (`array`), probability-weighted null sample grids
(`uncertainty`), the closed-form weight design (`optimizer`), and
scenario-level Monte-Carlo robustness experiments (`simulation`). A small
CLI (`nullshaper`) drives the experiment types and writes CSV/SVG
artifacts.

Each module's ``__all__`` is the one declaration of its public names; the
package re-exports them and builds its own ``__all__`` from those lists.
"""

from . import array, geodesy, optimizer, simulation, uncertainty
from .array import *
from .geodesy import *
from .optimizer import *
from .simulation import *
from .uncertainty import *

__version__ = "0.1.0"

__all__ = ["__version__", *geodesy.__all__, *array.__all__, *uncertainty.__all__,
           *optimizer.__all__, *simulation.__all__]
