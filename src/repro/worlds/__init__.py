"""World builders.

``paperdata`` encodes the paper's ground truth (Table 2 topology, the
campaign inventories of Tables 3-4, quoted calibration numbers);
``airalo`` assembles the full simulated ecosystem from it; ``emnify``
builds the small validation world of Section 4.3.1.
"""

from repro.worlds.airalo import AiraloWorld, build_airalo_world, scaled_count
from repro.worlds.emnify import EmnifyWorld, build_emnify_world
from repro.worlds import paperdata

__all__ = [
    "AiraloWorld",
    "build_airalo_world",
    "EmnifyWorld",
    "build_emnify_world",
    "paperdata",
    "scaled_count",
]
