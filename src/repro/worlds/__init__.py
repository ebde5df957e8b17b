"""World builders.

``paperdata`` encodes the paper's ground truth (Table 2 topology, the
campaign inventories of Tables 3-4, quoted calibration numbers);
``airalo`` assembles the full simulated ecosystem from it; ``emnify``
builds the small validation world of Section 4.3.1.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AiraloWorld": "airalo",
    "build_airalo_world": "airalo",
    "EmnifyWorld": "emnify",
    "build_emnify_world": "emnify",
    "paperdata": "paperdata",
    "scaled_count": "airalo",
})
