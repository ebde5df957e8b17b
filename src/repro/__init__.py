"""repro — reproduction of "Roam Without a Home: Unraveling the Airalo
Ecosystem" (IMC 2025).

A simulated thick-MNA / IPX / public-internet ecosystem plus the paper's
complete measurement and analysis pipeline. Start from
:class:`repro.core.ThickMnaStudy` or build the world directly with
:func:`repro.worlds.build_airalo_world`.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ThickMnaStudy": "core.study",
})
__all__.append("__version__")
