"""Link-diagram calculus: Reidemeister moves, search, and split certificates.

Diagrams are combinatorial maps with decorations (see `hardsplit.maps`);
they read and write a small PD-based text format (`hardsplit.pdio`), admit
the three Reidemeister moves (`hardsplit.moves`), and canonicalize for
deduplication (`hardsplit.canon`).  On top sit move-space search
(`hardsplit.search`), diagram invariants (`hardsplit.invariants`), example
families (`hardsplit.generators`), and the resolution/isotopy machinery for
traced shadow homotopies (`hardsplit.resolution`).
"""

from .maps import PLANE, ROOT, SPHERE, Diagram, DiagramError, MoveError
from .pdio import PDError, emit_pd, parse_pd

__all__ = [
    "PLANE",
    "ROOT",
    "SPHERE",
    "Diagram",
    "DiagramError",
    "MoveError",
    "PDError",
    "emit_pd",
    "parse_pd",
]

__version__ = "0.1.0"
