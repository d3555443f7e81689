"""Workbench for rainbow-triangle problems on colored directed graphs.

The package models c-colored directed graphs, detects rainbow (3-distinct-
color) directed and transitive triangles, generates the extremal
constructions that avoid them, searches small instances exhaustively,
re-derives local edge-count bounds by scenario enumeration, and keeps the
associated threshold constants in exact arithmetic over Q(sqrt(7)).

Every name a module lists in its ``__all__`` can be imported from here.
"""

from . import constructions, exactmath, graphs, localbounds, search, triangles
from .constructions import *  # noqa: F401,F403
from .exactmath import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .localbounds import *  # noqa: F401,F403
from .search import *  # noqa: F401,F403
from .triangles import *  # noqa: F401,F403

__all__ = (
    graphs.__all__
    + triangles.__all__
    + constructions.__all__
    + search.__all__
    + exactmath.__all__
    + localbounds.__all__
)

__version__ = "0.1.0"
