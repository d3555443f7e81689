"""Exhaustive verification of local edge-count bounds between small typed
vertex configurations: declarative scenarios, an exact enumerator, and the
bound catalogues."""

from . import catalogues, scenarios
from .catalogues import *  # noqa: F401,F403
from .scenarios import *  # noqa: F401,F403

__all__ = catalogues.__all__ + scenarios.__all__
