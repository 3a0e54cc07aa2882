"""Score lists of multipartite hypertournaments.

Decide whether candidate losing-score or score lists are realizable, construct
witness hypertournaments when they are, and cross-validate both against
exhaustive enumeration at desk scale.
"""

from . import criteria, model, oracle, realize
from .model import *  # noqa: F403
from .criteria import *  # noqa: F403
from .realize import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

# The package exports exactly what its four library modules export.
__all__ = sorted({*model.__all__, *criteria.__all__, *realize.__all__, *oracle.__all__})
