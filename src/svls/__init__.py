"""Low-rank matrix recovery from row-and-column affine measurements.

Each module's ``__all__`` lists the public names it defines, and the
package's ``__all__`` is their union."""

from . import baselines, measurements, recovery, simulate
from .baselines import *  # noqa: F403
from .measurements import *  # noqa: F403
from .recovery import *  # noqa: F403
from .simulate import *  # noqa: F403

__all__ = sorted(baselines.__all__ + measurements.__all__ + recovery.__all__ + simulate.__all__)

__version__ = "0.1.0"
