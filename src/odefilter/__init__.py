"""Probabilistic ODE solving by Kalman filtering on integrated-Wiener priors.

The solver treats an initial value problem as sequential Gaussian inference:
an integrated-Wiener-process prior over the solution and its derivatives is
conditioned, step by step, on derivative observations manufactured by
evaluating the right-hand side at the current prediction.  The result is a
calibrated Gaussian posterior over the whole solution rather than a point
estimate, at a cost comparable to a classic multistep method.
"""

# Each module's __all__ is the one list of its public names; the package
# republishes them, so a name is added or renamed in its module alone.
from .analysis import *  # noqa: F403
from .bench import *  # noqa: F403
from .filtering import *  # noqa: F403
from .priors import *  # noqa: F403
from .problems import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"
