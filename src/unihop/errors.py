"""Exception hierarchy for the unihop package.

Two broad failure classes are distinguished so callers (and the CLI exit-code
table) can tell bad inputs from numerical breakdowns:

* :class:`ValidationError` -- a parameter or state violates a documented
  precondition or invariant; raised before any heavy computation starts.
* :class:`ComputationError` -- the inputs were admissible but the numerics
  failed (eigensolver breakdown, overflow, non-convergent root search, ...).
"""

from __future__ import annotations

import numpy as np


class UnihopError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(UnihopError, ValueError):
    """Invalid parameter, spec, or state vector."""


class ComputationError(UnihopError, RuntimeError):
    """A numerical procedure failed on admissible inputs."""


class OverflowAbort(ComputationError):
    """Amplitudes exceeded the overflow guard during time evolution.

    Secular amplitude growth is physical for non-Hermitian generators; the
    integrator aborts loudly instead of renormalizing silently.  Use the
    ``renormalize`` option of the evolve configuration to track growth via an
    accumulated log-scale factor instead.
    """


class RootNotFoundError(ComputationError):
    """Newton iteration failed to converge; carries the final residual."""

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(message)
        self.residual = residual


class StalledIterationError(ComputationError):
    """Newton iteration stalled on a (numerically) singular derivative."""


class EdgeLeakError(ComputationError):
    """Wavepacket weight at the window boundary exceeded the edge monitor."""


def _checked(what: str, routine, *args, **kwargs):
    """Call a dense linear-algebra routine; failure or a non-finite result
    (any array of a tuple result) is a :class:`ComputationError` naming
    ``what``."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the check below decides
            result = routine(*args, **kwargs)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise ComputationError(f"{what} failed: {exc}") from exc
    arrays = result if isinstance(result, tuple) else (result,)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ComputationError(f"{what} returned non-finite values")
    return result
