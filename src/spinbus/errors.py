"""Exception types shared across the package.

Everything derives from SpinbusError so callers can catch the package's
failures with a single except clause; most types also subclass ValueError
because they signal bad inputs.
"""

from __future__ import annotations


def _rebuild(cls, args, state):
    exc = cls.__new__(cls)
    exc.args = args
    exc.__dict__.update(state)
    return exc


class SpinbusError(Exception):
    """Base class for all spinbus errors."""

    def __reduce__(self):
        # Rebuilt without __init__: subclasses that format their message or
        # take typed fields there would format it again on unpickling.
        return _rebuild, (type(self), self.args, self.__dict__)

    def in_context(self, context: str) -> SpinbusError:
        """The same error (type and fields) with `context: ` before its
        message."""
        return _rebuild(type(self), (f"{context}: {self}",), self.__dict__)


class DimensionMismatch(SpinbusError, ValueError):
    """An operator matrix is not a square 2-D array."""


class NonpositiveDistance(SpinbusError, ValueError):
    """A conductor/loop distance must be strictly positive."""


class EmptyGrid(SpinbusError, ValueError):
    """A sweep grid has no points."""


class DimensionTooSmall(SpinbusError, ValueError):
    """Fock-space truncation below the minimum of 2 levels."""


class SlotMismatch(SpinbusError, ValueError):
    """Operator dimension does not match the targeted tensor factor."""


class LayoutMismatch(SpinbusError, ValueError):
    """Operators that must share a space layout do not."""


class UnphysicalT2(SpinbusError, ValueError):
    """Coherence time T2 exceeds the 2*T1 lifetime limit."""


class DegenerateSteadyState(SpinbusError):
    """The Liouvillian kernel is not one-dimensional."""

    def __init__(self, kernel_dim: int, message: str = ""):
        self.kernel_dim = kernel_dim
        super().__init__(
            message or f"Liouvillian kernel dimension is {kernel_dim}, expected 1"
        )


class NonConvergence(SpinbusError):
    """A linear solve or iteration failed to reach tolerance."""


class StepFailure(SpinbusError):
    """Time propagation failed or violated a conservation check."""


class TruncationNotConverged(SpinbusError):
    """Adaptive Fock truncation hit the cap before converging."""


class SingularResolvent(SpinbusError):
    """(i*omega*I - L) is numerically singular at the requested frequency."""

    def __init__(self, omega: float, message: str = ""):
        self.omega = omega
        super().__init__(message or f"resolvent singular at omega={omega!r} rad/s")


class WindowTooShort(SpinbusError, ValueError):
    """Correlation window ends before the correlation has decayed."""


class WeightsInvalid(SpinbusError, ValueError):
    """Sector weights must be three nonnegative reals summing to one."""


class GridTooCoarse(SpinbusError, ValueError):
    """Spectral grid does not resolve the detected linewidths."""


class IoError(SpinbusError, OSError):
    """Result emission could not write its output."""


class ParseError(SpinbusError, ValueError):
    """Config text failed to parse; carries line information."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class ValidationError(SpinbusError, ValueError):
    """A parsed config violates a documented invariant."""
