"""Exception types shared across the package, and the two input checks that
raise :class:`ParameterDomainError`: :func:`integer` for every count, size,
ray, seed and stream id, and :func:`real` for every open-interval parameter.
"""


class ParameterDomainError(ValueError):
    """A numeric parameter lies outside the domain of the requested law."""


class UsageError(ValueError):
    """The caller violated an API precondition (bad sizes, unknown names)."""


class NonFiniteSamplesError(RuntimeError):
    """A Monte-Carlo functional produced non-finite values."""

    def __init__(self, count, total):
        super().__init__(f"{count} of {total} functional values are non-finite")
        self.count = count
        self.total = total

    def __reduce__(self):
        # rebuild from the fields, so a worker's error unpickles in its caller
        return type(self), (self.count, self.total)


def integer(value, name, low, high=None) -> int:
    """``value`` as an int in [low, high); an integer-valued float passes,
    and a fraction, NaN, an infinity, None or a string does not."""
    try:
        n = int(value)
        if n == value and low <= n and (high is None or n < high):
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    big = high is not None and high >= 1 << 32 and high & (high - 1) == 0
    top = f"2**{high.bit_length() - 1}" if big else "inf" if high is None else high
    raise ParameterDomainError(f"{name} must be in [{low}, {top}) and an integer: {value}")


def real(value, name, low, high) -> float:
    """``value`` as a float in the open interval (low, high); NaN, None and
    a string, numeric or not, do not pass."""
    try:
        if not isinstance(value, (str, bytes)) and low < float(value) < high:  # NaN fails too
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ParameterDomainError(f"{name} must lie in ({low}, {high}): {value}")
