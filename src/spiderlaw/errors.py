"""Exception types shared across the package."""


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
