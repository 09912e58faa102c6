"""Exception hierarchy shared across the package.

CLI exit codes: PreconditionError family maps to 2, VerificationError to 1,
ResourceLimitError to 3.
"""


class HopfGaloisError(Exception):
    pass


class PreconditionError(HopfGaloisError):
    """An operation was called outside its contract (bad input, containment
    violation, unsupported parameters)."""


class UnsupportedOrderError(PreconditionError):
    """Requested a group order outside the supported set."""

    def __init__(self, n, supported_description):
        super().__init__(
            f"order {n} is not supported; supported orders are {supported_description}"
        )
        self.order = n


class ResourceLimitError(HopfGaloisError):
    """A configured size bound was exceeded."""


class VerificationError(HopfGaloisError):
    """A cross-check between a predicted and a computed value failed."""
