"""Exception types shared across the package."""


class UmwsimError(Exception):
    """Base class for all package-specific errors."""


class TopologyError(UmwsimError, ValueError):
    """Malformed or inconsistent network description (parse or validation)."""


class CapExceededError(UmwsimError):
    """An enumeration was requested beyond its configured size cap."""

    def __init__(self, what: str, size: int, cap: int):
        self.what = what
        self.size = size
        self.cap = cap
        super().__init__(f"{what}: size {size} exceeds enumeration cap {cap}")

    def __reduce__(self):  # pickle by the constructor's arguments, not the message
        return type(self), (self.what, self.size, self.cap)


class UnreachableError(UmwsimError):
    """A required destination cannot be reached from the source."""


class DisconnectedError(UmwsimError):
    """The graph does not span all nodes from the requested root."""


class ConfigError(UmwsimError, ValueError):
    """Invalid simulation or traffic configuration."""
