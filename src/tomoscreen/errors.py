"""Exception types shared across the package, and `reading`, the one
guard that names a failing input: a missing, unreadable or malformed
file becomes ValueError("<path>: <reason>"), which the CLI exits 2 on.
"""

import contextlib


class ConfigError(Exception):
    """Raised when a config file or CLI argument set is invalid."""


class NumericError(Exception):
    """Raised when a computation diverges or loses numeric validity."""


@contextlib.contextmanager
def reading(*paths):
    """Name `paths` (control characters escaped: one line) in any OSError
    or ValueError raised inside the block; an OSError's reason is its strerror."""
    try:
        yield
    except (OSError, ValueError) as exc:
        reason = (exc.strerror or exc) if isinstance(exc, OSError) else exc
        names = ", ".join(repr(str(path))[1:-1] for path in paths)
        raise ValueError(f"{names}: {reason}") from exc
