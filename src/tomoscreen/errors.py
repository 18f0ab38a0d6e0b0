"""Exception types shared across the package, `one_line` (a path as one
line of text) and `reading`, the one guard that names a failing input: a
missing, unreadable or malformed file becomes ValueError("<path>: <reason>"),
which the CLI exits 2 on."""

import contextlib


class ConfigError(Exception):
    """Raised when a config file or CLI argument set is invalid."""


class NumericError(Exception):
    """Raised when a computation diverges or loses numeric validity."""


def one_line(path) -> str:
    """`path` as text with control characters escaped, so it fits one line."""
    return repr(str(path))[1:-1]


@contextlib.contextmanager
def reading(*paths):
    """Name `paths` (via one_line) in any OSError or ValueError raised
    inside the block; an OSError's reason is its strerror."""
    try:
        yield
    except (OSError, ValueError) as exc:
        reason = (exc.strerror or exc) if isinstance(exc, OSError) else exc
        names = ", ".join(one_line(path) for path in paths)
        raise ValueError(f"{names}: {reason}") from exc
