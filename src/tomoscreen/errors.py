"""`NumericError`, `reading`, the one guard that names a failing input, and
`one_line`, which the CLI prints every failure through. `reading` turns a
missing, unreadable or malformed file into ValueError("<paths>: <reason>"),
which the CLI exits 2 on; a message may hold any text a user gave (a path,
a case id), and `one_line` escapes its control characters when it prints."""

import contextlib


class NumericError(Exception):
    """Raised when a computation diverges or loses numeric validity."""


def one_line(text) -> str:
    """`text` with each non-printable character escaped as repr escapes it
    (a newline as \\n), so it prints as one line. Backslashes and quotes
    stay as they are."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(text))


@contextlib.contextmanager
def reading(*paths):
    """Name `paths` in any OSError or ValueError raised inside the block; an
    OSError's reason is its strerror."""
    try:
        yield
    except (OSError, ValueError) as exc:
        reason = (exc.strerror or exc) if isinstance(exc, OSError) else exc
        names = ", ".join(map(str, paths))
        raise ValueError(f"{names}: {reason}") from exc
