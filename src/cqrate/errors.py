"""Error types shared across modules (the CLI maps them to exit codes)."""


class SpecError(ValueError):
    """Malformed or inconsistent input: a source or code spec, or a
    command-line value.  The CLI exits 2 on it (and on an OSError reading or
    writing a file); any other failure is the program's and exits 1."""


class DimensionCapError(RuntimeError):
    """Requested exact computation exceeds the dense-dimension cap."""


class InternalError(RuntimeError):
    """A computed quantity broke an identity that holds for every valid input."""
