"""Error types shared across modules (the CLI maps them to exit codes)."""


class SpecError(ValueError):
    """Malformed or inconsistent input document (source or code spec)."""


class DimensionCapError(RuntimeError):
    """Requested exact computation exceeds the dense-dimension cap."""


class InternalError(RuntimeError):
    """A computed quantity broke an identity that holds for every valid input."""
