"""Exception hierarchy shared by all symdual modules."""


class SymdualError(Exception):
    """Base class for all library errors."""


class InputError(SymdualError, ValueError):
    """Malformed value or document (schema violations, bad matrix entries)."""


class WidthError(InputError):
    """Ambient width n is too small for the data it must accommodate."""


class CapError(SymdualError):
    """An enumeration guard (ambient size, instance size, box size) was exceeded."""


class FitError(SymdualError):
    """Polynomial fitting failed: insufficient samples or no stable window."""


class VerificationError(SymdualError):
    """An oracle cross-check disagreed with the fast pipeline."""
