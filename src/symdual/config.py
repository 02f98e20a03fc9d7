"""Size caps for the enumeration-heavy operations.

SYMDUAL_MAX_C is the one cap override.  When set and nonempty it must be an
integer >= 1, and it replaces both the order-ideal enumeration cap and the
cap on operations that quantify over tuples of order ideals.  Every other
cap is a constant without an override: SUBSET_MAX_C here, MAX_DIMENSION and
MAX_ORTHANTS in lattice_geometry, and the brute-force caps of oracle.
"""

import os

from .errors import InputError

# Subsets of [c] are single machine-word bitmasks.
SUBSET_MAX_C = 16

# Dedekind growth: 7_828_354 up-sets at c = 6.
IDEAL_ENUM_MAX_C = 6

# s-tuples of order ideals, each inside one support: up to 166**s at c = 4.
TUPLE_ENUM_MAX_C = 4

ENV_MAX_C = "SYMDUAL_MAX_C"


def _env_cap(default):
    raw = os.environ.get(ENV_MAX_C)
    if not raw:
        return default
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise InputError(f"{ENV_MAX_C}={raw!r} must be an integer of at least 1")
    return int(raw)


def ideal_enum_cap():
    """Cap on c for enumerating all order ideals of 2^[c]."""
    return _env_cap(IDEAL_ENUM_MAX_C)


def tuple_enum_cap():
    """Cap on c for operations quantifying over s-tuples of order ideals."""
    return _env_cap(TUPLE_ENUM_MAX_C)
