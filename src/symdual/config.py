"""Size caps for the enumeration-heavy operations.

The environment variable SYMDUAL_MAX_C overrides the order-ideal enumeration
cap (and thereby the cap on operations that quantify over tuples of order
ideals).  When set and nonempty it must be an integer >= 1.  Explicit
function arguments win over the environment.
"""

import os

from .errors import InputError

# Subsets of [c] are single machine-word bitmasks.
SUBSET_MAX_C = 16

# Dedekind growth: 7_828_354 up-sets at c = 6.
IDEAL_ENUM_MAX_C = 6

# s-tuples of proper order ideals: 168**s tuples at c = 4.
TUPLE_ENUM_MAX_C = 4

ENV_MAX_C = "SYMDUAL_MAX_C"


def _env_cap(default):
    raw = os.environ.get(ENV_MAX_C)
    if not raw:
        return default
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise InputError(f"{ENV_MAX_C}={raw!r} must be an integer of at least 1")
    return int(raw)


def ideal_enum_cap(override=None):
    """Cap on c for enumerating all order ideals of 2^[c]."""
    if override is not None:
        return override
    return _env_cap(IDEAL_ENUM_MAX_C)


def tuple_enum_cap(override=None):
    """Cap on c for operations quantifying over s-tuples of order ideals."""
    if override is not None:
        return override
    return _env_cap(TUPLE_ENUM_MAX_C)
