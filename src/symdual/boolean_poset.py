"""Subsets of [c], order ideals and antichains in the Boolean lattice 2^[c].

Subsets of [c] = {1, ..., c} are encoded as bitmasks, row i <-> bit i-1, so
all set algebra is word operations.  A family of subsets is a 2^c-bit
integer, bit t set iff the mask t is a member, and this is the package's one
representation of a family: closures, minimal elements and complements are
a shift-and-mask step per row.  Throughout the package an "order ideal" is
an *upper* set: a family closed under taking supersets.

Order ideals have one enumerator, ideals_generated_in: the ideals generated
by the antichains inside a given family.  proper_nonempty_ideals is its
output for all nonempty masks, and nonempty_antichains lists their minimal
elements.

Subsets are serialized in JSON as sorted arrays of 1-based integers, e.g.
[1, 3]; families as arrays of such arrays.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .config import SUBSET_MAX_C, ideal_enum_cap
from .errors import CapError, InputError

def check_ambient(c: int) -> None:
    """An ambient size below 1 is malformed input; one above SUBSET_MAX_C hits a cap."""
    if not isinstance(c, int) or c < 1:
        raise InputError(f"ambient size c={c!r} must be an integer of at least 1")
    if c > SUBSET_MAX_C:
        raise CapError(f"ambient size c={c!r} outside 1..{SUBSET_MAX_C}")


def full_mask(c: int) -> int:
    return (1 << c) - 1


def mask_of(indices: Iterable[int], c: int) -> int:
    """Bitmask of a set of 1-based row indices."""
    m = 0
    for i in indices:
        if not 1 <= i <= c:
            raise InputError(f"row index {i} outside 1..{c}")
        m |= 1 << (i - 1)
    return m


def elements(mask: int) -> tuple[int, ...]:
    """1-based indices of a mask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def members(family: int) -> list[int]:
    """The masks of a family, ascending."""
    out = []
    while family:
        low = family & -family
        out.append(low.bit_length() - 1)
        family ^= low
    return out


@lru_cache(maxsize=None)
def _rows(c: int) -> tuple[tuple[int, int], ...]:
    """Per row i: (2^i, the family of all masks without bit i).

    Moving a member t without bit i to t | bit i is a shift by 2^i, so a
    family operation is one shift-and-mask step per row.
    """
    check_ambient(c)
    universe = (1 << (1 << c)) - 1
    return tuple(
        (1 << i, universe // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1))
        for i in range(c)
    )


def upper_closure(family: int, c: int) -> int:
    """Smallest upward-closed family of 2^[c] containing the family."""
    for step, low in _rows(c):
        family |= (family & low) << step
    return family


def lower_closure(family: int, c: int) -> int:
    """Smallest downward-closed family containing the family."""
    for step, low in _rows(c):
        family |= (family >> step) & low
    return family


# general_candidates asks for the same few thousand families over and over.
@lru_cache(maxsize=1 << 13)
def minimal_elements(family: int, c: int) -> int:
    """Members not properly containing another member; always an antichain."""
    above = 0
    for step, low in _rows(c):
        above |= (family & low) << step
    return family & ~upper_closure(above, c)


def complement_family(family: int, c: int) -> int:
    """Elementwise complements {T^C : T in family}: the 2^c-bit string reversed."""
    for step, low in _rows(c):
        family = (family & low) << step | (family >> step) & low
    return family


def sort_standard(masks: Iterable[int]) -> list[int]:
    """Masks in decreasing standard order.

    Larger cardinality first; at equal cardinality the subset whose first
    differing element is smaller comes first (the order induced by
    1 > 2 > ... > c).
    """
    return sorted(masks, key=lambda mask: (-mask.bit_count(), elements(mask)))


@lru_cache(maxsize=None)
def standard_order(c: int) -> tuple[int, ...]:
    """All nonempty masks of [c] in decreasing standard order."""
    return tuple(sort_standard(range(1, 1 << c)))


@lru_cache(maxsize=None)
def standard_rank(c: int) -> tuple[int, ...]:
    """rank[m] = position of the nonempty mask m in standard_order(c) (rank[0] unused)."""
    rank = [0] * (1 << c)
    for i, m in enumerate(standard_order(c)):
        rank[m] = i
    return tuple(rank)


def check_ideal_cap(c: int) -> None:
    """Refuse an ambient size above the order-ideal enumeration cap."""
    check_ambient(c)
    cap = ideal_enum_cap()
    if c > cap:
        raise CapError(f"order-ideal enumeration capped at c<={cap}, got c={c}")


@lru_cache(maxsize=1024)
def ideals_generated_in(c: int, gens: int) -> tuple[int, ...]:
    """The ideals generated by nonempty antichains of the family gens of
    nonempty masks, ordered by size, then by ascending members.

    Taken by increasing size, a mask is never below an earlier one, so it
    extends exactly the antichains whose closure misses it.  At equal size
    the ideal holding the least mask where two differ sorts first, which is
    the larger complement family sorting first.
    """
    closures = [0]
    for g in sorted(members(gens), key=int.bit_count):
        up = upper_closure(1 << g, c)
        closures += [j | up for j in closures if not j >> g & 1]
    return tuple(sorted(
        closures[1:], key=lambda j: (j.bit_count(), -complement_family(j, c))
    ))


@lru_cache(maxsize=None)
def proper_nonempty_ideals(c: int) -> tuple[int, ...]:
    """All order ideals J with {} != J != 2^[c], in ideals_generated_in order.

    They are the ideals generated by the nonempty antichains of nonempty
    masks, so their members are nonempty masks.
    """
    check_ideal_cap(c)
    return ideals_generated_in(c, (1 << (1 << c)) - 2)


@lru_cache(maxsize=None)
def nonempty_antichains(c: int) -> tuple[int, ...]:
    """Nonempty antichains of nonempty subsets, in bijection with proper_nonempty_ideals."""
    return tuple(minimal_elements(j, c) for j in proper_nonempty_ideals(c))


# -- JSON ------------------------------------------------------------------

def subset_to_json(mask: int) -> list[int]:
    return list(elements(mask))


def int_from_json(doc, what: str) -> int:
    """A JSON integer; a bool or any other type is a schema violation."""
    if isinstance(doc, bool) or not isinstance(doc, int):
        raise InputError(f"{what} must be an integer, got {doc!r}")
    return doc


def list_from_json(doc, what: str) -> list:
    if not isinstance(doc, list):
        raise InputError(f"{what} must be a list, got {doc!r}")
    return doc


def subset_from_json(doc, c: int) -> int:
    return mask_of([int_from_json(i, "row index") for i in list_from_json(doc, "subset")], c)


def family_to_json(family: int) -> list[list[int]]:
    return sorted(subset_to_json(m) for m in members(family))
