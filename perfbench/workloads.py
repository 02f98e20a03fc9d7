"""Job lists of the benchmark workloads, generated from the workload seed.

Every workload is a fixed template of jobs.  A system job names a generator
system up to relabeling of the rows [c] (a "shape"); the seed draws a row
relabeling for each job and the order of the jobs.  The set of shapes, the
widths and the commands do not depend on the seed, so the work of a pass is
the same for every seed while the inputs differ.  No two system jobs of one
pass share a shape, so no two share a generator system, even up to
relabeling.  Geometry jobs are drawn afresh from the seed within designs
whose work does not depend on the draw: the orthant count of a cone job and
the column count of a match job are fixed by the template.

The acceptance systems ONE_ORBIT, TWO_ORBIT, EDGE and MIXED are those of the
library's acceptance tests; SYSTEM_1234 is c=4 {12,34} and SYSTEM_1234_13 is
c=4 {12,34}+{13}.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from functools import lru_cache

# A generator is a tuple of (support mask, column count) pairs sorted by
# mask; a shape is (c, tuple of generators).  Row i of [c] is bit i-1.
ONE_ORBIT = (3, (((3, 1), (5, 1), (6, 1)),))
TWO_ORBIT = (3, (((3, 2), (5, 1)), ((3, 1), (6, 2))))
EDGE = (2, (((3, 1),),))
MIXED = (3, (((1, 1), (2, 1)), ((5, 1),)))
SYSTEM_1234 = (4, (((3, 1), (12, 1)),))
SYSTEM_1234_13 = (4, (((3, 1), (12, 1)), ((5, 1),)))

NAMED_SYSTEMS = {
    "ONE_ORBIT": ONE_ORBIT,
    "TWO_ORBIT": TWO_ORBIT,
    "EDGE": EDGE,
    "MIXED": MIXED,
    "SYSTEM_1234": SYSTEM_1234,
    "SYSTEM_1234_13": SYSTEM_1234_13,
}


@dataclass(frozen=True)
class Template:
    """One job of a workload before the seed fills it in.

    For system commands `shape` is the generator system; for `cone` it is a
    ConeDesign and for `match` a MatchDesign.
    """

    command: str
    shape: object
    n: str | None = None
    j: int | None = None

    @property
    def key(self) -> str:
        """Seed-independent name of the job; it keys the golden references."""
        parts = [self.command, shape_name(self.shape)]
        if self.j is not None:
            parts.append(f"j={self.j}")
        if self.n is not None:
            parts.append(f"n={self.n}")
        return " ".join(parts)


@dataclass(frozen=True)
class ConeDesign:
    """A k-dimensional polyhedron built from independent blocks.

    `pairs` gives one orthant factor f per pair block {x_i, x_j}: the block
    carries x_i + x_j >= a_i + a_j + f - 1, which splits into exactly f
    orthants whichever coordinate the decomposition splits first.
    `capped` gives one factor per pair block whose second coordinate also has
    an upper bound letting it take f values.  The remaining coordinates carry
    only their singleton lower bounds.  `empty` adds an upper bound below a
    lower bound, so the polyhedron has no integer point.  Slices are taken at
    `slices` consecutive widths.
    """

    k: int
    pairs: tuple[int, ...]
    capped: tuple[int, ...] = ()
    empty: bool = False
    slices: int = 8

    @property
    def orthants(self) -> int:
        if self.empty:
            return 0
        total = 1
        for f in self.pairs + self.capped:
            total *= f
        return total


@dataclass(frozen=True)
class MatchDesign:
    """A match instance with `columns` columns over 2^[c]."""

    c: int
    columns: int
    feasible: bool


@dataclass
class Job:
    """One CLI invocation with what its output check needs."""

    id: str
    key: str
    command: str
    argv: list[str]
    # Row relabeling: new row of old row i is perm[i] (0-based); None for
    # geometry jobs.
    perm: tuple[int, ...] | None = None
    shape: object = None
    ns: tuple[int, ...] = ()
    # Geometry jobs: the generated instance, for the independent checks.
    instance: dict = field(default_factory=dict)


def shape_name(shape) -> str:
    if isinstance(shape, (ConeDesign, MatchDesign)):
        return repr(shape)
    for name, named in NAMED_SYSTEMS.items():
        if shape == named:
            return name
    c, gens = shape
    body = "+".join(
        "{" + ",".join(f"{mask}:{k}" for mask, k in g) + "}" for g in gens
    )
    return f"c={c}:{body}"


def parse_n(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    return (int(text),)


# -- shapes ------------------------------------------------------------------


def relabel_mask(mask: int, perm) -> int:
    out = 0
    for i, p in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << p
    return out


def relabel_generator(gen, perm):
    return tuple(sorted((relabel_mask(m, perm), k) for m, k in gen))


def canonical(c: int, gens) -> tuple:
    """Least relabeling of a generator list: the shape's class representative."""
    return min(
        tuple(sorted(relabel_generator(g, perm) for g in gens))
        for perm in itertools.permutations(range(c))
    )


@lru_cache(maxsize=None)
def generator_classes(c: int, weight: int) -> tuple:
    """One representative generator per relabeling class, of the given weight."""
    seen = set()
    out = []
    for gen in _all_generators(c, weight):
        rep = canonical(c, [gen])
        if rep not in seen:
            seen.add(rep)
            out.append(rep[0])
    return tuple(out)


def single_shapes(c: int, weights, exclude=()) -> list:
    """One-generator systems, one per relabeling class, none of them in `exclude`."""
    shapes = [(c, (g,)) for w in weights for g in generator_classes(c, w)]
    excluded = {canonical(c, s[1]) for s in exclude if s[0] == c}
    return [s for s in shapes if canonical(c, s[1]) not in excluded]


def pair_shapes(c: int, weights, exclude=(), limit=None, stride=1) -> list:
    """Two-generator systems, one per relabeling class, none of them in `exclude`.

    Neither generator of a system divides the other.

    Classes are taken in enumeration order with the given stride, so the
    selection is fixed and spread over the weights.
    """
    gens = [g for w in weights for g in _all_generators(c, w)]
    seen = {canonical(c, s[1]) for s in exclude if s[0] == c}
    out = []
    count = 0
    for a, b in itertools.combinations(gens, 2):
        if _divides_columnwise(a, b) or _divides_columnwise(b, a):
            continue
        rep = canonical(c, [a, b])
        if rep in seen:
            continue
        seen.add(rep)
        if count % stride == 0:
            out.append((c, rep))
        count += 1
        if limit is not None and len(out) == limit:
            break
    return out


@lru_cache(maxsize=None)
def _all_generators(c: int, weight: int) -> tuple:
    """Every generator over [c] with `weight` nonzero columns."""
    out = []
    for combo in itertools.combinations_with_replacement(range(1, 1 << c), weight):
        counts: dict[int, int] = {}
        for mask in combo:
            counts[mask] = counts.get(mask, 0) + 1
        out.append(tuple(sorted(counts.items())))
    return tuple(out)


def _divides_columnwise(a, b) -> bool:
    """Does some column arrangement of a's monomial divide b's?  Small cases only."""
    cols_a = [m for m, k in a for _ in range(k)]
    cols_b = [m for m, k in b for _ in range(k)]
    if len(cols_a) > len(cols_b):
        return False
    for chosen in itertools.permutations(cols_b, len(cols_a)):
        if all(x & ~y == 0 for x, y in zip(cols_a, chosen)):
            return True
    return False


def system_json(shape, perm) -> dict:
    c, gens = shape
    generators = []
    for g in gens:
        counts = [
            {"support": [i + 1 for i in range(c) if m >> i & 1], "count": k}
            for m, k in relabel_generator(g, perm)
        ]
        generators.append({"counts": counts})
    return {"c": c, "generators": generators}


# -- templates -----------------------------------------------------------------


def _cycle(shapes, specs) -> list[Template]:
    """Deal the (command, n, j) specs over the shapes in turn."""
    return [
        Template(cmd, shape, n, j)
        for shape, (cmd, n, j) in zip(shapes, itertools.cycle(specs))
    ]


def _ranged(shape, lo: int, hi: int) -> str:
    """Width lo, or range lo..hi, shifted up if needed to start at the system's largest weight."""
    m = max(sum(k for _, k in g) for g in shape[1])
    shift = max(0, m - lo)
    if lo == hi:
        return str(lo + shift)
    return f"{lo + shift}..{hi + shift}"


def one_orbit_series() -> list[Template]:
    named = [SYSTEM_1234, ONE_ORBIT, EDGE]
    out = [
        Template("fit", SYSTEM_1234, "4..10"),
        Template("count", ONE_ORBIT, "4..12"),
        Template("count", EDGE, "2..12"),
    ]
    c4 = single_shapes(4, (1, 2), exclude=named)
    out += _cycle(c4, [
        ("dual-gens", "7", None),
        ("count", "5..6", None),
        ("dual-gens", "5", None),
        ("dual-gens", "8", None),
    ])
    c4w3 = single_shapes(4, (3,))[::6]
    out += _cycle(c4w3, [("dual-gens", "6", None), ("count", "4..5", None)])
    c3 = single_shapes(3, (1, 2, 3, 4), exclude=named)
    for shape, (cmd, lo, hi) in zip(c3, itertools.cycle([
        ("dual-gens", 12, 12),
        ("count", 6, 11),
        ("fit", 4, 10),
        ("dual-gens", 6, 6),
        ("count", 8, 12),
    ])):
        out.append(Template(cmd, shape, _ranged(shape, lo, hi)))
    return out


def multi_orbit_series() -> list[Template]:
    named = [SYSTEM_1234_13, TWO_ORBIT, MIXED]
    out = [
        Template("dual-gens", SYSTEM_1234_13, "6"),
        Template("count", TWO_ORBIT, "4..8"),
        Template("facets", MIXED, "8"),
    ]
    # Most jobs are c=4, so the median job sits among them rather than in
    # the gap between the c=3 and the c=4 job times.
    c4 = pair_shapes(4, (1, 2), exclude=named, limit=20, stride=7)
    out += _cycle(c4, [
        ("dual-gens", "5", None),
        ("count", "6", None),
        ("facets", "7", None),
        ("dual-gens", "4", None),
    ])
    c3 = pair_shapes(3, (1, 2, 3), exclude=named, limit=10, stride=5)
    for shape, (cmd, lo, hi) in zip(c3, itertools.cycle([
        ("dual-gens", 6, 6),
        ("count", 5, 9),
        ("facets", 9, 9),
    ])):
        out.append(Template(cmd, shape, _ranged(shape, lo, hi)))
    return out


def verify_oracle() -> list[Template]:
    named = [ONE_ORBIT, TWO_ORBIT, EDGE, MIXED]
    out = [
        Template("verify", ONE_ORBIT, "4..5"),
        Template("verify", TWO_ORBIT, "4..5"),
        Template("verify", EDGE, "6..8"),
        Template("verify", MIXED, "4..6"),
    ]
    c3 = single_shapes(3, (1, 2, 3), exclude=named)
    out += _cycle(c3, [
        ("verify", "5", None),
        ("faces", "6..16", 4),
        ("verify", "4..5", None),
        ("faces", "7..16", 5),
    ])
    c3_pairs = pair_shapes(3, (2, 3), exclude=named, limit=24, stride=4)
    out += _cycle(c3_pairs, [("verify", "5", None), ("verify", "4..5", None)])
    out += [Template("verify", shape, "8") for shape in single_shapes(2, (1, 2), exclude=named)]
    return out


def geometry_avoid() -> list[Template]:
    big = [(9, 9, 9, 8), (9, 9, 8, 8), (9, 8, 8, 8), (8, 8, 8, 8), (9, 9, 9, 9)]
    cones = [ConeDesign(8, pairs, slices=16) for pairs in big for _ in range(4)]
    cones += [ConeDesign(8, (9, 9, 9, 9), slices=20), ConeDesign(8, (9, 9, 9, 8), slices=20)]
    cones += [
        ConeDesign(8, (6, 6, 5, 5), slices=12),
        ConeDesign(8, (7, 6, 6), capped=(5,), slices=12),
        ConeDesign(8, (6, 6), capped=(6, 5), slices=12),
        ConeDesign(8, (5, 5, 4), capped=(4,)),
        ConeDesign(8, (6, 5), capped=(5, 4)),
        ConeDesign(8, (4, 4), capped=(3, 3)),
        ConeDesign(7, (6, 6, 6)),
        ConeDesign(7, (5, 5), capped=(4,)),
        ConeDesign(6, (7, 7, 7)),
        ConeDesign(6, (4, 4), capped=(6,)),
        ConeDesign(5, (5, 5)),
        ConeDesign(4, (8,), capped=(8,)),
        ConeDesign(6, (3, 3, 3)),
        ConeDesign(8, (5, 5, 5), empty=True),
    ]
    out = [Template("cone", d, None) for d in cones]
    matches = [MatchDesign(4, columns, True) for columns in range(300, 480, 10)]
    matches += [MatchDesign(3, columns, True) for columns in (250, 300, 350, 400)]
    matches += [
        MatchDesign(c, columns, False)
        for c in (3, 4) for columns in (200, 300, 400, 500)
    ]
    out += [Template("match", d, None) for d in matches]
    return out


TEMPLATES = {
    "one-orbit-series": one_orbit_series,
    "multi-orbit-series": multi_orbit_series,
    "verify-oracle": verify_oracle,
    "geometry-avoid": geometry_avoid,
}

# One small job per c the workload uses.  It fills the per-c lru_cache tables
# (proper_nonempty_ideals, nonempty_antichains, _ideal_tables) before timing.
# Its system, five columns of support {1}, is heavier than every template
# shape, so it is none of them.
WARMUP_SHAPE_WEIGHT = 5


def _warmup_system(c: int) -> list[str]:
    shape = (c, (((1, WARMUP_SHAPE_WEIGHT),),))
    return ["dual-gens", "--json", json.dumps(system_json(shape, range(c))),
            "--n", str(WARMUP_SHAPE_WEIGHT)]


WARMUP = {
    "one-orbit-series": [_warmup_system(c) for c in (2, 3, 4)],
    "multi-orbit-series": [_warmup_system(c) for c in (3, 4)],
    "verify-oracle": [_warmup_system(c) for c in (2, 3)],
    "geometry-avoid": [
        ["cone", "--json", json.dumps({"k": 2, "lower": [
            {"support": [1], "bound": 0}, {"support": [2], "bound": 0}]}), "--n", "0..2"],
    ] + [
        ["match", "--json", json.dumps({"c": c, "f": [[1]], "g": [[2]]})]
        for c in (3, 4)
    ],
}


# -- generation ----------------------------------------------------------------


def generate(workload: str, seed: int, pass_index: int = 0) -> list[Job]:
    """The jobs of one pass, in run order.  Same arguments, same jobs."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    jobs = [_instantiate(t, rng) for t in TEMPLATES[workload]()]
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job.id = f"p{pass_index}-{i:03d}"
    return jobs


def _instantiate(t: Template, rng: random.Random) -> Job:
    if t.command == "cone":
        doc, blocks = _cone_instance(t.shape, rng)
        # Start at the least coordinate sum a point of the polyhedron can have.
        start = sum(max(lows) if bound is None else max(bound, sum(lows))
                    for _, lows, bound, _ in blocks)
        ns = tuple(range(start, start + t.shape.slices))
        argv = ["cone", "--json", json.dumps(doc), "--n", f"{ns[0]}..{ns[-1]}"]
        return Job("", t.key, "cone", argv, shape=t.shape, ns=ns,
                   instance={"blocks": blocks})
    if t.command == "match":
        f, g = _match_instance(t.shape, rng)
        doc = {"c": t.shape.c, "f": [_subset(m, t.shape.c) for m in f],
               "g": [_subset(m, t.shape.c) for m in g]}
        return Job("", t.key, "match", ["match", "--json", json.dumps(doc)],
                   shape=t.shape, instance={"f": f, "g": g})
    c = t.shape[0]
    perm = tuple(rng.sample(range(c), c))
    argv = [t.command, "--json", json.dumps(system_json(t.shape, perm)), "--n", t.n]
    if t.j is not None:
        argv += ["--j", str(t.j)]
    return Job("", t.key, t.command, argv, perm=perm, shape=t.shape, ns=parse_n(t.n))


def _subset(mask: int, c: int) -> list[int]:
    return [i + 1 for i in range(c) if mask >> i & 1]


def _cone_instance(d: ConeDesign, rng: random.Random):
    """A random polyhedron of the design, with its blocks for the reference count.

    Each block is (coords, lows, pair_bound, cap): one or two 1-based
    coordinates, their singleton lower bounds, the pair's sum bound (None for
    a single coordinate) and the second coordinate's upper bound (or None).
    """
    # Blocks sit on consecutive coordinates in a fixed order: the order in
    # which cone_decompose meets the pairs sets how much work it does, so
    # only the bounds and the slice range are drawn.
    coords = list(range(d.k, 0, -1))
    lows = {j: rng.randint(0, 2) for j in coords}
    lower = [{"support": [j], "bound": lows[j]} for j in sorted(coords)]
    upper = []
    blocks = []
    for f, capped in [(f, False) for f in d.pairs] + [(f, True) for f in d.capped]:
        i, j = coords.pop(), coords.pop()
        if capped:
            # x_j takes exactly f values; once x_j is fixed the pair bound
            # only raises x_i's lower bound, so each value is one orthant.
            bound = lows[i] + lows[j] + rng.randint(1, 3)
            cap = lows[j] + f - 1
            upper.append({"support": [j], "bound": cap})
        else:
            bound = lows[i] + lows[j] + f - 1
            cap = None
        lower.append({"support": sorted((i, j)), "bound": bound})
        blocks.append(((i, j), (lows[i], lows[j]), bound, cap))
    if d.empty:
        j = coords.pop()
        upper.append({"support": [j], "bound": lows[j] - 1})
        blocks.append(((j,), (lows[j],), None, lows[j] - 1))
    for j in coords:
        blocks.append(((j,), (lows[j],), None, None))
    doc = {"k": d.k, "lower": lower, "upper": upper}
    return doc, blocks


def _match_instance(d: MatchDesign, rng: random.Random):
    """Feasible: g is built from a hidden disjoint matching.  Infeasible: a
    Hall inequality of a random order ideal is then broken on purpose."""
    c, size = d.c, d.columns
    full = (1 << c) - 1
    f = [rng.randrange(1 << c) for _ in range(size)]
    hidden = list(range(size))
    rng.shuffle(hidden)
    g = [0] * size
    for i in range(size):
        g[hidden[i]] = rng.randrange(1 << c) & (full ^ f[i])
    if d.feasible:
        return f, g
    # Upper closure of a random nonempty antichain of nonempty subsets,
    # never the whole lattice, holding at least one f value.
    while True:
        gens = rng.sample(range(1, full + 1), rng.randint(1, 2))
        ideal = {t for t in range(1, full + 1) if any(s & ~t == 0 for s in gens)}
        if any(v in ideal for v in f):
            break
    lhs = sum(1 for v in f if v in ideal)
    inside = [j for j in range(size) if (full ^ g[j]) in ideal]
    rng.shuffle(inside)
    rhs = len(inside)
    while rhs >= lhs:
        g[inside.pop()] = full
        rhs -= 1
    return f, g
