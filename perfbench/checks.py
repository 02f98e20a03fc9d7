"""Output checks of the benchmark jobs.

Each job's stdout is checked outside the timed region against references the
timed code does not produce:

* every system job against golden.json, which holds the seed-independent
  content of each template job's output (counts, fitted polynomial, facet
  histogram, face counts, verify checks, and a digest of the dual generators
  mapped back to the template's row labels);
* the acceptance systems against their closed forms, and the c=4 {12,34} fit
  against the polynomial n^3/6 + n^2/2 + 7n/3 + 2 from n = 4;
* cone jobs against the orthant count fixed by their design and against
  slice counts computed here by convolving the blocks' point counts;
* match jobs against the feasibility fixed by their construction: a returned
  permutation must pair every column disjointly, a returned order ideal must
  be an up-set that breaks its Hall inequality;
* dual-gens jobs with c*n <= 20 against oracle.brute_min_gens_dual (run by
  oracle_check after the timed loop, because its tables are large).

Each check returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import workloads as wl

ORACLE_MAX_BITS = 20

CLOSED_FORMS = {
    "ONE_ORBIT": (4, lambda n: (n * n + 11 * n) // 2 - 15),
    "TWO_ORBIT": (4, lambda n: (n * n + 5 * n) // 2 - 4),
    "EDGE": (2, lambda n: n + 1),
    "MIXED": (3, lambda n: n + 1),
}

FIT_1234 = (Fraction(2), Fraction(7, 3), Fraction(1, 2), Fraction(1, 6))


def _unlabel(counts, inverse) -> tuple:
    """An orbit's counts as sorted (mask, count) pairs in the template's row labels."""
    out = []
    for entry in counts:
        mask = 0
        for row in entry["support"]:
            mask |= 1 << inverse[row - 1]
        out.append((mask, entry["count"]))
    return tuple(sorted(out))


def orbit_set(doc, perm) -> list:
    inverse = [0] * len(perm)
    for old, new in enumerate(perm):
        inverse[new] = old
    return sorted(_unlabel(o["counts"], inverse) for o in doc["orbits"])


def invariant(job: wl.Job, doc: dict):
    """The part of a system job's output that no row relabeling changes."""
    cmd = job.command
    if cmd == "dual-gens":
        orbits = orbit_set(doc, job.perm)
        digest = hashlib.sha256(json.dumps(orbits).encode()).hexdigest()[:16]
        return {"n": doc["n"], "count": doc["count"], "orbits": digest}
    if cmd == "count":
        return {"samples": doc["samples"]}
    if cmd == "fit":
        return {"samples": doc["samples"], "fit": doc["fit"], "degree": doc["degree"],
                "max_degree": doc["max_degree"]}
    if cmd == "facets":
        return {"n": doc["n"], "histogram": doc["histogram"]}
    if cmd == "faces":
        return {"j": doc["j"], "samples": doc["samples"]}
    if cmd == "verify":
        return {"ok": doc["ok"], "checks": doc["checks"]}
    raise ValueError(f"no invariant for {cmd}")


def parse_output(job: wl.Job, code: int, stdout: str, stderr: str) -> tuple[dict | None, list[str]]:
    if code != 0:
        lines = stderr.strip().splitlines()
        return None, [f"exit code {code}: {lines[-1] if lines else 'no message'}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]
    if not isinstance(doc, dict) or doc.get("schema") != "symdual/1":
        return None, ["missing schema symdual/1"]
    if doc.get("command") != job.command:
        return None, [f"command {doc.get('command')!r} != {job.command!r}"]
    return doc, []


def check_job(job: wl.Job, doc: dict, golden: dict) -> list[str]:
    if job.command == "cone":
        return _check_cone(job, doc)
    if job.command == "match":
        return _check_match(job, doc)
    problems = []
    expected = golden.get(job.key)
    if expected is None:
        problems.append("no golden reference")
    elif json.loads(json.dumps(invariant(job, doc))) != expected:
        problems.append("output differs from the golden reference")
    problems += closed_form_problems(job, doc)
    return problems


def closed_form_problems(job: wl.Job, doc: dict) -> list[str]:
    name = wl.shape_name(job.shape)
    if name == "SYSTEM_1234" and job.command == "fit":
        coeffs = tuple(Fraction(x) for x in doc["fit"]["coeffs"])
        problems = []
        if coeffs != FIT_1234 or doc["fit"].get("stable_from") != 4:
            problems.append(f"fit {doc['fit']} != n^3/6 + n^2/2 + 7n/3 + 2 from 4")
        for s in doc["samples"]:
            n = s["n"]
            if s["count"] != sum(c * n**i for i, c in enumerate(FIT_1234)):
                problems.append(f"count at n={n} off the fitted cubic")
        return problems
    if name not in CLOSED_FORMS:
        return []
    start, form = CLOSED_FORMS[name]
    if job.command in ("count", "fit"):
        pairs = [(s["n"], s["count"]) for s in doc["samples"]]
    elif job.command == "dual-gens":
        pairs = [(doc["n"], doc["count"])]
    elif job.command == "facets":
        pairs = [(doc["n"], sum(doc["histogram"].values()))]
    else:
        return []
    return [
        f"{name} count {got} != closed form {form(n)} at n={n}"
        for n, got in pairs
        if n >= start and got != form(n)
    ]


# -- geometry -------------------------------------------------------------------


def _block_counts(block, top: int) -> list[int]:
    """Points of one block with coordinate sum s, for s = 0..top, by enumeration."""
    coords, lows, bound, cap = block
    out = [0] * (top + 1)
    if len(coords) == 1:
        for s in range(lows[0], top + 1):
            if cap is None or s <= cap:
                out[s] = 1
        return out
    for s in range(top + 1):
        if s < bound:
            continue
        out[s] = sum(
            1
            for xj in range(lows[1], s - lows[0] + 1)
            if cap is None or xj <= cap
        )
    return out


def slice_reference(blocks, ns) -> list[int]:
    top = max(ns)
    total = [1] + [0] * top
    for block in blocks:
        counts = _block_counts(block, top)
        total = [
            sum(total[a] * counts[s - a] for a in range(s + 1))
            for s in range(top + 1)
        ]
    return [total[n] for n in ns]


def _check_cone(job: wl.Job, doc: dict) -> list[str]:
    problems = []
    design = job.shape
    if len(doc["orthants"]) != design.orthants:
        problems.append(f"{len(doc['orthants'])} orthants, design has {design.orthants}")
    if doc["empty"] != (design.orthants == 0):
        problems.append("empty flag wrong")
    got = [s["count"] for s in doc["slices"]]
    want = slice_reference(job.instance["blocks"], job.ns)
    if [s["n"] for s in doc["slices"]] != list(job.ns) or got != want:
        problems.append(f"slice counts {got} != reference {want}")
    return problems


def _check_match(job: wl.Job, doc: dict) -> list[str]:
    f, g = job.instance["f"], job.instance["g"]
    design = job.shape
    if doc["feasible"] != design.feasible:
        return [f"feasible={doc['feasible']}, instance built feasible={design.feasible}"]
    if design.feasible:
        sigma = [j - 1 for j in doc["permutation"]]
        if sorted(sigma) != list(range(len(f))):
            return ["permutation is not a permutation of the columns"]
        if any(f[i] & g[sigma[i]] for i in range(len(f))):
            return ["permutation pairs intersecting columns"]
        return []
    c = design.c
    full = (1 << c) - 1
    ideal = set()
    for subset in doc["violating_ideal"]:
        mask = 0
        for row in subset:
            mask |= 1 << (row - 1)
        ideal.add(mask)
    if not ideal or 0 in ideal:
        return ["certificate is empty or the whole lattice"]
    if any((t | 1 << b) not in ideal for t in ideal for b in range(c)):
        return ["certificate is not an up-set"]
    lhs = sum(1 for v in f if v in ideal)
    rhs = sum(1 for v in g if (full ^ v) in ideal)
    if lhs <= rhs:
        return [f"certificate holds its Hall inequality ({lhs} <= {rhs})"]
    return []


# -- oracle ---------------------------------------------------------------------


def wants_oracle(job: wl.Job) -> bool:
    return job.command == "dual-gens" and job.shape[0] * job.ns[0] <= ORACLE_MAX_BITS


def oracle_check(job: wl.Job, orbits: list) -> list[str]:
    """Compare a dual-gens job's orbits (template labels) with the brute-force oracle."""
    from symdual import oracle
    from symdual.orbit_monomials import GeneratorSystem, TypeVector

    c, gens = job.shape
    system = GeneratorSystem.make(c, [TypeVector.from_counts(c, dict(g)) for g in gens])
    brute = sorted(tv.items for tv in oracle.brute_min_gens_dual(system, job.ns[0]))
    brute = sorted(tuple(sorted(items)) for items in brute)
    if brute != [tuple(o) for o in orbits]:
        return [f"{len(orbits)} orbits, oracle has {len(brute)}"]
    return []
