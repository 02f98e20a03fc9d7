"""Batch front door: read a generator system or polyhedron, run one pipeline
stage, emit a single JSON document (or a plain table on request).

Exit codes: 0 ok, 2 schema violation, 3 cap exceeded, 4 internal invariant
failure.  All numeric output is exact: integers in decimal, polynomial
coefficients as rational strings.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import avoidance, boolean_poset as bp, counting, dual_core, lattice_geometry, oracle
from .errors import CapError, FitError, InputError, SymdualError, VerificationError
from .orbit_monomials import (
    generator_system_from_json,
    generator_system_to_json,
    type_vector_to_json,
)

SCHEMA = "symdual/1"

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_CAP = 3
EXIT_INVARIANT = 4

# Exit code per exception class; an error takes the entry of the nearest
# class in its method resolution order.
EXIT_CODES = {
    CapError: EXIT_CAP,
    VerificationError: EXIT_INVARIANT,
    InputError: EXIT_SCHEMA,
    FitError: EXIT_SCHEMA,
    SymdualError: EXIT_SCHEMA,
    OSError: EXIT_SCHEMA,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symdual",
        description="Exact orbit combinatorics of symmetric squarefree monomial ideals.",
    )
    parser.add_argument("command", choices=[
        "dual-gens", "count", "fit", "min-degree", "faces", "facets",
        "cone", "match", "verify",
    ])
    parser.add_argument("--input", help="path of the input JSON document")
    parser.add_argument("--json", dest="inline", help="inline input JSON document")
    parser.add_argument("--n", help="width n or inclusive range like 4..9")
    parser.add_argument("--j", type=int, help="face dimension j")
    parser.add_argument("--max-degree", type=int, help="fit degree bound override")
    parser.add_argument("--format", choices=["json", "table"], default="json")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    return parser


def parse_range(text: str | None, required: bool = True) -> list[int]:
    if text is None:
        if required:
            raise InputError("--n is required for this command")
        return []
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError as exc:
            raise InputError(f"bad range {text!r}") from exc
        if hi_i < lo_i:
            raise InputError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    try:
        return [int(text)]
    except ValueError as exc:
        raise InputError(f"bad n value {text!r}") from exc


def parse_width(args) -> int:
    """The one width --n of a command that takes no range."""
    ns = parse_range(args.n)
    if len(ns) != 1:
        raise InputError(f"{args.command} takes a single width --n, got {args.n!r}")
    return ns[0]


def load_document(args) -> dict:
    if args.inline is not None and args.input is not None:
        raise InputError("give --input or --json, not both")
    if args.inline is None and args.input is None:
        raise InputError("an input document is required (--input PATH or --json STR)")
    try:
        if args.inline is not None:
            raw = args.inline
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                raw = handle.read()
        doc = json.loads(raw)
    # Bad syntax, a file that is not UTF-8 and an integer literal past
    # Python's digit limit raise ValueError; deep nesting, RecursionError.
    except (ValueError, RecursionError) as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    return doc


def _orbit_record(tv) -> dict:
    return {
        "counts": type_vector_to_json(tv)["counts"],
        "degree": tv.degree,
        "weight": tv.weight,
    }


def cmd_dual_gens(args) -> dict:
    system = generator_system_from_json(load_document(args))
    n = parse_width(args)
    gens = dual_core.min_gens(system, n)
    return {
        "command": "dual-gens",
        "system": generator_system_to_json(system),
        "n": n,
        "count": len(gens),
        "orbits": [_orbit_record(tv) for tv in gens],
    }


def cmd_count(args) -> dict:
    system = generator_system_from_json(load_document(args))
    ns = parse_range(args.n)
    samples = [{"n": n, "count": counting.dual_orbit_count(system, n)} for n in ns]
    return {
        "command": "count",
        "system": generator_system_to_json(system),
        "samples": samples,
    }


def cmd_fit(args) -> dict:
    system = generator_system_from_json(load_document(args))
    ns = parse_range(args.n)
    series = counting.count_series(system, ns)
    bound = (
        args.max_degree
        if args.max_degree is not None
        else counting.default_degree_bound(system.c)
    )
    poly, stable_from = counting.fit_polynomial(series, bound)
    return {
        "command": "fit",
        "system": generator_system_to_json(system),
        "samples": [{"n": n, "count": count} for n, count in series.items()],
        "max_degree": bound,
        "fit": poly.to_json(stable_from),
        "degree": poly.degree,
    }


def cmd_min_degree(args) -> dict:
    system = generator_system_from_json(load_document(args))
    ns = parse_range(args.n)
    if len(ns) == 1:
        degree, gens = dual_core.min_degree_gens(system, ns[0])
        return {
            "command": "min-degree",
            "system": generator_system_to_json(system),
            "n": ns[0],
            "degree": degree,
            "count": len(gens),
            "orbits": [_orbit_record(tv) for tv in gens],
        }
    degrees = {n: dual_core.min_degree_gens(system, n)[0] for n in ns}
    slope, intercept, window = counting.min_degree_line(degrees, system.c)
    return {
        "command": "min-degree",
        "system": generator_system_to_json(system),
        "series": [{"n": n, "degree": degrees[n]} for n in ns],
        "slope": slope,
        "intercept": intercept,
        "window": list(window),
    }


def cmd_faces(args) -> dict:
    system = generator_system_from_json(load_document(args))
    if args.j is None:
        raise InputError("--j is required for faces")
    ns = parse_range(args.n)
    return {
        "command": "faces",
        "system": generator_system_to_json(system),
        "j": args.j,
        "samples": [
            {"n": n, "count": counting.face_orbit_count(system, args.j, n)}
            for n in ns
        ],
    }


def cmd_facets(args) -> dict:
    system = generator_system_from_json(load_document(args))
    n = parse_width(args)
    hist = counting.facet_orbits_by_dimension(system, n)
    return {
        "command": "facets",
        "system": generator_system_to_json(system),
        "n": n,
        "histogram": {str(dim): hist[dim] for dim in sorted(hist)},
    }


def cmd_cone(args) -> dict:
    poly = lattice_geometry.polyhedron_from_json(load_document(args))
    ns = parse_range(args.n, required=False)
    orthants = lattice_geometry.cone_decompose(poly)
    doc = {
        "command": "cone",
        "polyhedron": lattice_geometry.polyhedron_to_json(poly),
        "empty": not orthants,
        "orthants": [
            {
                "fixed": {str(i): v for i, v in orth.fixed},
                "bounded": {str(i): v for i, v in orth.bounded},
            }
            for orth in orthants
        ],
    }
    if ns:
        counts = lattice_geometry.count_on_slice(orthants, ns)
        doc["slices"] = [{"n": n, "count": counts[n]} for n in ns]
    return doc


def cmd_match(args) -> dict:
    doc = load_document(args)
    for key in ("c", "f", "g"):
        if key not in doc:
            raise InputError(f"match input needs '{key}'")
    c = bp.int_from_json(doc["c"], "c")
    bp.check_ambient(c)
    f = [bp.subset_from_json(s, c) for s in bp.list_from_json(doc["f"], "f")]
    g = [bp.subset_from_json(s, c) for s in bp.list_from_json(doc["g"], "g")]
    sigma = avoidance.find_avoiding_permutation(f, g, c)
    if sigma is not None:
        return {
            "command": "match",
            "feasible": True,
            "permutation": [j + 1 for j in sigma],
        }
    ideal = avoidance.violating_order_ideal(f, g, c)
    return {
        "command": "match",
        "feasible": False,
        "violating_ideal": bp.family_to_json(ideal),
    }


def cmd_verify(args) -> dict:
    system = generator_system_from_json(load_document(args))
    ns = parse_range(args.n)
    rng = random.Random(args.seed)
    checks = {
        "min_gens_oracle_equal": 0,
        "face_orbits_equal": 0,
        "dual_involution": 0,
        "divisibility_agreements": 0,
        "membership_agreements": 0,
    }
    for n in ns:
        fast = set(dual_core.min_gens(system, n))
        brute = set(oracle.brute_min_gens_dual(system, n))
        if fast != brute:
            raise VerificationError(f"minimal generator orbits disagree at n={n}")
        checks["min_gens_oracle_equal"] += 1
        fvec = oracle.brute_f_vector(system, n)
        for j in range(0, min(3, system.c * n - 1) + 1):
            if counting.face_orbit_count(system, j, n) != fvec.get(j, 0):
                raise VerificationError(f"face orbit count disagrees at n={n}, j={j}")
            checks["face_orbits_equal"] += 1
        if system.c * n <= oracle.MAX_BITS_INVOLUTION:
            if not oracle.brute_dual_involution_check(system, n):
                raise VerificationError(f"dual involution fails at n={n}")
            checks["dual_involution"] += 1
        pool = list(fast) + list(system.generators)
        for _ in range(50):
            a = rng.choice(pool)
            b = rng.choice(pool)
            if n > oracle.MAX_N_PERMUTATIONS:
                continue
            if dual_core.divides_up_to_sym(a, b, n) != oracle.brute_divides(a, b, n):
                raise VerificationError("divisibility kernels disagree")
            checks["divisibility_agreements"] += 1
        gens_expanded = oracle.expanded_generators(system, n)
        for tv in list(fast)[:20]:
            mask = oracle.mask_of_columns(oracle.standard_columns(tv, n), system.c)
            if not oracle.brute_in_dual(gens_expanded, mask):
                raise VerificationError("fast dual member rejected by the oracle")
            checks["membership_agreements"] += 1
    return {"command": "verify", "ok": True, "checks": checks}


COMMANDS = {
    "dual-gens": cmd_dual_gens,
    "count": cmd_count,
    "fit": cmd_fit,
    "min-degree": cmd_min_degree,
    "faces": cmd_faces,
    "facets": cmd_facets,
    "cone": cmd_cone,
    "match": cmd_match,
    "verify": cmd_verify,
}


def render_table(doc: dict) -> str:
    lines = [f"command: {doc['command']}"]
    rows = None
    if "samples" in doc:
        rows = [("n", "count")] + [
            (str(s["n"]), str(s["count"])) for s in doc["samples"]
        ]
    elif "slices" in doc:
        rows = [("n", "count")] + [
            (str(s["n"]), str(s["count"])) for s in doc["slices"]
        ]
    elif "orthants" in doc:
        rows = [("fixed", "bounded")] + [
            (str(o["fixed"]), str(o["bounded"])) for o in doc["orthants"]
        ]
    elif "orbits" in doc:
        rows = [("degree", "weight", "counts")] + [
            (
                str(o["degree"]),
                str(o["weight"]),
                " ".join(
                    f"{entry['support']}x{entry['count']}" for entry in o["counts"]
                ),
            )
            for o in doc["orbits"]
        ]
    elif "histogram" in doc:
        rows = [("dimension", "orbits")] + [
            (dim, str(v)) for dim, v in sorted(doc["histogram"].items())
        ]
    for key in ("count", "degree", "slope", "intercept", "feasible", "ok", "empty"):
        if key in doc:
            lines.append(f"{key}: {doc[key]}")
    if "fit" in doc:
        lines.append(f"coeffs (ascending): {' '.join(doc['fit']['coeffs'])}")
        lines.append(f"stable_from: {doc['fit'].get('stable_from')}")
    if rows:
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        for r in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = COMMANDS[args.command](args)
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)
    doc = {"schema": SCHEMA, **doc}
    if args.format == "table":
        sys.stdout.write(render_table(doc))
    else:
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
