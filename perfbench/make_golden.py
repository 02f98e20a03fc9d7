"""Write golden.json: the expected output content of every system template job.

    python3 perfbench/make_golden.py

Runs each system job of every workload once with the template's own row
labels and stores the relabeling-invariant content of its output (see
checks.invariant).  Before a value is stored it is cross-checked wherever an
independent reference exists at desk scale: the closed forms of the
acceptance systems and the {12,34} fit, and the brute-force oracle for every
width with c*n <= 18 (dual generators for dual-gens, count, fit and facets
jobs; the face orbit counts for faces jobs).  Exits 1 without writing when a
job fails, a cross-check disagrees, or a workload repeats a system up to
relabeling.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from symdual import cli, oracle  # noqa: E402
from symdual.orbit_monomials import GeneratorSystem, TypeVector  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

CROSS_CHECK_MAX_BITS = 18


def _system(shape) -> GeneratorSystem:
    c, gens = shape
    return GeneratorSystem.make(c, [TypeVector.from_counts(c, dict(g)) for g in gens])


def cross_check(job: wl.Job, doc: dict) -> list[str]:
    problems = checks.closed_form_problems(job, doc)
    c = job.shape[0]
    small = [n for n in job.ns if c * n <= CROSS_CHECK_MAX_BITS]
    if not small:
        return problems
    system = _system(job.shape)
    if job.command == "dual-gens":
        problems += checks.oracle_check(job, checks.orbit_set(doc, job.perm))
    elif job.command in ("count", "fit"):
        got = {s["n"]: s["count"] for s in doc["samples"]}
        for n in small:
            if got[n] != len(oracle.brute_min_gens_dual(system, n)):
                problems.append(f"count at n={n} differs from the oracle")
    elif job.command == "facets":
        n = job.ns[0]
        hist: dict[str, int] = {}
        for tv in oracle.brute_min_gens_dual(system, n):
            dim = str(c * n - 1 - tv.degree)
            hist[dim] = hist.get(dim, 0) + 1
        if hist != doc["histogram"]:
            problems.append("facet histogram differs from the oracle")
    elif job.command == "faces":
        got = {s["n"]: s["count"] for s in doc["samples"]}
        for n in small:
            if got[n] != oracle.brute_f_vector(system, n).get(doc["j"], 0):
                problems.append(f"face count at n={n} differs from the oracle")
    return problems


def main() -> int:
    golden: dict[str, dict] = {}
    bad = 0
    for workload, template in wl.TEMPLATES.items():
        entries = golden.setdefault(workload, {})
        shapes = set()
        for t in template():
            if t.command in ("cone", "match"):
                continue
            c = t.shape[0]
            if max(sum(k for _, k in g) for g in t.shape[1]) >= wl.WARMUP_SHAPE_WEIGHT:
                print(f"{workload}: {t.key} is as heavy as the warm-up system", file=sys.stderr)
                bad += 1
            shape = (c, wl.canonical(c, t.shape[1]))
            if shape in shapes:
                print(f"{workload}: {t.key} repeats a shape up to relabeling", file=sys.stderr)
                bad += 1
            shapes.add(shape)
            argv = [t.command, "--json", json.dumps(wl.system_json(t.shape, range(c))),
                    "--n", t.n]
            if t.j is not None:
                argv += ["--j", str(t.j)]
            job = wl.Job("golden", t.key, t.command, argv, perm=tuple(range(c)),
                         shape=t.shape, ns=wl.parse_n(t.n))
            code, elapsed, stdout, stderr = run.run_job(cli, argv)
            doc, problems = checks.parse_output(job, code, stdout, stderr)
            if doc is not None:
                problems = cross_check(job, doc)
            if problems:
                bad += 1
                print(f"{workload}: {t.key}: {'; '.join(problems)}", file=sys.stderr)
                continue
            entries[t.key] = checks.invariant(job, doc)
            print(f"{workload:20s} {elapsed:8.3f}s  {t.key}")
    if bad:
        print(f"{bad} template jobs failed; golden.json not written", file=sys.stderr)
        return 1
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
