"""Compare two benchmark records of one workload and seed.

    python3 perfbench/compare.py A.json B.json

Reports every job whose stdout digest differs and every count that differs.
Records of one seed from two commits should agree byte for byte on the jobs
both ran; two traced runs of one seed must report identical counts.  Exits 1
when anything differs, 2 when the records are not comparable.
"""

from __future__ import annotations

import json
import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    for key in ("workload", "seed", "trace"):
        if a[key] != b[key]:
            print(f"not comparable: {key} {a[key]!r} != {b[key]!r}", file=sys.stderr)
            return 2
    differences = 0
    b_digests = {(d["id"], d["key"]): d["sha256"] for d in b["digests"]}
    shared = 0
    for d in a["digests"]:
        other = b_digests.get((d["id"], d["key"]))
        if other is None:
            continue
        shared += 1
        if other != d["sha256"]:
            differences += 1
            print(f"stdout differs: {d['id']} {d['key']}")
    for name in sorted(set(a["counts"]) | set(b["counts"])):
        x, y = a["counts"].get(name), b["counts"].get(name)
        if x != y:
            differences += 1
            print(f"count differs: {name} {x} != {y}")
    print(f"{shared} shared jobs, {len(a['counts'])} counts, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
