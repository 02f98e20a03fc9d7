"""Per-layer tracing of symdual from outside the library.

While installed, a Tracer replaces the listed public functions of the symdual
modules by wrappers, in every symdual module namespace that holds them, so
calls inside one module (min_gens -> general_candidates ->
divides_up_to_sym) and names imported by another module (cli's
generator_system_from_json) are both caught.  uninstall() puts the originals
back.

Two kinds of wrapper:

* a span records (name, start, end, parent span, job id) and counts the call;
* a counter only counts the call.  It is used for functions called in the
  innermost loops (divides_up_to_sym, TypeVector.from_counts), whose time
  stays in the self time of the span around them: dual_core.prune's self
  time is min_gens minus its general_candidates child and so includes the
  divisibility tests.

Counts are kept apart from timings and are deterministic for a fixed job
list.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


def _scans(k):
    """Result hook adding k * 2^(c*n) to oracle.masks_scanned, from the arguments."""

    def hook(counts, args, kwargs, result):
        system = args[0] if args else kwargs["system"]
        n = args[1] if len(args) > 1 else kwargs["n"]
        counts["oracle.masks_scanned"] += k << (system.c * n)

    return hook


def _add_len(name):
    def hook(counts, args, kwargs, result):
        counts[name] += len(result)

    return hook


def _feasible(counts, args, kwargs, result):
    counts["avoidance.feasible"] += result is not None


# (module, function, span name, result hook).  A span name's first part is
# the layer it belongs to.
SPANS = [
    ("cli", "main", "cli.main", None),
    ("orbit_monomials", "generator_system_from_json", "orbit_monomials.codec", None),
    ("orbit_monomials", "generator_system_to_json", "orbit_monomials.codec", None),
    ("orbit_monomials", "type_vector_from_json", "orbit_monomials.codec", None),
    ("orbit_monomials", "type_vector_to_json", "orbit_monomials.codec", None),
    ("boolean_poset", "proper_nonempty_ideals", "boolean_poset.ideals", None),
    ("boolean_poset", "nonempty_antichains", "boolean_poset.ideals", None),
    ("dual_core", "min_gens", "dual_core.prune", _add_len("dual_core.prune.kept")),
    ("dual_core", "general_candidates", "dual_core.candidates",
     _add_len("dual_core.candidates.out")),
    ("dual_core", "one_orbit_min_gens", "dual_core.one_orbit", None),
    ("dual_core", "min_degree_gens", "dual_core.min_degree", None),
    ("counting", "dual_orbit_count", "counting.count", None),
    ("counting", "count_series", "counting.series", None),
    ("counting", "fit_polynomial", "counting.fit", None),
    ("counting", "facet_orbits_by_dimension", "counting.facets", None),
    ("counting", "face_orbit_count", "counting.faces", None),
    ("lattice_geometry", "polyhedron_from_json", "lattice_geometry.codec", None),
    ("lattice_geometry", "polyhedron_to_json", "lattice_geometry.codec", None),
    ("lattice_geometry", "cone_decompose", "lattice_geometry.decompose",
     _add_len("lattice_geometry.orthants")),
    ("lattice_geometry", "count_on_slice", "lattice_geometry.slice", None),
    ("avoidance", "find_avoiding_permutation", "avoidance.match", _feasible),
    ("avoidance", "violating_order_ideal", "avoidance.certificate", None),
    ("oracle", "brute_min_gens_dual", "oracle.min_gens", _scans(1)),
    ("oracle", "brute_f_vector", "oracle.f_vector", _scans(1)),
    # Two minimal-hitting-set scans: the dual, then the dual of the dual.
    ("oracle", "brute_dual_involution_check", "oracle.involution", _scans(2)),
    ("oracle", "brute_divides", "oracle.divides", None),
    ("oracle", "expand_orbit", "oracle.expand", None),
    ("oracle", "brute_in_dual", "oracle.in_dual", None),
]

# (module, function, count name): call counts only.
COUNTERS = [
    ("dual_core", "divides_up_to_sym", "dual_core.divides.calls"),
]

# Class methods counted only: (module, class, method, count name).
METHOD_COUNTERS = [
    ("orbit_monomials", "TypeVector", "from_counts", "orbit_monomials.from_counts.calls"),
]

LAYERS = (
    "cli", "orbit_monomials", "boolean_poset", "dual_core", "counting",
    "lattice_geometry", "avoidance", "oracle",
)


class Tracer:
    def __init__(self):
        # Each span: [name, start, end, parent index or -1, job id].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            counts[calls] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "symdual" or name.startswith("symdual.")
        ]
        for module, attr, name, hook in SPANS:
            original = getattr(sys.modules[f"symdual.{module}"], attr)
            self._replace(namespaces, original, self._span(name, original, hook))
        for module, attr, name in COUNTERS:
            original = getattr(sys.modules[f"symdual.{module}"], attr)
            self._replace(namespaces, original, self._counter(name, original))
        for module, cls_name, attr, name in METHOD_COUNTERS:
            cls = getattr(sys.modules[f"symdual.{module}"], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, classmethod(self._counter(name, original.__func__)))

    def _replace(self, namespaces, original, wrapper) -> None:
        found = False
        for mod in namespaces:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"{original!r} is bound in no symdual module")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            totals[name] += (end - start) - inner
        return dict(totals)
