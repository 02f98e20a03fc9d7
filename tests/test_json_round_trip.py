"""Round-trip properties of the JSON codecs: writing a value and reading the
document back, through JSON text, gives the same value."""

import json

from hypothesis import given, settings, strategies as st

from symdual import boolean_poset as bp
from symdual.lattice_geometry import SumPolyhedron, polyhedron_from_json, polyhedron_to_json
from symdual.orbit_monomials import (
    GeneratorSystem,
    TypeVector,
    generator_system_from_json,
    generator_system_to_json,
)


def through_text(doc):
    return json.loads(json.dumps(doc))


@st.composite
def generator_systems(draw):
    c = draw(st.integers(1, 5))
    vectors = st.dictionaries(
        st.integers(1, (1 << c) - 1), st.integers(1, 4), min_size=1, max_size=6
    ).map(lambda counts: TypeVector.from_counts(c, counts))
    return GeneratorSystem.make(c, draw(st.lists(vectors, min_size=1, max_size=3)))


@st.composite
def polyhedra(draw):
    k = draw(st.integers(1, 6))
    bounds = st.integers(-5, 9)
    lower = draw(st.dictionaries(st.integers(0, (1 << k) - 1), bounds, max_size=8))
    upper = draw(st.dictionaries(st.integers(1, (1 << k) - 1), bounds, max_size=3))
    return SumPolyhedron.from_maps(k, lower, upper)


@st.composite
def families(draw):
    c = draw(st.integers(1, 4))
    return c, draw(st.integers(0, (1 << (1 << c)) - 1))


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(generator_systems())
    def test_generator_system(self, system):
        doc = through_text(generator_system_to_json(system))
        assert generator_system_from_json(doc) == system

    @settings(max_examples=100, deadline=None)
    @given(polyhedra())
    def test_polyhedron(self, p):
        assert polyhedron_from_json(through_text(polyhedron_to_json(p))) == p

    @settings(max_examples=100, deadline=None)
    @given(families())
    def test_match_certificate_family(self, case):
        c, family = case
        doc = through_text(bp.family_to_json(family))
        assert sum(1 << bp.subset_from_json(subset, c) for subset in doc) == family
