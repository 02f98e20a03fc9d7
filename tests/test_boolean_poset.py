import pytest
from hypothesis import given, settings, strategies as st

from symdual import boolean_poset as bp
from symdual.errors import CapError


def m(*indices, c=3):
    return bp.mask_of(indices, c)


def fam(*masks):
    """The 2^c-bit family holding the given masks."""
    return sum(1 << t for t in set(masks))


def as_set(family):
    return {t for t in range(family.bit_length()) if family >> t & 1}


def above(s, t):
    """S > T in the standard order: sort_standard puts S strictly before T."""
    return s != t and bp.sort_standard([t, s]) == [s, t]


class TestComplement:
    """[c] - T, as the family complement of the one-member family {T}."""

    def test_empty_set(self):
        assert bp.complement_family(fam(0), 3) == fam(m(1, 2, 3))

    def test_pair(self):
        assert bp.complement_family(fam(m(1, 2)), 3) == fam(m(3))

    def test_singleton(self):
        assert bp.complement_family(fam(m(2)), 3) == fam(m(1, 3))

    def test_involution(self):
        for t in range(8):
            once = bp.complement_family(fam(t), 3)
            assert once == fam(bp.full_mask(3) ^ t)
            assert bp.complement_family(once, 3) == fam(t)


class TestComplementFamily:
    def test_elementwise(self):
        family = fam(m(1, 2), m(2, 3), m(1, 3), m(1, 2, 3))
        assert bp.complement_family(family, 3) == fam(m(3), m(1), m(2), 0)

    def test_empty(self):
        assert bp.complement_family(0, 3) == 0

    def test_order_ideal_of_two_singletons(self):
        ideal = bp.upper_closure(fam(m(2), m(3)), 3)
        comp = bp.complement_family(ideal, 3)
        assert comp == fam(m(1, 3), m(1, 2), m(3), m(1), m(2), 0)

    def test_cardinality_preserved(self):
        family = fam(0, m(1), m(1, 2))
        assert bp.complement_family(family, 3).bit_count() == family.bit_count()


class TestUpperClosure:
    def test_two_singletons(self):
        got = bp.upper_closure(fam(m(2), m(3)), 3)
        assert got == fam(m(2), m(3), m(1, 2), m(2, 3), m(1, 3), m(1, 2, 3))

    def test_top_element(self):
        assert bp.upper_closure(fam(m(1, 2, 3)), 3) == fam(m(1, 2, 3))

    def test_empty(self):
        assert bp.upper_closure(0, 3) == 0


class TestMinimalElements:
    def test_drops_covered(self):
        assert bp.minimal_elements(fam(m(2), m(1, 2), m(2, 3)), 3) == fam(m(2))

    def test_antichain_unchanged(self):
        ac = fam(m(1, 2), m(1, 3))
        assert bp.minimal_elements(ac, 3) == ac

    def test_difference_family(self):
        whole = fam(*range(1, 8))
        ideal = bp.upper_closure(fam(m(2), m(3)), 3)
        assert bp.minimal_elements(whole & ~ideal, 3) == fam(m(1))


class TestEnumeration:
    @pytest.mark.parametrize("c,count", [(1, 1), (2, 4), (3, 18), (4, 166), (5, 7579)])
    def test_order_ideal_counts(self, c, count):
        ideals = bp.proper_nonempty_ideals(c)
        assert len(ideals) == count
        assert len(set(ideals)) == count
        assert 0 not in ideals
        assert fam(*range(1 << c)) not in ideals

    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_ordered_by_size_then_ascending_members(self, c):
        ideals = list(bp.proper_nonempty_ideals(c))
        assert ideals == sorted(ideals, key=lambda j: (j.bit_count(), sorted(as_set(j))))

    def test_c1_ideals(self):
        assert bp.proper_nonempty_ideals(1) == (fam(1),)

    def test_antichain_bijection(self):
        for c in (1, 2, 3):
            ideals = bp.proper_nonempty_ideals(c)
            antichains = bp.nonempty_antichains(c)
            assert len(antichains) == len(set(antichains)) == len(ideals)
            for ideal, ac in zip(ideals, antichains):
                assert not ac & 1
                assert bp.upper_closure(ac, c) == ideal
                assert bp.minimal_elements(bp.upper_closure(ac, c), c) == ac

    def test_cap(self):
        with pytest.raises(CapError):
            bp.check_ideal_cap(7)
        bp.check_ideal_cap(6)

    def test_all_upward_closed(self):
        for ideal in bp.proper_nonempty_ideals(3):
            assert bp.upper_closure(ideal, 3) == ideal


class TestStandardOrder:
    def test_larger_cardinality_wins(self):
        assert above(m(1, 2, 3), m(2, 3)) and not above(m(2, 3), m(1, 2, 3))
        assert above(m(2, 3), m(1)) and not above(m(1), m(2, 3))

    def test_equal(self):
        assert not above(m(1, 3), m(1, 3))

    def test_smaller_index_wins_at_equal_size(self):
        assert above(m(1, 2), m(1, 3)) and not above(m(1, 3), m(1, 2))
        assert above(m(1, 3), m(2, 3)) and not above(m(2, 3), m(1, 3))

    def test_standard_order_c3(self):
        assert bp.standard_order(3) == (
            m(1, 2, 3), m(1, 2), m(1, 3), m(2, 3), m(1), m(2), m(3)
        )
        rank = bp.standard_rank(3)
        assert [rank[s] for s in bp.standard_order(3)] == list(range(7))

    def test_total_order_c5(self):
        masks = list(range(1 << 5))
        ordered = bp.sort_standard(masks)
        for i, s in enumerate(ordered):
            for t in ordered[i + 1:]:
                assert above(s, t)
                assert not above(t, s)


class TestComplementDuality:
    def test_difference_commutes_with_complement(self):
        # complement_family(K - J) == complement_family(K) - complement_family(J)
        import itertools
        c = 3
        whole = list(range(1 << c))
        for j_small in itertools.combinations(whole, 3):
            k_fam = fam(*whole[:6])
            j_fam = fam(*j_small) & k_fam
            left = bp.complement_family(k_fam & ~j_fam, c)
            right = bp.complement_family(k_fam, c) & ~bp.complement_family(j_fam, c)
            assert left == right

    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_order_ideal_iff_complement_difference_is(self, c):
        whole = fam(*range(1 << c))
        comp_whole = bp.complement_family(whole, c)
        for family in (0, whole, *bp.proper_nonempty_ideals(c)):
            diff = comp_whole & ~bp.complement_family(family, c)
            assert bp.upper_closure(diff, c) == diff


class TestJson:
    def test_subset_round_trip(self):
        assert bp.subset_to_json(m(1, 3)) == [1, 3]
        assert bp.subset_from_json([1, 3], 3) == m(1, 3)

    def test_family_round_trip(self):
        family = fam(0, m(2), m(1, 3))
        assert bp.family_to_json(family) == [[], [1, 3], [2]]
        assert fam(*(bp.subset_from_json(s, 3) for s in bp.family_to_json(family))) == family


@st.composite
def families(draw):
    """An ambient size c <= 6 and a family of subsets of [c] as a 2^c-bit int."""
    c = draw(st.integers(1, 6))
    sparse = st.sets(st.integers(0, (1 << c) - 1)).map(lambda held: fam(*held))
    return c, draw(st.one_of(st.integers(0, (1 << (1 << c)) - 1), sparse))


class TestFamilyOperationsProperty:
    @settings(max_examples=300, deadline=None)
    @given(families())
    def test_operations_match_their_definitions(self, case):
        c, family = case
        ambient = range(1 << c)
        held = as_set(family)
        up = {t for t in ambient if any(s & ~t == 0 for s in held)}
        down = {t for t in ambient if any(t & ~s == 0 for s in held)}
        assert as_set(bp.upper_closure(family, c)) == up
        assert as_set(bp.lower_closure(family, c)) == down
        assert as_set(bp.minimal_elements(family, c)) == {
            t for t in held if not any(s != t and s & ~t == 0 for s in held)
        }
        assert as_set(bp.complement_family(family, c)) == {
            bp.full_mask(c) ^ t for t in held
        }
        assert bp.members(family) == sorted(held)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_ideal_antichain_bijection_round_trips(self, c, data):
        ideals = bp.proper_nonempty_ideals(c)
        i = data.draw(st.integers(0, len(ideals) - 1))
        ideal, antichain = ideals[i], bp.nonempty_antichains(c)[i]
        assert bp.minimal_elements(ideal, c) == antichain
        assert bp.upper_closure(antichain, c) == ideal
