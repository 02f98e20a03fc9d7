import pytest

from symdual import boolean_poset as bp
from symdual.errors import CapError


def m(*indices, c=3):
    return bp.mask_of(indices, c)


def above(s, t):
    """S > T in the standard order: S sorts strictly before T."""
    return bp.subset_sort_key(s) < bp.subset_sort_key(t)


class TestComplement:
    def test_empty_set(self):
        assert bp.complement(0, 3) == m(1, 2, 3)

    def test_pair(self):
        assert bp.complement(m(1, 2), 3) == m(3)

    def test_singleton(self):
        assert bp.complement(m(2), 3) == m(1, 3)

    def test_involution(self):
        for t in range(8):
            assert bp.complement(bp.complement(t, 3), 3) == t


class TestComplementFamily:
    def test_elementwise(self):
        fam = {m(1, 2), m(2, 3), m(1, 3), m(1, 2, 3)}
        assert bp.complement_family(fam, 3) == {m(3), m(1), m(2), 0}

    def test_empty(self):
        assert bp.complement_family(set(), 3) == frozenset()

    def test_order_ideal_of_two_singletons(self):
        ideal = bp.upper_closure([m(2), m(3)], 3)
        comp = bp.complement_family(ideal, 3)
        assert comp == {m(1, 3), m(1, 2), m(3), m(1), m(2), 0}

    def test_cardinality_preserved(self):
        fam = {0, m(1), m(1, 2)}
        assert len(bp.complement_family(fam, 3)) == len(fam)


class TestUpperClosure:
    def test_two_singletons(self):
        got = bp.upper_closure([m(2), m(3)], 3)
        assert got == {m(2), m(3), m(1, 2), m(2, 3), m(1, 3), m(1, 2, 3)}

    def test_top_element(self):
        assert bp.upper_closure([m(1, 2, 3)], 3) == {m(1, 2, 3)}

    def test_empty(self):
        assert bp.upper_closure([], 3) == frozenset()


class TestMinimalElements:
    def test_drops_covered(self):
        assert bp.minimal_elements({m(2), m(1, 2), m(2, 3)}) == {m(2)}

    def test_antichain_unchanged(self):
        ac = frozenset({m(1, 2), m(1, 3)})
        assert bp.minimal_elements(ac) == ac

    def test_difference_family(self):
        whole = set(range(1, 8))
        ideal = bp.upper_closure([m(2), m(3)], 3)
        assert bp.minimal_elements(whole - ideal) == {m(1)}


class TestEnumeration:
    @pytest.mark.parametrize("c,count", [(1, 1), (2, 4), (3, 18), (4, 166), (5, 7579)])
    def test_order_ideal_counts(self, c, count):
        ideals = bp.proper_nonempty_ideals(c)
        assert len(ideals) == count
        assert len(set(ideals)) == count
        assert frozenset() not in ideals
        assert frozenset(range(1 << c)) not in ideals

    def test_c1_ideals(self):
        assert bp.proper_nonempty_ideals(1) == (frozenset({1}),)

    def test_antichain_bijection(self):
        for c in (1, 2, 3):
            ideals = bp.proper_nonempty_ideals(c)
            antichains = bp.nonempty_antichains(c)
            assert len(antichains) == len(set(antichains)) == len(ideals)
            for ideal, ac in zip(ideals, antichains):
                assert 0 not in ac
                assert bp.upper_closure(ac, c) == ideal
                assert bp.minimal_elements(bp.upper_closure(ac, c)) == ac

    def test_cap(self):
        with pytest.raises(CapError):
            bp.check_ideal_cap(7)
        bp.check_ideal_cap(6)

    def test_all_upward_closed(self):
        for ideal in bp.proper_nonempty_ideals(3):
            assert bp.is_order_ideal(ideal, 3)


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
            k_fam = set(whole[:6])
            j_fam = set(j_small) & k_fam
            left = bp.complement_family(k_fam - j_fam, c)
            right = bp.complement_family(k_fam, c) - bp.complement_family(j_fam, c)
            assert left == right

    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_order_ideal_iff_complement_difference_is(self, c):
        whole = frozenset(range(1 << c))
        comp_whole = bp.complement_family(whole, c)
        for fam in (frozenset(), whole, *bp.proper_nonempty_ideals(c)):
            assert bp.is_order_ideal(comp_whole - bp.complement_family(fam, c), c)


class TestJson:
    def test_subset_round_trip(self):
        assert bp.subset_to_json(m(1, 3)) == [1, 3]
        assert bp.subset_from_json([1, 3], 3) == m(1, 3)

    def test_family_round_trip(self):
        fam = frozenset({0, m(2), m(1, 3)})
        assert frozenset(bp.subset_from_json(s, 3) for s in bp.family_to_json(fam)) == fam
