import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jointkg import diff
from jointkg.alignment import build_alignment_matrix, cosine_rows
from jointkg.entr import (
    enlarge_seeds,
    matrix_entropy,
    prune_stale_transfers,
    seed_budget,
    transfer_triples,
)
from jointkg.errors import AlignmentError, EnTrError
from jointkg.kgdata import ENLARGED, GIVEN, Kg, MultiKg, RelationVocab, SeedSet

from .util import (
    reference_matrix_entropy,
    reference_p_log_p_entropy,
    reference_prune_stale_transfers,
    reference_store,
    reference_transfer_triples,
)


def pair_multikg(triples_a, triples_b, entities_a, entities_b):
    vocab = RelationVocab()
    kg_a = Kg("aa", vocab)
    kg_b = Kg("bb", vocab)
    for i in range(entities_a):
        kg_a.intern_entity(f"a{i}")
    for i in range(entities_b):
        kg_b.intern_entity(f"b{i}")
    rel_count = max([r for _, r, _ in triples_a + triples_b], default=-1) + 1
    for r in range(rel_count):
        vocab.intern(f"r{r}")
    for h, r, t in triples_a:
        kg_a.add_triple(h, r, t)
    for h, r, t in triples_b:
        kg_b.add_triple(h, r, t)
    return MultiKg([kg_a, kg_b], vocab)


def seeds(pairs, provenance=None):
    provenance = provenance or [GIVEN] * len(pairs)
    return SeedSet(("aa", "bb"), list(pairs), list(provenance))


class TestMatrixEntropy:
    def test_uniform_two_by_two(self):
        h = matrix_entropy(np.array([[0.3, 0.3], [-1.0, -1.0]]))
        assert h == pytest.approx(2.0 * np.log(2.0), abs=1e-12)

    def test_singleton_matrix_is_zero(self):
        assert matrix_entropy(np.array([[0.42]])) == pytest.approx(0.0)

    def test_confident_row_hand_value(self):
        # softmax of (10, 0) written out longhand
        p1 = np.exp(10.0) / (np.exp(10.0) + np.exp(0.0))
        p2 = np.exp(0.0) / (np.exp(10.0) + np.exp(0.0))
        expected = -(p1 * np.log(p1) + p2 * np.log(p2))
        h = matrix_entropy(np.array([[10.0, 0.0]]))
        assert h == pytest.approx(expected, abs=1e-15)
        assert h == pytest.approx(5.0e-4, abs=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (4, 6), elements=st.floats(-50, 50)))
    def test_entropy_bounds(self, values):
        h = matrix_entropy(values)
        assert 0.0 <= h <= 4 * np.log(6) + 1e-9

    @pytest.mark.parametrize("values, expected", [
        ([[0.0, -1000.0]], 0.0),
        ([[0.0, -1000.0], [3.0, 3.0]], np.log(2.0)),
        ([[-800.0, 0.0, 0.0, -900.0]], np.log(2.0)),
    ])
    def test_underflowed_probabilities_count_as_zero(self, values, expected):
        # exp(-1000) is 0.0 in float64; 0 log 0 is the limit 0, not NaN
        assert matrix_entropy(np.array(values)) == pytest.approx(expected, abs=1e-15)


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_blocks_equal_whole_matrix_bitwise(self, data):
        shape = (data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12)))
        # -1000 underflows to p = 0; magnitudes far apart make the flat sum
        # depend on its order
        values = data.draw(arrays(np.float64, shape, elements=st.one_of(
            st.sampled_from([0.0, -1000.0, 30.0, -30.0, 1e-9]), st.floats(-50, 50))))
        budget = data.draw(st.sampled_from([1, 8, 24, 40, 88, 200, diff.BLOCK_BYTES]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diff, "BLOCK_BYTES", budget)
            got = matrix_entropy(values)
        expected = reference_matrix_entropy(values)
        assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_row_form_stays_near_p_log_p_form(self, data):
        shape = (data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12)))
        # few distinct values make ties; -1000 underflows to p = 0
        distinct = st.sampled_from([0.0, -1000.0, 1.0, -1.0, 30.0, 1e-9])
        elements = data.draw(st.sampled_from([distinct, st.one_of(distinct, st.floats(-50, 50))]))
        values = data.draw(arrays(np.float64, shape, elements=elements))
        assert matrix_entropy(values) == pytest.approx(reference_p_log_p_entropy(values),
                                                       rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_a_later_block_errors(self, bad):
        values = np.zeros((5, 3))
        values[4, 1] = bad
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diff, "BLOCK_BYTES", 24)
            with pytest.raises(EnTrError, match="finite"):
                matrix_entropy(values)


def alignment_finals(rng, n1, n2, dim, kind):
    """Source and target finals: random, with duplicated rows (every third
    source row and every second target row repeat one vector), or collapsed
    (every row of both the same vector)."""
    source, target = rng.normal(size=(n1, dim)), rng.normal(size=(n2, dim))
    if kind == "duplicated":
        source[::3], target[::2] = source[0], source[0]
    elif kind == "collapsed":
        source[:], target[:] = source[0], source[0]
    return source, target


class TestCosineRowEntropy:
    """The training path's entropy, read from `cosine_rows` blocks, against
    the entropy of the matrix `build_alignment_matrix` returns. BLAS may
    round a cosine by its row's place in a product, so block offsets that
    are no tile multiple (1, 3, 5, 7, 13 rows) are drawn with the rest."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_the_entropy_of_the_whole_matrix_bitwise(self, data):
        n1, n2 = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
        dim = data.draw(st.sampled_from([32, 33, 128]))
        kind = data.draw(st.sampled_from(["random", "duplicated", "collapsed"]))
        block_rows = data.draw(st.sampled_from([1, 2, 3, 5, 7, 8, 13, n1]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        source, target = alignment_finals(rng, n1, n2, dim, kind)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diff, "BLOCK_BYTES", block_rows * 3 * 8 * n2)
            first, _ = next(cosine_rows(source, target))
            assert first == slice(0, min(block_rows, n1))
            got = matrix_entropy(source, target)
            matrix = build_alignment_matrix(source, target)
            expected = matrix_entropy(matrix)
        assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)
        # the blocks hold the cosines of the one whole product, up to rounding
        unit = [x / np.linalg.norm(x, axis=1, keepdims=True) for x in (source, target)]
        np.testing.assert_allclose(matrix, unit[0] @ unit[1].T, rtol=0, atol=1e-14)
        assert got == pytest.approx(reference_matrix_entropy(unit[0] @ unit[1].T), rel=1e-12)

    def test_one_block_is_the_whole_product(self):
        source, target = alignment_finals(np.random.default_rng(3), 300, 299, 33, "random")
        whole = (source / np.linalg.norm(source, axis=1, keepdims=True)) @ (
            target / np.linalg.norm(target, axis=1, keepdims=True)).T
        assert len(list(cosine_rows(source, target))) == 1
        assert np.array_equal(build_alignment_matrix(source, target), whole)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_finals_error(self, bad):
        source, target = alignment_finals(np.random.default_rng(4), 6, 5, 32, "random")
        source[4, 1] = bad
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diff, "BLOCK_BYTES", 3 * 8 * 5)
            with pytest.raises(AlignmentError, match="non-finite embedding in source final"):
                matrix_entropy(source, target)

    def test_empty_finals_error(self):
        with pytest.raises(EnTrError, match="non-empty"):
            matrix_entropy(np.ones((0, 4)), np.ones((3, 4)))


class TestSeedBudget:
    def test_no_entropy_drop_means_zero(self):
        assert seed_budget(3.7, 3.7, beta=0.3, e_count=50, e_star_count=80) == 0

    def test_full_drop(self):
        assert seed_budget(12.0, 0.0, beta=0.2, e_count=100, e_star_count=500) == 20

    def test_half_drop_hand_value(self):
        assert seed_budget(10.0, 5.0, beta=0.2, e_count=100, e_star_count=100) == 10

    def test_rising_entropy_clamps_to_zero(self):
        assert seed_budget(5.0, 9.0, beta=0.3, e_count=100, e_star_count=100) == 0

    def test_degenerate_pretraining_entropy_errors(self):
        with pytest.raises(EnTrError, match="degenerate"):
            seed_budget(0.0, 0.0, beta=0.2, e_count=10, e_star_count=10)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 20), st.floats(0, 20), st.floats(0, 20),
           st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_current_entropy_and_beta(self, h_tilde, h1, h2, beta1, beta2):
        lo_h, hi_h = sorted((h1, h2))
        assert seed_budget(h_tilde, lo_h, beta1, 40, 40) >= seed_budget(h_tilde, hi_h, beta1, 40, 40)
        lo_b, hi_b = sorted((beta1, beta2))
        assert seed_budget(h_tilde, lo_h, hi_b, 40, 40) >= seed_budget(h_tilde, lo_h, lo_b, 40, 40)


class TestEnlargeSeeds:
    def matrix(self, values):
        return np.asarray(values, dtype=np.float64)

    def test_zero_budget_keeps_given_seeds(self):
        base = seeds([(0, 0)])
        out = enlarge_seeds(self.matrix([[0.9, 0.1], [0.2, 0.8]]), 0, base)
        assert out.pairs.tolist() == [[0, 0]]
        assert out.provenance == [GIVEN]

    def test_conflicting_best_entry_is_skipped(self):
        base = seeds([(0, 1)])  # entity 0 on the left is taken
        out = enlarge_seeds(self.matrix([[0.9, 0.1], [0.2, 0.8]]), 1, base)
        assert [1, 0] in out.pairs.tolist()  # best free pair once row 0 and column 1 are used
        assert out.provenance.count(ENLARGED) == 1

    def test_two_by_two_brute_force(self):
        out = enlarge_seeds(self.matrix([[0.9, 0.1], [0.2, 0.8]]), 2, seeds([]))
        assert set(map(tuple, out.pairs.tolist())) == {(0, 0), (1, 1)}

    def test_zero_budget_reads_no_matrix(self):
        base = seeds([(0, 0), (1, 1)], [GIVEN, ENLARGED])
        out = enlarge_seeds(None, 0, base)
        assert out.pairs.tolist() == [[0, 0]]
        assert out.provenance == [GIVEN]

    def test_previous_enlarged_pairs_are_recomputed(self):
        base = seeds([(0, 0), (1, 1)], [GIVEN, ENLARGED])
        out = enlarge_seeds(self.matrix([[0.9, 0.1], [0.2, 0.8]]), 0, base)
        assert out.pairs.tolist() == [[0, 0]]

    def test_budget_larger_than_matrix_stops_at_exhaustion(self):
        out = enlarge_seeds(self.matrix([[0.9, 0.1], [0.2, 0.8]]), 10, seeds([]))
        assert len(out.pairs) == 2

    def test_output_is_one_to_one(self):
        rng = np.random.default_rng(0)
        out = enlarge_seeds(self.matrix(rng.normal(size=(6, 5))), 4, seeds([(0, 3)]))
        out.validate_one_to_one()


class TestTransferTriples:
    def figure_like_pair(self):
        # KG misses the (B, r4, A) edge its counterpart has
        names_a = {"E": 0, "D": 1, "B": 2, "C": 3, "A": 4}
        triples_a = [(0, 0, 2), (1, 1, 2), (2, 2, 3)]
        triples_b = [(0, 0, 2), (1, 1, 2), (2, 2, 3), (2, 3, 4)]  # extra (B*, r4, A*)
        multikg = pair_multikg(triples_a, triples_b, 5, 5)
        return multikg, names_a

    def test_missing_triple_is_recovered_and_nothing_else(self):
        multikg, names = self.figure_like_pair()
        seed_set = seeds([(names["B"], names["B"]), (names["A"], names["A"])])
        added = transfer_triples(seed_set, multikg, epoch=1)
        assert added == 1
        kg_a = multikg.by_id["aa"]
        assert kg_a.has_triple(names["B"], 3, names["A"])
        assert [t.key for t in kg_a.transferred_triples()] == [(names["B"], 3, names["A"])]
        assert multikg.by_id["bb"].transferred_triples() == []

    def test_second_run_adds_nothing(self):
        multikg, names = self.figure_like_pair()
        seed_set = seeds([(names["B"], names["B"]), (names["A"], names["A"])])
        transfer_triples(seed_set, multikg, epoch=1)
        assert transfer_triples(seed_set, multikg, epoch=2) == 0

    def test_structurally_identical_pair_adds_nothing(self):
        triples = [(0, 0, 1), (1, 1, 2)]
        multikg = pair_multikg(triples, triples, 3, 3)
        seed_set = seeds([(i, i) for i in range(3)])
        assert transfer_triples(seed_set, multikg) == 0

    def test_transfer_soundness_under_inverse_mapping(self):
        rng = np.random.default_rng(1)
        base = sorted({(int(rng.integers(6)), int(rng.integers(2)), int(rng.integers(6)))
                       for _ in range(10)})
        kept = [t for t in base if rng.random() > 0.3]
        multikg = pair_multikg(kept, base, 6, 6)
        seed_set = seeds([(i, i) for i in range(6)])
        transfer_triples(seed_set, multikg, epoch=0)
        mapping = seed_set.mapping()
        inverse = seed_set.inverse_mapping()
        for t in multikg.by_id["aa"].transferred_triples():
            assert multikg.by_id["bb"].has_triple(mapping[t.head], t.relation, mapping[t.tail])
        for t in multikg.by_id["bb"].transferred_triples():
            assert multikg.by_id["aa"].has_triple(inverse[t.head], t.relation, inverse[t.tail])

    def test_neighbor_index_sees_transfers(self):
        multikg, names = self.figure_like_pair()
        seed_set = seeds([(names["B"], names["B"]), (names["A"], names["A"])])
        transfer_triples(seed_set, multikg, epoch=1)
        rows = multikg.by_id["aa"].neighbor_index().tolist()
        assert [names["B"], names["A"], 3] in rows
        assert [names["A"], names["B"], 3] in rows


class TestPruneStaleTransfers:
    def test_transfer_from_withdrawn_pair_is_pruned(self):
        multikg = pair_multikg([(0, 0, 1)], [(0, 0, 1), (1, 1, 0)], 3, 3)
        enlarged = seeds([(0, 0), (1, 1)], [GIVEN, ENLARGED])
        transfer_triples(enlarged, multikg, epoch=0)
        assert multikg.by_id["aa"].has_triple(1, 1, 0)
        shrunk = {("aa", "bb"): seeds([(0, 0)])}
        removed = prune_stale_transfers(multikg, shrunk)
        assert removed == 1
        assert not multikg.by_id["aa"].has_triple(1, 1, 0)

    def test_still_derivable_transfers_survive(self):
        multikg = pair_multikg([(0, 0, 1)], [(0, 0, 1), (1, 1, 0)], 3, 3)
        seed_set = seeds([(0, 0), (1, 1)])
        transfer_triples(seed_set, multikg, epoch=0)
        removed = prune_stale_transfers(multikg, {("aa", "bb"): seed_set})
        assert removed == 0
        assert multikg.by_id["aa"].has_triple(1, 1, 0)

    def test_mutually_supporting_stale_copies_are_both_dropped(self):
        multikg = pair_multikg([(0, 0, 1)], [], 3, 3)
        kg_a = multikg.by_id["aa"]
        kg_b = multikg.by_id["bb"]
        # fabricate a support cycle whose generating pair no longer exists
        kg_a.set_transferred([(2, 0, 1)], [0])
        kg_b.set_transferred([(2, 0, 1)], [0])
        removed = prune_stale_transfers(multikg, {("aa", "bb"): seeds([(1, 1)])})
        assert removed == 2


@st.composite
def multi_kg_transfer_case(draw):
    """1-4 KGs with random loaded triples, seed sets on random ordered KG
    pairs, and per round a subset of each seed set to shrink to."""
    vocab = RelationVocab()
    relation_count = draw(st.integers(1, 3))
    for r in range(relation_count):
        vocab.intern(f"r{r}")
    kgs = []
    for k in range(draw(st.integers(1, 4))):
        kg = Kg(f"k{k}", vocab)
        n = draw(st.integers(1, 6))
        for e in range(n):
            kg.intern_entity(f"e{e}")
        entity = st.integers(0, n - 1)
        for h, r, t in draw(st.lists(st.tuples(entity, st.integers(0, relation_count - 1),
                                               entity), max_size=10)):
            kg.add_triple(h, r, t)
        kgs.append(kg)
    multikg = MultiKg(kgs, vocab)
    ordered = [(a.id, b.id) for a in kgs for b in kgs if a is not b]
    pairs = draw(st.lists(st.sampled_from(ordered), unique=True, max_size=len(ordered))
                 if ordered else st.just([]))
    rounds = []
    seed_sets = {}
    for pair in pairs:
        left_count, right_count = (multikg.by_id[kg_id].entity_count for kg_id in pair)
        size = draw(st.integers(0, min(left_count, right_count)))
        left = draw(st.permutations(range(left_count)))[:size]
        right = draw(st.permutations(range(right_count)))[:size]
        seed_sets[pair] = list(zip(left, right))
    for _ in range(3):
        rounds.append({pair: SeedSet(pair, kept, [GIVEN] * len(kept))
                       for pair, kept in seed_sets.items()})
        seed_sets = {pair: [p for p in kept if draw(st.booleans())]
                     for pair, kept in seed_sets.items()}
    return multikg, rounds


def as_sets(store):
    """A reference store with each KG's transfers as a set of (triple, epoch)."""
    return {kg_id: (loaded, set(transferred.items()))
            for kg_id, (loaded, transferred) in store.items()}


def in_order(store):
    """A reference store with each KG's transfers as an ordered list."""
    return {kg_id: (loaded, list(transferred.items()))
            for kg_id, (loaded, transferred) in store.items()}


class TestTransferClosureOracle:
    """Three ENTR rounds (prune over all pairs, then transfer per pair in
    sorted order) against the tuple loops they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(multi_kg_transfer_case())
    def test_rows_order_epochs_and_counts_equal_reference(self, case):
        multikg, rounds = case
        store = reference_store(multikg)
        for epoch, seed_sets in enumerate(rounds):
            assert (prune_stale_transfers(multikg, seed_sets)
                    == reference_prune_stale_transfers(store, seed_sets))
            for pair in sorted(seed_sets):
                assert (transfer_triples(seed_sets[pair], multikg, epoch)
                        == reference_transfer_triples(store, seed_sets[pair], epoch))
            assert in_order(reference_store(multikg)) == in_order(store)

    @settings(max_examples=300, deadline=None)
    @given(multi_kg_transfer_case())
    def test_one_call_over_all_pairs_reaches_the_fixpoint(self, case):
        """One call over every seed set adds what per-pair passes in sorted
        order add when repeated until a whole pass adds nothing."""
        multikg, rounds = case
        store = reference_store(multikg)
        for epoch, seed_sets in enumerate(rounds):
            assert (prune_stale_transfers(multikg, seed_sets)
                    == reference_prune_stale_transfers(store, seed_sets))
            added = transfer_triples([seed_sets[pair] for pair in sorted(seed_sets)],
                                     multikg, epoch)
            expected = 0
            while passed := sum(reference_transfer_triples(store, seed_sets[pair], epoch)
                                for pair in sorted(seed_sets)):
                expected += passed
            assert added == expected
            assert as_sets(reference_store(multikg)) == as_sets(store)
