import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointkg import kgdata
from jointkg.errors import KgDataError, ParseError
from jointkg.kgdata import (
    Kg,
    MultiKg,
    RelationVocab,
    SeedSet,
    load_initial_vectors,
    load_multikg,
    parse_seeds,
    parse_triples,
    split_seeds,
)

from .util import kg_to_lines, reference_one_to_one, reference_split_overlap, write_kg


def write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_kg(kg_id, triples, relations=None):
    kg = Kg(kg_id, RelationVocab() if relations is None else relations)
    for h, r, t in triples:
        kg.add_triple(kg.intern_entity(h), kg.relations.intern(r), kg.intern_entity(t))
    return kg


class TestParseTriples:
    def test_self_loop_single_line(self, tmp_path):
        kg = parse_triples(write(tmp_path, "t.tsv", ["a\tr\ta"]), "xx")
        assert kg.entity_count == 1
        assert kg.relation_count == 1
        assert len(kg.triples) == 1
        assert kg.triples[0, 0] == kg.triples[0, 2] == 0

    def test_duplicate_line_dropped_and_counted(self, tmp_path):
        kg = parse_triples(write(tmp_path, "t.tsv", ["a\tr\tb", "a\tr\tb"]), "xx")
        assert len(kg.triples) == 1
        assert kg.duplicate_count == 1

    def test_first_occurrence_of_a_duplicate_keeps_its_place(self, tmp_path):
        lines = ["a\tr\tb", "c\tr\td", "a\tr\tb", "b\ts\ta", "c\tr\td"]
        kg = parse_triples(write(tmp_path, "t.tsv", lines), "xx")
        assert kg.loaded.tolist() == [[0, 0, 1], [2, 0, 3], [1, 1, 0]]
        assert kg.duplicate_count == 2

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write(tmp_path, "t.tsv", ["a\tr\tb", "broken line"])
        with pytest.raises(ParseError, match=r":2:"):
            parse_triples(path, "xx")

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(KgDataError, match="empty triple file"):
            parse_triples(path, "xx")

    def test_ids_are_first_seen_order(self, tmp_path):
        kg = parse_triples(write(tmp_path, "t.tsv", ["b\tr\ta", "a\ts\tc"]), "xx")
        assert kg.entity_labels == ["b", "a", "c"]
        assert kg.relations.labels == ["r", "s"]

    def test_shared_relation_vocab_is_global(self, tmp_path):
        vocab = RelationVocab()
        kg1 = parse_triples(write(tmp_path, "t1.tsv", ["a\tr\tb"]), "k1", vocab)
        kg2 = parse_triples(write(tmp_path, "t2.tsv", ["x\tr\ty", "x\ts\ty"]), "k2", vocab)
        assert kg1.triples[0, 1] == kg2.triples[0, 1]
        assert len(vocab) == 2


class TestRoundTrip:
    def test_serialize_then_reparse_is_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = []
        seen = set()
        for _ in range(60):
            h, t = rng.integers(0, 12, size=2)
            r = rng.integers(0, 4)
            line = f"e{h}\trel{r}\te{t}"
            if line not in seen:
                seen.add(line)
                lines.append(line)
        kg = parse_triples(write(tmp_path, "t.tsv", lines), "xx")
        out = tmp_path / "again.tsv"
        write_kg(kg, out)
        kg2 = parse_triples(out, "xx")
        assert kg2.entity_labels == kg.entity_labels
        assert kg2.relations.labels == kg.relations.labels
        assert kg2.triples.tolist() == kg.triples.tolist()
        assert kg_to_lines(kg2) == kg_to_lines(kg)


def neighbors_of(index, center):
    """(neighbor, relation) set of one center in a neighbor_index array."""
    return {(n, r) for c, n, r in index.tolist() if c == center}


class TestNeighborIndex:
    def test_matches_set_definition_in_both_directions(self):
        kg = make_kg("xx", [("a", "r", "b"), ("c", "r", "a"), ("a", "s", "a")])
        index = kg.neighbor_index()
        a, b, c = 0, 1, 2
        assert index.dtype == np.int64 and index.shape == (5, 3)
        assert neighbors_of(index, a) == {(b, 0), (c, 0), (a, 1)}
        assert neighbors_of(index, b) == {(a, 0)}
        assert neighbors_of(index, c) == {(a, 0)}

    def test_symmetry_property(self):
        rng = np.random.default_rng(11)
        triples = {(f"e{rng.integers(8)}", f"r{rng.integers(3)}", f"e{rng.integers(8)}")
                   for _ in range(40)}
        kg = make_kg("xx", sorted(triples))
        index = kg.neighbor_index()
        for e, neighbor, relation in index.tolist():
            either_direction = kg.has_triple(e, relation, neighbor) or kg.has_triple(
                neighbor, relation, e
            )
            assert either_direction
            assert (e, relation) in neighbors_of(index, neighbor)

    def test_duplicate_direction_entries_are_merged(self):
        kg = make_kg("xx", [("a", "r", "b"), ("b", "r", "a")])
        assert kg.neighbor_index().tolist() == [[0, 1, 0], [1, 0, 0]]


class TestParseSeeds:
    def test_all_resolvable(self, tmp_path):
        left = make_kg("aa", [(f"x{i}", "r", f"x{(i + 1) % 10}") for i in range(10)])
        right = make_kg("bb", [(f"y{i}", "r", f"y{(i + 1) % 10}") for i in range(10)])
        path = write(tmp_path, "s.tsv", [f"x{i}\ty{i}" for i in range(10)])
        seeds, skipped = parse_seeds(path, left, right)
        assert len(seeds) == 10
        assert skipped == 0
        assert set(seeds.provenance) == {"given"}

    def test_unknown_label_is_skipped_with_count(self, tmp_path):
        left = make_kg("aa", [("x0", "r", "x1")])
        right = make_kg("bb", [("y0", "r", "y1")])
        path = write(tmp_path, "s.tsv", ["x0\ty0", "nope\ty1"])
        seeds, skipped = parse_seeds(path, left, right)
        assert len(seeds) == 1
        assert skipped == 1

    def test_repeated_entity_errors(self, tmp_path):
        left = make_kg("aa", [("x0", "r", "x1")])
        right = make_kg("bb", [("y0", "r", "y1")])
        path = write(tmp_path, "s.tsv", ["x0\ty0", "x0\ty1"])
        with pytest.raises(KgDataError, match="repeated"):
            parse_seeds(path, left, right)


class TestSplitSeeds:
    def make(self, n):
        return kgdata.SeedSet(("aa", "bb"), [(i, i) for i in range(n)], ["given"] * n)

    def test_even_split(self):
        train, test = split_seeds(self.make(100), rng_seed=3)
        assert (len(train), len(test)) == (50, 50)
        assert set(map(tuple, train.pairs.tolist())).isdisjoint(map(tuple, test.pairs.tolist()))
        assert len(train.pairs) + len(test.pairs) == 100

    def test_deterministic(self):
        a = split_seeds(self.make(40), rng_seed=9)
        b = split_seeds(self.make(40), rng_seed=9)
        assert [s.pairs.tolist() for s in a] == [s.pairs.tolist() for s in b]

    def test_odd_count_floors_train_side(self):
        train, test = split_seeds(self.make(7), rng_seed=1)
        assert (len(train), len(test)) == (3, 4)

    def test_too_few_pairs_errors(self):
        with pytest.raises(KgDataError, match="at least 2"):
            split_seeds(self.make(1), rng_seed=0)

    def test_sizes_add_up_to_file_line_count(self, tmp_path):
        # independent recount of the seed file against the split sizes
        left = make_kg("aa", [(f"x{i}", "r", f"x{i+1}") for i in range(30)])
        right = make_kg("bb", [(f"y{i}", "r", f"y{i+1}") for i in range(30)])
        path = write(tmp_path, "s.tsv", [f"x{i}\ty{i}" for i in range(25)])
        line_count = len(path.read_text().splitlines())
        seeds, skipped = parse_seeds(path, left, right)
        train, test = split_seeds(seeds, rng_seed=17)
        assert len(train) + len(test) + skipped == line_count


class TestInitialVectors:
    def build(self):
        vocab = RelationVocab()
        kg = make_kg("aa", [("a", "r", "b"), ("b", "r", "c")], vocab)
        return MultiKg([kg], vocab)

    def test_full_coverage(self, tmp_path):
        m = self.build()
        path = write(tmp_path, "v.tsv", [f"{label} " + " ".join(["0.5"] * 4)
                                         for label in ("a", "b", "c", "r")])
        counts = load_initial_vectors(path, m)
        assert counts["covered_entities"] == 3
        assert counts["covered_relations"] == 1
        assert m.vector_dim == 4

    def test_missing_entity_left_for_random_init(self, tmp_path):
        m = self.build()
        path = write(tmp_path, "v.tsv", ["a 1.0 2.0"])
        load_initial_vectors(path, m)
        assert list(m.entity_vectors) == [0]
        assert np.array_equal(m.entity_vectors[0], [1.0, 2.0])

    def test_dimension_mismatch_errors(self, tmp_path):
        m = self.build()
        path = write(tmp_path, "v.tsv", ["a 1.0 2.0", "b 1.0 2.0 3.0"])
        with pytest.raises(KgDataError, match="dimension"):
            load_initial_vectors(path, m)

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
    def test_non_finite_component_errors(self, tmp_path, component):
        m = self.build()
        path = write(tmp_path, "v.tsv", ["a 1.0 2.0", f"b {component} 0.5"])
        with pytest.raises(ParseError, match=r"v\.tsv:2: non-finite vector component"):
            load_initial_vectors(path, m)
        assert 1 not in m.entity_vectors

    def test_repeated_label_names_both_lines(self, tmp_path):
        m = self.build()
        path = write(tmp_path, "v.tsv", ["a 1.0 2.0", "b 1.0 2.0", "a\t3.0 4.0"])
        with pytest.raises(ParseError, match=r"v\.tsv:3: label 'a' repeats line 1"):
            load_initial_vectors(path, m)

    def test_absent_file_means_all_random_init(self):
        m = self.build()
        assert m.entity_vectors == {}
        assert m.relation_vectors == {}
        assert m.vector_dim is None

    def test_a_label_fills_its_global_row_in_every_kg_and_its_relation(self, tmp_path):
        # "x" is entity 1 of aa (rows 0-1), entity 0 of bb (rows 2-3) and
        # relation 1; the tab line and the space line parse alike
        vocab = RelationVocab()
        m = MultiKg([make_kg("aa", [("a", "r", "x")], vocab),
                     make_kg("bb", [("x", "x", "b")], vocab)], vocab)
        path = write(tmp_path, "v.tsv", ["x\t1.0 2.0", "b 3.0 4.0", "zz 5.0 6.0"])
        counts = load_initial_vectors(path, m)
        assert counts == {"covered_entities": 3, "covered_relations": 1, "unknown_labels": 1}
        assert sorted(m.entity_vectors) == [1, 2, 3]
        for row, vector in ((1, [1.0, 2.0]), (2, [1.0, 2.0]), (3, [3.0, 4.0])):
            assert np.array_equal(m.entity_vectors[row], vector)
        assert list(m.relation_vectors) == [1]
        assert np.array_equal(m.relation_vectors[1], [1.0, 2.0])


class TestMultiKg:
    def test_offsets_are_cumulative(self):
        vocab = RelationVocab()
        kg1 = make_kg("aa", [("a", "r", "b")], vocab)
        kg2 = make_kg("bb", [("x", "r", "y"), ("y", "r", "z")], vocab)
        m = MultiKg([kg1, kg2], vocab)
        assert m.entity_offset("aa") == 0
        assert m.entity_offset("bb") == 2
        assert m.total_entities == 5
        table = np.arange(5)[:, None] * 10
        left, right, off_l, off_r = m.pair_blocks(("bb", "aa"), table)
        assert (left.ravel().tolist(), right.ravel().tolist(), off_l, off_r) == (
            [20, 30, 40], [0, 10], 2, 0)

    def test_split_overlap_errors(self):
        vocab = RelationVocab()
        kg = make_kg("aa", [("a", "r", "b"), ("b", "r", "c")], vocab)
        m = MultiKg([kg], vocab)
        m.set_kgc_split("aa", "train", [(0, 0, 1)])
        with pytest.raises(KgDataError, match="overlap"):
            m.set_kgc_split("aa", "valid", [(0, 0, 1)])

    def test_splits_are_int64_rows(self):
        vocab = RelationVocab()
        m = MultiKg([make_kg("aa", [("a", "r", "b")], vocab)], vocab)
        assert m.kgc_splits["aa"]["test"].shape == (0, 3)
        m.set_kgc_split("aa", "train", [(0, 0, 1), (1, 0, 0)])
        split = m.kgc_splits["aa"]["train"]
        assert split.dtype == np.int64 and split.tolist() == [[0, 0, 1], [1, 0, 0]]

    def test_vocab_hash_changes_with_labels(self):
        vocab = RelationVocab()
        kg = make_kg("aa", [("a", "r", "b")], vocab)
        m = MultiKg([kg], vocab)
        vocab2 = RelationVocab()
        kg2 = make_kg("aa", [("a", "r", "c")], vocab2)
        m2 = MultiKg([kg2], vocab2)
        assert m.vocab_hash() != m2.vocab_hash()


class TestLoadMultiKg:
    def test_load_directory_layout(self, tmp_path):
        write(tmp_path, "triples_aa.tsv", ["a\tr\tb", "b\tr\tc", "c\ts\ta"])
        write(tmp_path, "triples_bb.tsv", ["x\tr\ty", "y\ts\tz", "z\tr\tx"])
        write(tmp_path, "seeds_aa_bb.tsv", ["a\tx", "b\ty"])
        write(tmp_path, "kgc_train_aa.tsv", ["a\tr\tb", "b\tr\tc"])
        write(tmp_path, "kgc_valid_aa.tsv", ["c\ts\ta"])
        m = load_multikg(tmp_path)
        assert [kg.id for kg in m.kgs] == ["aa", "bb"]
        assert ("aa", "bb") in m.seed_sets
        assert len(m.kgc_splits["aa"]["train"]) == 2
        assert len(m.kgc_splits["aa"]["valid"]) == 1
        assert len(m.relations) == 2

    def test_unknown_split_label_errors(self, tmp_path):
        write(tmp_path, "triples_aa.tsv", ["a\tr\tb"])
        write(tmp_path, "kgc_train_aa.tsv", ["a\tr\tzzz"])
        with pytest.raises(ParseError, match="unknown entity"):
            load_multikg(tmp_path)


class TestTransferredTriples:
    def test_sidecar_keeps_transfers_out_of_triple_file(self, tmp_path):
        kg = make_kg("aa", [("a", "r", "b")])
        kg.set_transferred([(1, 0, 0)], [3])
        write_kg(kg, tmp_path / "out.tsv")
        assert (tmp_path / "out.tsv").read_text() == "a\tr\tb\n"
        kgdata.write_transfer_sidecar(kg, tmp_path / "side.tsv")
        assert (tmp_path / "side.tsv").read_text() == "b\tr\ta\t3\n"

    def test_remove_transferred_only_touches_transfers(self):
        kg = make_kg("aa", [("a", "r", "b")])
        kg.set_transferred([(1, 0, 0)], [1])
        kg.set_transferred(np.empty((0, 3)), [])
        assert len(kg.triples) == 1
        assert kg.has_triple(0, 0, 1)
        assert not kg.has_triple(1, 0, 0)

    def test_transferred_rows_never_repeat_a_triple(self):
        kg = make_kg("aa", [("a", "r", "b")])
        with pytest.raises(KgDataError, match="repeat"):
            kg.set_transferred([(0, 0, 1)], [1])
        with pytest.raises(KgDataError, match="repeat"):
            kg.set_transferred([(1, 0, 0), (1, 0, 0)], [1, 2])
        kg.set_transferred([(1, 0, 0)], [1])
        assert not kg.add_triple(1, 0, 0)
        assert kg.loaded.tolist() == [[0, 0, 1]]
        assert kg.relation_count == 1

    def test_sidecar_orders_by_epoch_then_triple(self, tmp_path):
        kg = make_kg("aa", [("a", "r", "b"), ("b", "s", "c")])
        kg.set_transferred([(2, 1, 1), (1, 0, 0), (0, 1, 2)], [2, 1, 2])
        kgdata.write_transfer_sidecar(kg, tmp_path / "side.tsv")
        assert (tmp_path / "side.tsv").read_text() == "b\tr\ta\t1\na\ts\tc\t2\nc\ts\tb\t2\n"


ENTITY = st.integers(0, 4)
TRIPLE = st.tuples(ENTITY, st.integers(0, 1), ENTITY)


class TestVectorisedChecksOracle:
    """The np.unique checks raise exactly when the set loops they replaced
    (tests/util.py) find a repeat, with the same message."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(ENTITY, ENTITY), max_size=6))
    def test_one_to_one_matches_set_loop(self, pairs):
        if reference_one_to_one(pairs):
            seed_set = SeedSet(("aa", "bb"), pairs, [kgdata.GIVEN] * len(pairs))
            assert seed_set.pairs.dtype == np.int64
            assert seed_set.pairs.tolist() == [list(p) for p in pairs]
        else:
            with pytest.raises(KgDataError, match=r"seed set for \('aa', 'bb'\) reuses"):
                SeedSet(("aa", "bb"), pairs, [kgdata.GIVEN] * len(pairs))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(TRIPLE, max_size=4), st.lists(TRIPLE, max_size=4),
           st.lists(TRIPLE, max_size=4))
    def test_split_disjointness_matches_set_loop(self, train, valid, test):
        vocab = RelationVocab()
        kg = Kg("aa", vocab)
        for label in "abcde":
            kg.intern_entity(label)
        m = MultiKg([kg], vocab)
        splits = {"train": [], "valid": [], "test": []}
        for name, rows in (("train", train), ("valid", valid), ("test", test)):
            splits[name] = rows
            repeat = reference_split_overlap(splits)
            if repeat is None:
                m.set_kgc_split("aa", name, rows)
                assert m.kgc_splits["aa"][name].tolist() == [list(row) for row in rows]
            else:
                with pytest.raises(KgDataError, match=re.escape(
                        f"kgc splits for aa overlap on {repeat}")):
                    m.set_kgc_split("aa", name, rows)
                return
