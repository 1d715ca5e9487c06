import multiprocessing
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import distance

from jointkg import diff
from jointkg import evaluate as ev
from jointkg.completion import score_all_tails
from jointkg.errors import EvalError
from jointkg.evaluate import HITS_AT, aggregate, kga_rank, kgc_rank, pessimistic_rank
from jointkg.kgdata import load_multikg
from jointkg.synth import SynthSpec, generate, write_dataset

from .util import (append_transferred, reference_known_tails, reference_pessimistic_rank,
                   reference_score_all_tails, serial_cdist_scores, single_kg)


def brute_force_kgc_rank(scores, true_tail, filtered_tails):
    """Independent oracle: materialize candidates, sort descending with the
    true tail losing every tie, and locate it."""
    candidates = [(s, t) for t, s in enumerate(scores) if t == true_tail or t not in filtered_tails]
    ordering = sorted(candidates, key=lambda item: (-item[0], item[1] == true_tail))
    for position, (_, t) in enumerate(ordering, start=1):
        if t == true_tail:
            return position, len(ordering)
    raise AssertionError("true tail missing")


class TestKgcRank:
    def test_filtered_candidate_is_removed(self):
        # tails a, b, c score -1 > -2 > -3; (h, r, a) is known, test triple has tail b
        scores = np.array([-1.0, -2.0, -3.0])
        known = {(0, 0): {0, 1}}
        result = kgc_rank((0, 0, 1), 3, known, scores)
        assert result.rank == 1
        assert result.candidate_count == 2

    def test_highest_score_unfiltered_is_rank_one(self):
        scores = np.array([-5.0, -1.0, -2.0])
        result = kgc_rank((0, 0, 1), 3, {}, scores)
        assert result.rank == 1
        assert result.candidate_count == 3

    def test_all_ties_rank_last(self):
        scores = np.zeros(4)
        result = kgc_rank((0, 0, 2), 4, {}, scores)
        assert result.rank == 4
        assert result.candidate_count == 4

    def test_true_tail_never_filtered(self):
        scores = np.array([0.0, 1.0])
        known = {(0, 0): {1}}
        result = kgc_rank((0, 0, 1), 2, known, scores)
        assert result.rank == 1


class TestKgaRank:
    def test_identical_true_pair_orthogonal_decoys(self):
        sims = np.array([1.0, 0.0, 0.0])
        assert kga_rank(sims, 0).rank == 1

    def test_hand_ordering(self):
        sims = np.array([0.9, 0.95, 0.8])
        assert kga_rank(sims, 0).rank == 2

    def test_duplicate_of_true_vector_ranks_second(self):
        sims = np.array([0.9, 0.9, 0.1])
        assert kga_rank(sims, 0).rank == 2


class TestAggregate:
    def test_hand_mrr(self):
        metrics = aggregate([1, 2, 10])
        assert metrics["MRR"] == pytest.approx((1 + 0.5 + 0.1) / 3)
        assert metrics["MRR"] == pytest.approx(0.53333, abs=5e-6)

    def test_hits_at_one(self):
        assert aggregate([1, 2, 10])["Hits@1"] == pytest.approx(1 / 3)

    def test_all_rank_one(self):
        assert aggregate([1, 1, 1]) == {"MRR": 1.0, "Hits@1": 1.0, "Hits@10": 1.0}

    def test_empty_errors(self):
        with pytest.raises(EvalError, match="empty"):
            aggregate([])

    def test_hits_non_decreasing_and_mrr_bounds(self):
        rng = np.random.default_rng(0)
        ranks = [int(r) for r in rng.integers(1, 30, size=50)]
        metrics = aggregate(ranks)
        values = [metrics[f"Hits@{k}"] for k in HITS_AT]
        assert values == sorted(values)
        assert metrics["Hits@10"] == sum(rank <= 10 for rank in ranks) / len(ranks)
        assert 0.0 < metrics["MRR"] <= 1.0


class TestOracleEquivalence:
    def test_matches_brute_force_on_100_random_tiny_kgs(self):
        rng = np.random.default_rng(42)
        for case in range(100):
            entities = int(rng.integers(2, 13))
            scores = np.round(rng.normal(size=entities), 2)  # rounding forces ties
            true_tail = int(rng.integers(entities))
            others = [t for t in range(entities) if t != true_tail]
            rng.shuffle(others)
            filtered = set(others[: int(rng.integers(0, entities))])
            known = {(0, 0): filtered | {true_tail}}
            mine = kgc_rank((0, 0, true_tail), entities, known, scores)
            oracle_rank, oracle_count = brute_force_kgc_rank(scores, true_tail, filtered)
            assert (mine.rank, mine.candidate_count) == (oracle_rank, oracle_count), f"case {case}"

    def test_kga_matches_brute_force(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            count = int(rng.integers(2, 13))
            sims = np.round(rng.normal(size=count), 2)
            true_target = int(rng.integers(count))
            mine = kga_rank(sims, true_target)
            oracle_rank, _ = brute_force_kgc_rank(sims, true_target, set())
            assert mine.rank == oracle_rank

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pessimistic_rank_equals_reference_loop(self, data):
        # one-decimal scores force ties; NaN never counts as scoring higher
        score = st.one_of(st.floats(-2, 2).map(lambda x: round(x, 1)),
                          st.sampled_from([-0.0, np.nan]))
        scores = np.array(data.draw(st.lists(score, min_size=1, max_size=40)))
        true_index = data.draw(st.integers(0, scores.size - 1))
        excluded = data.draw(st.sets(st.integers(0, scores.size - 1)))
        expected = reference_pessimistic_rank(scores, true_index, excluded)
        got = pessimistic_rank(scores, true_index, excluded)
        assert got == expected
        assert all(type(value) is int for value in got)
        # the ranking filter passes the same tails as an int64 array
        assert pessimistic_rank(scores, true_index,
                                np.array(sorted(excluded), dtype=np.int64)) == expected


class TestMonotonicity:
    def test_adding_filtered_triple_never_increases_rank(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            entities = int(rng.integers(3, 12))
            scores = np.round(rng.normal(size=entities), 1)
            true_tail = int(rng.integers(entities))
            base = kgc_rank((0, 0, true_tail), entities, {(0, 0): {true_tail}}, scores)
            extra = int(rng.integers(entities))
            widened = kgc_rank((0, 0, true_tail), entities,
                               {(0, 0): {true_tail, extra}}, scores)
            assert widened.rank <= base.rank


class TestRankResult:
    def test_rank_bounds_enforced(self):
        with pytest.raises(EvalError):
            ev.RankResult(query=(0,), rank=5, candidate_count=4)


class TestWholeDatasetSweeps:
    def build(self):
        from .util import single_kg

        multikg = single_kg([(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 0)])
        multikg.set_kgc_split("xx", "train", [(0, 0, 1), (1, 0, 2)])
        multikg.set_kgc_split("xx", "valid", [(2, 0, 3)])
        multikg.set_kgc_split("xx", "test", [(3, 0, 0)])
        return multikg

    def test_evaluate_kgc_produces_metrics_per_kg(self):
        rng = np.random.default_rng(2)
        multikg = self.build()
        entities = [rng.normal(size=(4, 3)) for _ in range(2)]
        relations = [rng.normal(size=(1, 3)) for _ in range(2)]
        results = ev.evaluate_kgc(multikg, entities, relations, split="test")
        assert set(results) == {"xx"}
        assert {"MRR", "Hits@1", "Hits@10", "count"} <= set(results["xx"])

    def test_kga_scale_invariance(self):
        rng = np.random.default_rng(3)
        from jointkg.kgdata import Kg, MultiKg, RelationVocab, SeedSet

        vocab = RelationVocab()
        kg_a, kg_b = Kg("aa", vocab), Kg("bb", vocab)
        for i in range(4):
            kg_a.intern_entity(f"a{i}")
            kg_b.intern_entity(f"b{i}")
        vocab.intern("r0")
        kg_a.add_triple(0, 0, 1)
        kg_b.add_triple(0, 0, 1)
        multikg = MultiKg([kg_a, kg_b], vocab)
        finals = rng.normal(size=(8, 3))
        test_seeds = {("aa", "bb"): SeedSet(("aa", "bb"), [(0, 0), (1, 1)], ["given"] * 2)}
        base = ev.evaluate_kga(multikg, finals, test_seeds)
        scaled = finals.copy()
        scaled[4:] *= 11.0  # rescale one KG's block
        rescaled = ev.evaluate_kga(multikg, scaled, test_seeds)
        assert base == rescaled

    def test_results_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        multikg = self.build()
        entities = [rng.normal(size=(4, 3))]
        relations = [rng.normal(size=(1, 3))]
        kgc = ev.evaluate_kgc(multikg, entities, relations, split="test")
        summary = ev.write_results(tmp_path / "results.tsv", kgc, None)
        lines = (tmp_path / "results.tsv").read_text().splitlines()
        assert any(line.startswith("kgc\txx\tMRR\t") for line in lines)
        assert any(line.startswith("kgc\toverall\tMRR\t") for line in lines)
        assert "kgc" in summary


@st.composite
def scoring_cases(draw):
    """Random layer tables, 0-12 queries, a candidate block inside the
    entity table and a query block of 1-3 rows, so blocks split the queries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers, entities = draw(st.integers(1, 3)), draw(st.integers(1, 9))
    relations, dim = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    entity_values = [rng.normal(size=(entities, dim)) for _ in range(layers)]
    relation_values = [rng.normal(size=(relations, dim)) for _ in range(layers)]
    offset = draw(st.integers(0, entities - 1))
    count = draw(st.integers(1, entities - offset))
    queries = draw(st.integers(0, 12))
    heads = rng.integers(entities, size=queries)
    rels = rng.integers(relations, size=queries)
    block_bytes = draw(st.integers(1, 200))
    return heads, rels, entity_values, relation_values, offset, count, block_bytes


def reference_sweep(multikg, entity_values, relation_values, split):
    """evaluate_kgc's metrics from one reference score row per query."""
    results = {}
    for kg in multikg.kgs:
        if len(multikg.kgc_splits[kg.id][split]) == 0:
            continue
        offset = multikg.entity_offset(kg.id)
        known = reference_known_tails(multikg, kg.id)
        ranks = [kgc_rank((h, r, t), kg.entity_count, known,
                          reference_score_all_tails(offset + h, r, entity_values,
                                                    relation_values, offset,
                                                    kg.entity_count)).rank
                 for h, r, t in multikg.kgc_splits[kg.id][split]]
        results[kg.id] = dict(aggregate(ranks), count=float(len(ranks)))
    return results


class TestBatchedScoring:
    @settings(max_examples=200, deadline=None)
    @given(scoring_cases())
    def test_score_all_tails_equals_per_query_loop(self, case):
        heads, rels, entity_values, relation_values, offset, count, block_bytes = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diff, "BLOCK_BYTES", block_bytes)
            scores = score_all_tails(heads, rels, entity_values, relation_values, offset, count)
        assert scores.shape == (heads.size, count)
        for row, h, r in zip(scores, heads, rels):
            expected = reference_score_all_tails(h, r, entity_values, relation_values,
                                                 offset, count)
            assert np.max(np.abs(row - expected)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_evaluate_kgc_equals_per_query_sweep(self, tmp_path, seed):
        write_dataset(generate(SynthSpec(entity_count=60, missing_rate=0.2, rng_seed=seed)),
                      tmp_path)
        multikg = load_multikg(tmp_path)
        rng = np.random.default_rng(seed)
        entity_values = [rng.normal(size=(multikg.total_entities, 4)) for _ in range(3)]
        relation_values = [rng.normal(size=(len(multikg.relations), 4)) for _ in range(3)]
        for split in ("valid", "test"):
            assert (ev.evaluate_kgc(multikg, entity_values, relation_values, split=split)
                    == reference_sweep(multikg, entity_values, relation_values, split))


@contextmanager
def row_pool(workers: int, block_bytes: int | None = None):
    """`diff.pooled_rows` on `workers` cores, sending ranges of any size to
    threads (and under a `BLOCK_BYTES` budget, if given)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diff, "_cores", lambda: workers)
        patch.setattr(diff, "_POOL_MIN_SLICE", 1)
        if block_bytes is not None:
            patch.setattr(diff, "BLOCK_BYTES", block_bytes)
        yield


def recorded_rows(count: int, width: int, meet: int = 1):
    """(start, stop, buffer shape, buffer base, thread name) of every call
    `diff.pooled_rows(count, width, ...)` makes, in row order. Each thread's
    first call waits until `meet` threads have made theirs."""
    calls, lock, first = [], threading.Lock(), threading.local()
    barrier = threading.Barrier(meet)

    def work(rows, buffer):
        if not hasattr(first, "met"):
            first.met = barrier.wait(timeout=30)
        with lock:
            calls.append((rows.start, rows.stop, buffer.shape, id(buffer.base),
                          threading.current_thread().name))

    diff.pooled_rows(count, width, work)
    return sorted(calls)


def small_sweep(queries: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    entity_values = [rng.normal(size=(7, 4)) for _ in range(2)]
    relation_values = [rng.normal(size=(2, 4)) for _ in range(2)]
    return rng.integers(7, size=queries), rng.integers(2, size=queries), entity_values, \
        relation_values, 1, 6


def _score_in_child(case):
    # the target of a forked child: exit 0 on an exact score
    scores = score_all_tails(*case)
    raise SystemExit(0 if scores.tobytes() == serial_cdist_scores(*case).tobytes() else 1)


class TestPooledScoring:
    @settings(max_examples=200, deadline=None)
    @given(scoring_cases(), st.integers(1, 3))
    def test_any_pool_equals_the_serial_cdist_loop_bit_for_bit(self, case, workers):
        """0-12 queries over 1-3 threads under budgets of 0-25 rows: no
        query, one, fewer than the threads and many slices per range."""
        *sweep, block_bytes = case
        with row_pool(workers, block_bytes):
            scores = score_all_tails(*sweep)
        assert scores.tobytes() == serial_cdist_scores(*sweep).tobytes()

    def test_equal_ranges_fill_one_buffer_each_on_one_thread_each(self):
        # a budget of 7 rows of 10 makes 3 ranges of 7, 7 and 6 rows, each
        # filling a buffer of 7 // 3 = 2 rows on its own thread, all at once
        with row_pool(3, block_bytes=8 * 10 * 7):
            calls = recorded_rows(20, 10, meet=3)
        assert [(start, stop) for start, stop, *_ in calls] == [
            (0, 2), (2, 4), (4, 6), (6, 7), (7, 9), (9, 11), (11, 13), (13, 14),
            (14, 16), (16, 18), (18, 20)]
        assert all(shape == (stop - start, 10) for start, stop, shape, *_ in calls)
        ranges = [calls[0:4], calls[4:8], calls[8:11]]
        for part in ranges:
            assert len({(base, name) for *_, base, name in part}) == 1
        assert len({part[0][-1] for part in ranges}) == 3
        assert all(name.startswith("jointkg-rows") for *_, name in calls)

    def test_no_row_thread_outlives_the_call(self):
        with row_pool(2):
            calls = recorded_rows(40, 3)
        assert {name for *_, name in calls} != {threading.current_thread().name}
        assert not [t for t in threading.enumerate() if t.name.startswith("jointkg-rows")]

    def test_a_budget_of_one_row_runs_inline(self):
        # three ranges would hold three one-row buffers, three times the budget
        with row_pool(3, block_bytes=8 * 10):
            calls = recorded_rows(5, 10)
        assert [(start, stop, shape) for start, stop, shape, *_ in calls] == [
            (row, row + 1, (1, 10)) for row in range(5)]
        assert {name for *_, name in calls} == {threading.current_thread().name}

    def test_one_core_runs_inline(self):
        with row_pool(1):
            calls = recorded_rows(50, 4)
        assert [(start, stop, name) for start, stop, _, _, name in calls] == [
            (0, 50, threading.current_thread().name)]

    def test_an_error_in_a_slice_reaches_the_caller_and_the_pool_survives(self, monkeypatch):
        sweep = small_sweep(3)  # two threads: slices of rows 0-1 and of row 2
        cdist = distance.cdist

        def second_slice_fails(queries, candidates, metric, out):
            if len(queries) == 1:
                raise ValueError("second slice")
            return cdist(queries, candidates, metric, out=out)

        with row_pool(2):
            monkeypatch.setattr(distance, "cdist", second_slice_fails)
            with pytest.raises(ValueError, match="second slice"):
                score_all_tails(*sweep)
            monkeypatch.setattr(distance, "cdist", cdist)
            scores = score_all_tails(*sweep)
        assert scores.tobytes() == serial_cdist_scores(*sweep).tobytes()

    def test_a_forked_child_scores_after_the_parent_used_the_pool(self):
        sweep = small_sweep(5)
        with row_pool(2):
            score_all_tails(*sweep)
            child = multiprocessing.get_context("fork").Process(target=_score_in_child,
                                                                args=(sweep,))
            child.start()
            child.join(timeout=60)
            hung = child.is_alive()
            if hung:
                child.kill()
                child.join()
        assert not hung and child.exitcode == 0


@st.composite
def filter_cases(draw):
    """One KG of 2-8 entities and 1-3 relations whose triples fall in the
    three kgc splits, heads from a few ids so (h, r) queries repeat, and
    transferred triples the KG lacks; 0/1 layer values tie many scores."""
    n, relations = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    triple = st.tuples(st.integers(0, min(n, 3) - 1), st.integers(0, relations - 1),
                       st.integers(0, n - 1))
    triples = draw(st.lists(triple, min_size=1, max_size=30, unique=True))
    triples.append((0, relations - 1, 0))  # every relation id enters the vocabulary
    triples = list(dict.fromkeys(triples))
    multikg = single_kg(triples, entity_count=n)
    splits = [draw(st.sampled_from(["train", "valid", "test"])) for _ in triples]
    for split in ("train", "valid", "test"):
        multikg.set_kgc_split("xx", split, [t for t, s in zip(triples, splits) if s == split])
    others = [(h, r, t) for h in range(n) for r in range(relations) for t in range(n)
              if (h, r, t) not in triples]
    if others:
        rows = draw(st.lists(st.sampled_from(others), max_size=10))
        append_transferred(multikg.kgs[0], rows, epoch=1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers, dim = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    entity_values = [rng.integers(2, size=(n, dim)).astype(np.float64) for _ in range(layers)]
    relation_values = [rng.integers(2, size=(relations, dim)).astype(np.float64)
                       for _ in range(layers)]
    return multikg, entity_values, relation_values


class TestRankingFilter:
    @settings(max_examples=200, deadline=None)
    @given(filter_cases())
    def test_evaluate_kgc_equals_dict_of_sets_oracle(self, case):
        """The sorted-key filter ranks as the (h, r) -> tails dict does, on
        tie-heavy scores, with transferred triples kept out of the filter."""
        multikg, entity_values, relation_values = case
        for split in ("train", "valid", "test"):
            assert (ev.evaluate_kgc(multikg, entity_values, relation_values, split=split)
                    == reference_sweep(multikg, entity_values, relation_values, split))
