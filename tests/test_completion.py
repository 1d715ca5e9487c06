import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointkg import diff
from jointkg.completion import (
    alignment_constraint_loss,
    completion_loss,
    ranking_loss,
    sample_negatives,
    score_all_tails,
)
from jointkg.errors import CompletionError
from jointkg.kgdata import triple_keys
from jointkg.rgnn import EncoderParams, LayerEmbeddings, build_edges, encode

from .util import (
    pack_params,
    reference_ranking_loss,
    reference_sample_negatives,
    score,
    score_batch,
    score_layer,
    single_kg,
)


def known_keys(triples, entity_count):
    """Sorted keys of `triples`, the form `sample_negatives` takes them in."""
    return np.unique(triple_keys(np.asarray(list(triples), dtype=np.int64), entity_count))


def layers_from_arrays(entity_tables, relation_tables, requires_grad=False):
    make = diff.param if requires_grad else diff.tensor
    return LayerEmbeddings([make(np.asarray(e, dtype=np.float64)) for e in entity_tables],
                           [make(np.asarray(r, dtype=np.float64)) for r in relation_tables])


class TestScoreLayer:
    def test_all_zero_vectors(self):
        z = diff.tensor(np.zeros((1, 3)))
        assert diff.sum_all(score_layer(z, z, z)).item() == 0.0

    def test_exact_translation(self):
        out = score_layer(diff.tensor([[1.0, 0.0]]), diff.tensor([[0.5, 0.5]]),
                          diff.tensor([[1.5, 0.5]]))
        assert diff.sum_all(out).item() == 0.0

    def test_hand_l1(self):
        out = score_layer(diff.tensor([[1.0, 0.0]]), diff.tensor([[0.0, 0.0]]),
                          diff.tensor([[0.0, 1.0]]))
        assert diff.sum_all(out).item() == -2.0


class TestScore:
    def test_k0_equals_single_layer(self):
        layers = layers_from_arrays([[[1.0, 0.0], [0.0, 1.0]]], [[[0.0, 0.0]]])
        assert score(0, 0, 1, layers).item() == -2.0

    def test_two_layers_sum(self):
        layers = layers_from_arrays(
            [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]],
            [[[0.0, 0.0]], [[0.0, 0.0]]],
        )
        # layer 0 scores 0, layer 1 scores -2
        assert score(0, 0, 1, layers).item() == -2.0

    def test_duplicated_layers_scale_linearly(self):
        table = [[0.3, -0.2], [0.9, 0.4]]
        rel = [[0.1, 0.1]]
        single = layers_from_arrays([table], [rel])
        triple = layers_from_arrays([table] * 3, [rel] * 3)
        assert score(0, 0, 1, triple).item() == pytest.approx(3 * score(0, 0, 1, single).item())

    def test_score_all_tails_matches_score(self):
        rng = np.random.default_rng(0)
        entities = [rng.normal(size=(4, 3)) for _ in range(3)]
        relations = [rng.normal(size=(2, 3)) for _ in range(3)]
        layers = layers_from_arrays(entities, relations)
        fast = score_all_tails([1], [0], entities, relations, offset=0, count=4)[0]
        for t in range(4):
            assert fast[t] == pytest.approx(score(1, 0, t, layers).item(), abs=1e-12)


class TestRankingLoss:
    def test_zero_when_margin_satisfied(self):
        layers = layers_from_arrays([[[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]]], [[[0.0, 0.0]]])
        positives = (np.array([0]), np.array([0]), np.array([1]))
        negatives = (np.array([0]), np.array([0]), np.array([2]), np.array([0]))
        assert ranking_loss(positives, negatives, 0.0, layers).item() == 0.0

    def test_single_pair_hand_value(self):
        # f(pos) = -1, f(neg) = -3, margin 5 -> 5 - (-1) + (-3) = 3
        layers = layers_from_arrays([[[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]], [[[0.0, 0.0]]])
        positives = (np.array([0]), np.array([0]), np.array([1]))
        negatives = (np.array([0]), np.array([0]), np.array([2]), np.array([0]))
        assert ranking_loss(positives, negatives, 5.0, layers).item() == pytest.approx(3.0)

    def test_negative_identical_to_positive_gives_margin_per_layer(self):
        table = [[0.4, 0.1], [0.2, 0.9]]
        rel = [[0.05, 0.0]]
        layers = layers_from_arrays([table, table, table], [rel, rel, rel])
        positives = (np.array([0]), np.array([0]), np.array([1]))
        negatives = (np.array([0]), np.array([0]), np.array([1]), np.array([0]))
        assert ranking_loss(positives, negatives, 5.0, layers).item() == pytest.approx(15.0)

    def test_mean_over_pairs(self):
        layers = layers_from_arrays([[[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]], [[[0.0, 0.0]]])
        positives = (np.array([0]), np.array([0]), np.array([1]))
        negatives = (np.array([0, 0]), np.array([0, 0]), np.array([2, 2]), np.array([0, 0]))
        single = ranking_loss(positives, (np.array([0]), np.array([0]), np.array([2]),
                                          np.array([0])), 5.0, layers).item()
        doubled = ranking_loss(positives, negatives, 5.0, layers).item()
        assert doubled == pytest.approx(single)

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        layers = layers_from_arrays([rng.normal(size=(5, 3))], [rng.normal(size=(2, 3))])
        positives = (np.array([0, 1]), np.array([0, 1]), np.array([2, 3]))
        negatives = (np.array([0, 1]), np.array([0, 1]), np.array([4, 0]), np.array([0, 1]))
        assert ranking_loss(positives, negatives, 2.0, layers).item() >= 0.0


class TestFusedRankingLoss:
    """`ranking_loss` (one `translation_l1` per layer) against the unfused
    per-layer gathers and `score_batch` calls of `reference_ranking_loss`."""

    @staticmethod
    def _encoder_case(seed, negatives_per_positive):
        rng = np.random.default_rng(seed)
        triples = sorted({(int(rng.integers(6)), int(rng.integers(3)), int(rng.integers(6)))
                          for _ in range(10)} | {(0, 0, 1), (2, 1, 2)})
        params = EncoderParams.create(2, 4, 6, 3, rng)
        edges = build_edges(single_kg(triples, entity_count=6))
        positives = triples[:6]
        batch = sample_negatives(positives, 6, known_keys(triples, 6), negatives_per_positive,
                                 rng)
        pos = np.asarray(positives, dtype=np.int64)
        return params, edges, (pos[:, 0], pos[:, 1], pos[:, 2]), tuple(batch)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.sampled_from([0.5, 2.0, 5.0]))
    def test_loss_bitwise_and_gradients_match_unfused(self, seed, m, gamma):
        results = []
        for loss_fn in (ranking_loss, reference_ranking_loss):
            params, edges, positives, negatives = self._encoder_case(seed, m)
            loss = loss_fn(positives, negatives, gamma, encode(edges, params))
            diff.backward(loss)
            results.append((loss.values, [p.grad for p in params.parameters()]))
        (fused, fused_grads), (unfused, unfused_grads) = results
        assert np.array_equal(fused, unfused)
        for got, want in zip(fused_grads, unfused_grads):
            assert (got is None) == (want is None)
            if got is not None:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_tape_holds_no_per_negative_float_matrix(self):
        params, edges, positives, negatives = self._encoder_case(3, 4)
        rows = {len(negatives[0]), len(positives[0]) + len(negatives[0])}
        layers = encode(edges, params)
        encoder_nodes = {id(node) for table in layers.entities + layers.relations
                         for node in diff._topo(table)}
        loss = ranking_loss(positives, negatives, 2.0, layers)
        scoring_nodes = 0
        for node in diff._topo(loss):
            if id(node) in encoder_nodes:
                continue
            held = [node.values]
            for cell in (node._grad_fn.__closure__ or ()) if node._grad_fn else ():
                held.append(cell.cell_contents)
            for array in held:
                if (isinstance(array, np.ndarray) and array.ndim == 2
                        and array.dtype == np.float64 and array.shape[0] in rows):
                    raise AssertionError(f"{node!r} holds a {array.shape} float64 array")
            scoring_nodes += node._op == "translation_l1"
        assert scoring_nodes == 3


class TestConstraintLoss:
    def test_identical_embeddings_give_zero(self):
        table = np.array([[1.0, 2.0], [1.0, 2.0]])
        layers = layers_from_arrays([table, table], [np.zeros((1, 2))] * 2)
        assert alignment_constraint_loss(np.array([[0, 1]]), layers).item() == pytest.approx(0.0)

    def test_orthogonal_pair_single_layer(self):
        layers = layers_from_arrays([[[1.0, 0.0], [0.0, 1.0]]], [[[0.0, 0.0]]])
        assert alignment_constraint_loss(np.array([[0, 1]]), layers).item() == pytest.approx(1.0)

    def test_two_pairs_two_layers_sum_of_four_terms(self):
        # each pair at cosine distance 0.25 on both layers -> 4 * 0.25 = 1.0
        v = np.array([0.75, np.sqrt(1 - 0.75 ** 2)])
        table = np.array([[1.0, 0.0], v.tolist(), [1.0, 0.0], v.tolist()])
        layers = layers_from_arrays([table, table], [np.zeros((1, 2))] * 2)
        pairs = np.array([[0, 1], [2, 3]])
        assert alignment_constraint_loss(pairs, layers).item() == pytest.approx(1.0)

    def test_empty_pairs_contribute_zero(self):
        layers = layers_from_arrays([[[1.0, 0.0]]], [[[0.0, 0.0]]])
        assert alignment_constraint_loss(np.zeros((0, 2), dtype=int), layers).item() == 0.0


class TestCompletionLoss:
    def test_zero_plus_zero(self):
        assert completion_loss(diff.tensor(np.zeros(())), diff.tensor(np.zeros(()))).item() == 0.0

    def test_sum(self):
        assert completion_loss(diff.tensor(np.asarray(3.0)),
                               diff.tensor(np.asarray(1.0))).item() == 4.0

    def test_gradient_is_sum_of_subloss_gradients(self):
        rng = np.random.default_rng(2)
        table = rng.normal(size=(4, 3))
        rel = rng.normal(size=(2, 3))
        positives = (np.array([0]), np.array([0]), np.array([1]))
        negatives = (np.array([0]), np.array([0]), np.array([2]), np.array([0]))
        pairs = np.array([[1, 3]])

        def grad_of(build):
            layers = layers_from_arrays([table], [rel], requires_grad=True)
            loss = build(layers)
            diff.backward(loss)
            return layers.entities[0].grad.copy()

        g_rank = grad_of(lambda l: ranking_loss(positives, negatives, 2.0, l))
        g_constraint = grad_of(lambda l: alignment_constraint_loss(pairs, l))
        g_total = grad_of(lambda l: completion_loss(
            ranking_loss(positives, negatives, 2.0, l), alignment_constraint_loss(pairs, l)))
        assert g_total == pytest.approx(g_rank + g_constraint, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(4, 3))
        rel = rng.normal(size=(2, 3))
        positives = (np.array([0, 2]), np.array([0, 1]), np.array([1, 3]))
        negatives = (np.array([3, 2]), np.array([0, 1]), np.array([1, 0]),
                     np.array([0, 1]))
        pairs = np.array([[0, 2]])
        flat, rebuild = pack_params([diff.param(table), diff.param(rel)])

        def functional(t):
            e, r = rebuild(t)
            layers = LayerEmbeddings([e], [r])
            return completion_loss(ranking_loss(positives, negatives, 2.0, layers),
                                   alignment_constraint_loss(pairs, layers))

        assert diff.grad_check(functional, flat, step=1e-5) < 1e-4


class TestScoredTriple:
    def test_total_is_sum_of_layer_scores(self):
        rng = np.random.default_rng(8)
        layers = layers_from_arrays([rng.normal(size=(4, 3)) for _ in range(3)],
                                    [rng.normal(size=(2, 3)) for _ in range(3)])
        tails = np.arange(4)
        per_layer = [score_batch(np.zeros(4, dtype=int), np.ones(4, dtype=int), tails, layers,
                                 k).values for k in range(3)]
        totals = score_all_tails([0], [1], layers.entity_values(), layers.relation_values(),
                                 offset=0, count=4)[0]
        assert totals == pytest.approx(sum(per_layer), abs=1e-12)
        assert totals[2] == pytest.approx(score(0, 1, 2, layers).item(), abs=1e-12)


class TestTranslationIdentity:
    def test_exact_translation_scores_zero_and_wins(self):
        rng = np.random.default_rng(4)
        tables, rels = [], []
        for _ in range(3):
            e = rng.normal(size=(5, 3))
            r = rng.normal(size=(1, 3))
            e[2] = e[0] + r[0]  # tail 2 = head 0 + relation
            tables.append(e)
            rels.append(r)
        layers = layers_from_arrays(tables, rels)
        assert score(0, 0, 2, layers).item() == pytest.approx(0.0, abs=1e-12)
        scores = score_all_tails([0], [0], tables, rels, 0, 5)[0]
        assert np.argmax(scores) == 2
        assert all(scores[t] < 0 for t in range(5) if t != 2)


class TestSampleNegatives:
    def test_tiny_kg_exhausts_retries(self):
        known = {(0, 0, 1), (1, 0, 1), (0, 0, 0)}
        with pytest.raises(CompletionError, match="retry budget"):
            sample_negatives([(0, 0, 1)], entity_count=2, known=known_keys(known, 2), m=1,
                             rng=np.random.default_rng(0))

    def test_exactly_m_negatives_per_positive(self):
        rng = np.random.default_rng(5)
        positives = [(0, 0, 1), (1, 0, 2)]
        h, r, t, pair_of = sample_negatives(positives, 10, known_keys(positives, 10), 5, rng)
        assert len(h) == 10
        assert np.array_equal(np.bincount(pair_of), [5, 5])

    def test_negatives_differ_in_exactly_one_slot(self):
        rng = np.random.default_rng(6)
        positives = [(0, 0, 1), (2, 1, 3)]
        h, r, t, pair_of = sample_negatives(positives, 8, known_keys(positives, 8), 4, rng)
        for i in range(len(h)):
            ph, pr, pt = positives[pair_of[i]]
            assert r[i] == pr
            head_changed = h[i] != ph
            tail_changed = t[i] != pt
            assert head_changed != tail_changed
            assert (h[i], r[i], t[i]) not in set(positives)

    def test_fixed_seed_reproduces_batches(self):
        positives = [(0, 0, 1), (1, 0, 2), (2, 0, 3)]
        known = known_keys(positives, 12)
        a = sample_negatives(positives, 12, known, 3, np.random.default_rng(7))
        b = sample_negatives(positives, 12, known, 3, np.random.default_rng(7))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_m_must_be_positive(self):
        with pytest.raises(CompletionError, match="at least one"):
            sample_negatives([(0, 0, 1)], 4, known_keys([], 4), 0, np.random.default_rng(0))


@st.composite
def negative_sampling_case(draw):
    """Positives over the first relations, known triples that add transferred
    rows and triples of relations no positive uses."""
    entity_count = draw(st.integers(2, 6))
    relation_count = draw(st.integers(1, 4))
    entity = st.integers(0, entity_count - 1)

    def triples(relations, **sizes):
        return st.lists(st.tuples(entity, st.integers(0, relations - 1), entity), **sizes)

    positives = draw(triples(draw(st.integers(1, relation_count)), min_size=1, max_size=8))
    transferred = draw(triples(relation_count, max_size=8))
    other = draw(triples(relation_count + 2, max_size=8))
    known = set(positives) | set(transferred) | set(other)
    return positives, entity_count, known, draw(st.integers(1, 4)), draw(st.integers(0, 999))


class TestSampleNegativesOracle:
    """`sample_negatives` on rows and sorted keys against the tuple-set
    sampler it replaced (`reference_sample_negatives`)."""

    @settings(max_examples=300, deadline=None)
    @given(negative_sampling_case())
    def test_batches_bitwise_equal_to_reference(self, case):
        positives, entity_count, known, m, seed = case
        outcomes = []
        for sampler, known_form in ((sample_negatives, known_keys(known, entity_count)),
                                    (reference_sample_negatives, known)):
            try:
                outcomes.append(tuple(sampler(np.asarray(positives), entity_count, known_form,
                                              m, np.random.default_rng(seed))))
            except CompletionError as error:
                outcomes.append(str(error))
        got, want = outcomes
        if isinstance(want, str):
            assert got == want
            return
        for fast, slow in zip(got, want):
            assert fast.dtype == slow.dtype == np.int64
            assert np.array_equal(fast, slow)
