import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointkg import diff
from jointkg.diff import EdgeList
from jointkg.kgdata import Kg, MultiKg, RelationVocab
from jointkg.rgnn import EncoderParams, build_edges, encode, layer_forward

from .util import (
    append_transferred,
    const_mlp,
    held_arrays,
    identity_mlp,
    manual_encoder,
    pack_params,
    reference_build_edges,
    rewire_encoder,
    single_kg,
    weight_mlp,
)


def chain_graph(length, relation=0):
    return single_kg([(i, relation, i + 1) for i in range(length - 1)])


def star_update(leaves, center=None, relation0=None, relations=None, **blocks):
    """What layer_forward adds to center 0 of a star whose leaf i (entity
    i + 1) hangs off relations[i]: the attention-weighted sum of the
    center's messages, read through an identity g."""
    leaves = np.asarray(leaves, dtype=np.float64)
    dim = leaves.shape[1]
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=np.float64)
    relations = relations or [0] * len(leaves)
    if relation0 is None:
        relation0 = np.zeros((max(relations) + 1, dim))
    multikg = single_kg([(0, r, i + 1) for i, r in enumerate(relations)])
    params = manual_encoder(1, dim, np.vstack([center, leaves]), relation0,
                            g=lambda k: identity_mlp(dim), **blocks)
    entity, _ = layer_forward(build_edges(multikg), params.entity0, params.relation0,
                              params, 0)
    return entity.values[0] - center


class TestMessage:
    def test_zero_composition_returns_neighbor(self):
        out = star_update([[1.0, 2.0]], relation0=np.array([[9.0, -9.0]]))
        assert out.tolist() == [1.0, 2.0]

    def test_forced_composition_hand_value(self):
        out = star_update([[1.0, 2.0]], relation0=np.array([[3.0, 4.0]]),
                          comp=lambda k: const_mlp(2, [0.5, 0.5]))
        assert out.tolist() == [0.5, 1.5]

    def test_equal_relations_give_equal_messages(self):
        # centers 0 and 1 see equal neighbors (2 and 3) over the same relation
        rng = np.random.default_rng(0)
        params = EncoderParams.create(1, 4, 4, 2, rng)
        params.entity0.values[1] = params.entity0.values[0]
        params.entity0.values[3] = params.entity0.values[2]
        edges = build_edges(single_kg([(0, 1, 2), (1, 1, 3)]))
        entity, _ = layer_forward(edges, params.entity0, params.relation0, params, 0)
        assert np.array_equal(entity.values[0], entity.values[1])


class TestAttention:
    def test_single_neighbor_gets_weight_one(self):
        rng = np.random.default_rng(1)
        leaf = rng.normal(size=3)
        att_w = rng.normal(size=(6, 1))
        out = star_update([leaf], center=rng.normal(size=3), att=lambda k: weight_mlp(att_w))
        assert out == pytest.approx(leaf, abs=1e-12)

    def test_identical_messages_split_evenly(self):
        # the attention map reads the center and message coordinate 0 only,
        # which the two messages share, so their logits are identical
        rng = np.random.default_rng(2)
        att_w = rng.normal(size=(4, 1))
        att_w[3, 0] = 0.0
        out = star_update([[0.3, 1.0], [0.3, -3.0]], center=rng.normal(size=2),
                          att=lambda k: weight_mlp(att_w))
        assert out == pytest.approx([0.3, -1.0], abs=1e-12)

    def test_constructed_logits_give_quarter_three_quarters(self):
        # logits 0 and ln 3 via an attention map reading one message coordinate
        att_w = np.zeros((4, 1))
        att_w[3, 0] = np.log(3.0)
        out = star_update([[0.0, 0.0], [0.0, 1.0]], att=lambda k: weight_mlp(att_w))
        assert out == pytest.approx([0.0, 0.75], abs=1e-12)


@st.composite
def multi_kg_data(draw):
    """1-3 KGs over one relation vocabulary, with self-loops, reciprocal
    triples and transferred triples."""
    relation_count = draw(st.integers(1, 3))
    vocab = RelationVocab()
    for r in range(relation_count):
        vocab.intern(f"r{r}")
    kgs = []
    for k in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 7))
        kg = Kg(f"k{k}", vocab)
        for e in range(n):
            kg.intern_entity(f"e{e}")
        triple = st.tuples(st.integers(0, n - 1), st.integers(0, relation_count - 1),
                           st.integers(0, n - 1))
        for h, r, t in draw(st.lists(triple, max_size=12)):
            kg.add_triple(h, r, t)
            if draw(st.booleans()):
                kg.add_triple(t, r, h)
        for e, r in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, relation_count - 1)), max_size=3)):
            kg.add_triple(e, r, e)
        append_transferred(kg, draw(st.lists(triple, max_size=4)), epoch=1)
        kgs.append(kg)
    return MultiKg(kgs, vocab)


def assert_same_edges(got, want):
    assert got.num_entities == want.num_entities
    for name in ("centers", "neighbors", "relations"):
        fast, slow = getattr(got, name), getattr(want, name)
        assert fast.dtype == slow.dtype == np.int64
        assert np.array_equal(fast, slow), name


class TestBuildEdgesOracle:
    @settings(max_examples=150, deadline=None)
    @given(multi_kg_data())
    def test_equals_tagged_reference(self, multikg):
        assert_same_edges(build_edges(multikg), reference_build_edges(multikg))

    @settings(max_examples=50, deadline=None)
    @given(multi_kg_data(), st.data())
    def test_follows_transfers_and_their_removal(self, multikg, data):
        kg = multikg.kgs[-1]
        n = kg.entity_count
        build_edges(multikg)
        added = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.just(0),
                                             st.integers(0, n - 1)), min_size=1, max_size=4))
        before = kg.transferred, kg.transfer_epochs
        append_transferred(kg, added, epoch=2)
        assert_same_edges(build_edges(multikg), reference_build_edges(multikg))
        kg.set_transferred(*before)
        assert_same_edges(build_edges(multikg), reference_build_edges(multikg))


class TestLayerForward:
    def test_isolated_entity_is_g_of_self(self):
        e0 = np.array([[0.3, -0.6], [1.0, 2.0], [0.5, 0.25]])
        multikg = single_kg([(0, 0, 1)], entity_count=3)
        params = manual_encoder(1, 2, e0, np.zeros((1, 2)))
        entity, _ = layer_forward(build_edges(multikg), params.entity0, params.relation0,
                                  params, 0)
        assert entity.values[2] == pytest.approx(np.tanh(e0[2]))

    def test_one_neighbor_zero_composition_identity_g_is_neighbor_plus_self(self):
        e0 = np.array([[1.0, 2.0], [10.0, 20.0]])
        multikg = single_kg([(0, 0, 1)])
        params = manual_encoder(1, 2, e0, np.zeros((1, 2)), g=lambda k: identity_mlp(2))
        entity, _ = layer_forward(build_edges(multikg), params.entity0, params.relation0,
                                  params, 0)
        assert entity.values[0] == pytest.approx(e0[1] + e0[0])
        assert entity.values[1] == pytest.approx(e0[0] + e0[1])

    def test_identity_relation_mlp_keeps_relations(self):
        r0 = np.array([[0.5, -0.5], [2.0, 3.0]])
        multikg = single_kg([(0, 0, 1), (1, 1, 2)])
        params = manual_encoder(1, 2, np.zeros((3, 2)), r0, rel=lambda k: identity_mlp(2))
        _, relation = layer_forward(build_edges(multikg), params.entity0, params.relation0,
                                    params, 0)
        assert np.array_equal(relation.values, r0)


class TestEdgelessGraph:
    """Without edges the attended sum is the zero table, so one layer and the
    whole encoder are g(e) (and the relation MLPs) bitwise, in values and in
    the entity gradient."""

    @pytest.mark.parametrize("relation_aware", [True, False])
    def test_layer_and_encode_equal_g_of_e(self, relation_aware):
        rng = np.random.default_rng(11)
        empty = np.empty(0, dtype=np.int64)
        edges = EdgeList(empty, empty, empty, num_entities=5)
        params = EncoderParams.create(2, 4, 5, 2, rng, relation_aware=relation_aware)
        probe = diff.tensor(rng.normal(size=(5, 4)))

        def run(tables):
            for p in params.parameters():
                p.grad = None
            entity, relation = tables()
            diff.backward(diff.add(diff.sum_all(diff.mul(entity, probe)),
                                   diff.sum_all(relation)))
            return [entity.values, relation.values, params.entity0.grad]

        e0, r0 = params.entity0, params.relation0
        g, rel = params.g, params.rel
        one_layer = run(lambda: layer_forward(edges, e0, r0, params, 0))
        if relation_aware:
            # zero gradients, not None: Adam then leaves these parameters be
            for block in (params.comp[0], params.att[0]):
                assert all(not p.grad.any() for p in block.parameters())
        for got, want in zip(one_layer, run(lambda: (g[0](e0), rel[0](r0)))):
            assert got.tobytes() == want.tobytes()

        def encoded():
            layers = encode(edges, params)
            return layers.entities[-1], layers.relations[-1]

        for got, want in zip(run(encoded), run(lambda: (g[1](g[0](e0)), rel[1](rel[0](r0))))):
            assert got.tobytes() == want.tobytes()


class TestEncode:
    def test_k0_returns_only_initial_tables(self):
        multikg = single_kg([(0, 0, 1)])
        e0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        params = manual_encoder(0, 2, e0, np.zeros((1, 2)))
        layers = encode(build_edges(multikg), params)
        assert layers.layer_count == 0
        assert np.array_equal(layers.entities[0].values, e0)

    def test_chain_with_zero_mlps_matches_hand_iteration(self):
        rng = np.random.default_rng(3)
        e0 = rng.normal(size=(3, 2))
        gw = rng.normal(size=(2, 2))
        multikg = chain_graph(3)
        params = manual_encoder(2, 2, e0, np.zeros((1, 2)),
                                g=lambda k: weight_mlp(gw, activation="tanh"))
        layers = encode(build_edges(multikg), params)

        # zero comp -> message = neighbor; zero att -> uniform weights
        neighbors = {0: [1], 1: [0, 2], 2: [1]}
        current = e0.copy()
        for _ in range(2):
            nxt = np.zeros_like(current)
            for e, nbrs in neighbors.items():
                agg = sum(current[n] / len(nbrs) for n in nbrs)
                nxt[e] = np.tanh((agg + current[e]) @ gw)
            current = nxt
        assert layers.entities[2].values == pytest.approx(current, abs=1e-12)

    def test_identity_fusion_hook_changes_nothing(self):
        rng = np.random.default_rng(4)
        multikg = single_kg([(0, 0, 1), (1, 1, 2), (2, 0, 0)])
        params = EncoderParams.create(2, 4, 3, 2, rng)
        plain = encode(build_edges(multikg), params)
        hooked = encode(build_edges(multikg), params, fusion_hook=lambda e, r, k: (e, r))
        for a, b in zip(plain.entities, hooked.entities):
            assert np.array_equal(a.values, b.values)

    def test_fusion_hook_applied_at_every_layer(self):
        calls = []
        multikg = single_kg([(0, 0, 1)])
        params = EncoderParams.create(2, 3, 2, 1, np.random.default_rng(5))

        def hook(e, r, k):
            calls.append(k)
            return e, r

        encode(build_edges(multikg), params, fusion_hook=hook)
        assert calls == [0, 1, 2]


class TestTapeMemory:
    @pytest.mark.parametrize("relation_aware", [True, False])
    def test_tape_holds_no_per_edge_float_matrix(self, relation_aware):
        rng = np.random.default_rng(13)
        triples = sorted({(int(rng.integers(9)), int(rng.integers(2)), int(rng.integers(9)))
                          for _ in range(20)})
        edges = build_edges(single_kg(triples, entity_count=9))
        dim = 4
        assert edges.count not in (9, 2, dim, 2 * dim, 1)
        params = EncoderParams.create(2, dim, 9, 2, rng, relation_aware=relation_aware)
        layers = encode(edges, params)
        nodes = {id(node): node for table in layers.entities + layers.relations
                 for node in diff._topo(table)}
        for node in nodes.values():
            for array in held_arrays(node):
                if (array.ndim == 2 and array.dtype == np.float64
                        and array.shape[0] == edges.count):
                    raise AssertionError(f"{node!r} holds a {array.shape} float64 array")
        assert sum(node._op == "neighbor_attention" for node in nodes.values()) == 2


class TestInvariants:
    def test_attention_weights_sum_to_one_per_entity(self):
        rng = np.random.default_rng(6)
        triples = sorted({(int(rng.integers(6)), int(rng.integers(2)), int(rng.integers(6)))
                          for _ in range(12)})
        multikg = single_kg(triples, entity_count=6)
        edges = build_edges(multikg)
        params = EncoderParams.create(1, 4, 6, 2, rng)
        composed = params.comp[0](params.relation0)
        messages = diff.sub(diff.gather_rows(params.entity0, edges.neighbors),
                            diff.gather_rows(composed, edges.relations))
        logits = diff.reshape(
            params.att[0](diff.concat([diff.gather_rows(params.entity0, edges.centers),
                                       messages], axis=1)), (edges.count,))
        weights = diff.segment_softmax(logits, edges.centers, edges.num_entities).values
        sums = np.zeros(edges.num_entities)
        np.add.at(sums, edges.centers, weights)
        touched = np.unique(edges.centers)
        assert np.allclose(sums[touched], 1.0, atol=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        n, entities = 3, 5
        triples = [(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 4), (4, 0, 0)]
        perm = rng.permutation(entities)
        e0 = rng.normal(size=(entities, n))
        r0 = rng.normal(size=(2, n))
        params = EncoderParams.create(2, n, entities, 2, np.random.default_rng(8))
        params.entity0.values[:] = e0
        params.relation0.values[:] = r0
        base = encode(build_edges(single_kg(triples)), params).entities[2].values

        permuted_triples = [(int(perm[h]), r, int(perm[t])) for h, r, t in triples]
        params.entity0.values[:] = e0[np.argsort(perm)]
        permuted = encode(build_edges(single_kg(permuted_triples)), params).entities[2].values
        # relabeled entity perm[e] must carry exactly the embedding of e
        assert permuted[perm] == pytest.approx(base, abs=1e-12)

    def test_graph_locality_beyond_k_hops(self):
        rng = np.random.default_rng(9)
        multikg = chain_graph(5)
        params = EncoderParams.create(2, 3, 5, 1, rng)
        before = encode(build_edges(multikg), params).entities[2].values[0].copy()
        params.entity0.values[4] += 10.0
        after = encode(build_edges(multikg), params).entities[2].values[0]
        assert np.array_equal(before, after)

    def test_changing_k_minus_one_hop_entity_does_change_output(self):
        rng = np.random.default_rng(10)
        multikg = chain_graph(5)
        params = EncoderParams.create(2, 3, 5, 1, rng)
        before = encode(build_edges(multikg), params).entities[2].values[0].copy()
        params.entity0.values[2] += 10.0
        after = encode(build_edges(multikg), params).entities[2].values[0]
        assert not np.array_equal(before, after)

    def test_full_k2_encoder_gradient_check(self):
        rng = np.random.default_rng(11)
        triples = [(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 4), (4, 0, 5), (5, 1, 0)]
        multikg = single_kg(triples)
        edges = build_edges(multikg)
        params = EncoderParams.create(2, 3, 6, 2, rng)
        probe_target = rng.normal(size=(6, 3))
        flat, rebuild = pack_params(params.parameters())

        def functional(t):
            stand_ins = rebuild(t)
            encoder = rewire_encoder(params, stand_ins)
            layers = encode(edges, encoder)
            return diff.sum_all(diff.mul(layers.entities[2], diff.tensor(probe_target)))

        assert diff.grad_check(functional, flat, step=1e-5) < 1e-4


class TestAblation:
    def test_without_relation_awareness_messages_are_neighbors(self):
        out = star_update([[1.0, 2.0]], relation0=np.array([[5.0, 5.0]]),
                          comp=lambda k: const_mlp(2, [0.5, 0.5]), relation_aware=False)
        assert out.tolist() == [1.0, 2.0]

    def test_without_relation_awareness_weights_are_uniform(self):
        rng = np.random.default_rng(12)
        leaves = rng.normal(size=(4, 3))
        out = star_update(leaves, center=rng.normal(size=3),
                          att=lambda k: weight_mlp(rng.normal(size=(6, 1))),
                          relation_aware=False)
        assert out == pytest.approx(leaves.mean(axis=0), abs=1e-12)

    def test_uniform_weights_in_layer_forward(self):
        e0 = np.array([[1.0, 0.0], [0.0, 2.0], [4.0, 4.0]])
        multikg = single_kg([(0, 0, 1), (0, 1, 2)])
        params = manual_encoder(1, 2, e0, np.zeros((2, 2)), g=lambda k: identity_mlp(2),
                                relation_aware=False)
        entity, _ = layer_forward(build_edges(multikg), params.entity0, params.relation0,
                                  params, 0)
        assert entity.values[0] == pytest.approx((e0[1] + e0[2]) / 2 + e0[0])
