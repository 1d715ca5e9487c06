import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jointkg import diff
from jointkg.alignment import (
    FusionParams,
    alignment_loss,
    final_embeddings,
    make_fusion_hook,
)
from jointkg.completion import alignment_constraint_loss, completion_loss, ranking_loss
from jointkg.errors import DiffError
from jointkg.rgnn import EdgeList, EncoderParams, build_edges, encode, layer_forward

from .util import (
    reference_adam_step,
    reference_affine,
    reference_backward,
    reference_alignment_loss,
    reference_cosine_distance,
    reference_layer_forward,
    reference_scatter_plan,
    reference_translation_l1,
    score_layer,
    single_kg,
)

TOL = 1e-4
STEP = 1e-5


def away_from_kinks(x, margin=1e-3):
    """Push coordinates of x away from 0 so L1/LeakyReLU stay differentiable."""
    x = np.asarray(x, dtype=np.float64).copy()
    tiny = np.abs(x) < margin
    x[tiny] = margin * np.where(x[tiny] >= 0, 1.0, -1.0) * 2.0
    return x


def test_tanh_at_zero():
    assert diff.tanh(diff.tensor(np.zeros(3))).values.tolist() == [0.0, 0.0, 0.0]


def test_cosine_distance_identical_vectors():
    table = diff.tensor(np.array([[0.3, -1.2, 2.0], [0.3, -1.2, 2.0]]))
    d = diff.cosine_distance(table, [0, 1], [0, 0])
    assert d.values.shape == (2,) and np.all(np.abs(d.values) < 1e-12)


def test_cosine_distance_zero_vector_errors():
    # row 2's norm is 1e-160, whose square underflows: its backward would
    # divide by 0; row 3's squared norm 1e-300 is a normal float
    table = diff.tensor(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1e-160, 0.0, 0.0],
                                  [1e-150, 0.0, 1e-150]]))
    for left, right in (([0], [1]), ([1], [0]), ([2], [1]), ([1], [2])):
        with pytest.raises(DiffError, match="zero-norm embedding"):
            diff.cosine_distance(table, left, right)
    assert diff.cosine_distance(table, [1], [1]).values.shape == (1,)
    leaf = diff.param(table.values)
    diff.backward(diff.sum_all(diff.cosine_distance(leaf, [3, 1], [1, 3])))
    assert np.all(np.isfinite(leaf.grad))


@pytest.mark.parametrize("shape", [(3,), (1, 1, 3)])
def test_cosine_distance_takes_matrices_only(shape):
    with pytest.raises(DiffError, match="expects a matrix"):
        diff.cosine_distance(diff.tensor(np.ones(shape)), [0], [0])


def test_l1_norm_row_hand_value():
    assert diff.sum_all(diff.l1_norm_row(diff.tensor([[1.0, -2.0, 0.5]]))).item() == 3.5


def test_l1_norm_row_matrix():
    out = diff.l1_norm_row(diff.tensor([[1.0, -2.0], [0.5, 0.25]]))
    assert out.values.tolist() == [3.0, 0.75]


def test_tanh_gradient_at_zero_is_one():
    x = diff.param(np.zeros(()))
    y = diff.tanh(x)
    diff.backward(y)
    assert x.grad == pytest.approx(1.0, abs=1e-15)


def test_tanh_gradient_matches_finite_difference_at_half():
    err = diff.grad_check(lambda t: diff.tanh(t), np.asarray(0.5), step=STEP)
    assert err < 1e-7
    x = diff.param(np.asarray(0.5))
    y = diff.tanh(x)
    diff.backward(y)
    assert x.grad == pytest.approx(1.0 - np.tanh(0.5) ** 2, abs=1e-12)


def test_l1_gradient_is_signs():
    x = diff.param(np.array([[2.0, -3.0]]))
    diff.backward(diff.sum_all(diff.l1_norm_row(x)))
    assert x.grad.tolist() == [[1.0, -1.0]]
    err = diff.grad_check(lambda t: diff.sum_all(diff.l1_norm_row(t)),
                          np.array([[2.0, -3.0]]), step=STEP)
    assert err < TOL


def test_grad_check_exact_for_linear_map():
    w = np.array([0.7, -1.3, 0.2])
    err = diff.grad_check(
        lambda t: diff.sum_all(diff.mul(t, diff.tensor(w))), np.array([1.0, 2.0, 3.0])
    )
    assert err <= 1e-10


def _single_op_cases(rng):
    """(name, function-of-one-tensor, input) triples covering every op."""
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3, 5))
    m = rng.normal(size=(6, 3))
    w = rng.normal(size=6)
    seg = np.array([0, 0, 1, 2, 2, 2])
    proj = rng.normal(size=(4, 3))
    proj45 = rng.normal(size=(4, 5))
    proj46 = rng.normal(size=(4, 6))
    proj26 = rng.normal(size=(2, 6))
    proj33 = rng.normal(size=(3, 3))
    proj4 = rng.normal(size=4)
    projw = rng.normal(size=6)
    idx = np.array([0, 2, 2, 1])
    other = rng.normal(size=(4, 3))
    vec = away_from_kinks(rng.normal(size=5))
    # a pair, its reverse repeated, a self pair; row 1 is in none
    cosine_left, cosine_right = np.array([0, 2, 2, 3]), np.array([2, 0, 0, 3])
    # every |e[h] + r[rel] - e[t]| coordinate at least 0.05, 5,000 steps from the L1 kink
    l1_index = (TestTranslationL1.HEADS, TestTranslationL1.RELS, TestTranslationL1.TAILS)
    l1_entities, l1_relations = TestTranslationL1._tables(int(rng.integers(1 << 31)))
    proj5 = rng.normal(size=5)
    attention_inputs = [rng.normal(size=(4, 3)), rng.normal(size=(2, 3)),
                        rng.normal(size=(6, 1)), rng.normal(size=1)]

    def weighted(x, p):
        return diff.sum_all(diff.mul(x, diff.tensor(p)))

    # |x @ w| < 3 and biases of +-4 keep every pre-activation at least 1
    # away from the leaky-ReLU kink
    x_unit, w_unit = np.tanh(a), np.tanh(b)
    shift = np.array([4.0, -4.0, 4.0, -4.0, 4.0])

    def affine(x, w, bias, activation):
        return weighted(diff.affine(x, w, bias, activation), proj45)

    def attention(t, which):
        """Relation-aware attention with input `which` replaced by `t`."""
        inputs = [t if i == which else diff.tensor(x) for i, x in enumerate(attention_inputs)]
        return weighted(TestNeighborAttention._call(*inputs), proj)

    return [
        ("add", lambda t: weighted(diff.add(t, diff.tensor(other)), proj), a),
        ("sub", lambda t: weighted(diff.sub(diff.tensor(other), t), proj), a),
        ("mul", lambda t: weighted(diff.mul(t, diff.tensor(other)), proj), a),
        ("scale", lambda t: diff.sum_all(diff.scale(t, -1.7)), a),
        ("matmul_left", lambda t: weighted(diff.matmul(t, diff.tensor(b)), proj45), a),
        ("matmul_right", lambda t: weighted(diff.matmul(diff.tensor(a), t), proj45), b),
        ("concat", lambda t: weighted(diff.concat([t, diff.tensor(other)], axis=1), proj46), a),
        ("reshape", lambda t: weighted(diff.reshape(t, (2, 6)), proj26), a),
        ("tanh", lambda t: weighted(diff.tanh(t), proj), a),
        ("leakyrelu", lambda t: weighted(diff.leakyrelu(t), proj), away_from_kinks(a)),
        ("relu", lambda t: weighted(diff.relu(t), proj), away_from_kinks(a)),
        ("log", lambda t: weighted(diff.log(t), proj), np.abs(a) + 0.5),
        ("sum", diff.sum_all, a),
        ("mean", diff.mean_all, a),
        ("softmax_row", lambda t: weighted(diff.softmax_row(t), proj), a),
        ("l1_norm_row", lambda t: diff.sum_all(diff.l1_norm_row(t)), away_from_kinks(a)),
        ("cosine_pairs", lambda t: weighted(
            diff.cosine_distance(t, cosine_left, cosine_right), proj4), a + 2.0),
        ("cosine_one_pair", lambda t: diff.sum_all(diff.cosine_distance(t, [0], [1])),
         np.stack([vec, np.ones(5), -vec])),
        ("gather_rows", lambda t: weighted(diff.gather_rows(t, idx), proj), m[:4]),
        ("scatter_messages", lambda t: weighted(
            diff.scatter_weighted_sum(t, diff.tensor(w), seg, 3), proj33), m),
        ("scatter_weights", lambda t: weighted(
            diff.scatter_weighted_sum(diff.tensor(m), t, seg, 3), proj33), w),
        ("segment_softmax", lambda t: weighted(diff.segment_softmax(t, seg, 3), projw), w),
        ("softmax_entropy", lambda t: diff.scale(diff.sum_all(
            diff.mul(diff.softmax_row(t), diff.log(diff.softmax_row(t)))), -1.0), a),
        ("affine_identity", lambda t: affine(t, diff.tensor(b), diff.tensor(proj45[0]),
                                             "identity"), a),
        ("affine_tanh", lambda t: affine(t, diff.tensor(b), diff.tensor(proj45[1]), "tanh"), a),
        ("affine_leakyrelu", lambda t: affine(t, diff.tensor(w_unit), diff.tensor(shift),
                                              "leakyrelu"), x_unit),
        ("affine_weight", lambda t: affine(diff.tensor(x_unit), t, diff.tensor(shift),
                                           "leakyrelu"), w_unit),
        ("affine_bias", lambda t: affine(diff.tensor(x_unit), diff.tensor(w_unit), t,
                                         "leakyrelu"), shift),
        ("translation_l1_entities", lambda t: weighted(
            diff.translation_l1(t, diff.tensor(l1_relations), *l1_index), proj5), l1_entities),
        ("translation_l1_relations", lambda t: weighted(
            diff.translation_l1(diff.tensor(l1_entities), t, *l1_index), proj5), l1_relations),
        ("attention_entities", lambda t: attention(t, 0), attention_inputs[0]),
        ("attention_composed", lambda t: attention(t, 1), attention_inputs[1]),
        ("attention_weight", lambda t: attention(t, 2), attention_inputs[2]),
        ("attention_bias", lambda t: attention(t, 3), attention_inputs[3]),
        ("attention_uniform", lambda t: weighted(
            TestNeighborAttention._call(t, *TestNeighborAttention.zero_attention(2, 3)), proj),
         attention_inputs[0]),
    ]


def test_every_op_passes_gradient_check_on_20_random_instances():
    for instance in range(20):
        rng = np.random.default_rng(900 + instance)
        for name, fn, x0 in _single_op_cases(rng):
            err = diff.grad_check(fn, x0, step=STEP)
            assert err < TOL, f"{name} failed grad check on instance {instance}: {err}"


def _recorded_ops(root):
    return {node._op for node in diff._topo(root) if node._op}


def test_single_op_cases_cover_every_op_of_the_model_graphs():
    # criterion 2 grad-checks `_single_op_cases`; an op a loss graph records
    # but no case does would go unchecked there
    covered = set().union(*(_recorded_ops(fn(diff.param(x0)))
                            for _, fn, x0 in _single_op_cases(np.random.default_rng(0))))
    for name, loss, _ in _model_losses(8000):
        assert _recorded_ops(loss) <= covered, (name, sorted(_recorded_ops(loss) - covered))


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (3, 4), elements=st.floats(-30, 30)))
def test_softmax_rows_are_distributions(x):
    out = diff.softmax_row(diff.tensor(x)).values
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)


def test_backward_requires_scalar():
    x = diff.param(np.ones(3))
    with pytest.raises(DiffError, match="scalar"):
        diff.backward(diff.tanh(x))


def test_shape_mismatch_errors():
    with pytest.raises(DiffError, match="shape mismatch"):
        diff.add(diff.tensor(np.ones((2, 3))), diff.tensor(np.ones((4, 5))))
    with pytest.raises(DiffError, match="shape mismatch"):
        diff.matmul(diff.tensor(np.ones((2, 3))), diff.tensor(np.ones((2, 3))))


def test_repeated_backward_accumulates():
    x = diff.param(np.array([1.0, -2.0]))
    y = diff.sum_all(diff.mul(x, x))
    diff.backward(y)
    first = x.grad.copy()
    diff.backward(y)
    assert np.allclose(x.grad, 2.0 * first)


def test_grad_populated_for_every_reachable_parameter():
    x = diff.param(np.ones((2, 2)))
    w = diff.param(np.full((2, 2), 0.5))
    y = diff.sum_all(diff.tanh(diff.matmul(x, w)))
    diff.backward(y)
    assert x.grad is not None and w.grad is not None


def test_no_grad_suspends_recording():
    x = diff.param(np.ones(3))
    with diff.no_grad():
        y = diff.sum_all(diff.tanh(x))
    assert not y.requires_grad
    assert y._parents == ()


def test_forward_and_gradients_are_deterministic():
    def run():
        rng = np.random.default_rng(7)
        x = diff.param(rng.normal(size=(5, 4)))
        w = diff.param(rng.normal(size=(4, 4)))
        out = diff.sum_all(diff.softmax_row(diff.matmul(diff.tanh(x), w)))
        diff.backward(out)
        return out.values.copy(), x.grad.copy(), w.grad.copy()

    a, b, c = run()
    a2, b2, c2 = run()
    assert np.array_equal(a, a2) and np.array_equal(b, b2) and np.array_equal(c, c2)


def _toy_model(seed):
    """A 6-entity KG's edges, both encoders, the SIR fusion and the entity
    head, drawn from `seed`: (generator, edges, completion, alignment side,
    fusion, head, every parameter)."""
    rng = np.random.default_rng(seed)
    triples = sorted({(int(rng.integers(6)), int(rng.integers(2)), int(rng.integers(6)))
                      for _ in range(9)} | {(0, 0, 1), (2, 1, 3), (4, 0, 5)})
    edges = build_edges(single_kg(triples, entity_count=6))
    completion = EncoderParams.create(2, 3, 6, 2, rng)
    alignment_side = EncoderParams.create(2, 3, 6, 2, rng)
    fusion = FusionParams.create(2, 3, rng)
    head = diff.Mlp.create([9, 3, 3], ("leakyrelu", "identity"), rng)
    every = (completion.parameters() + alignment_side.parameters() + fusion.parameters()
             + head.parameters())
    return rng, edges, completion, alignment_side, fusion, head, every


def _completion_total(layers):
    """The completion loss of two fixed positives and their corruptions."""
    positives = (np.array([0, 2]), np.array([0, 1]), np.array([1, 3]))
    negatives = (np.array([4, 2]), np.array([0, 1]), np.array([1, 5]), np.array([0, 1]))
    return completion_loss(ranking_loss(positives, negatives, 1.0, layers),
                           alignment_constraint_loss(np.array([[0, 3], [1, 4]]), layers))


def _alignment_finals(edges, completion, alignment_side, fusion, head):
    """Alignment-side entity finals through an untaped SIR fusion hook."""
    with diff.no_grad():
        hook = make_fusion_hook(encode(edges, completion), fusion)
    finals, _ = final_embeddings(encode(edges, alignment_side, hook), head)
    return finals


def _model_losses(seed):
    """Criterion-2-style graphs on a 6-entity KG: an encoder functional, the
    completion loss, and the alignment loss through a SIR fusion hook. Each
    entry is (name, loss, leaves): every parameter the graphs can reach."""
    rng, edges, *model, every = _toy_model(seed)
    layers = encode(edges, model[0])
    encoder = diff.sum_all(diff.mul(layers.entities[2], diff.tensor(rng.normal(size=(6, 3)))))
    completion_total = _completion_total(layers)
    alignment_total = alignment_loss([(0, 3), (1, 4)],
                                     [(0, (2, 3)), (0, (0, 5)), (1, (5, 4)), (1, (1, 2))],
                                     0.5, _alignment_finals(edges, *model))
    return [("encoder", encoder, every), ("completion", completion_total, every),
            ("alignment", alignment_total, every)]


def _zero_branch_losses(seed, margin, self_negatives, dead_first):
    """`_model_losses`-style graphs with whole branches at exactly zero
    gradient: "hinge", the alignment loss with every pairing inactive (each
    negative its own positive, or a margin of -2 or less, as a cosine
    distance lies in [0, 2]); "hinge+live", that hinge added to a live
    functional of the same finals; "masked", the completion loss added to a
    ReLU of its layer-1 entities pushed below 0. `dead_first` puts the dead
    operand first in each sum. Entries as in `_model_losses`."""
    rng, edges, *model, every = _toy_model(seed)

    def join(live, dead):
        return diff.add(dead, live) if dead_first else diff.add(live, dead)

    finals = _alignment_finals(edges, *model)
    pairs = [(0, 3), (1, 4), (2, 5)]
    negatives = (list(enumerate(pairs)) if self_negatives else
                 [(int(rng.integers(3)), (int(rng.integers(6)), int(rng.integers(6))))
                  for _ in range(6)])
    hinge = alignment_loss(pairs, negatives, margin, finals)
    live = diff.sum_all(diff.mul(finals, diff.tensor(rng.normal(size=finals.values.shape))))
    layers = encode(edges, model[0])
    below = diff.tensor(layers.entities[1].values.min() - 1.0)
    masked = diff.sum_all(diff.relu(diff.sub(below, layers.entities[1])))
    return [("hinge", hinge, every), ("hinge+live", join(live, hinge), every),
            ("masked", join(_completion_total(layers), masked), every)]


class TestBackwardOracle:
    """The one-pass `backward` against the two-pass `reference_backward`."""

    @staticmethod
    def _assert_same(got, leaves, name):
        for g, leaf in zip(got, leaves):
            assert (g is None) == (leaf.grad is None), name
            if g is not None:
                assert g.dtype == np.float64 and g.shape == leaf.values.shape, name
                assert np.array_equal(g, leaf.grad), name

    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("seed", [8000, 8001, 8002])
    def test_leaf_gradients_match_reference_bitwise(self, seed, which):
        # one fresh model per graph: the three graphs share intermediates,
        # and the reference leaves a .grad on those
        name, loss, leaves = _model_losses(seed)[which]
        diff.backward(loss)
        once = [leaf.grad for leaf in leaves]
        assert any(g is not None for g in once), name
        for node in diff._topo(loss):
            if node._grad_fn is not None:
                assert node.grad is None, f"{name}: {node!r} kept a gradient"
        diff.backward(loss)
        twice = [leaf.grad for leaf in leaves]

        for leaf in leaves:
            leaf.grad = None
        reference_backward(loss)
        self._assert_same(once, leaves, name)
        reference_backward(loss)
        self._assert_same(twice, leaves, name)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), which=st.sampled_from([0, 1, 2]),
           self_negatives=st.booleans(), margin=st.floats(-5.0, -2.0),
           dead_first=st.booleans(), scale=st.sampled_from([1.0, -3.0, 1e-3]))
    def test_zero_gradient_branches_skip_their_grad_fns(self, seed, which, self_negatives,
                                                        margin, dead_first, scale):
        name, loss, leaves = _zero_branch_losses(
            seed, 0.0 if self_negatives else margin, self_negatives, dead_first)[which]
        loss = diff.scale(loss, scale)
        nodes = [node for node in diff._topo(loss) if node._grad_fn is not None]
        calls, live = {}, {}

        def counted(node, grad_fn):
            def run(g):
                calls[id(node)] = calls.get(id(node), 0) + 1
                live[id(node)] = bool(g.any())
                return grad_fn(g)
            return run

        for node in nodes:
            node._grad_fn = counted(node, node._grad_fn)
        diff.backward(loss)
        got, ran = [leaf.grad for leaf in leaves], dict(calls)

        calls.clear()
        for leaf in leaves:
            leaf.grad = None
        reference_backward(loss)
        # the reference runs every node; `backward` ran exactly the ones
        # whose gradient was not zero everywhere, each once
        assert set(calls) == {id(node) for node in nodes}, name
        assert set(ran) == {key for key, nonzero in live.items() if nonzero}, name
        assert set(ran) < set(calls) and set(ran.values()) == {1}, name
        reachable = {id(node) for node in diff._topo(loss) if node.requires_grad}
        for g, leaf in zip(got, leaves):
            assert (g is None) == (id(leaf) not in reachable), name
            if g is not None:
                assert g.dtype == np.float64 and g.shape == leaf.values.shape, name
                assert np.array_equal(_bits(g), _bits(leaf.grad)), name

    def test_constant_root_sets_nothing(self):
        x = diff.param(np.array([1.0, -2.0]))
        with diff.no_grad():
            root = diff.sum_all(diff.tanh(x))
        diff.backward(root)
        assert root.grad is None and x.grad is None

    def test_parameter_root_gets_unit_gradient(self):
        x = diff.param(np.asarray(2.0))
        diff.backward(x)
        diff.backward(x)
        assert x.grad == 2.0


# magnitudes far apart make the sum depend on its order; -0.0 checks the start value
_SCATTER_VALUES = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 3.0, 1e-17, 1e16, -1e16]),
                            st.floats(-1e6, 1e6))


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


# byte budgets that cut rows and columns into ragged blocks, and the default
_BUDGETS = st.sampled_from([1, 8, 24, 40, 56, 88, 200, diff.BLOCK_BYTES])


@st.composite
def _scatter_case(draw, one_dim_allowed=True):
    """(index, rows, num_rows): 1-row and 3-row tables and wider ones, with
    empty, repeated and sparse indices (rows never hit)."""
    num_rows = draw(st.one_of(st.sampled_from([1, 3]), st.integers(1, 12)))
    count = draw(st.integers(0, 80))
    index = np.asarray(draw(st.lists(st.integers(0, num_rows - 1), min_size=count,
                                     max_size=count)), dtype=np.int64)
    widths = [None, 1, 4] if one_dim_allowed else [1, 4]
    width = draw(st.sampled_from(widths))
    shape = (count,) if width is None else (count, width)
    rows = draw(arrays(np.float64, shape, elements=_SCATTER_VALUES))
    return index, rows, num_rows


@pytest.mark.parametrize("segments", [[0, 1, 5], [0, -1, 1]])
def test_out_of_range_segments_rejected(segments):
    messages = diff.tensor(np.ones((3, 2)))
    with pytest.raises(DiffError, match="scatter_weighted_sum segment out of range"):
        diff.scatter_weighted_sum(messages, diff.tensor(np.ones(3)), segments, 3)
    with pytest.raises(DiffError, match="segment_softmax segment out of range"):
        diff.segment_softmax(diff.tensor(np.zeros(3)), segments, 3)


class TestRowScatterSum:
    """The scatter plan against `np.add.at` into zeros, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_scatter_case())
    def test_equals_add_at(self, case):
        index, rows, num_rows = case
        expected = np.zeros((num_rows,) + rows.shape[1:])
        np.add.at(expected, index, rows)
        got = diff._row_scatter_sum(index, rows, num_rows)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert np.array_equal(_bits(got), _bits(expected))

    @settings(max_examples=200, deadline=None)
    @given(_scatter_case(), st.data())
    def test_signed_and_repeated_equals_add_at(self, case, data):
        # the index covers the rows twice over; entry i reads rows[i % len(rows)]
        index, rows, num_rows = case
        second = np.asarray(data.draw(st.lists(st.integers(0, num_rows - 1),
                                               min_size=index.size, max_size=index.size)),
                            dtype=np.int64)
        both = np.concatenate([index, second])
        signs = np.asarray(data.draw(st.lists(st.sampled_from([1, -1]), min_size=both.size,
                                              max_size=both.size)), dtype=np.int8)
        column = signs.reshape((both.size,) + (1,) * (rows.ndim - 1))
        signed = column * np.concatenate([rows, rows])
        expected = np.zeros((num_rows,) + rows.shape[1:])
        np.add.at(expected, both, signed)
        got = diff._scatter_plan(both, num_rows, rows.shape[0], signs) @ rows
        assert np.array_equal(_bits(got), _bits(expected))

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_index_gives_zeros(self, shape):
        got = diff._row_scatter_sum(np.zeros(0, dtype=np.int64), np.zeros(shape), 4)
        assert got.dtype == np.float64
        assert np.array_equal(_bits(got), _bits(np.zeros((4,) + shape[1:])))

    @pytest.mark.parametrize("num_rows", [65_536, 65_537])
    def test_plan_at_the_uint16_limit_equals_int64_sort(self, num_rows):
        # ids at both ends of the range, the last one past uint16 at 65,537 rows
        rng = np.random.default_rng(num_rows)
        index = np.concatenate([[num_rows - 1, 0, num_rows - 1],
                                rng.integers(num_rows, size=150_000)])
        signs = rng.choice(np.array([1, -1], dtype=np.int8), size=index.size)
        for plan_signs in (None, signs):
            got = diff._scatter_plan(index, num_rows, 50_001, plan_signs)
            expected = reference_scatter_plan(index, num_rows, 50_001, plan_signs)
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, part), getattr(expected, part)), part

    def test_negative_zero_sums_to_positive_zero(self):
        got = diff._row_scatter_sum(np.array([1, 1]), np.array([-0.0, -0.0]), 3)
        assert np.array_equal(_bits(got), _bits(np.zeros(3)))

    @settings(max_examples=200, deadline=None)
    @given(_scatter_case(one_dim_allowed=False), st.data())
    def test_scatter_weighted_sum_forward_equals_add_at(self, case, data):
        segments, messages, num_segments = case
        weights = data.draw(arrays(np.float64, segments.shape, elements=_SCATTER_VALUES))
        expected = np.zeros((num_segments, messages.shape[1]))
        np.add.at(expected, segments, weights[:, None] * messages)
        got = diff.scatter_weighted_sum(diff.tensor(messages), diff.tensor(weights),
                                        segments, num_segments).values
        assert np.array_equal(_bits(got), _bits(expected))


class TestTranslationL1:
    """The fused translation score against gathers plus the unfused
    `score_layer`, and its backward against `np.add.at` in the documented
    order."""

    # rows 1 and 3 repeat heads, row 2 is a self-loop (0, 1, 0), row 4 a
    # self-loop on a repeated relation
    HEADS = np.array([0, 2, 0, 2, 3])
    RELS = np.array([1, 0, 1, 1, 1])
    TAILS = np.array([1, 1, 0, 3, 3])

    @classmethod
    def _tables(cls, seed):
        """Tables whose every |e[h] + r[rel] - e[t]| coordinate is at least
        0.05, so the L1 kinks stay far from the finite-difference steps."""
        rng = np.random.default_rng(seed)
        while True:
            e = rng.normal(size=(4, 3))
            r = rng.normal(size=(2, 3))
            delta = e[cls.HEADS] + r[cls.RELS] - e[cls.TAILS]
            if np.abs(delta).min() >= 0.05:
                return e, r

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_check_both_tables(self, seed):
        e, r = self._tables(seed)
        weights = diff.tensor(np.random.default_rng(100 + seed).normal(size=self.HEADS.size))

        def weighted(entities, relations):
            f = diff.translation_l1(entities, relations, self.HEADS, self.RELS, self.TAILS)
            return diff.sum_all(diff.mul(f, weights))

        assert diff.grad_check(lambda t: weighted(t, diff.tensor(r)), e, step=STEP) < TOL
        assert diff.grad_check(lambda t: weighted(diff.tensor(e), t), r, step=STEP) < TOL

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_unfused_and_add_at_bitwise(self, data):
        entity_count = data.draw(st.integers(1, 6))
        relation_count = data.draw(st.integers(1, 3))
        dim = data.draw(st.integers(1, 4))
        count = data.draw(st.integers(0, 30))
        ids = st.lists(st.integers(0, entity_count - 1), min_size=count, max_size=count)
        heads = np.asarray(data.draw(ids), dtype=np.int64)
        tails = np.asarray(data.draw(ids), dtype=np.int64)
        rels = np.asarray(data.draw(st.lists(st.integers(0, relation_count - 1),
                                             min_size=count, max_size=count)), dtype=np.int64)
        values = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]), st.floats(-1e3, 1e3))
        e = data.draw(arrays(np.float64, (entity_count, dim), elements=values))
        r = data.draw(arrays(np.float64, (relation_count, dim), elements=values))
        g = data.draw(arrays(np.float64, (count,), elements=values))

        entities, relations = diff.param(e), diff.param(r)
        fused = diff.translation_l1(entities, relations, heads, rels, tails)
        unfused = score_layer(diff.tensor(e[heads]), diff.tensor(r[rels]),
                              diff.tensor(e[tails]))
        assert fused.values.shape == (count,)
        assert np.array_equal(_bits(fused.values), _bits(unfused.values))

        if count:
            diff.backward(diff.sum_all(diff.mul(fused, diff.tensor(g))))
            u = np.sign(e[heads] + r[rels] - e[tails]) * -g[:, None]
            expected_e = np.zeros_like(e)
            np.add.at(expected_e, np.concatenate([heads, tails]), np.concatenate([u, -u]))
            expected_r = np.zeros_like(r)
            np.add.at(expected_r, rels, u)
            assert np.array_equal(_bits(entities.grad), _bits(expected_e))
            assert np.array_equal(_bits(relations.grad), _bits(expected_r))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_blocks_equal_unblocked_bitwise(self, data):
        entity_count = data.draw(st.integers(1, 6))
        relation_count = data.draw(st.integers(1, 3))
        dim = data.draw(st.integers(1, 6))
        count = data.draw(st.integers(1, 30))
        ids = st.lists(st.integers(0, entity_count - 1), min_size=count, max_size=count)
        index = (data.draw(ids), data.draw(st.lists(st.integers(0, relation_count - 1),
                                                    min_size=count, max_size=count)),
                 data.draw(ids))
        e = data.draw(arrays(np.float64, (entity_count, dim), elements=_SCATTER_VALUES))
        r = data.draw(arrays(np.float64, (relation_count, dim), elements=_SCATTER_VALUES))
        g = data.draw(arrays(np.float64, (count,), elements=_SCATTER_VALUES))
        budget = data.draw(_BUDGETS)
        tile = data.draw(st.sampled_from([1, 2, 3, 7, diff._EDGE_BLOCK]))
        self._assert_equals_reference(e, r, index, g, budget, tile)

    @staticmethod
    def _assert_equals_reference(e, r, index, g, budget, tile):
        """The fused op under a `BLOCK_BYTES` budget and `_EDGE_BLOCK` tile
        against the untiled, unblocked oracle, bit for bit."""
        def run(op):
            entities, relations = diff.param(e), diff.param(r)
            f = op(entities, relations, *index)
            diff.backward(diff.sum_all(diff.mul(f, diff.tensor(g))))
            return [f.values, entities.grad, relations.grad]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diff, "BLOCK_BYTES", budget)
            patch.setattr(diff, "_EDGE_BLOCK", tile)
            fused = run(diff.translation_l1)
        for got, expected in zip(fused, run(reference_translation_l1)):
            assert np.array_equal(_bits(got), _bits(expected))
        return fused

    @pytest.mark.parametrize("tile", [1, 2, 3])
    def test_zero_deltas_of_either_sign_give_zero_gradients(self, tile):
        # every coordinate of every row is exactly 0.0 or -0.0:
        # (-0 + -0) - 0 = -0, (0 + -0) - -0 = 0, (1 + 0) - 1 = 0
        e = np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, 1.0]])
        r = np.array([[-0.0, -0.0, 0.0]])
        index = ([0, 1, 0, 1], [0, 0, 0, 0], [1, 0, 0, 1])
        g = np.array([1.0, -2.0, 0.5, -0.0])
        values, entity_grad, relation_grad = self._assert_equals_reference(
            e, r, index, g, diff.BLOCK_BYTES, tile)
        assert np.array_equal(values, np.zeros(4))
        assert np.array_equal(entity_grad, np.zeros(e.shape))
        assert np.array_equal(relation_grad, np.zeros(r.shape))

    @pytest.mark.parametrize("which, bad", [("head", [0, 4]), ("head", [-1, 0]),
                                            ("relation", [0, 2]), ("relation", [-1, 0]),
                                            ("tail", [4, 0]), ("tail", [0, -2])])
    def test_out_of_range_indices_rejected(self, which, bad):
        e, r = self._tables(0)
        index = {"head": [0, 1], "relation": [0, 1], "tail": [1, 2], which: bad}
        with pytest.raises(DiffError, match=f"translation_l1 {which} out of range"):
            diff.translation_l1(diff.param(e), diff.param(r), index["head"],
                                index["relation"], index["tail"])

    def test_shape_errors(self):
        e, r = self._tables(0)
        with pytest.raises(DiffError, match="one length"):
            diff.translation_l1(diff.tensor(e), diff.tensor(r), [0, 1], [0], [1, 2])
        with pytest.raises(DiffError, match="table mismatch"):
            diff.translation_l1(diff.tensor(e), diff.tensor(r[:, :2]), [0], [0], [1])


@st.composite
def _edge_lists(draw):
    """Center-sorted edge lists over 1-6 entities and 1-3 relations, drawn
    densely enough to give isolated centers, self-loops, one-edge centers and
    repeated (center, neighbor) pairs under different relations."""
    n = draw(st.integers(1, 6))
    relation_count = draw(st.integers(1, 3))
    rows = sorted(set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                              st.integers(0, relation_count - 1)),
                                    max_size=14))))
    centers, neighbors, relations = np.asarray(rows, dtype=np.int64).reshape(-1, 3).T
    return EdgeList(centers, neighbors, relations, n), relation_count


class TestNeighborAttention:
    """The fused attention op against the unfused gathers, concat,
    `segment_softmax` and `scatter_weighted_sum` of `reference_layer_forward`."""

    # center 0: self-loop plus neighbor 1 under two relations; center 1: one
    # edge; center 2: three edges; center 3: isolated
    CENTERS = np.array([0, 0, 0, 1, 2, 2, 2])
    NEIGHBORS = np.array([0, 1, 1, 2, 0, 1, 2])
    RELATIONS = np.array([1, 0, 1, 1, 0, 0, 1])
    INDPTR = np.array([0, 3, 4, 7, 7])

    @staticmethod
    def zero_attention(relation_count, dim):
        """Zero composed relations, weight and bias: uniform weights over the
        bare neighbor rows, as the encoder runs without relation awareness."""
        return (diff.tensor(np.zeros((relation_count, dim))),
                diff.tensor(np.zeros((2 * dim, 1))), diff.tensor(np.zeros(1)))

    @classmethod
    def _call(cls, entities, composed, weight, bias, **index):
        arrays = {"centers": cls.CENTERS, "neighbors": cls.NEIGHBORS,
                  "relations": cls.RELATIONS, "indptr": cls.INDPTR, **index}
        return diff.neighbor_attention(entities, composed, weight, bias, arrays["centers"],
                                       arrays["neighbors"], arrays["relations"],
                                       arrays["indptr"])

    @settings(max_examples=200, deadline=None)
    @given(_edge_lists(), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1),
           st.sampled_from([1, 3, 256]))
    def test_layer_matches_unfused_reference(self, case, dim, relation_aware, seed, block):
        """Forward and every leaf gradient within 1e-12, and bit for bit
        without relation awareness, with the per-edge weight gradient taken
        in blocks of 1, 3 or 256 edges."""
        edges, relation_count = case
        results = []
        for forward in (layer_forward, reference_layer_forward):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(diff, "_EDGE_BLOCK", block)
                params = EncoderParams.create(1, dim, edges.num_entities, relation_count,
                                              np.random.default_rng(seed),
                                              relation_aware=relation_aware)
                entity, relation = forward(edges, params.entity0, params.relation0, params, 0)
                probe = np.random.default_rng(seed + 1).normal(size=entity.values.shape)
                diff.backward(diff.add(diff.sum_all(diff.mul(entity, diff.tensor(probe))),
                                       diff.sum_all(relation)))
            results.append((entity.values, [p.grad for p in params.parameters()]))
        (fused, fused_grads), (unfused, unfused_grads) = results
        for got, want in zip([fused, *fused_grads], [unfused, *unfused_grads]):
            assert (got is None) == (want is None)
            if got is None:
                continue
            if relation_aware:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            else:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(3))
    def test_grad_check_every_input(self, seed):
        rng = np.random.default_rng(seed)
        tables = [rng.normal(size=(4, 3)), rng.normal(size=(2, 3)), rng.normal(size=(6, 1)),
                  rng.normal(size=1)]
        probe = diff.tensor(rng.normal(size=(4, 3)))
        for which in range(4):
            def weighted(t, which=which):
                inputs = [t if i == which else diff.tensor(x) for i, x in enumerate(tables)]
                return diff.sum_all(diff.mul(self._call(*inputs), probe))

            assert diff.grad_check(weighted, tables[which], step=STEP) < TOL, which
        assert diff.grad_check(
            lambda t: diff.sum_all(diff.mul(self._call(t, *self.zero_attention(2, 3)), probe)),
            tables[0], step=STEP) < TOL

    @pytest.mark.parametrize("which, bad", [
        ("centers", [0, 0, 0, 1, 2, 2, 4]), ("centers", [-1, 0, 0, 1, 2, 2, 2]),
        ("neighbors", [0, 1, 1, 2, 0, 1, 4]), ("neighbors", [0, 1, -1, 2, 0, 1, 2]),
        ("relations", [1, 0, 1, 1, 0, 0, 2]), ("relations", [1, 0, -1, 1, 0, 0, 1])])
    def test_out_of_range_indices_rejected(self, which, bad):
        name = which[:-1]
        with pytest.raises(DiffError, match=f"neighbor_attention {name} out of range"):
            self._call(diff.tensor(np.ones((4, 3))), diff.tensor(np.ones((2, 3))),
                       diff.tensor(np.ones((6, 1))), diff.tensor(np.ones(1)),
                       **{which: np.array(bad)})

    def test_unsorted_centers_rejected(self):
        with pytest.raises(DiffError, match="centers must be sorted"):
            self._call(diff.tensor(np.ones((4, 3))), *self.zero_attention(2, 3),
                       centers=np.array([0, 0, 1, 0, 2, 2, 2]))

    @pytest.mark.parametrize("indptr", [[0, 3, 4, 7], [0, 3, 4, 6, 7], [1, 3, 4, 7, 7]])
    def test_wrong_row_pointer_rejected(self, indptr):
        with pytest.raises(DiffError, match="indptr is not the row pointer"):
            self._call(diff.tensor(np.ones((4, 3))), *self.zero_attention(2, 3),
                       indptr=np.array(indptr))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DiffError, match="shape mismatch"):
            self._call(diff.tensor(np.ones((4, 3))), diff.tensor(np.ones((2, 3))),
                       diff.tensor(np.ones((3, 1))), diff.tensor(np.ones(1)))


class TestAffine:
    """The fused layer against `matmul`, `add` and the activation node."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_composed_bitwise(self, data):
        rows, n_in, n_out = (data.draw(st.integers(1, 6)) for _ in range(3))
        activation = data.draw(st.sampled_from(diff._ACTIVATIONS))
        # exact zeros put pre-activations on the leaky-ReLU kink
        values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-3, 1e8]),
                           st.floats(-1e3, 1e3))
        inputs = [data.draw(arrays(np.float64, shape, elements=values))
                  for shape in ((rows, n_in), (n_in, n_out), (n_out,))]
        g = data.draw(arrays(np.float64, (rows, n_out), elements=values))

        def run(op):
            leaves = [diff.param(v) for v in inputs]
            out = op(*leaves, activation)
            diff.backward(diff.sum_all(diff.mul(out, diff.tensor(g))))
            return [out.values] + [leaf.grad for leaf in leaves]

        for got, expected in zip(run(diff.affine), run(reference_affine)):
            assert np.array_equal(_bits(got), _bits(expected))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_column_parts_equal_concat_bitwise(self, data):
        rows, n_out = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        widths = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        constant = data.draw(st.lists(st.booleans(), min_size=len(widths),
                                      max_size=len(widths)))
        activation = data.draw(st.sampled_from(diff._ACTIVATIONS))
        values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-3, 1e8]),
                           st.floats(-1e3, 1e3))
        parts = [data.draw(arrays(np.float64, (rows, width), elements=values))
                 for width in widths]
        w, b = (data.draw(arrays(np.float64, shape, elements=values))
                for shape in ((sum(widths), n_out), (n_out,)))
        g = data.draw(arrays(np.float64, (rows, n_out), elements=values))

        def run(join):
            inputs = [diff.tensor(v) if c else diff.param(v) for v, c in zip(parts, constant)]
            leaves = inputs + [diff.param(w), diff.param(b)]
            out = diff.affine(join(inputs), *leaves[-2:], activation)
            diff.backward(diff.sum_all(diff.mul(out, diff.tensor(g))))
            return [out.values] + [leaf.grad for leaf in leaves]

        def assert_same(got, expected):
            for a, b in zip(got, expected, strict=True):
                assert (a is None) == (b is None)
                assert a is None or np.array_equal(_bits(a), _bits(b))

        fused = run(list)
        assert_same(fused, run(lambda inputs: diff.concat(inputs, axis=1)))
        assert [grad is None for grad in fused[1:1 + len(parts)]] == constant
        if len(parts) == 1:
            assert_same(fused, run(lambda inputs: inputs[0]))

    def test_column_parts_with_different_row_counts_error(self):
        w, b = diff.tensor(np.ones((5, 4))), diff.tensor(np.zeros(4))
        with pytest.raises(DiffError, match="shape mismatch"):
            diff.affine([diff.param(np.ones((2, 3))), diff.param(np.ones((3, 2)))], w, b,
                        "identity")
        with pytest.raises(DiffError, match="shape mismatch"):
            diff.affine([], w, b, "identity")

    def test_shape_errors(self):
        x, w = diff.tensor(np.ones((2, 3))), diff.tensor(np.ones((3, 4)))
        with pytest.raises(DiffError, match="shape mismatch"):
            diff.affine(x, diff.tensor(np.ones((2, 4))), diff.tensor(np.zeros(4)), "identity")
        with pytest.raises(DiffError, match="bias shape"):
            diff.affine(x, w, diff.tensor(np.zeros(3)), "identity")
        with pytest.raises(DiffError, match="unknown activation"):
            diff.affine(x, w, diff.tensor(np.zeros(4)), "relu")


# magnitudes far apart give row gradients whose sums depend on their order
_COSINE_VALUES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 3.0, 1e-3, -1e3]),
                           st.floats(-1e3, 1e3))


def _run_or_error(build, leaf_values, scale):
    """[loss values, leaf gradient] of `build(leaf)` backpropagated with
    `scale`, or the text of the `DiffError` building it raised."""
    leaf = diff.param(leaf_values)
    try:
        loss = build(leaf)
    except DiffError as error:
        return str(error)
    diff.backward(diff.scale(loss, scale))
    return [loss.values, leaf.grad]


def _assert_same_run(got, expected):
    if isinstance(expected, str):
        assert got == expected
        return
    for a, b in zip(got, expected, strict=True):
        assert np.array_equal(_bits(a), _bits(b))


class TestCosineDistance:
    """The indexed pair cosine against its gathered oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_gathered_between_other_consumers_bitwise(self, data):
        # the table's gradient adds the first product's rows, the cosine's
        # left and right scatter-sums, then the second product's rows
        n, dim = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 5))
        count = data.draw(st.integers(0, 25))
        left, right = (np.asarray(data.draw(st.lists(st.integers(0, n - 1), min_size=count,
                                                     max_size=count)), dtype=np.int64)
                       for _ in range(2))
        table = data.draw(arrays(np.float64, (n, dim), elements=_COSINE_VALUES))
        before, after = (diff.tensor(data.draw(arrays(np.float64, (n, dim),
                                                      elements=_COSINE_VALUES)))
                         for _ in range(2))
        weights = diff.tensor(data.draw(arrays(np.float64, (count,), elements=_COSINE_VALUES)))
        budget = data.draw(_BUDGETS)

        def build(cosine):
            def loss(leaf):
                first = diff.sum_all(diff.mul(leaf, before))
                pairs = diff.sum_all(diff.mul(cosine(leaf, left, right), weights))
                return diff.add(diff.add(first, pairs), diff.sum_all(diff.mul(leaf, after)))
            return loss

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diff, "BLOCK_BYTES", budget)
            fused = _run_or_error(build(diff.cosine_distance), table, 1.0)
        # a row whose squared norm underflows (0 included) is refused, as its
        # backward would divide by 0
        squares = np.sqrt((table * table).sum(axis=1)) ** 2
        if np.any(squares[np.concatenate([left, right])] < np.finfo(np.float64).tiny):
            assert isinstance(fused, str) and fused.startswith("zero-norm embedding")
        else:
            _assert_same_run(fused, _run_or_error(build(reference_cosine_distance), table, 1.0))

    def test_errors(self):
        table = diff.tensor(np.eye(3))
        with pytest.raises(DiffError, match="one length"):
            diff.cosine_distance(table, [0, 1], [1])
        with pytest.raises(DiffError, match="one length"):
            diff.cosine_distance(table, [[0]], [[1]])
        for left, right in (([0], [3]), ([-1], [0])):
            with pytest.raises(DiffError, match="cosine_distance index out of range"):
                diff.cosine_distance(table, left, right)


_MARGINS = st.one_of(st.sampled_from([0.0, 0.5, 2.5]), st.floats(0, 2))


@st.composite
def _finals(draw):
    n, dim = draw(st.integers(2, 7)), draw(st.integers(1, 5))
    return draw(arrays(np.float64, (n, dim), elements=_COSINE_VALUES))


@st.composite
def _alignment_pairs(draw, n):
    """(pairs, negatives) over n rows in `alignment_loss`'s form: 1-4 pairs
    and 1-25 negatives naming any of them, with repeated and self pairs."""
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=4))
    negatives = draw(st.lists(st.tuples(st.integers(0, len(pairs) - 1), st.tuples(ids, ids)),
                              min_size=1, max_size=25))
    return pairs, negatives


class TestCosineHinge:
    """The alignment hinge, composed over `cosine_distance` in small blocks,
    against the same hinge over gathers and the rowwise cosine."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_composed_bitwise(self, data):
        table = data.draw(_finals())
        pairs, negatives = data.draw(_alignment_pairs(len(table)))
        margin, budget = data.draw(_MARGINS), data.draw(_BUDGETS)
        scale = data.draw(st.sampled_from([1.0, -3.0, 1e-3]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diff, "BLOCK_BYTES", budget)
            fused = _run_or_error(
                lambda leaf: alignment_loss(pairs, negatives, margin, leaf), table, scale)
        expected = _run_or_error(
            lambda leaf: reference_alignment_loss(pairs, negatives, margin, leaf), table, scale)
        _assert_same_run(fused, expected)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_multi_pair_sums_equal_composed_bitwise(self, data):
        # one finals table under 2-3 KG pairs' losses, added as
        # `alignment_step` adds them
        table = data.draw(_finals())
        cases = [(*data.draw(_alignment_pairs(len(table))), data.draw(_MARGINS))
                 for _ in range(data.draw(st.integers(2, 3)))]
        budget = data.draw(_BUDGETS)

        def total(loss):
            def build(leaf):
                out = None
                for pairs, negatives, margin in cases:
                    pair_loss = loss(pairs, negatives, margin, leaf)
                    out = pair_loss if out is None else diff.add(out, pair_loss)
                return out
            return build

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diff, "BLOCK_BYTES", budget)
            fused = _run_or_error(total(alignment_loss), table, 1.0)
        _assert_same_run(fused, _run_or_error(total(reference_alignment_loss), table, 1.0))

    def test_errors(self):
        table = diff.tensor(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DiffError, match="zero-norm embedding"):
            alignment_loss([(0, 2)], [(0, (1, 2))], 0.5, table)
        with pytest.raises(DiffError, match="cosine_distance index out of range"):
            alignment_loss([(0, 2)], [(0, (0, 3))], 0.5, table)


@st.composite
def _masked_gradient(draw, count):
    """A (count,) hinge gradient whose dead rows hold 0.0 or -0.0, in one of
    four patterns: a random mask, one live row, every row live, or all rows
    live but one."""
    pattern = draw(st.sampled_from(["random", "one", "all", "all but one"]))
    if pattern == "random":
        live = draw(arrays(np.bool_, (count,)))
    else:
        live = np.full(count, pattern != "one")
        if pattern != "all":
            live[draw(st.integers(0, count - 1))] = pattern == "one"
    values = draw(arrays(np.float64, (count,), elements=st.one_of(
        st.sampled_from([1.0, -1.0, 0.5, 1e16, -1e-17]), st.floats(1e-3, 1e3))))
    zeros = draw(arrays(np.float64, (count,), elements=st.sampled_from([0.0, -0.0])))
    return np.where(live, values, zeros)


class TestLiveRows:
    """Both hinge backwards scatter the rows whose gradient is nonzero, and
    no other: their gradients equal the full-row oracles of `tests/util.py`
    bit for bit, and every scatter plan they build has one input per live
    row (`translation_l1`'s entity plan two: its heads, then its tails)."""

    @staticmethod
    def _grad_fn_with_plans(build, g, budget):
        """The op's grad_fn outputs for `g` under a `BLOCK_BYTES` budget, and
        the (index size, input count) of each scatter plan it built."""
        plans, scatter_plan = [], diff._scatter_plan

        def spy(index, num_rows, num_inputs, signs=None):
            plans.append((index.size, num_inputs))
            return scatter_plan(index, num_rows, num_inputs, signs)

        node = build()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diff, "BLOCK_BYTES", budget)
            patch.setattr(diff, "_scatter_plan", spy)
            return node._grad_fn(g), plans

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_translation_l1_equals_full_rows_bitwise(self, data):
        # few entities, so heads and tails repeat; values of 0 and +-1 give
        # exact zero deltas (sign 0); some rows are forced self-loops
        entity_count, relation_count = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
        dim, count = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 30))
        ids = arrays(np.int64, (count,), elements=st.integers(0, entity_count - 1))
        heads, tails = data.draw(ids), data.draw(ids)
        tails = np.where(data.draw(arrays(np.bool_, (count,))), heads, tails)
        rels = data.draw(arrays(np.int64, (count,), elements=st.integers(0, relation_count - 1)))
        e = data.draw(arrays(np.float64, (entity_count, dim), elements=_SCATTER_VALUES))
        r = data.draw(arrays(np.float64, (relation_count, dim), elements=_SCATTER_VALUES))
        g = data.draw(_masked_gradient(count))
        got, plans = self._grad_fn_with_plans(
            lambda: diff.translation_l1(diff.param(e), diff.param(r), heads, rels, tails),
            g, data.draw(_BUDGETS))
        expected = reference_translation_l1(diff.param(e), diff.param(r), heads, rels,
                                            tails)._grad_fn(g)
        for a, b in zip(got, expected, strict=True):
            assert np.array_equal(_bits(a), _bits(b))
        live = np.count_nonzero(g)
        assert plans == [(2 * live, live), (live, live)]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_cosine_distance_equals_full_rows_bitwise(self, data):
        n, dim = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 5))
        count = data.draw(st.integers(1, 25))
        ids = arrays(np.int64, (count,), elements=st.integers(0, n - 1))
        left, right = data.draw(ids), data.draw(ids)
        table = data.draw(arrays(np.float64, (n, dim), elements=_COSINE_VALUES))
        # rows whose squared norm underflows are refused; give them a 1.0
        table[np.sqrt((table * table).sum(axis=1)) ** 2 < np.finfo(np.float64).tiny, 0] = 1.0
        g = data.draw(_masked_gradient(count))
        got, plans = self._grad_fn_with_plans(
            lambda: diff.cosine_distance(diff.param(table), left, right),
            g, data.draw(_BUDGETS))
        gathered = reference_cosine_distance(diff.param(table), left, right)
        expected = [gather._grad_fn(rows)[0]
                    for gather, rows in zip(gathered._parents, gathered._grad_fn(g))]
        for a, b in zip(got, expected, strict=True):
            assert np.array_equal(_bits(a), _bits(b))
        live = np.count_nonzero(g)
        assert plans == [(live, live), (live, live)]

    def test_cosine_dead_pair_with_a_non_finite_cosine_still_scatters(self):
        # row 0's norm and its dot product with itself overflow, so pair 0's
        # cosine is inf / inf = nan; at a zero gradient its full-row term is
        # 0 * nan = nan, which the live-row backward passes on too
        table = np.array([[1e200, 1e200], [1.0, 2.0], [3.0, -1.0]])
        left, right, g = np.array([0, 1, 2]), np.array([0, 2, 1]), np.array([0.0, 1.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            node = diff.cosine_distance(diff.param(table), left, right)
            got = node._grad_fn(g)
            gathered = reference_cosine_distance(diff.param(table), left, right)
            expected = [gather._grad_fn(rows)[0]
                        for gather, rows in zip(gathered._parents, gathered._grad_fn(g))]
        assert np.isnan(node.values[0])
        for a, b in zip(got, expected, strict=True):
            assert np.isnan(a[0]).all() and np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("seed", [8000, 8001, 8002])
@settings(max_examples=8, deadline=None)
@given(budget=_BUDGETS)
def test_model_gradients_equal_composed_graphs_bitwise(seed, budget):
    """Whole encoder, completion and alignment graphs with the fused ops in
    small blocks against the same graphs built from the composed forms."""
    def run(patches):
        results = []
        for which in range(3):
            with pytest.MonkeyPatch.context() as patch:
                for name, value in patches.items():
                    patch.setattr(diff, name, value)
                _, loss, leaves = _model_losses(seed)[which]
                diff.backward(loss)
            results.append([loss.values] + [leaf.grad for leaf in leaves])
        return results

    fused = run({"BLOCK_BYTES": budget})
    composed = run({"affine": reference_affine, "cosine_distance": reference_cosine_distance,
                    "translation_l1": reference_translation_l1})
    for got, expected in zip(fused, composed):
        for a, b in zip(got, expected):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(_bits(a), _bits(b))


class TestMlp:
    def test_dims_and_forward_shape(self):
        rng = np.random.default_rng(0)
        mlp = diff.Mlp.create([4, 4, 2], ("leakyrelu", "identity"), rng)
        assert [w.values.shape for w in mlp.weights] == [(4, 4), (4, 2)]
        out = mlp(diff.tensor(np.ones((3, 4))))
        assert out.values.shape == (3, 2)

    def test_biases_start_at_zero(self):
        mlp = diff.Mlp.create([3, 3], ("identity",), np.random.default_rng(2))
        assert np.all(mlp.biases[0].values == 0)

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        mlp = diff.Mlp.create([3, 3, 1], ("leakyrelu", "identity"), rng)
        x0 = away_from_kinks(rng.normal(size=(2, 3)))

        def wrt_weight(t):
            saved = mlp.weights[0]
            mlp.weights[0] = t
            try:
                return diff.sum_all(mlp(diff.tensor(x0)))
            finally:
                mlp.weights[0] = saved

        assert diff.grad_check(wrt_weight, mlp.weights[0].values.copy(), step=STEP) < TOL


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = diff.param(np.array([1.0, 2.0]))
        opt = diff.Adam([p], lr=0.1)
        for _ in range(3):
            p.grad = np.zeros(2)
            opt.step()
        assert p.values.tolist() == [1.0, 2.0]

    def test_zero_gradient_and_moments_write_nothing(self):
        values = np.array([1.5, -0.0, 0.0, -2.0])
        p = diff.param(values.copy())
        opt = diff.Adam([p], lr=0.1)
        # read-only, so a step that wrote any of them would raise
        for array in (p.values, opt.m[0], opt.v[0]):
            array.flags.writeable = False
        for t, zero in enumerate((0.0, -0.0, 0.0), start=1):
            p.grad = np.full(4, zero)
            opt.step()
            assert opt.t == t
        assert np.array_equal(_bits(p.values), _bits(values))

    def test_zero_gradients_with_momentum_equal_allocating_formula(self):
        # a live step, then zero gradients of either sign: the moments still
        # carry the parameter, bit for bit as the allocating formula does
        rng = np.random.default_rng(4)
        expected = [rng.normal(size=(3, 2)), rng.normal(size=(4,))]
        m, v = [np.zeros(e.shape) for e in expected], [np.zeros(e.shape) for e in expected]
        params = [diff.param(e.copy()) for e in expected]
        opt = diff.Adam(params, lr=0.05)
        for t in range(1, 6):
            grads = [rng.normal(size=e.shape) if t == 2 else
                     np.where(rng.random(e.shape) < 0.5, -0.0, 0.0) for e in expected]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            reference_adam_step(expected, grads, m, v, t, 0.05)
            for got, want in zip([p.values for p in params] + opt.m + opt.v, expected + m + v):
                assert np.array_equal(_bits(got), _bits(want))
        assert opt.t == 5

    def test_single_step_hand_value(self):
        # t=1, g=1: m_hat = v_hat = 1 exactly, so the update is lr / sqrt(1 + eps)
        p = diff.param(np.zeros(()))
        opt = diff.Adam([p], lr=0.001)
        p.grad = np.ones(())
        opt.step()
        expected = -0.001 / np.sqrt(1.0 + 1e-8)
        assert float(p.values) == pytest.approx(expected, abs=1e-18)
        assert float(p.values) == pytest.approx(-0.000999999995, abs=1e-12)

    def test_disjoint_optimizers_do_not_interact(self):
        p1 = diff.param(np.array([1.0]))
        p2 = diff.param(np.array([1.0]))
        opt1 = diff.Adam([p1], lr=0.5)
        opt2 = diff.Adam([p2], lr=0.5)
        p1.grad = np.array([1.0])
        opt1.step()
        assert opt2.t == 0
        assert np.all(opt2.m[0] == 0) and np.all(opt2.v[0] == 0)
        assert p2.values.tolist() == [1.0]

    def test_non_finite_gradient_errors(self):
        p = diff.param(np.zeros(2))
        opt = diff.Adam([p], lr=0.1)
        p.grad = np.array([1.0, np.nan])
        with pytest.raises(DiffError, match="non-finite gradient"):
            opt.step()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("warm", [False, True])
    def test_refused_step_changes_nothing(self, bad, warm):
        # the second parameter's gradient is non-finite, and the first
        # parameter, stepped before it is reached, must not move either; a
        # warm optimizer has taken one live step, so its moments are nonzero
        params = [diff.param(np.array([1.0, -2.0])), diff.param(np.array([3.0, 4.0]))]
        opt = diff.Adam(params, lr=0.1)
        if warm:
            for p in params:
                p.grad = np.array([0.5, -0.25])
            opt.step()
        before = [a.copy() for a in [p.values for p in params] + opt.m + opt.v]
        params[0].grad = np.array([1.0, 1.0])
        params[1].grad = np.array([1.0, bad])
        with pytest.raises(DiffError, match="non-finite gradient"):
            opt.step()
        assert opt.t == int(warm)
        for got, want in zip([p.values for p in params] + opt.m + opt.v, before):
            assert np.array_equal(_bits(got), _bits(want))

    def test_none_gradients_are_skipped(self):
        p = diff.param(np.array([3.0]))
        opt = diff.Adam([p], lr=0.1)
        opt.step()
        assert p.values.tolist() == [3.0]

    @pytest.mark.parametrize("seed", range(3))
    def test_in_place_steps_equal_allocating_formula_across_a_resume(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [(3, 4), (5,), ()]
        expected = [rng.normal(size=shape) for shape in shapes]
        m = [np.zeros(shape) for shape in shapes]
        v = [np.zeros(shape) for shape in shapes]
        params = [diff.param(values.copy()) for values in expected]
        opt = diff.Adam(params, lr=0.05)
        for t in range(1, 8):
            if t == 4:  # resume from the state dict into fresh tensors
                params = [diff.param(p.values.copy()) for p in params]
                state = opt.state_dict()
                opt = diff.Adam(params, lr=0.05)
                opt.load_state_dict(state)
            # each parameter skips a step now and then
            grads = [None if (t + i) % 3 == 0 else rng.normal(size=shape) * 10.0 ** (t - 4)
                     for i, shape in enumerate(shapes)]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            reference_adam_step(expected, grads, m, v, t, 0.05)
            for got, want in zip([p.values for p in params] + opt.m + opt.v, expected + m + v):
                assert np.array_equal(_bits(got), _bits(want))

    def test_load_state_dict_refuses_moment_lists_of_another_length(self):
        # a short `v` list would leave the trailing parameters unstepped
        params = [diff.param(np.ones(2)), diff.param(np.ones(3))]
        state = diff.Adam(params, lr=0.1).state_dict()
        for key in ("m", "v"):
            with pytest.raises(DiffError, match="parameter count"):
                diff.Adam(params, lr=0.1).load_state_dict(dict(state, **{key: state[key][:1]}))

    def test_state_dict_copies_signed_zeros_and_gives_plus_zeros_fresh(self):
        p = diff.param(np.ones(4))
        opt = diff.Adam([p], lr=0.1)
        opt.m[0][1] = -0.0
        state = opt.state_dict()
        assert np.array_equal(_bits(state["m"][0]), _bits(opt.m[0]))
        assert np.signbit(state["m"][0][1])
        assert not _bits(state["v"][0]).any()
        for saved, kept in ((state["m"][0], opt.m[0]), (state["v"][0], opt.v[0])):
            assert not np.shares_memory(saved, kept)
        clone = diff.Adam([diff.param(np.ones(4))], lr=0.1)
        clone.load_state_dict(state)
        assert np.array_equal(_bits(clone.m[0]), _bits(opt.m[0]))

    def test_state_dict_round_trip(self):
        p = diff.param(np.array([1.0, 2.0]))
        opt = diff.Adam([p], lr=0.01)
        p.grad = np.array([0.5, -0.5])
        opt.step()
        state = opt.state_dict()
        clone = diff.Adam([diff.param(p.values.copy())], lr=0.01)
        clone.load_state_dict(state)
        assert clone.t == opt.t
        assert np.array_equal(clone.m[0], opt.m[0])
        assert np.array_equal(clone.v[0], opt.v[0])
