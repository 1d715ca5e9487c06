import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jointkg import alignment as al
from jointkg import diff
from jointkg.alignment import (
    FusionParams,
    alignment_loss,
    build_alignment_matrix,
    final_embeddings,
    greedy_match,
    greedy_one_to_one,
    make_fusion_hook,
    nearest_negatives,
    top_columns,
)
from jointkg.entr import matrix_entropy
from jointkg.errors import AlignmentError
from jointkg.rgnn import EncoderParams, LayerEmbeddings, build_edges, encode

from .util import (const_mlp, identity_mlp, reference_blocked_nearest_negatives, reference_greedy,
                   reference_nearest_negatives, single_kg, weight_mlp)


def layers_of(entity_tables, relation_tables):
    return LayerEmbeddings([diff.tensor(np.asarray(e, dtype=np.float64)) for e in entity_tables],
                           [diff.tensor(np.asarray(r, dtype=np.float64)) for r in relation_tables])


def select_second_half(n):
    return weight_mlp(np.vstack([np.zeros((n, n)), np.eye(n)]))


def select_first_block(total, n):
    w = np.zeros((total, n))
    w[:n] = np.eye(n)
    return weight_mlp(w)


def sir_fuse(c, a, fuser):
    """The fusion hook's layer-0 entity table for completion table `c` and
    alignment table `a`, with `fuser` as the entity and the relation fuser."""
    relation = diff.tensor(np.ones((1, c.values.shape[1])))
    hook = make_fusion_hook(LayerEmbeddings([c], [relation]), FusionParams([fuser], [fuser]))
    return hook(a, relation, 0)[0]


class TestSirFuse:
    def test_selecting_alignment_half_is_identity(self):
        rng = np.random.default_rng(0)
        c = diff.tensor(rng.normal(size=(4, 3)))
        a = diff.tensor(rng.normal(size=(4, 3)))
        fused = sir_fuse(c, a, select_second_half(3))
        assert np.array_equal(fused.values, a.values)

    def test_zero_weights_with_bias_gives_constant_rows(self):
        c = diff.tensor(np.ones((4, 3)))
        a = diff.tensor(np.ones((4, 3)))
        fused = sir_fuse(c, a, const_mlp(6, [0.5, -1.0, 2.0]))
        assert np.allclose(fused.values, np.tile([0.5, -1.0, 2.0], (4, 1)))

    def test_selector_fusion_hook_equals_no_hook_through_encoder(self):
        rng = np.random.default_rng(1)
        multikg = single_kg([(0, 0, 1), (1, 1, 2), (2, 0, 0)])
        edges = build_edges(multikg)
        params = EncoderParams.create(2, 3, 3, 2, rng)
        completion_layers = encode(edges, EncoderParams.create(2, 3, 3, 2, rng))
        fusion = FusionParams(
            [select_second_half(3) for _ in range(3)],
            [select_second_half(3) for _ in range(3)],
        )
        plain = encode(edges, params)
        hooked = encode(edges, params, make_fusion_hook(completion_layers, fusion))
        for a, b in zip(plain.entities, hooked.entities):
            assert np.array_equal(a.values, b.values)

    def test_fusion_blocks_gradients_into_completion_tables(self):
        rng = np.random.default_rng(2)
        c_table = diff.param(rng.normal(size=(3, 2)))
        a_table = diff.param(rng.normal(size=(3, 2)))
        completion_layers = LayerEmbeddings([c_table], [diff.param(rng.normal(size=(1, 2)))])
        fusion = FusionParams(
            [al.Mlp.create([4, 2, 2], ("leakyrelu", "identity"), rng)],
            [al.Mlp.create([4, 2, 2], ("leakyrelu", "identity"), rng)],
        )
        hook = make_fusion_hook(completion_layers, fusion)
        fused_e, _ = hook(a_table, diff.param(rng.normal(size=(1, 2))), 0)
        diff.backward(diff.sum_all(fused_e))
        assert c_table.grad is None
        assert a_table.grad is not None

    def test_hook_reads_the_completion_tables_in_place(self):
        """Each layer's constant part shares its completion table's array;
        layer 0's is the completion parameter's own."""
        rng = np.random.default_rng(7)
        completion = EncoderParams.create(2, 3, 3, 2, rng)
        with diff.no_grad():
            completion_layers = encode(build_edges(single_kg([(0, 0, 1), (1, 1, 2)])),
                                       completion)
        assert completion_layers.entities[0] is completion.entity0
        hook = make_fusion_hook(completion_layers, FusionParams.create(2, 3, rng))
        for k in range(3):
            fused = hook(diff.param(rng.normal(size=(3, 3))),
                         diff.param(rng.normal(size=(2, 3))), k)
            for out, table in zip(fused, (completion_layers.entities[k],
                                          completion_layers.relations[k])):
                [constant] = [t for t in diff._topo(out) if not t.requires_grad]
                assert np.shares_memory(constant.values, table.values)


class TestFinalEmbeddings:
    def test_k0_identity_head_returns_layer_zero(self):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(4, 3))
        rel = rng.normal(size=(2, 3))
        layers = layers_of([table], [rel])
        entity_final, relations = final_embeddings(layers, identity_mlp(3))
        assert np.array_equal(entity_final.values, table)
        assert relations == layers.relations
        assert np.array_equal(relations[0].values, rel)

    def test_k1_selector_head_returns_layer_zero(self):
        """The head maps the entity stack; the relation tables come back
        unmapped and unstacked, layer 0's before layer 1's."""
        rng = np.random.default_rng(4)
        layer0 = rng.normal(size=(4, 3))
        layer1 = rng.normal(size=(4, 3))
        rel0 = rng.normal(size=(2, 3))
        rel1 = rng.normal(size=(2, 3))
        layers = layers_of([layer0, layer1], [rel0, rel1])
        entity_final, relations = final_embeddings(layers, select_first_block(6, 3))
        assert np.allclose(entity_final.values, layer0)
        assert relations == layers.relations
        assert np.array_equal(relations[0].values, rel0)
        assert np.array_equal(relations[1].values, rel1)

    def test_permuting_rows_permutes_finals(self):
        rng = np.random.default_rng(5)
        layer0 = rng.normal(size=(5, 3))
        layer1 = rng.normal(size=(5, 3))
        head = al.Mlp.create([6, 3, 3], ("leakyrelu", "identity"), np.random.default_rng(6))
        base, _ = final_embeddings(layers_of([layer0, layer1], [np.zeros((1, 3))] * 2), head)
        perm = rng.permutation(5)
        permuted, _ = final_embeddings(
            layers_of([layer0[perm], layer1[perm]], [np.zeros((1, 3))] * 2), head)
        assert np.allclose(permuted.values, base.values[perm])


class TestAlignmentMatrix:
    def test_identical_unit_vectors(self):
        u = np.array([[1.0, 0.0]])
        m = build_alignment_matrix(u, u.copy())
        assert m[0, 0] == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        m = build_alignment_matrix(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert m[0, 0] == pytest.approx(0.0)

    def test_hand_cosine(self):
        m = build_alignment_matrix(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert m[0, 0] == pytest.approx(0.70711, abs=5e-6)

    def test_zero_norm_errors(self):
        with pytest.raises(AlignmentError, match="zero-norm"):
            build_alignment_matrix(np.zeros((1, 2)), np.ones((1, 2)))

    def test_entries_within_unit_interval(self):
        rng = np.random.default_rng(7)
        m = build_alignment_matrix(rng.normal(size=(6, 4)), rng.normal(size=(5, 4)))
        assert np.all(m <= 1.0 + 1e-12) and np.all(m >= -1.0 - 1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        src = rng.normal(size=(4, 3))
        tgt = rng.normal(size=(5, 3))
        base = build_alignment_matrix(src, tgt)
        scaled = build_alignment_matrix(src * 7.5, tgt)
        assert np.allclose(base, scaled, atol=1e-12)
        assert [(r, c) for r, c, _ in greedy_match(base)] == [
            (r, c) for r, c, _ in greedy_match(scaled)
        ]


class TestNearestNegatives:
    def test_unique_nearest_is_used(self):
        source = np.array([[1.0, 0.0], [0.99, 0.1], [-1.0, 0.5]])
        target = np.array([[0.5, 0.5], [0.0, 1.0]])
        negatives = nearest_negatives([(0, 0)], source, target, k_neg=1)
        assert [0, 1, 0] in negatives.tolist()  # entity 1 is uniquely nearest to entity 0

    def test_tie_breaks_to_lowest_id(self):
        source = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
        target = np.array([[1.0, 1.0], [1.0, -1.0]])
        negatives = nearest_negatives([(0, 0)], source, target, k_neg=1)
        swapped_left = [[a, b] for _, a, b in negatives.tolist() if b == 0 and a != 0]
        assert swapped_left == [[1, 0]]  # ids 1 and 2 tie at cosine 1; lowest wins

    def test_positive_pair_never_appears(self):
        rng = np.random.default_rng(9)
        source = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 3))
        pairs = [(0, 3), (2, 1)]
        negatives = nearest_negatives(pairs, source, target, k_neg=2)
        assert negatives.dtype == np.int64 and negatives.shape == (len(pairs) * 4, 3)
        for index, left, right in negatives.tolist():
            assert (left, right) != pairs[index]

    def test_kg_too_small_errors(self):
        with pytest.raises(AlignmentError, match="smaller than"):
            nearest_negatives([(0, 0)], np.ones((2, 2)), np.ones((5, 2)), k_neg=2)


@st.composite
def tie_blocks(draw):
    """Blocks drawn mostly from a few values (-0.0, -inf and NaN among them),
    so rows tie across many columns, with every k from 1 to the width."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 9))
    few = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.nan])
    values = draw(arrays(np.float64, (rows, cols), elements=st.one_of(few, st.floats(-1, 1))))
    return values, draw(st.integers(1, cols))


class TestTopColumns:
    @settings(max_examples=300, deadline=None)
    @given(tie_blocks())
    def test_equals_stable_full_sort(self, case):
        values, k = case
        top = top_columns(values, k)
        assert top.dtype == np.int64
        assert np.array_equal(top, np.argsort(-values, axis=1, kind="stable")[:, :k])


@st.composite
def dyadic_negative_cases(draw):
    """Finals whose unit rows and cosines are exact in any summation order:
    each row is a signed power-of-two multiple of a pattern with 1 or 4
    entries of +-1. Rows share 1-3 patterns, so tables hold duplicate rows,
    and a table of one pattern is rank one."""
    dim = draw(st.integers(4, 6))
    k_neg = draw(st.integers(1, 4))

    def table():
        patterns = []
        for _ in range(draw(st.integers(1, 3))):
            size = draw(st.sampled_from([1, 4]))
            row = np.zeros(dim)
            row[draw(st.lists(st.integers(0, dim - 1), min_size=size, max_size=size,
                              unique=True))] = draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                                             min_size=size, max_size=size))
            patterns.append(row)
        return np.array([patterns[draw(st.integers(0, len(patterns) - 1))]
                         * draw(st.sampled_from([-4.0, -1.0, 0.5, 1.0, 2.0]))
                         for _ in range(draw(st.integers(k_neg + 1, 9)))])

    source, target = table(), table()
    pairs = draw(st.lists(st.tuples(st.integers(0, len(source) - 1),
                                    st.integers(0, len(target) - 1)), max_size=8))
    if draw(st.booleans()):
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return pairs, source, target, k_neg


class TestNearestNegativesOracle:
    @settings(max_examples=300, deadline=None)
    @given(dyadic_negative_cases(), st.integers(1, 240))
    def test_equals_reference_loop(self, case, block_bytes):
        """Ties everywhere (duplicate rows, rank-one tables), with budgets of
        1-240 bytes, so blocks of 1-15 rows and positives straddle block
        edges; the (positive index, left, right) rows agree one by one."""
        pairs, source, target, k_neg = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diff, "BLOCK_BYTES", block_bytes)
            negatives = nearest_negatives(pairs, source, target, k_neg)
        assert negatives.dtype == np.int64 and negatives.shape == (2 * k_neg * len(pairs), 3)
        assert (negatives.tolist()
                == [list(row) for row in reference_nearest_negatives(pairs, source, target,
                                                                     k_neg)])


@st.composite
def cosine_kernel_cases(draw):
    """Finals of 30-400 rows at dim 8, 32 or 128, a third of them with half
    their rows collapsed onto one vector (scaled), seed pairs drawn one to
    one, k from 1 to n - 2, and in a fifth of the cases a `BLOCK_BYTES` that
    splits the larger side's seed rows into 1-63 blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n1, n2 = draw(st.integers(30, 400)), draw(st.integers(30, 400))
    dim = draw(st.sampled_from([8, 32, 128]))
    source, target = rng.normal(size=(n1, dim)), rng.normal(size=(n2, dim))
    if draw(st.integers(0, 2)) == 0:
        for table in (source, target):
            half = rng.permutation(len(table))[:len(table) // 2]
            table[half] = table[0] * rng.uniform(0.5, 2.0, size=(half.size, 1))
    count = draw(st.integers(0, min(n1, n2)))
    pairs = np.column_stack([rng.permutation(n1)[:count], rng.permutation(n2)[:count]])
    block_bytes = diff.BLOCK_BYTES
    if draw(st.integers(0, 4)) == 0 and count:
        per_block = -(-count // draw(st.integers(1, min(63, count))))
        block_bytes = per_block * 3 * 8 * max(n1, n2)
    return pairs, source, target, draw(st.integers(1, min(n1, n2) - 2)), block_bytes


class TestNearestNegativesKernel:
    @settings(max_examples=300, deadline=None)
    @given(cosine_kernel_cases())
    def test_equals_the_blocked_loop_bitwise(self, case):
        """Reading `cosine_rows` over the gathered seed rows gives the same
        bits as normalising the whole table and gathering its rows."""
        pairs, source, target, k_neg, block_bytes = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diff, "BLOCK_BYTES", block_bytes)
            negatives = nearest_negatives(pairs, source, target, k_neg)
            expected = reference_blocked_nearest_negatives(pairs, source, target, k_neg)
        assert np.array_equal(negatives, expected)


def finals_with_bad_row(bad, table):
    """Random (6 x 4) source and (5 x 4) target finals whose row 3 of
    `table` holds a nan or inf component, or is all zero."""
    rng = np.random.default_rng(11)
    finals = {"source": rng.normal(size=(6, 4)), "target": rng.normal(size=(5, 4))}
    if bad == 0.0:
        finals[table][3] = 0.0
    else:
        finals[table][3, 1] = bad
    return finals["source"], finals["target"]


BAD_ROWS = [(np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"),
            (0.0, "zero-norm")]


@pytest.mark.parametrize("bad, kind", BAD_ROWS)
@pytest.mark.parametrize("table", ["source", "target"])
class TestFinalsRefusals:
    """`cosine_rows` refuses a non-finite or zero-norm row of either table,
    by name, for each of its callers."""

    def test_alignment_matrix(self, bad, kind, table):
        with pytest.raises(AlignmentError, match=f"^{kind} embedding in {table} final table$"):
            build_alignment_matrix(*finals_with_bad_row(bad, table))

    def test_matrix_entropy(self, bad, kind, table):
        with pytest.raises(AlignmentError, match=f"^{kind} embedding in {table} final table$"):
            matrix_entropy(*finals_with_bad_row(bad, table))

    @pytest.mark.parametrize("seeded", [False, True])
    def test_nearest_negatives(self, bad, kind, table, seeded):
        """A side's seed rows are the kernel's "source" table and its whole
        table the "target" one, whichever argument holds the row."""
        pairs = [(0, 0), (3, 3)] if seeded else [(0, 0), (1, 1)]
        expected = "source" if seeded else "target"
        with pytest.raises(AlignmentError, match=f"^{kind} embedding in {expected} final table$"):
            nearest_negatives(pairs, *finals_with_bad_row(bad, table), k_neg=2)


class TestAlignmentLoss:
    def finals(self):
        # rows: 0 and 1 identical, 2 orthogonal to them, 3 at distance 0.4, 4 at 0.1
        def at_distance(d):
            angle = np.arccos(1.0 - d)
            return [np.cos(angle), np.sin(angle)]

        rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], at_distance(0.4),
                         at_distance(0.1)])
        return diff.tensor(rows)

    def test_margin_satisfied_term_is_zero(self):
        loss = alignment_loss([(0, 1)], [(0, (0, 2))], 0.5, self.finals())
        assert loss.item() == pytest.approx(0.0)

    def test_hand_value(self):
        # gamma 0.5 + d(pos) 0.4 - d(neg) 0.1 = 0.8
        loss = alignment_loss([(0, 3)], [(0, (0, 4))], 0.5, self.finals())
        assert loss.item() == pytest.approx(0.8, abs=1e-12)

    def test_negative_equal_to_positive_gives_margin(self):
        loss = alignment_loss([(0, 3)], [(0, (0, 3))], 0.5, self.finals())
        assert loss.item() == pytest.approx(0.5)

    def test_mean_reduction_and_non_negativity(self):
        finals = self.finals()
        single = alignment_loss([(0, 3)], [(0, (0, 4))], 0.5, finals).item()
        doubled = alignment_loss([(0, 3)], [(0, (0, 4)), (0, (0, 4))], 0.5, finals).item()
        assert doubled == pytest.approx(single)
        assert single >= 0.0

    @pytest.mark.parametrize("index", [-1, 2])
    @pytest.mark.parametrize("form", ["items", "array"])
    def test_positive_index_outside_pairs_errors(self, index, form):
        # -1 would read the last pair and 2 escape as an IndexError
        negatives = [(index, (0, 2))]
        if form == "array":
            negatives = np.array([[index, 0, 2]], dtype=np.int64)
        with pytest.raises(AlignmentError, match="outside 0..1"):
            alignment_loss([(0, 3), (0, 4)], negatives, 1.9, self.finals())

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_item_form_equals_array_form_bitwise(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(2, 8))
        table = rng.normal(size=(n, data.draw(st.integers(1, 4))))
        ids = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=4))
        items = data.draw(st.lists(st.tuples(st.integers(0, len(pairs) - 1),
                                             st.tuples(ids, ids)), min_size=1, max_size=20))
        rows = np.array([(i, a, b) for i, (a, b) in items], dtype=np.int64)
        runs = []
        for negatives in (items, rows):
            leaf = diff.param(table.copy())
            loss = alignment_loss(pairs, negatives, 0.5, leaf)
            diff.backward(loss)
            runs.append((loss.values, leaf.grad))
        (loss_items, grad_items), (loss_rows, grad_rows) = runs
        assert loss_items.tobytes() == loss_rows.tobytes()
        assert grad_items.tobytes() == grad_rows.tobytes()


class TestGreedyMatch:
    def brute_force_best(self, matrix):
        # exhaustive search over one-to-one assignments of the 2x2 case
        a = matrix[0, 0] + matrix[1, 1]
        b = matrix[0, 1] + matrix[1, 0]
        return {(0, 0), (1, 1)} if a >= b else {(0, 1), (1, 0)}

    def test_clear_diagonal(self):
        matrix = np.array([[0.9, 0.1], [0.2, 0.8]])
        pairs = {(r, c) for r, c, _ in greedy_match(matrix)}
        assert pairs == {(0, 0), (1, 1)}
        assert pairs == self.brute_force_best(matrix)

    def test_greedy_takes_global_max_first(self):
        matrix = np.array([[0.9, 0.8], [0.85, 0.1]])
        assert [(r, c) for r, c, _ in greedy_match(matrix)] == [(0, 0), (1, 1)]

    def test_identity_matrix_matches_diagonal(self):
        pairs = {(r, c) for r, c, _ in greedy_match(np.eye(4))}
        assert pairs == {(i, i) for i in range(4)}

    def test_tie_breaks_on_row_then_column(self):
        matrix = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert [(r, c) for r, c, _ in greedy_match(matrix)] == [(0, 0), (1, 1)]

    def test_one_to_one_on_random_matrices(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            rows, cols = rng.integers(1, 8, size=2)
            matches = greedy_match(rng.normal(size=(rows, cols)))
            assert len(matches) == min(rows, cols)
            assert len({r for r, _, _ in matches}) == len(matches)
            assert len({c for _, c, _ in matches}) == len(matches)

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(AlignmentError, match="finite"):
            greedy_match(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@st.composite
def greedy_cases(draw):
    """Matrices rounded to 0-2 decimals (so ties are common), random taken
    rows and columns, and every limit from 0 to min(n, m) + 1."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    values = draw(arrays(np.float64, (rows, cols), elements=st.floats(-1, 1)))
    values = np.round(values, draw(st.integers(0, 2)))
    taken_rows = draw(st.lists(st.integers(0, rows - 1), unique=True)) if rows else []
    taken_cols = draw(st.lists(st.integers(0, cols - 1), unique=True)) if cols else []
    limit = draw(st.integers(0, min(rows, cols) + 1))
    return values, limit, taken_rows, taken_cols


class TestGreedyOneToOne:
    @settings(max_examples=300, deadline=None)
    @given(greedy_cases())
    def test_equals_reference_loop(self, case):
        values, limit, taken_rows, taken_cols = case
        assert (greedy_one_to_one(values, limit, taken_rows, taken_cols)
                == reference_greedy(values, limit, taken_rows, taken_cols))

    @settings(max_examples=100, deadline=None)
    @given(greedy_cases())
    def test_greedy_match_equals_reference_loop(self, case):
        values = case[0]
        matches = greedy_match(values)
        assert [(r, c) for r, c, _ in matches] == reference_greedy(values, min(values.shape))
        assert all(score == values[r, c] for r, c, score in matches)

    @settings(max_examples=300, deadline=None)
    @given(greedy_cases(), st.integers(1, 120))
    def test_small_blocks_equal_reference_loop(self, case, block_bytes):
        """Heads computed in blocks of 1-120 bytes (a few rows, often one),
        at every limit."""
        values, _, taken_rows, taken_cols = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diff, "BLOCK_BYTES", block_bytes)
            for limit in range(min(values.shape) + 2):
                assert (greedy_one_to_one(values, limit, taken_rows, taken_cols)
                        == reference_greedy(values, limit, taken_rows, taken_cols))

    def test_stale_head_breaks_ties_on_column(self):
        # row 1's head is column 0; once row 0 takes it, row 1's recomputed
        # head is the lowest of three tied zeros
        values = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        assert greedy_one_to_one(values, 2) == [(0, 0), (1, 1)]

    def test_collapsed_matrix_equals_reference_loop(self):
        """Near-identical rows, as collapsed finals give: a rank-one matrix
        makes every row rank the columns alike, so the rows picked last find
        their heads taken again and again (rounding adds ties)."""
        rng = np.random.default_rng(11)
        values = np.round(0.999 + 1e-3 * np.outer(rng.random(40), rng.random(50)), 6)
        taken_rows, taken_cols = [3, 7], [0, 49]
        for limit in (1, 17, 38, 39):
            assert (greedy_one_to_one(values, limit, taken_rows, taken_cols)
                    == reference_greedy(values, limit, taken_rows, taken_cols))
        assert greedy_one_to_one(values.T, 40) == reference_greedy(values.T, 40)

    @pytest.mark.parametrize("block_rows", [1, 3, 32])
    @pytest.mark.parametrize("values", [
        np.ones((30, 40)), np.ones((40, 30)),
        np.outer([1.0, 2.0, 2.0, 1.0, 3.0] * 6, [2.0, 1.0, 1.0, 3.0] * 10),
        np.outer([1.0, 1.0, 2.0] * 12, [3.0, 1.0, 3.0] * 9),
        -np.arange(50.0) - 1e-9 * np.arange(60.0)[:, None]],
        ids=["ones", "ones-tall", "rank-one", "rank-one-tall", "shared-order"])
    def test_tie_matrices_equal_reference_loop(self, values, block_rows, monkeypatch):
        """Rows that tie on many columns, or rank the columns alike: rows
        picked late recompute their heads many times. Heads are computed in
        blocks of 1, 3 or 32 rows."""
        monkeypatch.setattr(diff, "BLOCK_BYTES", block_rows * 8 * values.shape[1])
        taken_rows, taken_cols = [2, 5], [0, 7, 8]
        for limit in (1, 10, min(values.shape) - 2, min(values.shape)):
            assert (greedy_one_to_one(values, limit, taken_rows, taken_cols)
                    == reference_greedy(values, limit, taken_rows, taken_cols))
        assert greedy_one_to_one(values, values.size) == reference_greedy(values, values.size)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        values = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(AlignmentError, match="finite"):
            greedy_one_to_one(values, 1, taken_rows=[1])

    def test_zero_limit_returns_before_sorting(self):
        # a zero limit returns before the finiteness check and any head
        assert greedy_one_to_one(np.full((3, 3), np.nan), 0) == []
        assert greedy_one_to_one(np.ones((3, 3)), 0) == []


class TestMatchesFile:
    def test_written_format(self, tmp_path):
        path = tmp_path / "matches.tsv"
        al.write_matches([(0, 1, 0.75)], ["a0", "a1"], ["b0", "b1"], path)
        assert path.read_text() == "a0\tb1\t0.750000\n"
