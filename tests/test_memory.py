"""Memory guards for the fused and blocked ops: one tape node per `Mlp`
layer, no per-pair rows on the tape of either cosine loss, no concatenated
fusion or head input on the alignment tape, a fusion hook that copies no
completion table, traced peaks of the blocked ops, of the entropy and of
greedy matching bounded by their kept tables plus one block budget (a few
cache tiles for the tiled forward), an ENTR step at budget 0 that builds no
alignment matrix, pooled row ranges whose buffers share one budget,
checkpoint saves and loads that build no whole-file copy, and a resume that
keeps no second copy of the checkpoint's arrays."""
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse  # noqa: F401 - imported before tracing, so no peak counts its import

from jointkg import diff, train
from jointkg.alignment import (
    FusionParams,
    alignment_loss,
    build_alignment_matrix,
    greedy_one_to_one,
    make_fusion_hook,
)
from jointkg.completion import alignment_constraint_loss
from jointkg.entr import matrix_entropy
from jointkg.rgnn import LayerEmbeddings
from jointkg.train import Checkpoint, TrainState, resume, snapshot

from .test_evaluate import row_pool
from .test_train import small_config
from .util import held_arrays, toy_pair_dataset, traced_peak

BUDGET = 1 << 20


@pytest.fixture
def small_budget(monkeypatch):
    monkeypatch.setattr(diff, "BLOCK_BYTES", BUDGET)


@pytest.mark.parametrize("activations", [("leakyrelu", "identity"), ("tanh",),
                                         ("identity", "tanh", "leakyrelu")])
def test_each_mlp_layer_leaves_one_node(activations):
    rng = np.random.default_rng(0)
    dims = [6, 5, 4, 3][:len(activations) + 1]
    mlp = diff.Mlp.create(dims, activations, rng)
    out = mlp(diff.param(rng.normal(size=(7, dims[0]))))
    nodes = [node for node in diff._topo(out) if node._grad_fn is not None]
    assert [node._op for node in nodes] == ["affine"] * len(activations)
    for node in nodes:
        tables = {id(node.values)} | {id(parent.values) for parent in node._parents}
        for array in held_arrays(node):
            assert array.shape[0] != 7 or id(array) in tables, \
                f"{node!r} holds a {array.shape} table besides its input and output"


def test_hinge_node_holds_no_per_pairing_rows():
    # neither cosine loss tapes a (pairs x dim) float64 array: the alignment
    # hinge over 15 pairings of 3 pairs, the seed constraint over 5 pairs on
    # each of 3 layers; every table has 9 rows
    rng = np.random.default_rng(1)
    finals = diff.param(rng.normal(size=(9, 4)))
    pairs = [(0, 5), (1, 6), (2, 7)]
    negatives = [(i, (int(rng.integers(9)), right)) for i, (_, right) in enumerate(pairs)
                 for _ in range(5)]
    seeds = np.array([[0, 5], [1, 6], [2, 7], [3, 8], [4, 4]])
    layers = LayerEmbeddings([diff.param(rng.normal(size=(9, 4))) for _ in range(3)], [])
    for loss, counts in ((alignment_loss(pairs, negatives, 0.5, finals), (3, 15)),
                         (alignment_constraint_loss(seeds, layers), (5,))):
        for node in diff._topo(loss):
            for array in held_arrays(node):
                assert not (array.ndim == 2 and array.dtype == np.float64
                            and array.shape[0] in counts), \
                    f"{node!r} holds a {array.shape} float64 array"


# Peaks on shapes that span about twenty blocks. Each bound is what the op
# must keep (its int8 signs, one-dimensional per-row arrays and sparse scatter
# plans, or its output table) plus one block budget, which holds every
# temporary of a blocked loop at once; a single whole (rows x dim) float64
# temporary exceeds it, and so does a second budget.

ROWS, DIM = 40_000, 64
VECTOR = 8 * ROWS


def test_translation_l1_peak_stays_within_signs_and_budgets(small_budget):
    rng = np.random.default_rng(2)
    entities = diff.param(rng.normal(size=(500, DIM)))
    relations = diff.param(rng.normal(size=(10, DIM)))
    heads, tails = rng.integers(500, size=ROWS), rng.integers(500, size=ROWS)
    rels = rng.integers(10, size=ROWS)
    weights = diff.tensor(rng.normal(size=ROWS))

    def step():
        scores = diff.translation_l1(entities, relations, heads, rels, tails)
        diff.backward(diff.sum_all(diff.mul(scores, weights)))

    # the signs, about eleven (rows,) vectors (the scatter plans' orders and
    # entries, the index arrays, the scores and their gradients) and one
    # buffer of u, which every column block reuses
    _, peak = traced_peak(step)
    assert peak < ROWS * DIM + 12 * VECTOR + BUDGET


def test_translation_l1_forward_peak_stays_within_signs_output_and_tiles():
    # at the default budget the whole (rows x dim) float64 table fits in one
    # block; the forward still takes only a few tiles of it at a time
    rows = 30_000
    assert 8 * rows * DIM < diff.BLOCK_BYTES
    rng = np.random.default_rng(5)
    entities = diff.param(rng.normal(size=(500, DIM)))
    relations = diff.param(rng.normal(size=(10, DIM)))
    heads, tails = rng.integers(500, size=rows), rng.integers(500, size=rows)
    rels = rng.integers(10, size=rows)
    _, peak = traced_peak(lambda: diff.translation_l1(entities, relations, heads, rels, tails))
    assert peak < rows * DIM + 8 * rows + 6 * 8 * diff._EDGE_BLOCK * DIM


def test_hinge_peak_stays_within_vectors_and_budgets(small_budget):
    rng = np.random.default_rng(3)
    finals = diff.param(rng.normal(size=(2_000, DIM)))
    pairs = rng.integers(2_000, size=(ROWS, 2))
    negatives = list(zip(range(ROWS), map(tuple, rng.integers(2_000, size=(ROWS, 2)).tolist())))
    # about 37 (pairings,) vectors (both nodes' norms, cosines and scatter
    # plans, the hinge's terms) and the backward's four tables (u, v and two
    # work tables), which take one budget, or one column each when a column
    # of them is more: one column of the four is 1.28 MB at 40,000 pairings
    _, peak = traced_peak(lambda: diff.backward(alignment_loss(pairs, negatives, 0.5, finals)))
    assert peak < 38 * VECTOR + max(BUDGET, 4 * VECTOR)


def test_matrix_entropy_peak_stays_within_one_table_and_budgets(small_budget):
    # the one table kept is the (rows,) vector of row entropies; a table of
    # the matrix's size exceeds the bound
    matrix = np.random.default_rng(4).normal(size=(2_000, 1_500))
    _, peak = traced_peak(lambda: matrix_entropy(matrix))
    assert peak < BUDGET + 8 * len(matrix)


def test_cosine_entropy_peak_stays_within_unit_finals_and_one_budget(small_budget):
    # the unit finals and the (rows,) vector of row entropies are kept; each
    # block of cosines and its two softmax tables take one budget together,
    # where the whole 2,000 x 1,500 matrix would take 24 MB
    rng = np.random.default_rng(4)
    source, target = rng.normal(size=(2_000, DIM)), rng.normal(size=(1_500, DIM))
    _, peak = traced_peak(lambda: matrix_entropy(source, target))
    assert peak < source.nbytes + target.nbytes + BUDGET + 8 * 8 * len(source)


def test_entr_step_at_budget_zero_builds_no_alignment_matrix(small_budget, monkeypatch):
    # the untrained model's entropy equals its baseline, so the budget is 0
    # and greedy enlargement needs no matrix: the step's peak stays below
    # one 2,000 x 2,000 float64 table
    state = TrainState(toy_pair_dataset(entities=2_000, extra_edges=4_000, seed_pairs=200),
                       small_config(layers=1, dim=8))
    state.initialize_entropy_baseline()
    built = []
    monkeypatch.setattr(train, "build_alignment_matrix",
                        lambda *args: built.append(args) or build_alignment_matrix(*args))
    record, peak = traced_peak(state.entr_step)
    assert record["pairs"]["aa|bb"]["budget"] == 0
    assert peak < 8 * 2_000 * 2_000
    assert built == []


def test_pooled_ranges_share_one_budget_of_buffers():
    # three threads fill 16 MB of rows; the buffers they are lent hold one
    # budget between them, not one per thread
    names = set()

    def fill(rows, buffer):
        names.add(threading.current_thread().name)
        buffer.fill(1.0)

    with row_pool(3, BUDGET):
        _, peak = traced_peak(lambda: diff.pooled_rows(2_000, 1_000, fill))
    assert names and all(name.startswith("jointkg-rows") for name in names)
    assert peak < 1.1 * BUDGET


def test_greedy_peak_stays_within_vectors_and_budgets(small_budget):
    # row heads come from blocks of one budget each, and the heap and the
    # picks take a few hundred bytes per row and column; heads computed on
    # the whole free part at once would hold a table of the matrix's size
    n = 1_000
    values = np.random.default_rng(6).normal(size=(n, n))
    picks, peak = traced_peak(lambda: greedy_one_to_one(values, n, range(0, n, 7),
                                                        range(0, n, 5)))
    assert len(picks) == 800
    assert peak < 2 * BUDGET + 256 * (n + n)


def test_alignment_tape_keeps_no_fusion_or_head_concatenation():
    # at K = 2 the taped alignment graph keeps about 15 (N x dim) tables:
    # layer outputs, MLP hidden outputs and the attention nodes' state. One
    # (N x 2 dim) fusion input per fused layer and the head's (N x 3 dim)
    # layer stack, held as concatenations, would add 9 more; any one of
    # them alone adds at least 2
    state = TrainState(toy_pair_dataset(entities=2_000, extra_edges=4_000, seed_pairs=200),
                       small_config(layers=2, dim=32))
    state.fusion_hook()  # keeps the untaped completion layers, outside the trace
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        finals, _ = state.alignment_layers_and_finals(tape=True)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert finals.requires_grad
    assert after - before < 16.5 * finals.values.size * 8


def test_fusion_hook_copies_no_completion_table():
    # the hook wraps the K + 1 = 3 completion tables of each kind; a copy of
    # any one entity table would allocate n * dim float64 values
    rng = np.random.default_rng(8)
    n, dim = 2_000, 64
    layers = LayerEmbeddings([diff.tensor(rng.normal(size=(n, dim))) for _ in range(3)],
                             [diff.tensor(rng.normal(size=(4, dim))) for _ in range(3)])
    fusion = FusionParams.create(2, dim, rng)
    _, peak = traced_peak(lambda: make_fusion_hook(layers, fusion))
    assert peak < n * dim * 8


def _large_checkpoint():
    rng = np.random.default_rng(6)
    checkpoint = snapshot(TrainState(toy_pair_dataset(), small_config()), 0.0)
    checkpoint.parameters = {f"p{i:02d}": rng.normal(size=(32, DIM)) for i in range(64)}
    return checkpoint


def test_checkpoint_save_peak_stays_under_one_whole_file_string(tmp_path):
    # np.savez streams each array into its member; an encoded copy of the
    # arrays (base64 text, as format 2 built) would be about the file's size
    path = tmp_path / "checkpoint.npz"
    checkpoint = _large_checkpoint()
    _, peak = traced_peak(lambda: checkpoint.save(path))
    assert peak < 0.25 * path.stat().st_size


def test_checkpoint_load_peak_stays_near_the_arrays_it_returns(tmp_path):
    # the loaded arrays are nearly the whole file; a whole-file text or byte
    # copy held beside them would double the peak
    path = tmp_path / "checkpoint.npz"
    _large_checkpoint().save(path)
    _, peak = traced_peak(lambda: Checkpoint.load(path))
    assert peak < 1.5 * path.stat().st_size


def test_resume_retains_no_second_copy_of_parameters_or_moments(tmp_path):
    # the resumed state takes the loaded arrays; a copy of the parameters
    # alone is a third of them, a copy of the moments two thirds
    path = tmp_path / "checkpoint.npz"
    original = TrainState(toy_pair_dataset(), small_config(layers=2, dim=128))
    original.initialize_entropy_baseline()
    snapshot(original, 0.0).save(path)
    checkpoint, multikg = Checkpoint.load(path), toy_pair_dataset()
    saved = sum(values.nbytes for values in checkpoint.parameters.values()) + sum(
        moment.nbytes for side in (checkpoint.adam_completion, checkpoint.adam_alignment)
        for key in ("m", "v") for moment in side[key])
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        state = resume(checkpoint, multikg)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.epoch == checkpoint.epoch
    assert after - before < 0.1 * saved
