"""Dense float64 tensors with reverse-mode differentiation.

Covers exactly the operations the encoder and loss graphs need: affine maps,
pointwise nonlinearities, row softmax, L1 norms, the cosine distance of
index pairs into one table, the fused translation score, the fused neighbor
attention of one encoder layer, and the gather/scatter/segment primitives of
full-graph message passing. Graphs are recorded eagerly; `backward` on a
scalar accumulates gradients into the `.grad` of every reachable leaf made
by `param` (intermediates get none) and frees each intermediate gradient
once propagated. Calling `backward` again without zeroing adds a second
contribution on top.

All values are 64-bit floats and every reduction runs in a fixed order, so
identical inputs give bit-identical forwards and gradients. The row
scatter-sums (the backward of `gather_rows`, the forward of
`scatter_weighted_sum`) add each target's rows sequentially in ascending
input position from 0.0, the order of `np.add.at`: a CSR product for
tables, `np.bincount` for vectors.

Exact-zero gradients cost nothing. `backward` runs no grad_fn of a node
whose gradient is zero everywhere, such as a hinge with no active term, and
`Adam.step` leaves a parameter alone while its gradient and moments are all
zero. Nothing is approximated: every grad_fn is a vector-Jacobian product,
linear in its gradient, so a skipped call would only have passed on zeros;
every scatter-sum starts from +0.0, to which a zero of either sign adds
nothing; and Adam's moments start at +0.0, which a zero gradient of either
sign keeps. Leaf gradients can differ from running every grad_fn only in
the sign of a zero, and parameters, moments and checkpoints not at all.

Exact-zero rows cost nothing either, in the two hinge backwards:
`translation_l1` and `cosine_distance` build their scatter plans and
column-block tables over the rows whose incoming gradient is nonzero
(`_live_rows`), in ascending order, and no others. The rule is the one
above, applied per row: a dropped row's term is its zero gradient times a
finite factor, so it would add only zeros of either sign; each CSR target
starts from +0.0 and adds its rows in ascending input order, and a partial
sum that starts from +0.0 is never -0.0, so no bit moves. A row whose
factor is not finite (a cosine of inf / inf) is kept, as 0 * nan is nan.
When every row is live, nothing is copied.

The fused ops `affine`, `translation_l1`, `neighbor_attention` and
`cosine_distance` each record one node where the composed graph they
replace recorded several; `affine` and `cosine_distance` match theirs bit
for bit, in values and gradients. `affine` reads a list of column parts as
their `concat`, and `cosine_distance` reads its pairs' rows from the table,
so no concatenated or gathered table is taped. Their (rows x dim)
temporaries come in two kinds of loop. Memory budgets (`blocks`) bound
`cosine_distance`'s row and column blocks and `translation_l1`'s backward
column blocks: all the temporaries one such loop holds take at most
`BLOCK_BYTES` together, backward columns in reused buffers. Cache tiles of
`_EDGE_BLOCK` rows, sized for speed, carry `translation_l1`'s forward and
`neighbor_attention`'s per-edge weight gradient. Rows are split where each
output row reads only its own input rows, columns where a scatter-sum adds
many rows into one, so each target column still adds its rows in ascending
input position and no block or tile size moves a bit.

Row loops split one of two ways within the one `BLOCK_BYTES` budget: fixed
`blocks` on the calling thread where the arithmetic may depend on the block
(BLAS rounds by position), and `pooled_rows`' equal ranges, one thread each
for one call, for independent rows summed in an order no split moves
(`completion.score_all_tails`), so the same bits at any core count.

`translation_l1` gives -sum_j |e[h] + r[rel] - e[t]|_j per row, the same
values as three gathers, add, sub, `l1_norm_row` and `scale(-1)`; its node
keeps only the int8 signs and the index arrays. Its backward forms
u = sign * -g once per column block. In the entity gradient each target adds
+u[i] for the rows i it heads, in ascending i, then -u[i] for the rows i it
tails, in ascending i (a self-loop adds +u[i], later -u[i]); in the relation
gradient it adds +u[i] in ascending i.

`neighbor_attention` gives one layer's attended neighbor sum with the same
maths as gathers, sub, concat, the attention map, `segment_softmax` and
`scatter_weighted_sum`, in another order: the logits are node projections
gathered to the edges, (e.w_c)[c] + (e.w_m)[nb] - (comp.w_m)[rel] + b, and
each center sums alpha[i] * e[nb[i]] in one CSR product and
alpha[i] * comp[rel[i]] in another, both in ascending edge order, then takes
the second sum from the first. Zero relations, weight and bias give the
uniform 1/deg(c) sum of bare neighbor rows bit for bit. Its node keeps no
(edges x dim) array; see its docstring for the backward. Its `EdgeList`
checks the edge layout once, when it is made, so no call scans the ids.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import DiffError

_grad_enabled = True

# A memory budget, not a cache tile: bytes of all the temporaries one
# blocked loop holds at once (fixed `blocks`): `cosine_distance`'s (rows x
# dim) tables, `translation_l1`'s backward columns, `alignment.cosine_rows`'
# cosine rows with `entr.matrix_entropy`'s two softmax tables or with
# `nearest_negatives`' two `top_columns` copies, and greedy's head blocks;
# and bytes of the buffers of all of one `pooled_rows` call's ranges, the
# distance rows of `completion.score_all_tails` (independent rows). Large
# enough that a criterion-6-sized call runs in one block.
BLOCK_BYTES = 16 << 20

# A cache tile, not a memory budget: rows per tile of `translation_l1`'s
# forward and `neighbor_attention`'s per-edge weight gradient. Three tiles
# of this many rows at dim 128 take 768 KiB, well inside a core's L2.
_EDGE_BLOCK = 256

# A handoff cost, not a memory budget: the fewest (rows x width) entries of
# a `pooled_rows` range sent to a thread. For `score_all_tails` at dim 128
# and three layers on 2 cores, two threads matched inline wall time at about
# 2,000 distances per range and cost more CPU time below about 16,000, past
# which they took 0.55-0.6 of the wall time for the same CPU time.
# Criterion 6's sweeps (23 queries x 200 candidates) stay inline.
_POOL_MIN_SLICE = 1 << 14


def blocks(count: int, unit_bytes: int):
    """Consecutive slices covering range(count), each of at most BLOCK_BYTES
    // unit_bytes units (at least one)."""
    step = max(1, BLOCK_BYTES // max(1, unit_bytes))
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def _column_blocks(rows: int, width: int, tables: int):
    """(cols, views) per block of `blocks(width, tables * 8 * rows)`: `tables`
    (rows x block width) float64 views of buffers made once, for all blocks."""
    spans = list(blocks(width, tables * 8 * rows))
    buffers = [np.empty(rows * (spans[0].stop if spans else 0)) for _ in range(tables)]
    for cols in spans:
        size = rows * (cols.stop - cols.start)
        yield cols, [buffer[:size].reshape(rows, cols.stop - cols.start) for buffer in buffers]


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def pooled_rows(count: int, width: int, work: Callable[[slice, np.ndarray], None]) -> None:
    """Call work(rows, buffer) once for each of consecutive row slices
    covering range(count); `buffer` is an uninitialised C-contiguous
    float64 (rows x width) array for the call to fill.

    The rows split into equal consecutive ranges, as many as have
    `_POOL_MIN_SLICE` entries each, up to one per core and one per row a
    `BLOCK_BYTES` budget holds. Each range fills a buffer the caller makes,
    slice by slice, on its own thread of an executor shut down before this
    call returns; one range runs inline. The buffers take at most
    BLOCK_BYTES together, unless one row alone takes more.

    For independent rows only: each call writes its own rows alone, in an
    order of arithmetic no slicing moves (so no BLAS), and calls nothing
    that records graph nodes. The first exception a range raises reaches
    the caller once every range has finished.
    """
    budget = BLOCK_BYTES // max(1, 8 * width)  # rows one budget holds
    parts = max(1, min(_cores(), count * width // _POOL_MIN_SLICE, count, budget))
    step = max(1, -(-count // parts))  # rows per range
    size = max(1, min(step, budget // parts))  # rows per buffer

    def run(start: int, stop: int, buffer: np.ndarray) -> None:
        for first in range(start, stop, size):
            work(slice(first, min(first + size, stop)), buffer[:min(size, stop - first)])

    if parts == 1:
        run(0, count, np.empty((min(size, count), width)))
        return
    with ThreadPoolExecutor(parts, thread_name_prefix="jointkg-rows") as pool:
        futures = [pool.submit(run, start, min(start + step, count), np.empty((size, width)))
                   for start in range(0, count, step)]
    for future in futures:
        future.result()


@contextmanager
def no_grad():
    """Suspend graph recording (forward values only)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    __slots__ = ("values", "requires_grad", "grad", "_parents", "_grad_fn", "_op")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], tuple] | None = None
        self._op = ""

    def item(self) -> float:
        if self.values.size != 1:
            raise DiffError(f"item() on tensor of shape {self.values.shape}")
        return float(self.values)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, op={self._op or 'leaf'})"


def tensor(values) -> Tensor:
    """Constant (non-differentiable) tensor."""
    return Tensor(values)


def param(values) -> Tensor:
    """Trainable tensor: participates in graphs and receives gradients."""
    return Tensor(values, requires_grad=True)


def _result(values: np.ndarray, parents: Sequence[Tensor], grad_fn, op: str) -> Tensor:
    out = Tensor(values)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
        out._op = op
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.values.shape, b.values.shape)
    except ValueError:
        raise DiffError(f"{op} shape mismatch {a.values.shape} vs {b.values.shape}") from None


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")

    def grad_fn(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)

    return _result(a.values + b.values, (a, b), grad_fn, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")

    def grad_fn(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(-g, b.values.shape)

    return _result(a.values - b.values, (a, b), grad_fn, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")

    def grad_fn(g):
        return (
            _unbroadcast(g * b.values, a.values.shape),
            _unbroadcast(g * a.values, b.values.shape),
        )

    return _result(a.values * b.values, (a, b), grad_fn, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def grad_fn(g):
        return (g * c,)

    return _result(a.values * c, (a,), grad_fn, "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise DiffError(f"matmul shape mismatch {a.values.shape} x {b.values.shape}")

    def grad_fn(g):
        return g @ b.values.T, a.values.T @ g

    return _result(a.values @ b.values, (a, b), grad_fn, "matmul")


def affine(x: Tensor | Sequence[Tensor], w: Tensor, b: Tensor, activation: str) -> Tensor:
    """act(x @ w + b) with act one of identity, tanh and leakyrelu: one node
    with the values and gradients of `matmul`, `add` and the activation's
    node. `x` is a tensor or a list of column parts read as their `concat`;
    the parts are the node's parents, and it rebuilds their concatenation in
    the backward rather than keep it. It keeps no product, sum or
    pre-activation table; the leaky-ReLU mask comes from the output, which
    is positive exactly where its pre-activation is."""
    parts = [x] if isinstance(x, Tensor) else list(x)
    part_values = [p.values for p in parts]  # captured, as `resume` rebinds `.values`
    wv, bv = w.values, b.values
    shapes = [v.shape for v in part_values]
    if (any(len(s) != 2 for s in shapes) or len({s[0] for s in shapes}) != 1
            or wv.ndim != 2 or sum(s[1] for s in shapes) != wv.shape[0]):
        raise DiffError(f"affine shape mismatch {shapes} x {wv.shape}")
    if bv.shape != (wv.shape[1],):
        raise DiffError(f"affine bias shape {bv.shape} does not match {wv.shape}")
    if activation not in _ACTIVATIONS:
        raise DiffError(f"unknown activation {activation!r}")
    splits = np.cumsum([s[1] for s in shapes])[:-1]

    def whole():
        return part_values[0] if len(parts) == 1 else np.concatenate(part_values, axis=1)

    out = whole() @ wv
    out += bv
    if activation == "tanh":
        np.tanh(out, out=out)
    elif activation == "leakyrelu":
        np.multiply(out, _LEAKY_SLOPE, out=out, where=~(out > 0))

    def grad_fn(g):
        if activation == "tanh":
            g = g * (1.0 - out * out)
        elif activation == "leakyrelu":
            slopes = np.where(out > 0, 1.0, _LEAKY_SLOPE)
            g = np.multiply(slopes, g, out=slopes)
        # a part that needs a gradient gets a copy of its columns, so the
        # whole-width gradient is freed at once; a constant part gets None
        x_grads = [np.ascontiguousarray(c) if p.requires_grad else None
                   for p, c in zip(parts, np.split(g @ wv.T, splits, axis=1))]
        return (*x_grads, whole().T @ g, _unbroadcast(g, bv.shape))

    return _result(out, (*parts, w, b), grad_fn, "affine")


def concat(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    if not parts:
        raise DiffError("concat of zero tensors")
    shapes = [p.values.shape for p in parts]
    if len({len(s) for s in shapes}) != 1:
        raise DiffError(f"concat rank mismatch {shapes}")
    sizes = [s[axis] for s in shapes]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=axis))

    return _result(np.concatenate([p.values for p in parts], axis=axis), parts, grad_fn, "concat")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    original = a.values.shape

    def grad_fn(g):
        return (g.reshape(original),)

    return _result(a.values.reshape(shape), (a,), grad_fn, "reshape")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)

    def grad_fn(g):
        return (g * (1.0 - out * out),)

    return _result(out, (a,), grad_fn, "tanh")


_LEAKY_SLOPE = 0.01


def leakyrelu(a: Tensor, slope: float = _LEAKY_SLOPE) -> Tensor:
    x = a.values
    out = np.where(x > 0, x, slope * x)

    def grad_fn(g):
        # subgradient at 0 deliberately takes the negative-side slope, which
        # is 0 for the hinge case (slope=0)
        return (g * np.where(x > 0, 1.0, slope),)

    return _result(out, (a,), grad_fn, "leakyrelu")


def relu(a: Tensor) -> Tensor:
    return leakyrelu(a, 0.0)


def log(a: Tensor) -> Tensor:
    if np.any(a.values <= 0):
        raise DiffError("log requires strictly positive values")
    out = np.log(a.values)

    def grad_fn(g):
        return (g / a.values,)

    return _result(out, (a,), grad_fn, "log")


def sum_all(a: Tensor) -> Tensor:
    # np.sum reduces in a fixed order for a given input, keeping runs bit-identical
    def grad_fn(g):
        return (np.full(a.values.shape, float(g)),)

    return _result(np.asarray(a.values.sum()), (a,), grad_fn, "sum")


def mean_all(a: Tensor) -> Tensor:
    if a.values.size == 0:
        raise DiffError("mean of empty tensor")
    return scale(sum_all(a), 1.0 / a.values.size)


def softmax_row(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise DiffError(f"softmax_row expects a matrix, got shape {a.values.shape}")
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def grad_fn(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - inner),)

    return _result(out, (a,), grad_fn, "softmax_row")


def l1_norm_row(a: Tensor) -> Tensor:
    x = a.values
    if x.ndim != 2:
        raise DiffError(f"l1_norm_row expects a matrix, got shape {x.shape}")
    out = np.abs(x).sum(axis=1)

    def grad_fn(g):
        return (np.sign(x) * g[:, None],)

    return _result(out, (a,), grad_fn, "l1_norm_row")


# ---------------------------------------------------------------------------
# graph aggregation primitives


def _scatter_plan(index: np.ndarray, num_rows: int, num_inputs: int,
                  signs: np.ndarray | None = None):
    """Sparse (num_rows x num_inputs) plan whose product with `rows` gives
    out[s] = sum of signs[i] * rows[i % num_inputs] over i with index[i] == s;
    `signs` (entries +1 or -1) defaults to all +1, and `index` may cover the
    inputs a whole number of times over.

    Plan row s lists, in ascending input position, the i with index[i] == s
    (a stable argsort, a radix sort on uint16 ids up to 65,536 rows), so
    each target starts from 0.0 and adds its rows sequentially in input
    order, exactly as `np.add.at` into zeros does, in every column
    independently. Every product term is x * +-1.0, so the result is exact
    per term and does not depend on FMA contraction.
    """
    # imported here, not at module top, so `import jointkg` stays cheap
    from scipy.sparse import csr_matrix

    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(index, minlength=num_rows), out=indptr[1:])
    order = np.argsort(index.astype(np.uint16) if num_rows <= 1 << 16 else index, kind="stable")
    entries = np.ones(index.size) if signs is None else signs[order].astype(np.float64)
    return csr_matrix((entries, order % num_inputs, indptr), shape=(num_rows, num_inputs))


def _row_scatter_sum(index: np.ndarray, rows: np.ndarray, num_rows: int) -> np.ndarray:
    """out[s] = sum of rows[i] over i with index[i] == s, for 1-D or 2-D
    `rows`, in ascending i (see `_scatter_plan`); `np.bincount` adds a
    vector's entries in that order."""
    if rows.ndim == 1:
        return np.bincount(index, weights=rows, minlength=num_rows).astype(np.float64, copy=False)
    return _scatter_plan(index, num_rows, rows.shape[0]) @ rows


def _live_rows(g: np.ndarray, factor: np.ndarray | None = None):
    """The rows a hinge backward scatters: those whose gradient g is nonzero,
    and those whose `factor` (a per-row value g multiplies) is not finite,
    as 0 * inf and 0 * nan are nan. slice(None) when that is every row, so
    nothing is copied; else their ascending positions."""
    live = g != 0
    if factor is not None:
        live |= ~np.isfinite(factor)
    return slice(None) if np.all(live) else np.flatnonzero(live)


def _check_range(index: np.ndarray, size: int, what: str) -> None:
    if index.size and (index.min() < 0 or index.max() >= size):
        raise DiffError(f"{what} out of range")


def gather_rows(a: Tensor, index) -> Tensor:
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1:
        raise DiffError("gather_rows index must be one-dimensional")
    _check_range(idx, a.values.shape[0], "gather_rows index")

    def grad_fn(g):
        return (_row_scatter_sum(idx, g, a.values.shape[0]),)

    return _result(a.values[idx], (a,), grad_fn, "gather_rows")


def translation_l1(entities: Tensor, relations: Tensor, heads, rels, tails) -> Tensor:
    """-sum_j |entities[heads] + relations[rels] - entities[tails]|_j per row.

    The forward runs in tiles of `_EDGE_BLOCK` rows; the backward scatters
    u = sign * -g in column blocks, with the accumulation order of the
    module docstring, over the rows whose g is nonzero: a zero g[i] makes
    u[i] zeros of either sign, which would change no sum."""
    h = np.asarray(heads, dtype=np.int64)
    r = np.asarray(rels, dtype=np.int64)
    t = np.asarray(tails, dtype=np.int64)
    e, rel = entities.values, relations.values
    if h.ndim != 1 or not h.shape == r.shape == t.shape:
        raise DiffError("translation_l1 needs three one-dimensional index arrays of one length")
    if e.ndim != 2 or rel.ndim != 2 or e.shape[1] != rel.shape[1]:
        raise DiffError(f"translation_l1 table mismatch {e.shape} / {rel.shape}")
    _check_range(h, e.shape[0], "translation_l1 head")
    _check_range(r, rel.shape[0], "translation_l1 relation")
    _check_range(t, e.shape[0], "translation_l1 tail")
    dim = e.shape[1]
    sign = np.empty((h.size, dim), dtype=np.int8)
    out = np.empty(h.size)
    for start in range(0, h.size, _EDGE_BLOCK):
        rows = slice(start, start + _EDGE_BLOCK)
        delta = e[h[rows]] + rel[r[rows]]
        delta -= e[t[rows]]
        np.subtract(delta > 0, delta < 0, out=sign[rows], dtype=np.int8)
        out[rows] = np.abs(delta, out=delta).sum(axis=1) * -1.0

    def grad_fn(g):
        live = _live_rows(g)
        ends = np.concatenate([h[live], t[live]])  # live heads, then live tails
        count = ends.size // 2
        ends = _scatter_plan(ends, e.shape[0], count,
                             np.repeat(np.array([1, -1], dtype=np.int8), count))
        by_relation = _scatter_plan(r[live], rel.shape[0], count)
        minus_g = -g[live]  # made after the plans, whose build sets the peak
        entity_grad, relation_grad = np.empty(e.shape), np.empty(rel.shape)
        for cols, (u,) in _column_blocks(count, dim, 1):
            np.multiply(sign[live, cols], minus_g[:, None], out=u)
            entity_grad[:, cols] = ends @ u
            relation_grad[:, cols] = by_relation @ u
        return entity_grad, relation_grad

    return _result(out, (entities, relations), grad_fn, "translation_l1")


def cosine_distance(table: Tensor, left, right) -> Tensor:
    """1 - cos(table[left[i]], table[right[i]]) per pair i.

    Bit-identical to `gather_rows` of each side followed by the rowwise
    cosine distance of the two gathered matrices. The node keeps the index
    arrays and each pair's norms and cosine, but no gathered (pairs x dim)
    rows: the forward takes row norms and dot products in row blocks, and
    the backward forms the row gradients in column blocks, over the pairs
    whose gradient is nonzero or whose cosine is not finite (see the module
    docstring). Each side gathers its pairs' rows into two tables and forms
    its gradient terms in them in place, in the gathered form's order. Its
    two parent slots are `table` twice, the left rows' scatter-sum then the
    right rows', so `backward` adds them in the order the two gathers did;
    within each, a row adds its pairs in ascending order. A pair is refused
    when either row's squared norm is below the smallest normal float, zero
    included: the backward divides the cosine by it, and would be infinite.
    """
    x = table.values
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    if left.ndim != 1 or right.shape != left.shape:
        raise DiffError("cosine_distance needs two one-dimensional index arrays of one length")
    if x.ndim != 2:
        raise DiffError(f"cosine_distance expects a matrix, got shape {x.shape}")
    _check_range(left, x.shape[0], "cosine_distance index")
    _check_range(right, x.shape[0], "cosine_distance index")
    count, dim = left.size, x.shape[1]
    row_norms = np.empty(x.shape[0])
    for rows in blocks(x.shape[0], 8 * dim):
        row_norms[rows] = np.sqrt((x[rows] * x[rows]).sum(axis=1))
    nu, nv = row_norms[left], row_norms[right]
    tiny = np.finfo(np.float64).tiny
    if np.any(nu * nu < tiny) or np.any(nv * nv < tiny):
        raise DiffError("zero-norm embedding (or one whose squared norm underflows)")
    dot = np.empty(count)
    for rows in blocks(count, 3 * 8 * dim):  # two gathered tables and their product
        dot[rows] = (x[left[rows]] * x[right[rows]]).sum(axis=1)
    cos = dot / (nu * nv)

    def grad_fn(g):
        live = _live_rows(g, cos)
        gcol, nunv = -g[live][:, None], (nu * nv)[live][:, None]
        cos_nu, cos_nv = (cos / (nu * nu))[live][:, None], (cos / (nv * nv))[live][:, None]
        live_left, live_right = left[live], right[live]
        del live  # freed before the plans and tables are made
        left_plan = _scatter_plan(live_left, x.shape[0], live_left.size)
        right_plan = _scatter_plan(live_right, x.shape[0], live_left.size)
        left_grad, right_grad = np.empty(x.shape), np.empty(x.shape)
        for cols, (work, term) in _column_blocks(live_left.size, dim, 2):
            # u, v the left and right rows: in place, gcol * (v / nunv -
            # cos_nu * u), then with u and v swapped, each side gathering
            # its two row tables afresh
            for grad, plan, own, other, cos_own in (
                    (left_grad, left_plan, live_left, live_right, cos_nu),
                    (right_grad, right_plan, live_right, live_left, cos_nv)):
                np.take(x[:, cols], other, axis=0, out=work, mode="clip")  # clip: indices checked
                np.take(x[:, cols], own, axis=0, out=term, mode="clip")
                work /= nunv
                work -= np.multiply(cos_own, term, out=term)
                work *= gcol
                grad[:, cols] = plan @ work
        return left_grad, right_grad

    return _result(1.0 - cos, (table, table), grad_fn, "cosine_distance")


def scatter_weighted_sum(messages: Tensor, weights: Tensor, segments, num_segments: int) -> Tensor:
    """out[s] = sum over i with segments[i] == s of weights[i] * messages[i]."""
    seg = np.asarray(segments, dtype=np.int64)
    if messages.values.ndim != 2 or weights.values.shape != (messages.values.shape[0],):
        raise DiffError(
            f"scatter_weighted_sum shape mismatch {messages.values.shape} / {weights.values.shape}"
        )
    if seg.shape != (messages.values.shape[0],):
        raise DiffError("scatter_weighted_sum segment vector must match message count")
    _check_range(seg, num_segments, "scatter_weighted_sum segment")
    # weights stay out of the scatter plan, whose unit entries keep each term exact
    out = _row_scatter_sum(seg, weights.values[:, None] * messages.values, num_segments)

    def grad_fn(g):
        picked = g[seg]
        return weights.values[:, None] * picked, (messages.values * picked).sum(axis=1)

    return _result(out, (messages, weights), grad_fn, "scatter_weighted_sum")


def _segment_softmax(logits: np.ndarray, seg: np.ndarray, num_segments: int):
    """Softmax of `logits` within each segment, and the map from a gradient
    of that softmax to the gradient of the logits."""
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, seg, logits)
    e = np.exp(logits - seg_max[seg])
    denom = np.bincount(seg, weights=e, minlength=num_segments)
    out = e / denom[seg]

    def logits_grad(g):
        seg_dot = np.bincount(seg, weights=out * g, minlength=num_segments)
        return out * (g - seg_dot[seg])

    return out, logits_grad


def segment_softmax(logits: Tensor, segments, num_segments: int) -> Tensor:
    """Softmax of `logits` normalized within each segment."""
    seg = np.asarray(segments, dtype=np.int64)
    if logits.values.ndim != 1 or seg.shape != logits.values.shape:
        raise DiffError("segment_softmax expects matching 1-d logits and segments")
    _check_range(seg, num_segments, "segment_softmax segment")
    out, logits_grad = _segment_softmax(logits.values, seg, num_segments)

    def grad_fn(g):
        return (logits_grad(g),)

    return _result(out, (logits,), grad_fn, "segment_softmax")


class EdgeList:
    """Center-sorted (center, neighbor, relation) rows over `num_entities`
    entities, checked once here: one-dimensional ids of one length, centers
    and neighbors in [0, num_entities), relations non-negative, centers
    sorted. Read-only copies, so the check cannot go stale. Center c owns rows
    indptr[c]:indptr[c + 1]; `csr_index` is (indptr, neighbors, relations) in
    scipy's index dtype (int32 where they fit), so CSR plans convert nothing."""

    def __init__(self, centers, neighbors, relations, num_entities: int):
        c, nb, rel = (np.array(a, dtype=np.int64, order="C")
                      for a in (centers, neighbors, relations))
        if c.ndim != 1 or not c.shape == nb.shape == rel.shape:
            raise DiffError("EdgeList needs three one-dimensional index arrays of one length")
        n = self.num_entities = int(num_entities)
        self.max_relation = int(rel.max()) if rel.size else -1
        _check_range(c, n, "EdgeList center")
        _check_range(nb, n, "EdgeList neighbor")
        _check_range(rel, self.max_relation + 1, "EdgeList relation")  # a negative id
        if np.any(c[1:] < c[:-1]):
            raise DiffError("EdgeList centers must be sorted")
        ptr = np.concatenate([[0], np.cumsum(np.bincount(c, minlength=n))])
        fits = max(n, c.size, self.max_relation) <= np.iinfo(np.int32).max
        self.csr_index = tuple(a.astype(np.int32) if fits else a for a in (ptr, nb, rel))
        for a in (c, nb, rel, ptr, *self.csr_index):
            a.flags.writeable = False
        self.centers, self.neighbors, self.relations, self.indptr = c, nb, rel, ptr

    @property
    def count(self) -> int:
        return int(self.centers.size)


def neighbor_attention(entities: Tensor, composed: Tensor, weight: Tensor, bias: Tensor,
                       edges: EdgeList) -> Tensor:
    """Attention-weighted neighbor sum of one encoder layer:
    out[c] = sum over edges i of center c of alpha[i] * (e[nb[i]] - comp[rel[i]]).

    alpha is the softmax over each center's edges of the logits
    att(concat[e[c], e[nb] - comp[rel]]), with `weight` (2n x 1) and `bias`
    (1,). `edges` checked its own layout when it was made, so this op checks
    only shapes, and that `composed` has a row for every relation id.

    The logits come from node projections gathered to the edges, added in
    the order (e.w_c)[c] + (e.w_m)[nb] - (comp.w_m)[rel] + b. The output is
    A @ e - B @ comp, where A and B are CSR matrices on `edges.csr_index`
    with the alphas as entries and the neighbors (A) or relations (B) as
    columns, so each center adds alpha[i] * row in ascending edge order. The
    node keeps only edge-length vectors and the edge list. Its backward takes
    A^T @ g and B^T @ g (each target adds in ascending edge order), the
    per-edge weight gradient g[c] . (e[nb] - comp[rel]) in blocks of
    `_EDGE_BLOCK` edges, and the logits' gradient back to the node
    projections with `np.bincount`.
    """
    # imported here, not at module top, so `import jointkg` stays cheap
    from scipy.sparse import csr_matrix

    c, nb, rel, n = edges.centers, edges.neighbors, edges.relations, edges.num_entities
    e, comp, w, b = entities.values, composed.values, weight.values, bias.values
    if (e.ndim != 2 or e.shape[0] != n or comp.ndim != 2 or comp.shape[1] != e.shape[1]
            or w.shape != (2 * e.shape[1], 1) or b.shape != (1,)):
        raise DiffError(f"neighbor_attention shape mismatch {e.shape} / {comp.shape} / "
                        f"{w.shape} / {b.shape} for {n} entities")
    dim = e.shape[1]
    if comp.shape[0] <= edges.max_relation:
        raise DiffError("neighbor_attention relation out of range")
    w_c, w_m = w[:dim, 0], w[dim:, 0]
    center_projected, neighbor_projected = e @ w_c, e @ w_m
    composed_projected = comp @ w_m
    logits = center_projected[c] + neighbor_projected[nb]
    logits -= composed_projected[rel]
    logits += b[0]
    alpha, logits_grad = _segment_softmax(logits, c, n)
    ptr, nb_index, rel_index = edges.csr_index
    a_plan = csr_matrix((alpha, nb_index, ptr), shape=(n, n))
    b_plan = csr_matrix((alpha, rel_index, ptr), shape=(n, comp.shape[0]))
    out = a_plan @ e
    out -= b_plan @ comp

    def grad_fn(g):
        alpha_grad = np.empty(c.size)
        for start in range(0, c.size, _EDGE_BLOCK):
            block = slice(start, start + _EDGE_BLOCK)
            message = e[nb[block]] - comp[rel[block]]
            message *= g[c[block]]
            alpha_grad[block] = message.sum(axis=1)
        dlogits = logits_grad(alpha_grad)
        d_projected = np.stack([np.bincount(c, weights=dlogits, minlength=n),
                                np.bincount(nb, weights=dlogits, minlength=n)], axis=1)
        d_composed = -np.bincount(rel, weights=dlogits, minlength=comp.shape[0])
        entity_grad = a_plan.T @ g
        entity_grad += d_projected @ np.stack([w_c, w_m])
        composed_grad = np.outer(d_composed, w_m)
        composed_grad -= b_plan.T @ g
        weight_grad = np.concatenate([e.T @ d_projected[:, 0],
                                      e.T @ d_projected[:, 1] + comp.T @ d_composed])
        return entity_grad, composed_grad, weight_grad[:, None], np.array([dlogits.sum()])

    return _result(out, (entities, composed, weight, bias), grad_fn, "neighbor_attention")


# ---------------------------------------------------------------------------
# reverse pass


def _topo(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


# `backward`'s marker for a gradient known to be exactly zero everywhere
_ZERO = object()


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every reachable `param` leaf,
    in one reverse-topological pass that frees each node's gradient once its
    grad_fn has propagated it. Intermediate tensors get no .grad.

    A node whose gradient is exactly zero everywhere does not run its
    grad_fn (linear in the gradient, so it would pass on only zeros): each
    parent that needs a gradient gets a zero marker, which a real gradient
    replaces whether it arrives before or after, and a leaf reached only by
    markers gets `np.zeros`. Leaving out the zeros a skipped grad_fn would
    have added changes at most a zero's sign, which no `Adam` step reads."""
    if loss.values.shape != ():
        raise DiffError(f"backward requires a scalar loss, got shape {loss.values.shape}")
    # stored arrays are never mutated in place (accumulation always rebinds),
    # so grad_fn outputs can be kept without defensive copies
    pending: dict[int, object] = {id(loss): np.ones(())}
    for node in reversed(_topo(loss)):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            if node.requires_grad:
                g = np.zeros(node.values.shape) if g is _ZERO else g.reshape(node.values.shape)
                node.grad = g if node.grad is None else node.grad + g
        elif g is _ZERO or not g.any():
            for parent in node._parents:
                if parent.requires_grad:
                    pending.setdefault(id(parent), _ZERO)
        else:
            for parent, pg in zip(node._parents, node._grad_fn(g)):
                if not parent.requires_grad or pg is None:
                    continue
                key = id(parent)
                # no local name keeps the replaced sum alive into the next grad_fn
                pending[key] = pg if pending.get(key, _ZERO) is _ZERO else pending[key] + pg


def grad_check(function: Callable[[Tensor], Tensor], x0, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `function` must map one tensor to a scalar tensor and be differentiable at
    `x0`; keep L1/LeakyReLU inputs at least ~10*step away from their kinks.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    probe = Tensor(x0.copy(), requires_grad=True)
    out = function(probe)
    if out.values.shape != ():
        raise DiffError("grad_check requires a scalar-valued function")
    backward(out)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(x0)

    numeric = np.zeros_like(x0)
    for index in np.ndindex(x0.shape):
        forward = x0.copy()
        forward[index] += step
        backwardp = x0.copy()
        backwardp[index] -= step
        f_plus = function(Tensor(forward)).item()
        f_minus = function(Tensor(backwardp)).item()
        numeric[index] = (f_plus - f_minus) / (2.0 * step)

    denom = np.maximum(1.0, np.abs(analytic))
    return float((np.abs(analytic - numeric) / denom).max()) if x0.size else 0.0


# ---------------------------------------------------------------------------
# multilayer perceptrons and the optimizer

_ACTIVATIONS = ("identity", "tanh", "leakyrelu")


class ParameterBlock:
    """A block of trainable tensors. Its `named_parameters(prefix)` is the one
    traversal; optimizer moments and checkpoint names both follow its order."""

    def parameters(self) -> list[Tensor]:
        return [tensor for _, tensor in self.named_parameters("")]


class Mlp(ParameterBlock):
    """Affine layers with per-layer activations from {identity, tanh, leakyrelu},
    one `affine` node per layer."""

    def __init__(self, weights: list[Tensor], biases: list[Tensor],
                 activations: Sequence[str]):
        if not (len(weights) == len(biases) == len(activations)):
            raise DiffError("Mlp layer lists must have equal length")
        self.weights = weights
        self.biases = biases
        self.activations = tuple(activations)

    @classmethod
    def create(cls, dims: Sequence[int], activations: Sequence[str],
               rng: np.random.Generator) -> "Mlp":
        """Glorot-uniform weights, zero biases; dims = [in, hidden..., out]."""
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(param(rng.uniform(-bound, bound, size=(fan_in, fan_out))))
            biases.append(param(np.zeros(fan_out)))
        return cls(weights, biases, activations)

    def __call__(self, x: Tensor | Sequence[Tensor]) -> Tensor:
        for w, b, act in zip(self.weights, self.biases, self.activations):
            x = affine(x, w, b, act)
        return x

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        named = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            named.append((f"{prefix}/w{i}", w))
            named.append((f"{prefix}/b{i}", b))
        return named


# Adam's moment decay rates and its denominator guard; no caller changes them
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction (update = lr * m_hat / sqrt(v_hat + eps)),
    with beta1, beta2 and eps fixed to ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.

    Parameters whose .grad is None at step time are left untouched, and so
    are those whose gradient and both moments are all zero, though `t`
    counts the step: that step would keep m = v = +0.0 (m starts at +0.0,
    +0.0 plus a zero of either sign is +0.0, and g * g is +0.0) and subtract
    +0.0, which changes no bit. So a zero's sign in a gradient moves no
    parameter or moment either. A step that meets a non-finite gradient
    raises DiffError before it changes `t`, a moment or a parameter. Each
    optimizer keeps one moment buffer per parameter, so two optimizers over
    disjoint parameter sets never interact. `state_dict` holds the step count
    `t` and copies of the moments `m` and `v`; the learning rate comes from
    the caller. Moments start as `np.zeros` (calloc), whose pages become
    resident only when a step writes them, and never if `load_state_dict`
    replaces them first; `state_dict` gives a moment whose bits are all zero
    (+0.0 throughout; a -0.0 is copied) as a fresh `np.zeros` likewise.
    """

    def __init__(self, params: Sequence[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros(p.values.shape) for p in self.params]
        self.v = [np.zeros(p.values.shape) for p in self.params]

    def step(self) -> None:
        # every gradient is checked before `t`, a moment or a parameter moves
        if not all(p.grad is None or np.all(np.isfinite(p.grad)) for p in self.params):
            raise DiffError("non-finite gradient")
        self.t += 1
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            if not (g.any() or m.any() or v.any()):
                continue
            # in place, in the order of lr * m_hat / sqrt(v_hat + eps) with
            # m_hat = m / (1 - beta1^t), v_hat = v / (1 - beta2^t)
            update, denominator = np.empty_like(m), np.empty_like(v)
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=update)
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=update)
            v += np.multiply(update, g, out=update)
            np.divide(v, 1.0 - ADAM_BETA2 ** self.t, out=denominator)
            denominator += ADAM_EPS
            np.divide(m, 1.0 - ADAM_BETA1 ** self.t, out=update)
            update *= self.lr
            update /= np.sqrt(denominator, out=denominator)
            p.values -= update

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def state_dict(self) -> dict:
        def copy(moment: np.ndarray) -> np.ndarray:
            return moment.copy() if moment.view(np.uint64).any() else np.zeros(moment.shape)
        return {"t": self.t, "m": [copy(m) for m in self.m], "v": [copy(v) for v in self.v]}

    def load_state_dict(self, state: dict) -> None:
        """Take the given moment arrays, so later steps write into them; only
        a non-float64, non-C-contiguous or read-only one is copied first."""
        if not len(state["m"]) == len(state["v"]) == len(self.params):
            raise DiffError("optimizer state does not match parameter count")
        self.t = int(state["t"])
        self.m = [np.require(m, np.float64, ("C", "A", "W")) for m in state["m"]]
        self.v = [np.require(v, np.float64, ("C", "A", "W")) for v in state["v"]]
