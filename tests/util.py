"""Shared construction helpers and reference implementations for the test
suite."""
import json
import tracemalloc
from pathlib import Path

import numpy as np

from jointkg import diff
from jointkg.diff import EdgeList, Mlp, Tensor
from jointkg.errors import CompletionError, DiffError
from jointkg.kgdata import Kg, MultiKg, RelationVocab
from jointkg.rgnn import EncoderParams, LayerEmbeddings


def zero_mlp(dims, activations):
    weights = [diff.param(np.zeros((i, o))) for i, o in zip(dims[:-1], dims[1:])]
    biases = [diff.param(np.zeros(o)) for o in dims[1:]]
    return Mlp(weights, biases, activations)


def identity_mlp(n):
    return Mlp([diff.param(np.eye(n))], [diff.param(np.zeros(n))], ("identity",))


def const_mlp(in_dim, out_value):
    """Zero weights with the output forced to `out_value` via the bias."""
    out_value = np.asarray(out_value, dtype=np.float64)
    return Mlp(
        [diff.param(np.zeros((in_dim, out_value.size)))],
        [diff.param(out_value.copy())],
        ("identity",),
    )


def weight_mlp(w, activation="identity"):
    w = np.asarray(w, dtype=np.float64)
    return Mlp([diff.param(w.copy())], [diff.param(np.zeros(w.shape[1]))], (activation,))


def manual_encoder(layer_count, dim, entity0, relation0, comp=None, rel=None, att=None,
                   g=None, relation_aware=True):
    """Encoder with explicit tables; unspecified blocks default to zero MLPs
    (comp/att), identity (rel), or identity-with-tanh (g)."""
    def block(source, default):
        return [source(k) if source else default(k) for k in range(layer_count)]

    comp_mlps = block(comp, lambda k: zero_mlp([dim, dim, dim], ("leakyrelu", "identity")))
    rel_mlps = block(rel, lambda k: identity_mlp(dim))
    att_mlps = block(att, lambda k: zero_mlp([2 * dim, 1], ("identity",)))
    g_mlps = block(g, lambda k: Mlp([diff.param(np.eye(dim))], [diff.param(np.zeros(dim))],
                                    ("tanh",)))
    return EncoderParams(
        layer_count, dim,
        diff.param(np.asarray(entity0, dtype=np.float64).copy()),
        diff.param(np.asarray(relation0, dtype=np.float64).copy()),
        comp_mlps, rel_mlps, att_mlps, g_mlps, relation_aware=relation_aware,
    )


def single_kg(triples, entity_count=None, kg_id="xx"):
    """MultiKg with one KG given as integer (head, relation, tail) triples."""
    vocab = RelationVocab()
    kg = Kg(kg_id, vocab)
    max_entity = max([max(h, t) for h, _, t in triples], default=-1)
    for e in range((entity_count if entity_count is not None else max_entity + 1)):
        kg.intern_entity(f"e{e}")
    max_rel = max([r for _, r, _ in triples], default=-1)
    for r in range(max_rel + 1):
        vocab.intern(f"r{r}")
    for h, r, t in triples:
        kg.add_triple(h, r, t)
    return MultiKg([kg], vocab)


def toy_pair_dataset(entities=12, relations=2, extra_edges=10, seed_pairs=6, seed=0,
                     drop_in_first=0):
    """Two mirrored KGs with kgc splits and alignment seeds, fully in memory.

    The second KG always carries the full base graph; the first loses
    `drop_in_first` random triples, mimicking unequal completeness.
    """
    rng = np.random.default_rng(seed)
    base = [(i + 1, int(rng.integers(relations)), int(rng.integers(i + 1)))
            for i in range(entities - 1)]
    existing = set(base)
    attempts = 0
    while len(base) < entities - 1 + extra_edges and attempts < 10_000:
        attempts += 1
        h, t = rng.integers(entities, size=2)
        r = int(rng.integers(relations))
        key = (int(h), r, int(t))
        if h != t and key not in existing:
            existing.add(key)
            base.append(key)

    drop = set(rng.choice(len(base), size=drop_in_first, replace=False).tolist()) \
        if drop_in_first else set()
    first = [t for i, t in enumerate(base) if i not in drop]

    vocab = RelationVocab()
    kg_a = Kg("aa", vocab)
    kg_b = Kg("bb", vocab)
    for i in range(entities):
        kg_a.intern_entity(f"a{i}")
        kg_b.intern_entity(f"b{i}")
    for r in range(relations):
        vocab.intern(f"r{r}")
    for h, r, t in first:
        kg_a.add_triple(h, r, t)
    for h, r, t in base:
        kg_b.add_triple(h, r, t)
    multikg = MultiKg([kg_a, kg_b], vocab)

    from jointkg.kgdata import GIVEN, SeedSet

    multikg.seed_sets[("aa", "bb")] = SeedSet(
        ("aa", "bb"), [(i, i) for i in range(seed_pairs)], [GIVEN] * seed_pairs)

    for kg_id, triples in (("aa", first), ("bb", base)):
        order = rng.permutation(len(triples))
        n_train = max(1, int(0.7 * len(triples)))
        n_valid = max(1, int(0.15 * len(triples)))
        train = [triples[i] for i in order[:n_train]]
        valid = [triples[i] for i in order[n_train:n_train + n_valid]]
        test = [triples[i] for i in order[n_train + n_valid:]]
        multikg.set_kgc_split(kg_id, "train", train)
        multikg.set_kgc_split(kg_id, "valid", valid)
        multikg.set_kgc_split(kg_id, "test", test)
    return multikg


def append_transferred(kg: Kg, rows, epoch: int) -> list[tuple[int, int, int]]:
    """Append the rows `kg` lacks to its transferred triples, stamped with
    `epoch` (a repeated row counts once); returns the rows appended."""
    fresh = [row for row in dict.fromkeys(map(tuple, rows)) if not kg.has_triple(*row)]
    kg.set_transferred(np.concatenate([kg.transferred, np.asarray(fresh, dtype=np.int64)
                                       .reshape(-1, 3)]),
                       np.concatenate([kg.transfer_epochs, np.full(len(fresh), epoch)]))
    return fresh


def pack_params(tensors):
    """Flatten parameter tensors into one vector plus a rebuild closure.

    rebuild(probe) returns differentiable stand-ins carved out of the probe
    vector, shaped like the originals, for grad-checking whole models.
    """
    shapes = [t.values.shape for t in tensors]
    sizes = [int(np.prod(s)) if s else 1 for s in shapes]
    flat = np.concatenate([t.values.reshape(-1) for t in tensors])

    def rebuild(probe: Tensor):
        column = diff.reshape(probe, (flat.size, 1))
        rebuilt = []
        offset = 0
        for shape, size in zip(shapes, sizes):
            rows = diff.gather_rows(column, np.arange(offset, offset + size))
            rebuilt.append(diff.reshape(rows, shape))
            offset += size
        return rebuilt

    return flat, rebuild


def rewire_encoder(params: EncoderParams, stand_ins):
    """EncoderParams whose tensors are replaced by `stand_ins` (pack order)."""
    it = iter(stand_ins)

    def clone_mlp(mlp):
        tensors = [next(it) for _ in range(2 * len(mlp.weights))]
        return Mlp(tensors[0::2], tensors[1::2], mlp.activations)

    entity0 = next(it)
    relation0 = next(it)
    comp, rel, att, g = [], [], [], []
    for k in range(params.layer_count):
        comp.append(clone_mlp(params.comp[k]))
        rel.append(clone_mlp(params.rel[k]))
        att.append(clone_mlp(params.att[k]))
        g.append(clone_mlp(params.g[k]))
    return EncoderParams(params.layer_count, params.dim, entity0, relation0,
                         comp, rel, att, g, relation_aware=params.relation_aware)


# ---------------------------------------------------------------------------
# reference implementations (oracles for the vectorised program paths)


def reference_layer_forward(edges: EdgeList, entity_k: Tensor, relation_k: Tensor,
                            params: EncoderParams, layer: int) -> tuple[Tensor, Tensor]:
    """Unfused layer: per-edge gathers, messages, the attention map over the
    concatenated center and message rows, `segment_softmax` and
    `scatter_weighted_sum` (uniform 1/deg weights without relation
    awareness)."""
    neighbor_rows = diff.gather_rows(entity_k, edges.neighbors)
    if params.relation_aware:
        composed = params.comp[layer](relation_k)
        messages = diff.sub(neighbor_rows, diff.gather_rows(composed, edges.relations))
        center_rows = diff.gather_rows(entity_k, edges.centers)
        logits = diff.reshape(params.att[layer](diff.concat([center_rows, messages], axis=1)),
                              (edges.count,))
        weights = diff.segment_softmax(logits, edges.centers, edges.num_entities)
    else:
        messages = neighbor_rows
        degrees = np.bincount(edges.centers, minlength=edges.num_entities).astype(np.float64)
        weights = diff.tensor(1.0 / degrees[edges.centers])
    aggregated = diff.scatter_weighted_sum(messages, weights, edges.centers,
                                           edges.num_entities)
    return params.g[layer](diff.add(aggregated, entity_k)), params.rel[layer](relation_k)


def score_layer(c_h: Tensor, c_r: Tensor, c_t: Tensor) -> Tensor:
    """Unfused translation score: negative L1 length of head + relation - tail
    per row, from add, sub, `l1_norm_row` and scale nodes."""
    return diff.scale(diff.l1_norm_row(diff.sub(diff.add(c_h, c_r), c_t)), -1.0)


def score_batch(heads, relations, tails, layers: LayerEmbeddings, layer: int) -> Tensor:
    """Unfused layer-k scores for aligned index arrays of triples: three
    gathers into `score_layer`."""
    e = layers.entities[layer]
    r = layers.relations[layer]
    return score_layer(
        diff.gather_rows(e, heads), diff.gather_rows(r, relations), diff.gather_rows(e, tails)
    )


def reference_ranking_loss(positives, negatives, gamma_c: float,
                           layers: LayerEmbeddings) -> Tensor:
    """The ranking loss from unfused scores, positives and negatives scored
    separately per layer."""
    pos_h, pos_r, pos_t = positives
    neg_h, neg_r, neg_t, pair_of = negatives
    total = None
    for k in range(layers.layer_count + 1):
        f_pos = score_batch(pos_h, pos_r, pos_t, layers, k)
        f_neg = score_batch(neg_h, neg_r, neg_t, layers, k)
        hinge = diff.relu(
            diff.add(diff.sub(diff.tensor(gamma_c), diff.gather_rows(f_pos, pair_of)), f_neg))
        layer_loss = diff.mean_all(hinge)
        total = layer_loss if total is None else diff.add(total, layer_loss)
    return total


def score(head: int, relation: int, tail: int, layers: LayerEmbeddings) -> Tensor:
    """Total score of one triple: layer scores summed over layers 0..K."""
    total = None
    idx_h = np.array([head])
    idx_r = np.array([relation])
    idx_t = np.array([tail])
    for k in range(layers.layer_count + 1):
        f_k = score_batch(idx_h, idx_r, idx_t, layers, k)
        total = f_k if total is None else diff.add(total, f_k)
    return diff.reshape(total, ())


# Composed forms of the fused `diff` ops, with the fused ops' signatures, and
# the whole-table forms of the blocked ones: bitwise oracles.


def reference_affine(x, w: Tensor, b: Tensor, activation: str) -> Tensor:
    """One `Mlp` layer as `matmul`, `add`, then a `tanh` or `leakyrelu` node;
    a list of column parts first goes through a `concat` node."""
    if not isinstance(x, Tensor):
        x = diff.concat(x, axis=1)
    out = diff.add(diff.matmul(x, w), b)
    if activation == "tanh":
        return diff.tanh(out)
    if activation == "leakyrelu":
        return diff.leakyrelu(out)
    return out


def _rowwise_cosine_distance(a: Tensor, b: Tensor) -> Tensor:
    """Rowwise 1 - cos(a, b) of two matrices of identical shape, as one node
    that keeps both matrices."""
    u, v = a.values, b.values
    if u.shape != v.shape:
        raise DiffError(f"cosine_distance shape mismatch {u.shape} vs {v.shape}")
    if u.ndim != 2:
        raise DiffError(f"cosine_distance expects matrices, got {u.shape}")

    nu = np.sqrt((u * u).sum(axis=1))
    nv = np.sqrt((v * v).sum(axis=1))
    tiny = np.finfo(np.float64).tiny
    if np.any(nu * nu < tiny) or np.any(nv * nv < tiny):
        raise DiffError("zero-norm embedding (or one whose squared norm underflows)")
    dot = (u * v).sum(axis=1)
    cos = dot / (nu * nv)
    out = 1.0 - cos

    def grad_fn(g):
        gcol = -g[:, None]
        gu = gcol * (v / (nu * nv)[:, None] - (cos / (nu * nu))[:, None] * u)
        gv = gcol * (u / (nu * nv)[:, None] - (cos / (nv * nv))[:, None] * v)
        return gu, gv

    return diff._result(out, (a, b), grad_fn, "cosine_distance")


def reference_cosine_distance(table: Tensor, left, right) -> Tensor:
    """The gathered oracle of `diff.cosine_distance`: a `gather_rows` node
    per side and the rowwise cosine distance of the two gathered matrices."""
    return _rowwise_cosine_distance(diff.gather_rows(table, left),
                                    diff.gather_rows(table, right))


def reference_alignment_loss(pairs, negatives, gamma_a: float, finals: Tensor) -> Tensor:
    """`alignment.alignment_loss` from four `gather_rows`, two rowwise
    cosine distances, sub, add, `relu` and `mean_all` nodes."""
    index, negative_pairs = zip(*negatives)
    positive = np.asarray(pairs, dtype=np.int64)[np.asarray(index)]
    negative = np.asarray(negative_pairs, dtype=np.int64)
    d_pos = reference_cosine_distance(finals, positive[:, 0], positive[:, 1])
    d_neg = reference_cosine_distance(finals, negative[:, 0], negative[:, 1])
    hinge = diff.relu(diff.add(diff.sub(diff.tensor(gamma_a), d_neg), d_pos))
    return diff.mean_all(hinge)


def reference_translation_l1(entities: Tensor, relations: Tensor, heads, rels, tails
                             ) -> Tensor:
    """The fused translation score without blocks: whole-table temporaries
    and one scatter over all columns."""
    h, r, t = (np.asarray(a, dtype=np.int64) for a in (heads, rels, tails))
    e, rel = entities.values, relations.values
    delta = e[h] + rel[r]
    delta -= e[t]
    sign = np.sign(delta).astype(np.int8)
    out = np.abs(delta, out=delta).sum(axis=1) * -1.0

    def grad_fn(g):
        u = sign * (-g)[:, None]
        ends_sign = np.repeat(np.array([1, -1], dtype=np.int8), h.size)
        return (diff._scatter_plan(np.concatenate([h, t]), e.shape[0], h.size, ends_sign) @ u,
                diff._row_scatter_sum(r, u, rel.shape[0]))

    return diff._result(out, (entities, relations), grad_fn, "translation_l1")


def reference_scatter_plan(index: np.ndarray, num_rows: int, num_inputs: int, signs=None):
    """`diff._scatter_plan` with its stable argsort always on int64 ids."""
    from scipy.sparse import csr_matrix

    indptr = np.concatenate([[0], np.cumsum(np.bincount(index, minlength=num_rows))])
    order = np.argsort(np.asarray(index, dtype=np.int64), kind="stable")
    entries = np.ones(index.size) if signs is None else signs[order].astype(np.float64)
    return csr_matrix((entries, order % num_inputs, indptr), shape=(num_rows, num_inputs))


def reference_adam_step(params, grads, m, v, t: int, lr: float) -> None:
    """One Adam step from freshly allocated temporaries: `m`, `v` and the
    parameter arrays are rebound entry by entry, never written in place."""
    for i, g in enumerate(grads):
        if g is None:
            continue
        m[i] = m[i] * diff.ADAM_BETA1 + (1.0 - diff.ADAM_BETA1) * g
        v[i] = v[i] * diff.ADAM_BETA2 + (1.0 - diff.ADAM_BETA2) * g * g
        m_hat = m[i] / (1.0 - diff.ADAM_BETA1 ** t)
        v_hat = v[i] / (1.0 - diff.ADAM_BETA2 ** t)
        params[i] = params[i] - lr * m_hat / np.sqrt(v_hat + diff.ADAM_EPS)


def reference_matrix_entropy(matrix: np.ndarray) -> float:
    """Row-softmax entropy from whole-matrix temporaries, in the blocked
    op's form: per row log Z - sum_j e^{s_j} s_j / Z with s = row - max(row)
    and Z = sum_j e^{s_j}, then one flat sum of the row entropies."""
    values = np.asarray(matrix)
    s = values - values.max(axis=1, keepdims=True)
    e = np.exp(s)
    z = e.sum(axis=1)
    e *= s
    return float((np.log(z) - e.sum(axis=1) / z).sum())


def reference_p_log_p_entropy(matrix: np.ndarray) -> float:
    """Row-softmax entropy as -sum p log p over one whole-matrix table, a
    probability that underflows to 0 adding 0."""
    values = np.asarray(matrix)
    p = values - values.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    p_log_p = np.log(p, out=np.zeros_like(p), where=p > 0)
    p_log_p *= p
    return float(-p_log_p.sum())


def traced_peak(fn):
    """(fn's result, the peak bytes tracemalloc saw allocated while fn ran,
    above what was allocated when it started)."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start


def read_checkpoint(path: Path) -> tuple[dict[str, np.ndarray], dict]:
    """A saved checkpoint's array members by name, and its parsed `meta`."""
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    return members, json.loads(members.pop("meta").item())


def write_checkpoint(path: Path, members: dict[str, np.ndarray], meta: dict) -> None:
    """Save (possibly edited) members and `meta` the way `Checkpoint.save` does."""
    with open(path, "wb") as handle:
        np.savez(handle, meta=np.array(json.dumps(meta, sort_keys=True)), **members)


def held_arrays(node: Tensor) -> list[np.ndarray]:
    """The node's values and every array its grad_fn closure reaches,
    through nested closures, lists, tuples and sparse matrices."""
    held = [node.values]
    items = [node._grad_fn] if node._grad_fn else []
    while items:
        item = items.pop()
        if callable(item) and getattr(item, "__closure__", None):
            items += [cell.cell_contents for cell in item.__closure__]
        elif hasattr(item, "tocsr"):
            held += [item.data, item.indices, item.indptr]
        elif isinstance(item, (list, tuple)):
            items += item
        else:
            held.append(item)
    return [a for a in held if isinstance(a, np.ndarray)]


def kg_to_lines(kg: Kg) -> list[str]:
    """Loaded triples in original order, ready to re-parse into the same Kg."""
    return [f"{kg.entity_labels[h]}\t{kg.relations.labels[r]}\t{kg.entity_labels[t]}"
            for h, r, t in kg.loaded.tolist()]


def write_kg(kg: Kg, path: Path) -> None:
    Path(path).write_text("\n".join(kg_to_lines(kg)) + "\n", encoding="utf-8")


def tagged_neighbor_index(kg: Kg) -> dict[int, list[tuple[int, int, str]]]:
    """N(e) as per-entity (neighbor, relation, direction) lists: 'out' when
    (e, r, e') is a triple, 'in' when (e', r, e) is, 'both' when both are."""
    directions: dict[tuple[int, int, int], set[str]] = {}
    for head, relation, tail in kg.triples.tolist():
        directions.setdefault((head, tail, relation), set()).add("out")
        directions.setdefault((tail, head, relation), set()).add("in")
    index: dict[int, list[tuple[int, int, str]]] = {e: [] for e in range(kg.entity_count)}
    for (center, neighbor, relation) in sorted(directions):
        tags = directions[(center, neighbor, relation)]
        tag = "both" if len(tags) == 2 else next(iter(tags))
        index[center].append((neighbor, relation, tag))
    return index


def reference_build_edges(multikg: MultiKg) -> EdgeList:
    """Edge rows gathered entity by entity from the tagged index, then
    lexsorted by (center, neighbor, relation)."""
    centers: list[int] = []
    neighbors: list[int] = []
    relations: list[int] = []
    for kg in multikg.kgs:
        offset = multikg.entity_offset(kg.id)
        index = tagged_neighbor_index(kg)
        for center in range(kg.entity_count):
            for neighbor, relation, _ in index[center]:
                centers.append(offset + center)
                neighbors.append(offset + neighbor)
                relations.append(relation)
    order = np.lexsort((relations, neighbors, centers))
    return EdgeList(
        centers=np.asarray(centers, dtype=np.int64)[order],
        neighbors=np.asarray(neighbors, dtype=np.int64)[order],
        relations=np.asarray(relations, dtype=np.int64)[order],
        num_entities=multikg.total_entities,
    )


def reference_backward(loss: Tensor) -> None:
    """Two-pass reverse mode: every node's gradient is kept until the pass
    ends, then written onto the .grad of every reachable tensor that
    requires grad, intermediates included."""
    order = diff._topo(loss)
    local: dict[int, np.ndarray] = {id(loss): np.ones(())}
    for node in reversed(order):
        g = local.get(id(node))
        if g is None or node._grad_fn is None:
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            if not parent.requires_grad or pg is None:
                continue
            key = id(parent)
            if key in local:
                local[key] = local[key] + pg
            else:
                local[key] = pg
    for node in order:
        contribution = local.get(id(node))
        if contribution is None or not node.requires_grad:
            continue
        if node.grad is None:
            node.grad = np.asarray(contribution, dtype=np.float64).reshape(node.values.shape)
        else:
            node.grad = node.grad + contribution.reshape(node.values.shape)


def reference_nearest_negatives(pairs, source_finals: np.ndarray, target_finals: np.ndarray,
                                k_neg: int) -> list[tuple[int, int, int]]:
    """Per positive, a matrix-vector product and a full lexsort of every
    same-KG entity on each side: k_neg left swaps, then k_neg right swaps,
    as (positive index, left, right) rows."""
    def unit_rows(table):
        return table / np.sqrt((table * table).sum(axis=1))[:, None]

    source_unit = unit_rows(source_finals)
    target_unit = unit_rows(target_finals)

    def ranked_neighbors(unit, row):
        sims = unit @ unit[row]
        sims[row] = -np.inf
        order = np.lexsort((np.arange(len(sims)), -sims))
        return order[:k_neg]

    negatives = []
    for index, (e, e_star) in enumerate(pairs):
        for substitute in ranked_neighbors(source_unit, e):
            negatives.append((index, int(substitute), int(e_star)))
        for substitute in ranked_neighbors(target_unit, e_star):
            negatives.append((index, int(e), int(substitute)))
    return negatives


def reference_greedy(values: np.ndarray, limit: int, taken_rows=(), taken_cols=()
                     ) -> list[tuple[int, int]]:
    """Greedy one-to-one picks over every entry lexsorted by (-value, row,
    column), skipping rows and columns already used."""
    picks: list[tuple[int, int]] = []
    if limit <= 0:
        return picks
    used_rows = set(taken_rows)
    used_cols = set(taken_cols)
    cols = values.shape[1]
    flat = values.reshape(-1)
    row_of = np.arange(flat.size) // cols
    col_of = np.arange(flat.size) % cols
    for position in np.lexsort((col_of, row_of, -flat)):
        r = int(row_of[position])
        c = int(col_of[position])
        if r in used_rows or c in used_cols:
            continue
        used_rows.add(r)
        used_cols.add(c)
        picks.append((r, c))
        if len(picks) == limit:
            break
    return picks


def reference_pessimistic_rank(scores: np.ndarray, true_index: int, excluded: set[int]
                               ) -> tuple[int, int]:
    """Candidate-by-candidate loop: skip the true index and the excluded ones,
    count the rest and those scoring at least the true score."""
    true_score = scores[true_index]
    better_or_equal = 0
    candidates = 0
    for candidate, value in enumerate(scores):
        if candidate == true_index:
            continue
        if candidate in excluded:
            continue
        candidates += 1
        if value >= true_score:
            better_or_equal += 1
    return better_or_equal + 1, candidates + 1


def reference_known_tails(multikg: MultiKg, kg_id: str) -> dict[tuple[int, int], set[int]]:
    """(head, relation) -> known true tails over the kgc splits, the ranking
    filter as a dict of sets. Transferred triples never enter it."""
    table: dict[tuple[int, int], set[int]] = {}
    for split in ("train", "valid", "test"):
        for h, r, t in multikg.kgc_splits[kg_id][split].tolist():
            table.setdefault((h, r), set()).add(t)
    return table


def reference_score_all_tails(head: int, relation: int, entity_values: list[np.ndarray],
                              relation_values: list[np.ndarray], offset: int, count: int
                              ) -> np.ndarray:
    """One query at a time: per layer, subtract the numpy row sums of
    |head + relation - tail| over the candidate block."""
    total = np.zeros(count)
    for ek, rk in zip(entity_values, relation_values):
        translated = ek[head] + rk[relation]
        total -= np.abs(translated[None, :] - ek[offset:offset + count]).sum(axis=1)
    return total


def serial_cdist_scores(heads: np.ndarray, relations: np.ndarray,
                        entity_values: list[np.ndarray], relation_values: list[np.ndarray],
                        offset: int, count: int) -> np.ndarray:
    """Every query at once on the calling thread: per layer, subtract one
    `cdist` over all queries and the candidate block."""
    from scipy.spatial.distance import cdist

    total = np.zeros((len(heads), count))
    for ek, rk in zip(entity_values, relation_values):
        total -= cdist(ek[heads] + rk[relations], ek[offset:offset + count], "cityblock")
    return total


# Triple transfer and negative sampling as plain-tuple loops. A "store" maps
# each KG id to (loaded triples in order, {transferred triple: epoch} in
# arrival order), the layout `Kg` had before its columnar arrays.


def reference_store(multikg: MultiKg) -> dict:
    return {kg.id: ([tuple(row) for row in kg.loaded.tolist()],
                    {tuple(row): epoch for row, epoch in
                     zip(kg.transferred.tolist(), kg.transfer_epochs.tolist())})
            for kg in multikg.kgs}


def reference_derive(keys, mapping: dict[int, int]) -> list[tuple[int, int, int]]:
    """Images of the triples whose endpoints are both in the mapping."""
    images = []
    for h, r, t in keys:
        head_image = mapping.get(h)
        tail_image = mapping.get(t)
        if head_image is not None and tail_image is not None:
            images.append((head_image, r, tail_image))
    return images


def reference_transfer_triples(store: dict, seed_set, epoch: int) -> int:
    """One pair at a time: forward then backward over each KG's current
    triples, adding unseen images one by one, until a round adds nothing."""
    left, right = seed_set.kg_pair
    directions = ((left, right, seed_set.mapping()), (right, left, seed_set.inverse_mapping()))
    total = 0
    while True:
        added = 0
        for source, target, mapping in directions:
            loaded, transferred = store[target]
            present = set(loaded) | set(transferred)
            for key in reference_derive(store[source][0] + list(store[source][1]), mapping):
                if key not in present:
                    present.add(key)
                    transferred[key] = epoch
                    added += 1
        total += added
        if added == 0:
            return total


def reference_prune_stale_transfers(store: dict, seed_sets: dict) -> int:
    """Closure over all pairs from the loaded triples, as sets; transferred
    triples outside it are dropped, the rest keep their order."""
    closure = {kg_id: set(loaded) for kg_id, (loaded, _) in store.items()}
    while True:
        added = 0
        for pair in sorted(seed_sets):
            seed_set = seed_sets[pair]
            for source, target, mapping in ((pair[0], pair[1], seed_set.mapping()),
                                            (pair[1], pair[0], seed_set.inverse_mapping())):
                for key in reference_derive(sorted(closure[source]), mapping):
                    if key not in closure[target]:
                        closure[target].add(key)
                        added += 1
        if added == 0:
            break
    removed = 0
    for kg_id, (_, transferred) in store.items():
        for key in [k for k in transferred if k not in closure[kg_id]]:
            del transferred[key]
            removed += 1
    return removed


def reference_sample_negatives(positives: list[tuple[int, int, int]], entity_count: int,
                               known: set[tuple[int, int, int]], m: int,
                               rng: np.random.Generator):
    """Rejection rounds over separate head/relation/tail columns, with known
    triples encoded under the largest relation id the positives use."""
    if m < 1:
        raise CompletionError(f"need at least one negative per positive, got {m}")
    total = len(positives) * m
    pos = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    pair_of = np.repeat(np.arange(len(positives), dtype=np.int64), m)
    out_h = pos[pair_of, 0].copy()
    out_r = pos[pair_of, 1].copy()
    out_t = pos[pair_of, 2].copy()

    max_rel = int(pos[:, 1].max()) + 1 if len(positives) else 1
    known_keys = np.fromiter(
        (((h * max_rel + r) * entity_count + t)
         for h, r, t in known if r < max_rel and h < entity_count and t < entity_count),
        dtype=np.int64, count=-1)
    known_keys.sort()

    pending = np.arange(total, dtype=np.int64)
    for _ in range(100):
        if pending.size == 0:
            break
        corrupt_head = rng.integers(2, size=pending.size).astype(bool)
        replacement = rng.integers(entity_count, size=pending.size)
        h = np.where(corrupt_head, replacement, out_h[pending])
        t = np.where(corrupt_head, out_t[pending], replacement)
        changed = np.where(corrupt_head, h != out_h[pending], t != out_t[pending])
        keys = (h * max_rel + out_r[pending]) * entity_count + t
        hits = np.searchsorted(known_keys, keys)
        hits = np.minimum(hits, max(len(known_keys) - 1, 0))
        is_known = (known_keys[hits] == keys) if len(known_keys) else np.zeros_like(changed)
        accept = changed & ~is_known
        rows = pending[accept]
        out_h[rows] = h[accept]
        out_t[rows] = t[accept]
        pending = pending[~accept]
    if pending.size:
        raise CompletionError(
            "negative sampling retry budget exhausted; KG too small to corrupt")
    return out_h, out_r, out_t, pair_of


# Seed and split validity as the set loops that ran before the np.unique
# checks of `SeedSet.validate_one_to_one` and `MultiKg._check_split_disjoint`.


def reference_one_to_one(pairs) -> bool:
    """True when no entity takes part in two pairs on either side."""
    left = [p[0] for p in pairs]
    right = [p[1] for p in pairs]
    return len(set(left)) == len(left) and len(set(right)) == len(right)


def reference_split_overlap(splits: dict) -> tuple[int, int, int] | None:
    """The first triple, walking train, valid, then test in order, that an
    earlier row already holds; None when the splits are disjoint."""
    seen: set[tuple[int, int, int]] = set()
    for name in ("train", "valid", "test"):
        for key in splits[name]:
            if key in seen:
                return key
            seen.add(key)
    return None
