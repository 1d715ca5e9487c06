"""Span recorder for the benchmark's traced run.

`Recorder.install()` wraps the program's public functions from outside, at
the names the program looks them up by: `jointkg.diff.<op>` (which also
covers `Mlp` and the tensor operators, since they call the module globals),
the names `jointkg.train` imported from the other modules, and the methods
of `TrainState`, `Checkpoint`, `Adam` and `Kg`. Every tensor a wrapped op
returns gets its `_grad_fn` wrapped too, so backward time is charged to the
op and to the encoder layer whose forward created the node. The wrappers
only read their arguments and results; `restore()` puts every original back.

Spans are kept in memory as [name, start, end, parent index] and written
out by the caller when the run ends. A span's self time is its busy time
minus the time of the spans it directly encloses.
"""
from __future__ import annotations

import hashlib
import json
import time
import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np

from jointkg import alignment, diff, evaluate, kgdata, rgnn, train

_clock = time.perf_counter

# Every diff function that records a graph node itself; composites such as
# relu and mean_all reach these through the module globals.
DIFF_OPS = ("add", "sub", "mul", "scale", "matmul", "concat", "reshape", "tanh",
            "leakyrelu", "log", "sum_all", "softmax_row", "l1_norm_row",
            "cosine_distance", "gather_rows", "scatter_weighted_sum", "segment_softmax")
REPORTED_OPS = ("gather_rows", "scatter_weighted_sum", "segment_softmax", "matmul",
                "cosine_distance", "l1_norm_row", "concat")


def _metric(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, "better": better}


def _timings(base: str, *suffixes: str) -> list[dict]:
    return [_metric(f"{base}.{s}", "count" if s == "calls" else "s") for s in suffixes]


# The traced run's metrics, in BENCHMARK.json order. Suffixes: .s busy
# seconds, .self_s busy minus directly enclosed spans, .calls call count,
# .fwd_s / .bwd_s forward and backward seconds.
PER_LAYER = [
    *_timings("train.completion_step", "s", "self_s", "calls"),
    *_timings("train.alignment_step", "s", "self_s", "calls"),
    *_timings("train.entr_step", "s", "self_s"),
    *_timings("train.initialize_entropy_baseline", "s"),
    *_timings("train.validation_mrr", "s", "calls"),
    *_timings("train.fusion_hook", "s"),
    *_timings("train.snapshot", "s", "calls"),
    *_timings("train.checkpoint_save", "s"),
    _metric("train.checkpoint_save.bytes", "bytes"),
    *_timings("train.checkpoint_load", "s"),
    *_timings("train.resume", "s"),
    *_timings("diff.backward", "s", "calls"),
    _metric("diff.backward.nodes", "count"),
    *_timings("diff.Adam.step", "s"),
    *[m for op in REPORTED_OPS for m in _timings(f"diff.{op}", "fwd_s", "bwd_s", "calls")],
    _metric("diff.gather_rows.bwd_rows", "count"),
    _metric("diff.gather_rows.bwd_bytes", "bytes-computed"),
    *_timings("rgnn.encode.tape", "s", "calls"),
    *_timings("rgnn.encode.nograd", "s", "calls"),
    _metric("rgnn.encode.repeat_calls", "count"),
    *_timings("rgnn.layer.k0", "fwd_s", "bwd_s"),
    *_timings("rgnn.layer.k1", "fwd_s", "bwd_s"),
    *_timings("rgnn.build_edges", "s", "calls"),
    _metric("rgnn.edges", "count"),
    *_timings("kgdata.load_multikg", "s"),
    *_timings("kgdata.neighbor_index", "s"),
    *_timings("completion.sample_negatives", "s"),
    _metric("completion.negatives", "count"),
    *_timings("completion.ranking_loss", "s"),
    *_timings("completion.alignment_constraint_loss", "s"),
    *_timings("completion.score_all_tails", "s", "calls"),
    *_timings("alignment.nearest_negatives", "s"),
    *_timings("alignment.alignment_loss", "s"),
    *_timings("alignment.final_embeddings", "s"),
    *_timings("alignment.build_alignment_matrix", "s", "calls"),
    *_timings("alignment.greedy_match", "s"),
    _metric("alignment.greedy_match.useful_ratio", "ratio", "higher"),
    *_timings("entr.matrix_entropy", "s"),
    *_timings("entr.enlarge_seeds", "s"),
    *_timings("entr.transfer_triples", "s"),
    *_timings("entr.prune_stale_transfers", "s"),
    _metric("entr.budget", "count", "higher"),
    _metric("entr.transferred", "count", "higher"),
    _metric("entr.pruned", "count"),
    *_timings("evaluate.evaluate_kgc", "s"),
    _metric("evaluate.queries", "count"),
    _metric("evaluate.candidates", "count"),
    *_timings("evaluate.pessimistic_rank", "s", "calls"),
    *_timings("evaluate.evaluate_kga", "s"),
    _metric("trace.coverage", "fraction", "higher"),
    _metric("trace.overhead_s", "s"),
]


def _digest_arrays(arrays, extra: bytes = b"") -> bytes:
    h = hashlib.blake2b(extra, digest_size=16)
    for array in arrays:
        h.update(repr(array.shape).encode())
        h.update(memoryview(np.ascontiguousarray(array)).cast("B"))
    return h.digest()


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[list] = []   # [span index, seconds of directly enclosed spans]
        self.busy: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.layer: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._seen_encodes: set[bytes] = set()
        self._hook_digests = weakref.WeakKeyDictionary()  # fusion hook -> input digest

    # ---- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self.spans.append([name, _clock(), 0.0, parent])
        self._open.append([index, 0.0])
        return index

    def end(self) -> float:
        end = _clock()
        index, enclosed = self._open.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        if self._open:
            self._open[-1][1] += duration
        name = span[0]
        self.busy[name] += duration
        self.child[name] += enclosed
        self.calls[name] += 1
        return duration

    def timed(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result
        return wrapper

    def covered(self, parent: int, prefix: str) -> float:
        """Seconds of the spans directly under `parent` whose names start
        with `prefix`."""
        return sum(end - start for name, start, end, up in self.spans
                   if up == parent and name.startswith(prefix))

    def write(self, path: Path, meta: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[name, start - origin, end - origin, parent]
                for name, start, end, parent in self.spans]
        Path(path).write_text(json.dumps({**meta, "fields": ["name", "start_s", "end_s",
                                                             "parent"], "spans": rows}),
                              encoding="utf-8")

    # ---- patching --------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        for op in DIFF_OPS:
            self.patch(diff, op, lambda fn, op=op: self._op(op, fn))
        self.patch(diff, "backward", lambda fn: self.timed("diff.backward", fn))
        self.patch(diff.Adam, "step", lambda fn: self.timed("diff.Adam.step", fn))
        self.patch(rgnn, "layer_forward", self._layer_forward)
        self.patch(train, "encode", self._encode)
        self.patch(train, "make_fusion_hook", self._make_fusion_hook)

        def count(name, measure=lambda result, *args: result):
            def on_result(result, *args, **kwargs):
                self.counts[name] += measure(result, *args)
            return on_result

        def last_edges(result, *args):
            self.counts["rgnn.edges"] = result.count

        def greedy(result, matrix, *args):
            values = getattr(matrix, "values", matrix)
            self.counts["alignment.greedy_match.matches"] += len(result)
            self.counts["alignment.greedy_match.entries"] += values.size

        def saved_bytes(result, checkpoint, path, *args):
            self.counts["train.checkpoint_save.bytes"] += Path(path).stat().st_size

        queries = count("evaluate.queries", lambda r, *a: sum(m["count"] for m in r.values()))
        table = [
            (train.TrainState, "completion_step", "train.completion_step", None),
            (train.TrainState, "alignment_step", "train.alignment_step", None),
            (train.TrainState, "entr_step", "train.entr_step", None),
            (train.TrainState, "initialize_entropy_baseline",
             "train.initialize_entropy_baseline", None),
            (train.TrainState, "fusion_hook", "train.fusion_hook", None),
            (train, "validation_mrr", "train.validation_mrr", None),
            (train, "snapshot", "train.snapshot", None),
            (train.Checkpoint, "save", "train.checkpoint_save", saved_bytes),
            (train, "resume", "train.resume", None),
            (train, "build_edges", "rgnn.build_edges", last_edges),
            (kgdata, "load_multikg", "kgdata.load_multikg", None),
            (kgdata.Kg, "neighbor_index", "kgdata.neighbor_index", None),
            (train, "sample_negatives", "completion.sample_negatives",
             count("completion.negatives", lambda r, *a: len(r.heads))),
            (train, "ranking_loss", "completion.ranking_loss", None),
            (train, "alignment_constraint_loss", "completion.alignment_constraint_loss", None),
            (evaluate, "score_all_tails", "completion.score_all_tails", None),
            (train, "nearest_negatives", "alignment.nearest_negatives", None),
            (train, "alignment_loss", "alignment.alignment_loss", None),
            (train, "final_embeddings", "alignment.final_embeddings", None),
            (train, "build_alignment_matrix", "alignment.build_alignment_matrix", None),
            (alignment, "build_alignment_matrix", "alignment.build_alignment_matrix", None),
            (alignment, "greedy_match", "alignment.greedy_match", greedy),
            (train, "matrix_entropy", "entr.matrix_entropy", None),
            (train, "enlarge_seeds", "entr.enlarge_seeds", None),
            (train, "transfer_triples", "entr.transfer_triples", count("entr.transferred")),
            (train, "prune_stale_transfers", "entr.prune_stale_transfers", count("entr.pruned")),
            (train, "seed_budget", "entr.seed_budget", count("entr.budget")),
            (train, "evaluate_kgc", "evaluate.evaluate_kgc", queries),
            (evaluate, "evaluate_kgc", "evaluate.evaluate_kgc", queries),
            (evaluate, "pessimistic_rank", "evaluate.pessimistic_rank",
             count("evaluate.candidates", lambda r, *a: r[1])),
            (evaluate, "evaluate_kga", "evaluate.evaluate_kga", None),
        ]
        for owner, attr, name, on_result in table:
            self.patch(owner, attr, lambda fn, n=name, o=on_result: self.timed(n, fn, o))
        self.patch(train.Checkpoint, "load",
                   lambda cm: classmethod(self.timed("train.checkpoint_load", cm.__func__)))

    # ---- special wrappers ------------------------------------------------

    def _op(self, op: str, fn):
        name = f"diff.{op}"
        backward_name = f"diff.{op}.bwd"

        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end()
            if out._grad_fn is not None:
                rows = nbytes = 0
                if op == "gather_rows":
                    table = args[0].values
                    rows = len(args[1])
                    width = table.shape[1] if table.ndim == 2 else 1
                    # computed from shapes: gradient rows read plus table rows written
                    nbytes = 8 * width * (rows + table.shape[0])
                out._grad_fn = self._grad(backward_name, self.layer, out._grad_fn,
                                          rows, nbytes)
            return out
        return wrapper

    def _grad(self, name: str, layer: int | None, grad_fn, rows: int, nbytes: int):
        def wrapped(g):
            self.begin(name)
            try:
                return grad_fn(g)
            finally:
                duration = self.end()
                self.counts["diff.backward.nodes"] += 1
                if layer is not None:
                    self.busy[f"rgnn.layer.k{layer}.bwd"] += duration
                if rows:
                    self.counts["diff.gather_rows.bwd_rows"] += rows
                    self.counts["diff.gather_rows.bwd_bytes"] += nbytes
        return wrapped

    def _layer_forward(self, fn):
        def wrapper(edges, entity_k, relation_k, params, layer):
            outer = self.layer
            self.layer = layer
            self.begin(f"rgnn.layer.k{layer}")
            try:
                return fn(edges, entity_k, relation_k, params, layer)
            finally:
                self.end()
                self.layer = outer
        return wrapper

    def _make_fusion_hook(self, fn):
        def wrapper(completion_layers, fusion):
            hook = fn(completion_layers, fusion)
            key = _digest_arrays(completion_layers.entity_values()
                                 + completion_layers.relation_values()
                                 + [p.values for p in fusion.parameters()])
            self._hook_digests[hook] = key
            return hook
        return wrapper

    def _encode(self, fn):
        def wrapper(edges, params, fusion_hook=None):
            if diff._grad_enabled:
                name = "rgnn.encode.tape"
            else:
                name = "rgnn.encode.nograd"
                # an encode repeats when its parameters, graph and fusion inputs
                # equal an earlier no-grad encode's: the result is already known
                hook_key = b"" if fusion_hook is None else self._hook_digests[fusion_hook]
                key = _digest_arrays([p.values for p in params.parameters()]
                                     + [edges.centers, edges.neighbors, edges.relations],
                                     hook_key)
                if key in self._seen_encodes:
                    self.counts["rgnn.encode.repeat_calls"] += 1
                self._seen_encodes.add(key)
            self.begin(name)
            try:
                return fn(edges, params, fusion_hook)
            finally:
                self.end()
        return wrapper

    # ---- results ---------------------------------------------------------

    def value(self, name: str) -> float:
        base, _, suffix = name.rpartition(".")
        if suffix in ("s", "fwd_s"):
            return self.busy.get(base, 0.0)
        if suffix == "self_s":
            return self.busy.get(base, 0.0) - self.child.get(base, 0.0)
        if suffix == "bwd_s":
            return self.busy.get(base + ".bwd", 0.0)
        if suffix == "calls":
            return float(self.calls.get(base, 0))
        if name == "alignment.greedy_match.useful_ratio":
            entries = self.counts.get("alignment.greedy_match.entries", 0.0)
            return self.counts["alignment.greedy_match.matches"] / entries if entries else 0.0
        return float(self.counts.get(name, 0.0))
