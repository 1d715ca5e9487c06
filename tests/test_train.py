import json
import re
import zipfile

import numpy as np
import pytest

from jointkg import diff, train
from jointkg.alignment import build_alignment_matrix
from jointkg.completion import sample_negatives
from jointkg.entr import enlarge_seeds, matrix_entropy, seed_budget, transfer_triples
from jointkg.errors import TrainError
from jointkg.kgdata import (
    GIVEN,
    Kg,
    MultiKg,
    RelationVocab,
    SeedSet,
    load_initial_vectors,
    triple_keys,
)
from jointkg.rgnn import build_edges, encode
from jointkg.train import (
    ABLATIONS,
    Checkpoint,
    JointModel,
    TrainConfig,
    TrainState,
    fit,
    read_json,
    resume,
    snapshot,
    train_epoch,
    validation_mrr,
)

from .util import (
    read_checkpoint,
    reference_adam_step,
    reference_backward,
    toy_pair_dataset,
    write_checkpoint,
)


def small_config(**overrides):
    defaults = dict(layers=1, dim=6, lr_completion=0.01, lr_alignment=0.01, beta=0.3,
                    gamma_completion=2.0, gamma_alignment=1.0, epochs=2,
                    negatives_per_positive=2, nearest_neighbor_negatives=2,
                    si_mode="without", rng_seed=11)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def param_arrays(state, which):
    params = (state.model.completion_parameters() if which == "completion"
              else state.model.alignment_parameters())
    return [p.values.copy() for p in params]


class TestTrainConfig:
    def test_rejects_unknown_ablation(self):
        with pytest.raises(TrainError, match="unknown ablation"):
            TrainConfig(ablations=("no_such_flag",))

    def test_from_dict_requires_every_field(self, tmp_path):
        config = small_config()
        path = tmp_path / "config.json"
        config.to_file(path)
        data = read_json(path, "config file")
        assert TrainConfig.from_dict(data) == config

        del data["beta"]
        with pytest.raises(TrainError, match="missing config field: beta"):
            TrainConfig.from_dict(data)

    def test_to_dict_lists_ablations(self):
        config = small_config(ablations=("no_sir", "no_entr"))
        assert config.to_dict()["ablations"] == ["no_sir", "no_entr"]
        assert TrainConfig.from_dict(config.to_dict()) == config

    def test_unknown_field_is_named(self):
        with pytest.raises(TrainError, match="unknown config field: betamax"):
            TrainConfig.from_dict({"betamax": 3})

    def test_grid_values_outside_paper_space_are_accepted(self):
        config = TrainConfig(layers=5, dim=12, lr_completion=0.5, epochs=100)
        assert config.layers == 5


class TestFreezeCorrectness:
    def test_completion_step_never_touches_alignment_parameters(self):
        multikg = toy_pair_dataset()
        state = TrainState(multikg, small_config())
        before = param_arrays(state, "alignment")
        state.completion_step()
        after = param_arrays(state, "alignment")
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_alignment_step_never_touches_completion_parameters(self):
        multikg = toy_pair_dataset()
        state = TrainState(multikg, small_config())
        before = param_arrays(state, "completion")
        state.alignment_step()
        after = param_arrays(state, "completion")
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


class TestTrainEpoch:
    def test_losses_are_finite_and_logged(self):
        multikg = toy_pair_dataset()
        state = TrainState(multikg, small_config())
        state.initialize_entropy_baseline()
        record = train_epoch(state)
        assert record["epoch"] == 1
        assert np.isfinite(record["completion"]["loss"])
        assert np.isfinite(record["alignment"]["loss"])

    def test_no_align_skips_alignment_and_entr(self):
        multikg = toy_pair_dataset()
        state = TrainState(multikg, small_config(ablations=("no_align",)))
        before = param_arrays(state, "alignment")
        seeds_before = {p: s.pairs.tolist() for p, s in state.train_seeds.items()}
        record = train_epoch(state)
        assert "alignment" not in record and "entr" not in record
        assert all(np.array_equal(a, b)
                   for a, b in zip(before, param_arrays(state, "alignment")))
        assert {p: s.pairs.tolist() for p, s in state.train_seeds.items()} == seeds_before

    def test_no_comple_skips_completion(self):
        multikg = toy_pair_dataset()
        state = TrainState(multikg, small_config(ablations=("no_comple",)))
        state.initialize_entropy_baseline()
        before = param_arrays(state, "completion")
        record = train_epoch(state)
        assert "completion" not in record
        assert all(np.array_equal(a, b)
                   for a, b in zip(before, param_arrays(state, "completion")))

    def test_entr_off_never_mutates_seeds_or_triples(self):
        multikg = toy_pair_dataset(drop_in_first=3)
        state = TrainState(multikg, small_config(ablations=("no_entr",)))
        seeds_before = {p: s.pairs.tolist() for p, s in state.train_seeds.items()}
        triples_before = {kg.id: kg.triples.tolist() for kg in multikg.kgs}
        for _ in range(2):
            train_epoch(state)
        assert {p: s.pairs.tolist() for p, s in state.train_seeds.items()} == seeds_before
        assert {kg.id: kg.triples.tolist() for kg in multikg.kgs} == triples_before

    def test_identical_runs_have_identical_trajectories(self):
        def run():
            multikg = toy_pair_dataset(drop_in_first=2)
            state = TrainState(multikg, small_config())
            state.initialize_entropy_baseline()
            return [train_epoch(state) for _ in range(3)]

        assert run() == run()


class TestUntapedCompletionLayers:
    @staticmethod
    def assert_fresh(state, layers):
        with diff.no_grad():
            fresh = encode(state.edges, state.model.completion_encoder)
        for kept, new in zip(layers.entities + layers.relations,
                             fresh.entities + fresh.relations):
            assert kept.values.tobytes() == new.values.tobytes()

    def test_kept_until_a_completion_step_an_edge_rebuild_or_a_rebinding(self):
        state = TrainState(toy_pair_dataset(), small_config())
        layers = state.completion_layers(tape=False)
        self.assert_fresh(state, layers)
        state.alignment_step()
        assert state.completion_layers(tape=False) is layers
        state.completion_step()
        after_step = state.completion_layers(tape=False)
        assert after_step is not layers
        self.assert_fresh(state, after_step)
        state.edges = build_edges(state.multikg)
        after_rebuild = state.completion_layers(tape=False)
        assert after_rebuild is not after_step
        assert state.completion_layers(tape=False) is after_rebuild
        parameter = state.model.completion_parameters()[0]
        parameter.values = parameter.values + 1.0  # as `resume` rebinds the arrays
        after_rebinding = state.completion_layers(tape=False)
        assert after_rebinding is not after_rebuild
        self.assert_fresh(state, after_rebinding)
        for parameter in state.model.completion_parameters():
            parameter.grad = np.ones_like(parameter.values)
        state.adam_completion.step()  # in place, with no taped encode before it
        after_update = state.completion_layers(tape=False)
        assert after_update is not after_rebinding
        self.assert_fresh(state, after_update)

    def test_one_encode_serves_the_hook_and_validation(self, monkeypatch):
        """With SIR, an epoch's alignment steps, its ENTR step and validation
        share one untaped completion encode, made after the completion steps."""
        state = TrainState(toy_pair_dataset(), small_config(steps_per_epoch=3))
        state.initialize_entropy_baseline()
        side = {id(state.model.completion_encoder): "completion",
                id(state.model.alignment_side_encoder): "alignment"}
        calls = []
        monkeypatch.setattr("jointkg.train.encode",
                            lambda edges, params, hook=None:
                            calls.append((side[id(params)], diff._grad_enabled))
                            or encode(edges, params, hook))
        record = train_epoch(state)
        validation_mrr(state)
        assert state.config.sir_active and record["entr"]["transferred"] == 0
        assert calls == ([("completion", True)] * 3 + [("completion", False)]
                         + [("alignment", True)] * 3 + [("alignment", False)])


class TestEntrStep:
    def test_a_chain_across_pairs_reaches_its_end_in_one_step(self):
        """k3's triple reaches k2 along (k2, k3) and then k1 along (k1, k2),
        although (k1, k2) comes first in pair order."""
        vocab = RelationVocab()
        vocab.intern("r0")
        kgs = [Kg(kg_id, vocab) for kg_id in ("k1", "k2", "k3")]
        for kg in kgs:
            for e in range(3):
                kg.intern_entity(f"{kg.id}e{e}")
            kg.add_triple(2, 0, 2)  # unmapped endpoints: never transferred
        kgs[2].add_triple(0, 0, 1)
        multikg = MultiKg(kgs, vocab)
        for pair in (("k1", "k2"), ("k2", "k3")):
            multikg.seed_sets[pair] = SeedSet(pair, [(0, 0), (1, 1)], [GIVEN] * 2)
        state = TrainState(multikg, small_config())
        state.train_seeds = dict(multikg.seed_sets)
        state.initialize_entropy_baseline()
        entr = state.entr_step()
        assert [entry["budget"] for entry in entr["pairs"].values()] == [0, 0]
        assert (entr["pruned"], entr["transferred"]) == (0, 2)
        assert multikg.by_id["k2"].transferred.tolist() == [[0, 0, 1]]
        assert multikg.by_id["k1"].transferred.tolist() == [[0, 0, 1]]

    def test_a_positive_budget_enlarges_as_from_the_whole_matrix(self, monkeypatch):
        # the baseline is raised so the budget is positive; the step builds the
        # pair's matrix once, and its seeds are those greedy takes from it
        state = TrainState(toy_pair_dataset(entities=40, extra_edges=40, seed_pairs=10),
                           small_config())
        state.initialize_entropy_baseline()
        pair = ("aa", "bb")
        ((_, source, target),) = state.pair_finals()
        entropy = matrix_entropy(build_alignment_matrix(source, target))
        state.h_tilde[pair] = 2.0 * entropy
        budget = seed_budget(2.0 * entropy, entropy, state.config.beta, 40, 40)
        assert budget > 0
        expected = enlarge_seeds(build_alignment_matrix(source, target), budget,
                                 state.train_seeds[pair])
        built = []
        monkeypatch.setattr(train, "build_alignment_matrix",
                            lambda *args: built.append(args) or build_alignment_matrix(*args))
        entry = state.entr_step()["pairs"]["aa|bb"]
        assert (entry["entropy"], entry["budget"]) == (entropy, budget)
        assert entry["enlarged"] == len(expected) - len(expected.given_pairs()) > 0
        assert len(built) == 1
        assert np.array_equal(state.train_seeds[pair].pairs, expected.pairs)
        assert state.train_seeds[pair].provenance == expected.provenance

    def test_edges_are_rebuilt_only_when_the_triples_change(self, monkeypatch):
        state = TrainState(toy_pair_dataset(drop_in_first=3), small_config())
        state.train_seeds = {("aa", "bb"): SeedSet(("aa", "bb"), [(i, i) for i in range(12)],
                                                   [GIVEN] * 12)}
        state.initialize_entropy_baseline()
        calls = []
        monkeypatch.setattr("jointkg.train.build_edges",
                            lambda multikg: calls.append(multikg) or build_edges(multikg))
        assert state.entr_step()["transferred"] == 3
        assert len(calls) == 1
        assert state.entr_step()["transferred"] == 0
        assert len(calls) == 1
        for name in ("centers", "neighbors", "relations"):
            assert np.array_equal(getattr(state.edges, name),
                                  getattr(build_edges(state.multikg), name))


class TestNegativePairing:
    def test_transferred_triples_leave_loaded_corruptions_unchanged(self, monkeypatch):
        def corruptions_of_loaded(transfer):
            multikg = toy_pair_dataset(drop_in_first=3)
            kg_a, kg_b = multikg.by_id["aa"], multikg.by_id["bb"]
            missing = sorted(set(map(tuple, kg_b.triples.tolist()))
                             - set(map(tuple, kg_a.triples.tolist())))
            assert missing
            if transfer:
                kg_a.set_transferred(missing, [1] * len(missing))
            state = TrainState(multikg, small_config())
            loaded = {kg_id: [tuple(row) for row in splits["train"].tolist()]
                      for kg_id, splits in multikg.kgc_splits.items()}
            calls = []

            def recording(positives, *args, **kwargs):
                batch = sample_negatives(positives, *args, **kwargs)
                calls.append(([tuple(row) for row in positives.tolist()], batch))
                return batch

            monkeypatch.setattr("jointkg.train.sample_negatives", recording)
            state.completion_step()
            drawn = []
            for positives, batch in calls:
                for kg_id, train in sorted(loaded.items()):
                    if positives[:len(train)] != train:
                        continue
                    for row in np.flatnonzero(batch.positive_index < len(train)):
                        drawn.append((kg_id, positives[batch.positive_index[row]],
                                      int(batch.heads[row]), int(batch.tails[row])))
            return drawn

        paired = corruptions_of_loaded(transfer=False)
        assert {kg_id for kg_id, *_ in paired} == {"aa", "bb"}
        assert corruptions_of_loaded(transfer=True) == paired

    def test_transferred_triples_stay_out_of_the_negatives(self, monkeypatch):
        multikg = toy_pair_dataset(drop_in_first=3)
        kg_a, kg_b = multikg.by_id["aa"], multikg.by_id["bb"]
        missing = np.array(sorted(set(map(tuple, kg_b.triples.tolist()))
                                  - set(map(tuple, kg_a.triples.tolist()))), dtype=np.int64)
        kg_a.set_transferred(missing, [1] * len(missing))
        state = TrainState(multikg, small_config())
        filters = []

        def recording(positives, entity_count, known, *args):
            if positives is multikg.kgc_splits["aa"]["train"] or positives is kg_a.transferred:
                filters.append(known)
            return sample_negatives(positives, entity_count, known, *args)

        monkeypatch.setattr("jointkg.train.sample_negatives", recording)
        state.completion_step()
        assert len(filters) == 2  # the loaded and the transferred positives
        for known in filters:
            assert np.isin(triple_keys(missing, kg_a.entity_count), known).all()


class TestNoSirEqualsNoComple:
    def test_alignment_outputs_identical(self):
        def finals_for(flags):
            multikg = toy_pair_dataset(drop_in_first=2)
            state = TrainState(multikg, small_config(ablations=flags))
            state.initialize_entropy_baseline()
            for _ in range(2):
                train_epoch(state)
            finals, _ = state.alignment_layers_and_finals(tape=False)
            return finals.values

        assert np.array_equal(finals_for(("no_sir",)), finals_for(("no_comple",)))


def mirrored_pair(seed, dim):
    """`toy_pair_dataset` (two KGs with the same triples) whose entity i of
    either KG takes the same random surface-information vector."""
    multikg = toy_pair_dataset(seed=seed)
    rng = np.random.default_rng(seed)
    count = multikg.kgs[0].entity_count
    for row in range(count):
        multikg.entity_vectors[row] = multikg.entity_vectors[count + row] = rng.normal(size=dim)
    multikg.vector_dim = dim
    return multikg


def reference_step(adam):
    """`diff.Adam.step` through the allocating `reference_adam_step`, which
    steps every parameter that has a gradient."""
    adam.t += 1
    values = [p.values for p in adam.params]
    reference_adam_step(values, [p.grad for p in adam.params], adam.m, adam.v, adam.t, adam.lr)
    for p, new in zip(adam.params, values):
        p.values = new


class TestFit:
    @pytest.mark.parametrize("seed, active_steps", [(1, 0), (0, 1)])
    def test_zero_alignment_loss_saves_the_bytes_of_every_step_run(
            self, tmp_path, monkeypatch, seed, active_steps):
        """At gamma_a = 0 on mirrored KGs every alignment hinge is inactive
        (on seed 0 after the first step), so `backward` skips the alignment
        side and Adam its no-op steps; the saved checkpoint is byte for byte
        that of a fit through `reference_backward` and `reference_adam_step`,
        which run every grad_fn and step every parameter."""
        config = small_config(gamma_alignment=0.0, si_mode="with", steps_per_epoch=3)
        losses = []
        alignment_step = TrainState.alignment_step

        def spy(state):
            losses.append(alignment_step(state))
            return losses[-1]

        def run(path):
            losses.clear()
            with monkeypatch.context() as patch:
                patch.setattr(TrainState, "alignment_step", spy)
                fit(mirrored_pair(seed, config.dim), config).save(path)
            return path.read_bytes()

        skipped = run(tmp_path / "skipped.npz")
        assert len(losses) == 6 and sum(loss != 0.0 for loss in losses) == active_steps
        with monkeypatch.context() as patch:
            patch.setattr(diff, "backward", reference_backward)
            patch.setattr(diff.Adam, "step", reference_step)
            assert run(tmp_path / "reference.npz") == skipped

    def test_epochs_zero_returns_initial_checkpoint(self):
        multikg = toy_pair_dataset()
        checkpoint = fit(multikg, small_config(epochs=0))
        assert checkpoint.epoch == 0
        assert 0.0 < checkpoint.val_mrr <= 1.0

    def test_best_checkpoint_is_argmax_of_log(self):
        multikg = toy_pair_dataset()
        log = []
        checkpoint = fit(multikg, small_config(epochs=3), log_lines=log)
        mrr_by_epoch = {record["epoch"]: record["val_mrr"] for record in map(json.loads, log)}
        best_epoch = max(sorted(mrr_by_epoch), key=lambda e: (mrr_by_epoch[e], -e))
        assert checkpoint.epoch == best_epoch
        assert checkpoint.val_mrr == mrr_by_epoch[best_epoch]

    def test_no_comple_keeps_the_last_epoch(self):
        """Validation completion MRR cannot rise when the completion side never
        trains, so it does not select: the trained alignment side is kept."""
        multikg = toy_pair_dataset(drop_in_first=2)
        config = small_config(ablations=("no_comple",))
        initial = dict(JointModel(config, multikg).named_parameters())
        checkpoint = fit(multikg, config)
        assert checkpoint.epoch == 2
        assert any(not np.array_equal(values, initial[name].values)
                   for name, values in checkpoint.parameters.items()
                   if name.startswith(("alignment/", "heads/")))

    @pytest.mark.parametrize("ablation, phases", [
        (None, {"completion", "alignment", "entr"}),
        ("no_comple", {"alignment", "entr"}),
        ("no_align", {"completion"}),
        ("no_entr", {"completion", "alignment"}),
        ("no_sir", {"completion", "alignment", "entr"}),
    ], ids=["full", "no_comple", "no_align", "no_entr", "no_sir"])
    def test_record_holds_the_phases_that_ran(self, ablation, phases):
        """Each line is a sorted-key strict-JSON record; a phase that did not
        run is absent from it, not reported as 0, and epoch 0 ran none."""
        log = []
        ablations = () if ablation is None else (ablation,)
        fit(toy_pair_dataset(drop_in_first=2), small_config(epochs=1, ablations=ablations),
            log_lines=log)
        untrained, trained = records = [json.loads(line) for line in log]
        assert log == [json.dumps(record, sort_keys=True, allow_nan=False) for record in records]
        assert sorted(untrained) == ["epoch", "val_mrr", "version"]
        assert (untrained["epoch"], trained["epoch"]) == (0, 1)
        assert untrained["version"] == trained["version"] == 1
        assert set(trained) == {"epoch", "val_mrr", "version"} | phases
        entries = {"completion": ["constraint", "loss", "ranking"], "alignment": ["loss"],
                   "entr": ["pairs", "pruned", "transferred"]}
        for phase in phases:
            assert sorted(trained[phase]) == entries[phase]
        if "entr" in phases:
            assert list(trained["entr"]["pairs"]) == ["aa|bb"]
            assert sorted(trained["entr"]["pairs"]["aa|bb"]) == [
                "budget", "enlarged", "entropy", "given", "h_tilde"]

    def test_record_agrees_with_the_state(self):
        """The record reports what the epoch did. A raised baseline gives
        ENTR budgets above 0, so seeds are enlarged and triples transferred
        and pruned."""
        state = TrainState(toy_pair_dataset(drop_in_first=2), small_config(beta=1.0))
        state.initialize_entropy_baseline()
        state.h_tilde = {pair: 2 * h for pair, h in state.h_tilde.items()}
        acted = set()
        for _ in range(3):
            rows_before = sum(len(kg.transferred) for kg in state.multikg.kgs)
            record = train_epoch(state)
            completion, entr = record["completion"], record["entr"]
            assert completion["ranking"] + completion["constraint"] == completion["loss"]
            rows_after = sum(len(kg.transferred) for kg in state.multikg.kgs)
            assert entr["transferred"] - entr["pruned"] == rows_after - rows_before
            for (a, b), seed_set in state.train_seeds.items():
                entry = entr["pairs"][f"{a}|{b}"]
                counts = [state.multikg.by_id[kg_id].entity_count for kg_id in (a, b)]
                assert entry["h_tilde"] == state.h_tilde[a, b]
                assert entry["budget"] == seed_budget(entry["h_tilde"], entry["entropy"],
                                                      state.config.beta, *counts)
                assert entry["given"] + entry["enlarged"] == len(seed_set)
                assert entry["given"] == len(seed_set.given_pairs())
                acted |= {name for name in ("budget", "enlarged") if entry[name]}
            acted |= {name for name in ("pruned", "transferred") if entr[name]}
        assert acted == {"budget", "enlarged", "pruned", "transferred"}

    def test_ranking_loss_decreases_on_memorizable_instance(self):
        multikg = toy_pair_dataset(entities=50, relations=3, extra_edges=60, seed_pairs=8,
                                   seed=4)
        state = TrainState(multikg, small_config(dim=16, epochs=0, lr_completion=0.05,
                                                 ablations=("no_align",)))
        losses = [train_epoch(state)["completion"]["ranking"] for _ in range(12)]
        assert losses[-1] < losses[0]

    def test_empty_validation_split_errors(self):
        multikg = toy_pair_dataset()
        for kg_id in ("aa", "bb"):
            multikg.kgc_splits[kg_id]["valid"] = []
        with pytest.raises(TrainError, match="empty validation"):
            fit(multikg, small_config(epochs=0))


class TestCheckpoint:
    def test_save_load_round_trip_is_bit_exact(self, tmp_path):
        multikg = toy_pair_dataset(drop_in_first=2)
        state = TrainState(multikg, small_config())
        state.initialize_entropy_baseline()
        train_epoch(state)
        checkpoint = snapshot(state, validation_mrr(state))
        path = tmp_path / "checkpoint.json"
        checkpoint.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.vocab_hash == checkpoint.vocab_hash
        assert loaded.epoch == checkpoint.epoch
        assert loaded.val_mrr == checkpoint.val_mrr
        assert set(loaded.parameters) == set(checkpoint.parameters)
        for name in checkpoint.parameters:
            assert np.array_equal(loaded.parameters[name], checkpoint.parameters[name])
        path2 = tmp_path / "checkpoint2.json"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_epoch_zero_snapshot_holds_fresh_zero_moments(self, tmp_path):
        # each moment is a +0.0 array of its own, which later steps leave zero,
        # and the file is the one plain copies of the moments give
        state = TrainState(toy_pair_dataset(drop_in_first=2), small_config())
        state.initialize_entropy_baseline()
        checkpoint = snapshot(state, validation_mrr(state))
        copies = {side: {"t": adam.t, "m": [m.copy() for m in adam.m],
                         "v": [v.copy() for v in adam.v]}
                  for side, adam in (("adam_completion", state.adam_completion),
                                     ("adam_alignment", state.adam_alignment))}
        live, saved = self._moments(state), self._saved_moments(checkpoint)
        assert [m.shape for m in saved] == [m.shape for m in live]
        for moment in saved:
            assert not any(np.shares_memory(moment, other) for other in live)
        train_epoch(state)
        assert any(moment.any() for moment in self._moments(state))
        assert not any(moment.view(np.uint64).any() for moment in saved)
        first, second, copied = (tmp_path / f"{name}.npz" for name in ("a", "b", "copied"))
        checkpoint.save(first)
        Checkpoint.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()
        checkpoint.adam_completion, checkpoint.adam_alignment = copies.values()
        checkpoint.save(copied)
        assert copied.read_bytes() == first.read_bytes()

    def test_two_saves_are_byte_equal_with_pinned_member_names(self, tmp_path):
        # every member carries np.savez's fixed timestamp, so equal bytes do
        # not depend on the clock
        state = TrainState(toy_pair_dataset(drop_in_first=2), small_config())
        state.initialize_entropy_baseline()
        train_epoch(state)
        checkpoint = snapshot(state, validation_mrr(state))
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        checkpoint.save(first)
        checkpoint.save(second)
        assert first.read_bytes() == second.read_bytes()
        with zipfile.ZipFile(first) as archive:
            infos = archive.infolist()
        assert {info.date_time for info in infos} == {(1980, 1, 1, 0, 0, 0)}
        adam = {"adam_completion": state.adam_completion, "adam_alignment": state.adam_alignment}
        expected = (["meta", "train_seeds/aa|bb", "test_seeds/aa|bb", "transferred/aa",
                     "transferred/bb"]
                    + [f"parameters/{name}" for name, _ in state.model.named_parameters()]
                    + [f"{side}/{key}/{i}" for side, optimizer in adam.items()
                       for key in ("m", "v") for i in range(len(optimizer.params))])
        assert [info.filename for info in infos] == sorted(f"{name}.npy" for name in expected)
        _, meta = read_checkpoint(first)
        assert sorted(meta) == ["config", "epoch", "h_tilde", "provenance", "t", "val_mrr",
                                "version", "vocab_hash"]
        steps = state.config.steps_per_epoch
        assert meta["t"] == {"adam_alignment": steps, "adam_completion": steps}

    @pytest.mark.parametrize("ablations", [()] + [(flag,) for flag in ABLATIONS],
                             ids=["full", *ABLATIONS])
    def test_resume_continues_bitwise(self, tmp_path, ablations):
        config = small_config(epochs=3, ablations=ablations)

        direct_state = TrainState(toy_pair_dataset(drop_in_first=2), config)
        direct_state.initialize_entropy_baseline()
        train_epoch(direct_state)
        checkpoint = snapshot(direct_state, 0.0)
        direct_metrics = train_epoch(direct_state)

        path = tmp_path / "checkpoint.json"
        checkpoint.save(path)
        resumed_state = resume(Checkpoint.load(path), toy_pair_dataset(drop_in_first=2))
        resumed_metrics = train_epoch(resumed_state)

        assert resumed_metrics == direct_metrics
        for (name_a, t_a), (name_b, t_b) in zip(direct_state.model.named_parameters(),
                                                resumed_state.model.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(t_a.values, t_b.values), name_a

    def test_checkpoint_with_h_current_resumes_bitwise(self, tmp_path):
        """A checkpoint whose `meta` also holds a key the loader does not
        read (`h_current`, the latest entropy per pair, which an earlier
        layout wrote) loads and resumes."""
        config = small_config(epochs=3)
        direct_state = TrainState(toy_pair_dataset(drop_in_first=2), config)
        direct_state.initialize_entropy_baseline()
        train_epoch(direct_state)
        path = tmp_path / "checkpoint.npz"
        snapshot(direct_state, 0.0).save(path)
        direct_metrics = train_epoch(direct_state)

        members, meta = read_checkpoint(path)
        assert "h_current" not in meta
        meta["h_current"] = {key: value / 2 for key, value in meta["h_tilde"].items()}
        write_checkpoint(path, members, meta)
        resumed_state = resume(Checkpoint.load(path), toy_pair_dataset(drop_in_first=2))
        resumed_metrics = train_epoch(resumed_state)

        assert resumed_metrics == direct_metrics
        for (name_a, t_a), (name_b, t_b) in zip(direct_state.model.named_parameters(),
                                                resumed_state.model.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(t_a.values, t_b.values), name_a

    @staticmethod
    def _saved_payload(tmp_path):
        state = TrainState(toy_pair_dataset(), small_config())
        state.initialize_entropy_baseline()
        path = tmp_path / "checkpoint.npz"
        snapshot(state, 0.0).save(path)
        return (path, *read_checkpoint(path))

    def test_missing_key_is_malformed(self, tmp_path):
        path, members, meta = self._saved_payload(tmp_path)
        del meta["h_tilde"]
        write_checkpoint(path, members, meta)
        with pytest.raises(TrainError, match="is malformed: missing key 'h_tilde'"):
            Checkpoint.load(path)

    @pytest.mark.parametrize("edit, reason", [
        (lambda members, provenance: provenance.__setitem__(0, "bogus"),
         "seed provenance must be 'given' or 'enlarged'"),
        (lambda members, provenance: provenance.append(GIVEN),
         "seed pairs and provenance lists must match"),
        (lambda members, provenance: members["train_seeds/aa|bb"].__setitem__(1, (0, 0)),
         "seed set for \\('aa', 'bb'\\) reuses an entity")],
        ids=["unknown-provenance", "provenance-length", "repeated-entity"])
    def test_malformed_seed_set_is_malformed(self, tmp_path, edit, reason):
        # an unknown provenance would leave `given_pairs()` empty, so the
        # next ENTR step would drop every train seed
        path, members, meta = self._saved_payload(tmp_path)
        edit(members, meta["provenance"]["train_seeds"]["aa|bb"])
        write_checkpoint(path, members, meta)
        with pytest.raises(TrainError, match=f"is malformed: {reason}"):
            Checkpoint.load(path)

    @pytest.mark.parametrize("edit, reason", [
        (lambda members, meta: meta["t"].update(adam_completion="x"),
         "t.adam_completion must be an integer >= 0, got 'x'"),
        (lambda members, meta: meta["t"].update(adam_alignment=-5),
         "t.adam_alignment must be an integer >= 0, got -5"),
        (lambda members, meta: meta.update(epoch="x"), "epoch must be an integer >= 0, got 'x'"),
        (lambda members, meta: meta.update(epoch=True), "epoch must be an integer >= 0, got True"),
        (lambda members, meta: meta.update(val_mrr="x"), "val_mrr must be a number, got 'x'"),
        (lambda members, meta: meta["h_tilde"].update({"aa|bb": "x"}),
         "h_tilde.aa|bb must be a number, got 'x'"),
        (lambda members, meta: members.update({"train_seeds/aa|bb": [[0.9, 1.2]]}),
         "train_seeds/aa|bb must hold integers, not float64"),
        (lambda members, meta: members.update({"transferred/aa": [[0.5, 0.0, 1.0, 1.0]]}),
         "transferred/aa must hold integers, not float64")],
        ids=["t-string", "t-negative", "epoch-string", "epoch-bool", "val-mrr-string",
             "entropy-string", "float-seeds", "float-transfers"])
    def test_meta_value_or_id_dtype_of_the_wrong_kind_is_malformed(self, tmp_path, edit,
                                                                     reason):
        # a negative step count would make Adam's bias correction take the
        # root of a negative number, and float ids used to be truncated
        path, members, meta = self._saved_payload(tmp_path)
        edit(members, meta)
        write_checkpoint(path, members, meta)
        with pytest.raises(TrainError, match=f"is malformed: {re.escape(reason)}$"):
            Checkpoint.load(path)

    def test_parameter_data_not_fitting_its_shape_is_malformed(self, tmp_path):
        # the member's header still names a (24, 6) table; its data ends 8 bytes short
        path, _, _ = self._saved_payload(tmp_path)
        with zipfile.ZipFile(path) as archive:
            raw = {info.filename: archive.read(info) for info in archive.infolist()}
        raw["parameters/completion/entity0.npy"] = raw["parameters/completion/entity0.npy"][:-8]
        with zipfile.ZipFile(path, "w") as archive:
            for filename, data in raw.items():
                archive.writestr(filename, data)
        with pytest.raises(TrainError, match="is malformed: EOF: reading array data"):
            Checkpoint.load(path)

    def test_corrupt_member_is_malformed(self, tmp_path):
        # a flipped data byte of the first member fails its CRC, which zipfile
        # reports as BadZipFile, neither a ValueError nor an OSError
        path, _, _ = self._saved_payload(tmp_path)
        data = bytearray(path.read_bytes())
        data[data.index(b"\x93NUMPY") + 200] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TrainError, match="is malformed: Bad CRC-32"):
            Checkpoint.load(path)

    def test_missing_transfer_entry_is_malformed(self, tmp_path):
        path, members, meta = self._saved_payload(tmp_path)
        del members["transferred/bb"]
        write_checkpoint(path, members, meta)
        with pytest.raises(TrainError, match="malformed: no transferred triples for bb"):
            resume(Checkpoint.load(path), toy_pair_dataset())

    def test_resume_rejects_a_parameter_of_the_wrong_shape(self, tmp_path):
        path, members, meta = self._saved_payload(tmp_path)
        assert members["parameters/completion/entity0"].shape == (24, 6)
        members["parameters/completion/entity0"] = np.ones((1, 6))
        write_checkpoint(path, members, meta)
        with pytest.raises(TrainError, match="completion/entity0 has shape"):
            resume(Checkpoint.load(path), toy_pair_dataset())

    def test_resume_rejects_an_adam_moment_of_the_wrong_shape(self, tmp_path):
        path, members, meta = self._saved_payload(tmp_path)
        assert members["adam_completion/m/0"].shape == (24, 6)
        members["adam_completion/m/0"] = np.ones((1, 6))
        write_checkpoint(path, members, meta)
        with pytest.raises(TrainError, match="malformed: an Adam moment does not match"):
            resume(Checkpoint.load(path), toy_pair_dataset())

    @pytest.mark.parametrize("edit, reason", [
        ("parameters/completion/entity0", "parameter completion/entity0"),
        ("parameters/heads/entity/w0", "parameter heads/entity/w0"),
        ("adam_alignment/v/0", "an Adam moment"),
        ("h_tilde", "a pre-training entropy"),
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_resume_rejects_a_non_finite_value(self, tmp_path, edit, reason, value):
        # NaN scores rank every true tail first, so such a checkpoint would
        # evaluate as perfect
        path, members, meta = self._saved_payload(tmp_path)
        if edit == "h_tilde":
            meta["h_tilde"]["aa|bb"] = value
        else:
            members[edit] = members[edit].copy()
            members[edit].flat[-1] = value
        write_checkpoint(path, members, meta)
        with pytest.raises(TrainError, match=f"malformed: {reason} holds a non-finite value"):
            resume(Checkpoint.load(path), toy_pair_dataset())

    def test_resume_rejects_a_seed_pair_of_no_kg_pair(self, tmp_path):
        path, members, meta = self._saved_payload(tmp_path)
        members["train_seeds/bb|aa"] = members.pop("train_seeds/aa|bb")
        provenance = meta["provenance"]["train_seeds"]
        provenance["bb|aa"] = provenance.pop("aa|bb")
        write_checkpoint(path, members, meta)
        with pytest.raises(TrainError, match="malformed: seeds for \\('bb', 'aa'\\)"):
            resume(Checkpoint.load(path), toy_pair_dataset())

    @pytest.mark.parametrize("group", ["train_seeds", "test_seeds"])
    def test_resume_rejects_a_seeded_pair_without_seeds(self, tmp_path, group):
        # without this check the state would hold no seeds for the pair, and
        # evaluation would report nothing for it
        path, members, meta = self._saved_payload(tmp_path)
        del members[f"{group}/aa|bb"]
        del meta["provenance"][group]["aa|bb"]
        write_checkpoint(path, members, meta)
        with pytest.raises(TrainError, match="malformed: no seeds for \\('aa', 'bb'\\), "
                                             "a seeded KG pair of the data"):
            resume(Checkpoint.load(path), toy_pair_dataset())

    def test_resume_rejects_a_missing_entropy_baseline(self, tmp_path):
        path, members, meta = self._saved_payload(tmp_path)
        meta["h_tilde"] = {}
        write_checkpoint(path, members, meta)
        with pytest.raises(TrainError, match="malformed: no pre-training entropy"):
            resume(Checkpoint.load(path), toy_pair_dataset())

    @pytest.mark.parametrize("row", [[0, 0, 24, 1], [-1, 0, 0, 1], [0, 2, 0, 1], [0, 0, 0, -1]])
    def test_resume_rejects_a_transferred_row_out_of_range(self, tmp_path, row):
        path, members, meta = self._saved_payload(tmp_path)
        members["transferred/aa"] = np.array([row], dtype=np.int64)
        write_checkpoint(path, members, meta)
        with pytest.raises(TrainError, match="malformed: a transferred row of aa"):
            resume(Checkpoint.load(path), toy_pair_dataset())

    def test_resume_builds_edges_once_with_the_transfers(self, monkeypatch):
        state = TrainState(toy_pair_dataset(drop_in_first=3), small_config())
        state.initialize_entropy_baseline()
        everything = SeedSet(("aa", "bb"), [(i, i) for i in range(12)], [GIVEN] * 12)
        assert transfer_triples(everything, state.multikg, epoch=1) == 3
        state.edges = build_edges(state.multikg)
        checkpoint = snapshot(state, 0.0)
        calls = []

        def counting(multikg):
            calls.append(multikg)
            return build_edges(multikg)

        monkeypatch.setattr("jointkg.train.build_edges", counting)
        resumed = resume(checkpoint, toy_pair_dataset(drop_in_first=3))
        assert len(calls) == 1
        for name in ("centers", "neighbors", "relations"):
            assert np.array_equal(getattr(resumed.edges, name), getattr(state.edges, name))
        for kg, twin in zip(state.multikg.kgs, resumed.multikg.kgs):
            assert np.array_equal(kg.transferred, twin.transferred)
            assert np.array_equal(kg.transfer_epochs, twin.transfer_epochs)

    def test_resume_rejects_mismatched_data(self, tmp_path):
        config = small_config()
        state = TrainState(toy_pair_dataset(), config)
        checkpoint = snapshot(state, 0.0)
        other = toy_pair_dataset(entities=13)
        with pytest.raises(TrainError, match="checkpoint/data mismatch"):
            resume(checkpoint, other)

    @staticmethod
    def _trained_file(tmp_path):
        """A checkpoint file saved one epoch into a run."""
        state = TrainState(toy_pair_dataset(drop_in_first=2), small_config())
        state.initialize_entropy_baseline()
        train_epoch(state)
        path = tmp_path / "checkpoint.npz"
        snapshot(state, 0.0).save(path)
        return path

    @staticmethod
    def _moments(state):
        return [moment for adam in (state.adam_completion, state.adam_alignment)
                for moment in adam.m + adam.v]

    @staticmethod
    def _saved_moments(checkpoint):
        return [moment for side in (checkpoint.adam_completion, checkpoint.adam_alignment)
                for moment in side["m"] + side["v"]]

    def test_resume_takes_the_checkpoint_arrays(self, tmp_path):
        path = self._trained_file(tmp_path)
        checkpoint = Checkpoint.load(path)
        state = resume(checkpoint, toy_pair_dataset(drop_in_first=2))
        for name, tensor in state.model.named_parameters():
            assert np.shares_memory(tensor.values, checkpoint.parameters[name]), name
        for moment, saved in zip(self._moments(state), self._saved_moments(checkpoint),
                                 strict=True):
            assert np.shares_memory(moment, saved)

        # a snapshot copies, so training the state afterwards leaves it as saved
        kept = snapshot(state, 0.0)
        train_epoch(state)
        fresh = Checkpoint.load(path)
        for name, values in kept.parameters.items():
            assert np.array_equal(values, fresh.parameters[name]), name
        for moment, saved in zip(self._saved_moments(kept), self._saved_moments(fresh),
                                 strict=True):
            assert np.array_equal(moment, saved)

    @staticmethod
    def _rewrite_entity_table_and_its_first_moment(path, convert):
        members, meta = read_checkpoint(path)
        for name in ("parameters/completion/entity0", "adam_completion/m/0"):
            assert members[name].shape == (24, 6)
            members[name] = convert(members[name])
        write_checkpoint(path, members, meta)
        checkpoint = Checkpoint.load(path)
        return (checkpoint.parameters["completion/entity0"],
                checkpoint.adam_completion["m"][0])

    @staticmethod
    def _entity_table_and_its_first_moment(state):
        tensor = dict(state.model.named_parameters())["completion/entity0"]
        assert state.adam_completion.params[0] is tensor
        return tensor.values, state.adam_completion.m[0]

    def test_resume_casts_a_float32_member_to_float64(self, tmp_path):
        path = self._trained_file(tmp_path)
        saved = self._rewrite_entity_table_and_its_first_moment(
            path, lambda values: values.astype(np.float32))
        assert all(values.dtype == np.float32 for values in saved)
        state = resume(Checkpoint.load(path), toy_pair_dataset(drop_in_first=2))
        for values, member in zip(self._entity_table_and_its_first_moment(state), saved):
            assert values.dtype == np.float64
            assert values.flags.c_contiguous and values.flags.writeable
            assert np.array_equal(values, member.astype(np.float64))

    def test_fortran_ordered_members_resume_like_c_ordered_ones(self, tmp_path):
        path = self._trained_file(tmp_path)
        direct = resume(Checkpoint.load(path), toy_pair_dataset(drop_in_first=2))
        direct_metrics = train_epoch(direct)

        saved = self._rewrite_entity_table_and_its_first_moment(path, np.asfortranarray)
        assert not any(values.flags.c_contiguous for values in saved)
        state = resume(Checkpoint.load(path), toy_pair_dataset(drop_in_first=2))
        assert all(values.flags.c_contiguous and values.flags.writeable
                   for values in self._entity_table_and_its_first_moment(state))
        assert train_epoch(state) == direct_metrics
        for (name, t_a), (_, t_b) in zip(direct.model.named_parameters(),
                                         state.model.named_parameters()):
            assert np.array_equal(t_a.values, t_b.values), name
        for a, b in zip(self._moments(direct), self._moments(state), strict=True):
            assert np.array_equal(a, b)


class TestJointModel:
    def test_one_gnn_shares_the_completion_encoder(self):
        multikg = toy_pair_dataset()
        model = JointModel(small_config(ablations=("one_gnn",)), multikg)
        assert model.alignment_side_encoder is model.completion_encoder
        names = [n for n, _ in model.named_parameters()]
        assert any(n.startswith("alignment/") for n in names)

    def test_si_mode_requires_vectors(self):
        multikg = toy_pair_dataset()
        with pytest.raises(TrainError, match="vector"):
            JointModel(small_config(si_mode="with"), multikg)

    def test_si_vectors_seed_initial_tables(self):
        multikg = toy_pair_dataset()
        vec = np.arange(6, dtype=np.float64)
        multikg.vector_dim = 6
        multikg.entity_vectors[14] = vec  # entity 2 of bb
        model = JointModel(small_config(si_mode="with"), multikg)
        assert np.array_equal(model.completion_encoder.entity0.values[14], vec)
        assert np.array_equal(model.alignment_encoder.entity0.values[14], vec)

    def test_a_label_of_two_kgs_and_a_relation_seeds_all_its_rows(self, tmp_path):
        # "x" is entity 1 of aa (rows 0-1), entity 0 of bb (rows 2-3) and relation 1
        vocab = RelationVocab()
        kgs = [Kg("aa", vocab), Kg("bb", vocab)]
        for kg, (head, relation, tail) in zip(kgs, (("a", "r", "x"), ("x", "x", "b"))):
            kg.add_triple(kg.intern_entity(head), vocab.intern(relation), kg.intern_entity(tail))
        multikg = MultiKg(kgs, vocab)
        vec = np.arange(6, dtype=np.float64)
        path = tmp_path / "vectors.tsv"
        path.write_text("x " + " ".join(map(str, vec)) + "\n", encoding="utf-8")
        load_initial_vectors(path, multikg)
        model = JointModel(small_config(si_mode="with"), multikg)
        for encoder in (model.completion_encoder, model.alignment_encoder):
            assert np.array_equal(encoder.entity0.values[[1, 2]], [vec, vec])
            assert np.array_equal(encoder.relation0.values[1], vec)

    def test_parameters_are_the_named_tensors_in_order(self):
        model = JointModel(small_config(layers=2), toy_pair_dataset())
        for block in (model.completion_encoder, model.alignment_encoder, model.fusion,
                      model.entity_head, model.completion_encoder.att[1]):
            named = [tensor for _, tensor in block.named_parameters("x")]
            assert [id(t) for t in block.parameters()] == [id(t) for t in named]

    @pytest.mark.parametrize("flags, alignment_blocks", [
        ((), ("alignment/", "fusion/", "heads/")), (("one_gnn",), ("heads/",))])
    def test_optimizer_groups_split_the_named_parameters(self, flags, alignment_blocks):
        state = TrainState(toy_pair_dataset(), small_config(ablations=flags))
        named = state.model.named_parameters()
        completion = [id(t) for name, t in named if name.startswith("completion/")]
        alignment = [id(t) for name, t in named if name.startswith(alignment_blocks)]
        assert [id(t) for t in state.adam_completion.params] == completion
        assert [id(t) for t in state.adam_alignment.params] == alignment
        assert len(set(completion + alignment)) == len(completion + alignment)
        if not flags:
            assert completion + alignment == [id(t) for _, t in named]

    def test_only_the_unused_relation_transitions_get_no_gradient(self, monkeypatch):
        """One completion and one alignment step from initialisation at two
        layers: every parameter gets a gradient except the alignment
        encoder's last relation MLP and the last relation fuser. Their
        layer-2 relation tables enter only the relation stack, and no loss
        reads it."""
        state = TrainState(toy_pair_dataset(), small_config(layers=2))
        names = {id(tensor): name for name, tensor in state.model.named_parameters()}
        stepped, without_grad = set(), set()
        step = diff.Adam.step

        def recording_step(adam):
            stepped.update(names[id(p)] for p in adam.params)
            without_grad.update(names[id(p)] for p in adam.params if p.grad is None)
            step(adam)

        monkeypatch.setattr(diff.Adam, "step", recording_step)
        state.completion_step()
        state.alignment_step()
        assert stepped == set(names.values())
        assert without_grad == {f"{block}/{array}"
                                for block in ("alignment/layer1/rel", "fusion/layer2/relation")
                                for array in ("w0", "b0", "w1", "b1")}

    def test_variants_share_initialization_for_one_seed(self):
        multikg = toy_pair_dataset()
        base = JointModel(small_config(), multikg).named_parameters()
        for flags in [(flag,) for flag in ABLATIONS] + [ABLATIONS]:
            ablated = JointModel(small_config(ablations=flags), multikg).named_parameters()
            assert [name for name, _ in ablated] == [name for name, _ in base]
            for (name, t_a), (_, t_b) in zip(base, ablated):
                assert np.array_equal(t_a.values, t_b.values), (flags, name)

    def test_si_changes_only_the_rows_with_vectors(self, tmp_path):
        """Under si_mode "with", a label's vector fills its rows of both
        encoders' entity0 / relation0 tables; every other initial value is
        the "without" model's."""
        multikg = toy_pair_dataset()
        rng = np.random.default_rng(3)
        labels = {"a2": ("entity0", 2), "a7": ("entity0", 7), "b5": ("entity0", 17),
                  "r1": ("relation0", 1)}
        vectors = {label: rng.normal(size=6) for label in labels}
        path = tmp_path / "vectors.tsv"
        path.write_text("".join(f"{label} {' '.join(map(repr, vector.tolist()))}\n"
                                for label, vector in vectors.items()), encoding="utf-8")
        load_initial_vectors(path, multikg)
        without = dict(JointModel(small_config(), multikg).named_parameters())
        with_si = dict(JointModel(small_config(si_mode="with"), multikg).named_parameters())
        assert list(with_si) == list(without)
        expected = {name: t.values.copy() for name, t in without.items()}
        for label, (table, row) in labels.items():
            for encoder in ("completion", "alignment"):
                expected[f"{encoder}/{table}"][row] = vectors[label]
        for name, tensor in with_si.items():
            assert np.array_equal(tensor.values, expected[name]), name
        assert not np.array_equal(with_si["completion/entity0"].values,
                                  without["completion/entity0"].values)
