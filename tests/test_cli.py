import errno
import filecmp
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jointkg
from jointkg import alignment, cli, evaluate, train
from jointkg.cli import main
from jointkg.kgdata import load_multikg
from jointkg.rgnn import encode
from jointkg.train import Checkpoint, resume

from .util import read_checkpoint, write_checkpoint


def config_payload(**overrides):
    payload = {
        "layers": 1, "dim": 6, "lr_completion": 0.01, "lr_alignment": 0.01,
        "beta": 0.3, "gamma_completion": 2.0, "gamma_alignment": 0.5,
        "epochs": 2, "negatives_per_positive": 2, "nearest_neighbor_negatives": 2,
        "si_mode": "without", "ablations": [], "rng_seed": 3, "steps_per_epoch": 2,
    }
    payload.update(overrides)
    return payload


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("data")
    code = main(["synth", "--out", str(data_dir), "--entities", "24", "--relations", "2",
                 "--mean-degree", "3", "--seed-fraction", "0.5", "--seed", "5"])
    assert code == 0
    return data_dir


@pytest.fixture(scope="module")
def counted_run(dataset, tmp_path_factory):
    """A full `train` run, and its data: `dataset` with one repeated triple
    line, one seed line whose left label is unknown, and a vectors.tsv that
    covers one entity and one relation and names one unknown label."""
    root = tmp_path_factory.mktemp("counted")
    data = root / "data"
    shutil.copytree(dataset, data)
    triples = data / "triples_kg1.tsv"
    triples.write_text(triples.read_text() + triples.read_text().splitlines()[0] + "\n")
    seeds = data / "seeds_kg1_kg2.tsv"
    seeds.write_text(seeds.read_text() + "zz\tb00000\n")
    (data / "vectors.tsv").write_text("a00000\t0.5 1.0\nr0\t1.0 0.5\nzz\t0.0 1.0\n")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config_payload()))
    out = root / "run"
    assert main(["train", "--config", str(config_path), "--data", str(data),
                 "--out", str(out)]) == 0
    return data, out


def record_fields(value, named_by_data=False) -> set[str]:
    """The field names in a record or manifest section, recursively; the keys
    of `pairs`, `duplicate_triples` and `seeds_skipped` are KG or pair names,
    not fields."""
    if not isinstance(value, dict):
        return set()
    names = set() if named_by_data else set(value)
    return names.union(*(record_fields(item, key in ("pairs", "duplicate_triples",
                                                     "seeds_skipped"))
                         for key, item in value.items()))


class TestSynthCommand:
    def test_writes_manifest_with_hashes(self, dataset):
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert "triples_kg1.tsv" in manifest["inputs"]
        assert all(len(h) == 64 for h in manifest["inputs"].values())
        # the arithmetic is named: BLAS library and version, thread settings or null
        assert sorted(manifest) == ["blas", "command", "inputs", "rng_seed", "settings",
                                    "threads", "version"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert manifest["threads"] == {name: os.environ.get(name) for name in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

    def test_file_hash_streams_to_the_whole_file_digest(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(np.random.default_rng(0).bytes((5 << 20) // 2))
        assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_rerun_is_bit_identical(self, dataset, tmp_path):
        main(["synth", "--out", str(tmp_path), "--entities", "24", "--relations", "2",
              "--mean-degree", "3", "--seed-fraction", "0.5", "--seed", "5"])
        for path in sorted(dataset.glob("*.tsv")):
            assert path.read_bytes() == (tmp_path / path.name).read_bytes()

    def test_bad_parameters_exit_nonzero(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path), "--entities", "2",
                     "--mean-degree", "0.1"])
        assert code == 1
        assert "error [synth]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "rng_seed must be >= 0, got -1"),
        ("--mean-degree", "nan", "mean_degree must be finite, got nan"),
        ("--mean-degree", "inf", "mean_degree must be finite, got inf"),
    ])
    def test_bad_value_is_named(self, tmp_path, capsys, flag, value, message):
        code = main(["synth", "--out", str(tmp_path / "data"), flag, value])
        assert code == 1
        assert f"error [synth]: {message}" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()


class TestTrainCommand:
    def test_train_writes_outputs(self, dataset, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload()))
        out = tmp_path / "run"
        code = main(["train", "--config", str(config_path), "--data", str(dataset),
                     "--out", str(out)])
        assert code == 0
        assert (out / "checkpoint.npz").exists()
        events = (out / "events.jsonl").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in events] == [0, 1, 2]
        assert (out / "manifest.json").exists()
        assert (out / "transferred_kg1.tsv").exists()

    def test_sidecars_hold_the_selected_checkpoints_transfers(self, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["synth", "--out", str(data_dir), "--entities", "80",
                     "--missing-rate", "0.2", "--seed", "5"]) == 0
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload(
            layers=1, dim=8, epochs=3, steps_per_epoch=2, negatives_per_positive=3,
            nearest_neighbor_negatives=5, rng_seed=5)))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--data", str(data_dir),
                     "--out", str(out)]) == 0
        checkpoint = Checkpoint.load(out / "checkpoint.npz")
        multikg = load_multikg(data_dir)
        for kg in multikg.kgs:
            labels, relations = kg.entity_labels, kg.relations.labels
            expected = sorted((epoch, h, r, t) for h, r, t, epoch
                              in checkpoint.transferred[kg.id])
            lines = [f"{labels[h]}\t{relations[r]}\t{labels[t]}\t{epoch}"
                     for epoch, h, r, t in expected]
            written = (out / f"transferred_{kg.id}.tsv").read_text().splitlines()
            assert written == lines

    def test_missing_config_field_is_named(self, dataset, tmp_path, capsys):
        payload = config_payload()
        del payload["gamma_alignment"]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        code = main(["train", "--config", str(config_path), "--data", str(dataset),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert "missing config field: gamma_alignment" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("layers", 2.0), ("dim", 8.0), ("epochs", "1"), ("steps_per_epoch", True),
        ("rng_seed", None), ("beta", "0.2"), ("gamma_alignment", [1.0]),
        ("si_mode", True), ("ablations", [1]), ("ablations", "no_sir"), ("ablations", True),
        ("lr_completion", -1.0), ("lr_completion", 0.0), ("lr_alignment", float("inf")),
        ("lr_alignment", float("nan")), ("negatives_per_positive", 0),
        ("nearest_neighbor_negatives", 0), ("rng_seed", -1),
        ("gamma_completion", float("nan")), ("gamma_alignment", float("-inf")),
    ])
    def test_bad_config_value_is_named(self, dataset, tmp_path, capsys, field, value):
        # the message names what the field wants, then the value it got
        wanted = {"si_mode": "'with' or 'without'", "ablations": "a list of strings"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload(**{field: value})))
        code = main(["train", "--config", str(config_path), "--data", str(dataset),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert re.fullmatch(rf"error \[train\]: {field} must be {wanted.get(field, '[^,]+')}, "
                            rf"got {re.escape(repr(value))}\n", capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field, value", [
        ("seed_train_fraction", 0.5), ("entr_period", 1), ("transferred_as_positives", True)])
    def test_removed_config_field_is_unknown(self, dataset, tmp_path, capsys, field, value):
        # every run splits half the seeds for training, runs ENTR each epoch
        # and trains completion on the transferred triples
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload(**{field: value})))
        code = main(["train", "--config", str(config_path), "--data", str(dataset),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == f"error [train]: unknown config field: {field}\n"
        assert not (tmp_path / "run").exists()

    def test_negative_seed_flag_fails_before_reading_data(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload()))
        code = main(["train", "--config", str(config_path), "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "run"), "--seed", "-1"])
        assert code == 1
        assert "error [train]: rng_seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_environment_leaves_the_config_alone(self, dataset, tmp_path, monkeypatch):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload(epochs=2)))
        monkeypatch.setenv("JOINTKG_EPOCHS", "1")
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--data", str(dataset),
                     "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["epochs"] == 2

    def test_ablation_flag_lands_in_written_config(self, dataset, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload()))
        out = tmp_path / "run"
        code = main(["train", "--config", str(config_path), "--data", str(dataset),
                     "--out", str(out), "--ablation", "no_sir"])
        assert code == 0
        written = json.loads((out / "config.json").read_text())
        assert written["ablations"] == ["no_sir"]

    def test_rerun_events_are_identical(self, dataset, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload()))
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main(["train", "--config", str(config_path), "--data", str(dataset),
                         "--out", str(out)]) == 0
            outs.append((out / "events.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_manifests_report_what_loading_counted(self, counted_run, tmp_path):
        data, run = counted_run
        expected = {"duplicate_triples": {"kg1": 1, "kg2": 0}, "seeds_skipped": {"kg1|kg2": 1},
                    "vector_coverage": {"covered_entities": 1, "covered_relations": 1,
                                        "unknown_labels": 1}}
        assert json.loads((run / "manifest.json").read_text())["data"] == expected
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.npz"), "--data", str(data),
                     "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["data"] == expected

    def test_readme_outputs_paragraph_names_every_field(self, counted_run):
        """Every field of a full run's records and of its manifest's `data`
        section appears, in backticks, in README's paragraph on `train`'s
        outputs."""
        _, run = counted_run
        records = [json.loads(line) for line in (run / "events.jsonl").read_text().splitlines()]
        assert {"completion", "alignment", "entr"} <= set(records[-1])
        fields = record_fields({"data": json.loads((run / "manifest.json").read_text())["data"],
                                "records": records[-1]}) - {"records"}
        readme = Path(__file__).resolve().parent.parent / "README.md"
        paragraph = next(p for p in readme.read_text().split("\n\n") if "Outputs:" in p)
        assert sorted(name for name in fields if f"`{name}`" not in paragraph) == []

    def test_a_seed_file_of_unknown_labels_is_named(self, dataset, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        seeds = data / "seeds_kg1_kg2.tsv"
        lines = seeds.read_text().splitlines()
        seeds.write_text("".join(f"zz{line}\n" for line in lines))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload()))
        assert main(["train", "--config", str(config_path), "--data", str(data),
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (f"error [kgdata]: {seeds}: none of its {len(lines)} "
                                           f"seed lines names two known entities\n")

    def test_too_few_seed_pairs_name_the_pair(self, dataset, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        seeds = data / "seeds_kg1_kg2.tsv"
        seeds.write_text(seeds.read_text().splitlines()[0] + "\n")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload()))
        assert main(["train", "--config", str(config_path), "--data", str(data),
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == ("error [kgdata]: need at least 2 seed pairs to split "
                                           "('kg1', 'kg2'), got 1\n")


class TestEvalCommand:
    def test_eval_both_tasks(self, dataset, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload()))
        run = tmp_path / "run"
        main(["train", "--config", str(config_path), "--data", str(dataset),
              "--out", str(run)])
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                     "--data", str(dataset), "--out", str(out), "--task", "both"])
        assert code == 0
        rows = (out / "results.tsv").read_text().splitlines()
        tasks = {row.split("\t")[0] for row in rows}
        assert tasks == {"kgc", "kga"}
        assert (out / "matches_kg1_kg2.tsv").exists()
        printed = capsys.readouterr().out
        assert "kgc" in printed and "kga" in printed

    @staticmethod
    def _trained_run_and_expected(dataset, tmp_path):
        """A trained run directory, and the eval outputs written the long way:
        a fresh completion encode inside `alignment_layers_and_finals`,
        `evaluate_kga`, and a second matrix per pair for matching."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload()))
        run = tmp_path / "run"
        main(["train", "--config", str(config_path), "--data", str(dataset),
              "--out", str(run)])
        expected = tmp_path / "expected"
        expected.mkdir()
        multikg = load_multikg(dataset)
        state = resume(Checkpoint.load(run / "checkpoint.npz"), multikg)
        layers = state.completion_layers(tape=False)
        finals, _ = state.alignment_layers_and_finals(tape=False)
        evaluate.write_results(
            expected / "results.tsv",
            evaluate.evaluate_kgc(multikg, layers.entity_values(), layers.relation_values()),
            evaluate.evaluate_kga(multikg, finals.values, state.test_seeds))
        for pair in sorted(state.test_seeds):
            src, tgt, _, _ = state.pair_blocks(pair, finals.values)
            alignment.write_matches(
                alignment.greedy_match(alignment.build_alignment_matrix(src, tgt, pair)),
                multikg.by_id[pair[0]].entity_labels, multikg.by_id[pair[1]].entity_labels,
                expected / f"matches_{pair[0]}_{pair[1]}.tsv")
        written = sorted(p.name for p in expected.iterdir())
        assert "results.tsv" in written and len(written) == 1 + len(state.test_seeds)
        return run, expected, state

    def test_completion_encoder_runs_once(self, dataset, tmp_path, monkeypatch):
        run, expected, _ = self._trained_run_and_expected(dataset, tmp_path)
        encoders = []

        def counted(edges, params, fusion_hook=None):
            encoders.append(params)
            return encode(edges, params, fusion_hook)

        monkeypatch.setattr(train, "encode", counted)
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                     "--data", str(dataset), "--out", str(out), "--task", "both"])
        assert code == 0
        assert len(encoders) == 2 and encoders[0] is not encoders[1]
        for path in expected.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_each_pair_matrix_is_built_once(self, dataset, tmp_path, monkeypatch):
        run, expected, state = self._trained_run_and_expected(dataset, tmp_path)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return alignment.build_alignment_matrix(*args, **kwargs)

        monkeypatch.setattr(cli, "build_alignment_matrix", counted)
        monkeypatch.setattr(evaluate, "build_alignment_matrix", counted)
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                     "--data", str(dataset), "--out", str(out), "--task", "both"])
        assert code == 0
        assert len(calls) == len(state.test_seeds) >= 1
        for path in expected.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_checkpoint_data_mismatch_errors(self, dataset, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload()))
        run = tmp_path / "run"
        main(["train", "--config", str(config_path), "--data", str(dataset),
              "--out", str(run)])
        other = tmp_path / "otherdata"
        main(["synth", "--out", str(other), "--entities", "30", "--relations", "2",
              "--mean-degree", "3", "--seed", "6"])
        code = main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                     "--data", str(other), "--out", str(tmp_path / "eval2")])
        assert code == 1
        assert "checkpoint/data mismatch" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_checkpoint(dataset, tmp_path_factory):
    run = tmp_path_factory.mktemp("trained")
    config_path = run / "config_in.json"
    config_path.write_text(json.dumps(config_payload()))
    assert main(["train", "--config", str(config_path), "--data", str(dataset),
                 "--out", str(run)]) == 0
    return run / "checkpoint.npz"


class TestCheckpointAgainstData:
    """Entity ids in a checkpoint that the data does not have end in an error,
    not in a crash or a silent evaluation."""

    @pytest.mark.parametrize("edit", ["transferred", "test_seeds", "train_seeds"])
    def test_out_of_range_id(self, dataset, trained_checkpoint, tmp_path, capsys, edit):
        members, meta = read_checkpoint(trained_checkpoint)
        if edit == "transferred":
            rows = members["transferred/kg1"]
            members["transferred/kg1"] = np.vstack([rows, [[999, 0, 0, 1]]])
        else:
            members[f"{edit}/kg1|kg2"][0, 0] = 999
        checkpoint = tmp_path / "checkpoint.npz"
        write_checkpoint(checkpoint, members, meta)
        code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(dataset),
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        assert "error [train]: checkpoint is malformed: " in capsys.readouterr().err

    def test_non_finite_parameters_are_refused(self, dataset, trained_checkpoint, tmp_path,
                                               capsys):
        # with every completion parameter NaN, each true tail would rank
        # first and eval would report MRR 1
        members, meta = read_checkpoint(trained_checkpoint)
        for name in members:
            if name.startswith("parameters/completion/"):
                members[name] = np.full_like(members[name], np.nan)
        checkpoint = tmp_path / "checkpoint.npz"
        write_checkpoint(checkpoint, members, meta)
        code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(dataset),
                     "--out", str(tmp_path / "eval"), "--task", "kgc"])
        assert code == 1
        assert "error [train]: checkpoint is malformed: parameter completion/" in \
            capsys.readouterr().err
        assert not (tmp_path / "eval" / "results.tsv").exists()

    def test_version_2_checkpoint_is_refused(self, dataset, trained_checkpoint, tmp_path,
                                             capsys):
        """A version-2 checkpoint (one JSON document) is no zip archive and is
        refused as such; an archive whose `meta` names version 2 names it."""
        members, meta = read_checkpoint(trained_checkpoint)
        json_file = tmp_path / "checkpoint.json"
        json_file.write_text(json.dumps({key: meta[key] for key in (
            "config", "epoch", "val_mrr", "vocab_hash")} | {"version": 2}))
        archive = tmp_path / "checkpoint.npz"
        write_checkpoint(archive, members, meta | {"version": 2})
        for checkpoint, reason in (
                (json_file, f"checkpoint {json_file} is missing or not a version-4 "
                            "checkpoint (.npz archive)"),
                (archive, "unsupported checkpoint version 2")):
            code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(dataset),
                         "--out", str(tmp_path / "eval")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error [train]: ")
            assert err.rstrip().endswith(reason)

    def test_version_3_checkpoint_is_refused(self, dataset, trained_checkpoint, tmp_path,
                                             capsys):
        # version 3 stored three more config fields; its version is named,
        # not the first field version 4 does not know
        members, meta = read_checkpoint(trained_checkpoint)
        config = meta["config"] | {"seed_train_fraction": 0.5, "entr_period": 1,
                                   "transferred_as_positives": True}
        checkpoint = tmp_path / "checkpoint.npz"
        write_checkpoint(checkpoint, members, meta | {"version": 3, "config": config})
        code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(dataset),
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        assert capsys.readouterr().err == "error [train]: unsupported checkpoint version 3\n"


class TestGridCommand:
    def test_grid_emits_leaderboard(self, dataset, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload(epochs=1)))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"layers": [1], "rng_seed": [3, 4]}))
        out = tmp_path / "grid_out"
        code = main(["grid", "--grid", str(grid_path), "--config", str(config_path),
                     "--data", str(dataset), "--out", str(out)])
        assert code == 0
        lines = (out / "leaderboard.tsv").read_text().splitlines()
        assert lines[0] == "val_mrr\trun\tsettings"
        assert len(lines) == 3
        values = [float(line.split("\t")[0]) for line in lines[1:]]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("base_seed", [None, "x"])
    def test_each_run_writes_what_train_writes(self, dataset, tmp_path, base_seed):
        # the grid's rng_seed values replace a base seed that is absent or bad
        base = config_payload(epochs=1, rng_seed=base_seed)
        if base_seed is None:
            del base["rng_seed"]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"rng_seed": [1, 2]}))
        out = tmp_path / "grid_out"
        assert main(["grid", "--grid", str(grid_path), "--config", str(config_path),
                     "--data", str(dataset), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["rng_seed"] == [1, 2]
        for index, seed in enumerate([1, 2]):
            single = tmp_path / f"train_{seed}"
            config_path.write_text(json.dumps(config_payload(epochs=1, rng_seed=seed)))
            assert main(["train", "--config", str(config_path), "--data", str(dataset),
                         "--out", str(single)]) == 0
            run = out / f"run_{index:03d}"
            names = sorted(path.name for path in single.iterdir())
            assert sorted(path.name for path in run.iterdir()) == names
            assert "manifest.json" in names and "transferred_kg1.tsv" in names
            for name in names:
                assert (run / name).read_bytes() == (single / name).read_bytes(), name


class TestBadJsonInputs:
    def run(self, argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().err

    def test_missing_config_file(self, dataset, tmp_path, capsys):
        code, err = self.run(["train", "--config", str(tmp_path / "missing.json"),
                              "--data", str(dataset), "--out", str(tmp_path / "run")], capsys)
        assert code == 1
        assert "error [train]: config file not found" in err

    def test_malformed_config_file(self, dataset, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"layers": 1,')
        code, err = self.run(["train", "--config", str(config_path), "--data", str(dataset),
                              "--out", str(tmp_path / "run")], capsys)
        assert code == 1
        assert "error [train]: config file" in err and "is not valid JSON" in err

    def test_malformed_grid_file(self, dataset, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload(epochs=1)))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text('{"layers": [1')
        code, err = self.run(["grid", "--grid", str(grid_path), "--config", str(config_path),
                              "--data", str(dataset), "--out", str(tmp_path / "grid")], capsys)
        assert code == 1
        assert "error [train]: grid file" in err and "is not valid JSON" in err

    def test_checkpoint_missing_keys(self, dataset, tmp_path, capsys):
        # a `meta` that names only the version, then an archive without `meta`
        checkpoint = tmp_path / "checkpoint.npz"
        write_checkpoint(checkpoint, {}, {"version": train.CHECKPOINT_VERSION})
        code, err = self.run(["eval", "--checkpoint", str(checkpoint), "--data", str(dataset),
                              "--out", str(tmp_path / "eval")], capsys)
        assert code == 1
        assert f"error [train]: checkpoint {checkpoint} is malformed: missing key" in err
        with open(checkpoint, "wb") as handle:
            np.savez(handle, **{"parameters/x": np.zeros(2)})
        code, err = self.run(["eval", "--checkpoint", str(checkpoint), "--data", str(dataset),
                              "--out", str(tmp_path / "eval")], capsys)
        assert code == 1
        assert err == f"error [train]: checkpoint {checkpoint} is malformed: missing key 'meta'\n"

    def test_bad_grid_value_fails_before_any_run(self, dataset, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload(epochs=1)))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"negatives_per_positive": [2, 0]}))
        out = tmp_path / "grid"
        code, err = self.run(["grid", "--grid", str(grid_path), "--config", str(config_path),
                              "--data", str(dataset), "--out", str(out)], capsys)
        assert code == 1
        assert "error [train]: negatives_per_positive must be >= 1, got 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, bad_file", [
        ("train", "config"), ("grid", "config"), ("grid", "grid")])
    def test_json_that_is_no_object(self, dataset, tmp_path, capsys, command, bad_file):
        paths = {"config": tmp_path / "config.json", "grid": tmp_path / "grid.json"}
        paths["config"].write_text(json.dumps(config_payload(epochs=1)))
        paths["grid"].write_text(json.dumps({"layers": [1]}))
        paths[bad_file].write_text('["layers"]')
        argv = [command, "--config", str(paths["config"]), "--data", str(dataset),
                "--out", str(tmp_path / "out")]
        if command == "grid":
            argv += ["--grid", str(paths["grid"])]
        code, err = self.run(argv, capsys)
        assert code == 1
        assert (f"error [train]: {bad_file} file {paths[bad_file]} must hold a JSON object"
                in err)

    def test_grid_value_that_is_no_list(self, dataset, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload(epochs=1)))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"dim": 8}))
        code, err = self.run(["grid", "--grid", str(grid_path), "--config", str(config_path),
                              "--data", str(dataset), "--out", str(tmp_path / "grid")], capsys)
        assert code == 1
        assert f"error [train]: grid file {grid_path}: dim must map to a list of values" in err

    def test_grid_value_that_is_an_empty_list(self, dataset, tmp_path, capsys):
        # an empty list leaves no combination, so nothing would train
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload(epochs=1)))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"beta": [], "dim": [8]}))
        code, err = self.run(["grid", "--grid", str(grid_path), "--config", str(config_path),
                              "--data", str(dataset), "--out", str(tmp_path / "grid")], capsys)
        assert code == 1
        assert (f"error [train]: grid file {grid_path}: beta must map to a non-empty list "
                "of values" in err)
        assert not (tmp_path / "grid").exists()

    def test_malformed_checkpoint(self, dataset, trained_checkpoint, tmp_path, capsys):
        # a truncated copy is no zip archive; a copy with one flipped data byte
        # is one, but fails its member's CRC (zipfile's BadZipFile); a missing
        # file is refused like the truncated one
        data = trained_checkpoint.read_bytes()
        flipped = bytearray(data)
        flipped[data.index(b"\x93NUMPY") + 200] ^= 0xFF
        checkpoint = tmp_path / "checkpoint.npz"
        for content, reason in ((data[:len(data) // 2], "is missing or not a version-4"),
                                (bytes(flipped), "is malformed: Bad CRC-32")):
            checkpoint.write_bytes(content)
            code, err = self.run(["eval", "--checkpoint", str(checkpoint),
                                  "--data", str(dataset), "--out", str(tmp_path / "eval")], capsys)
            assert code == 1
            assert err.startswith(f"error [train]: checkpoint {checkpoint} {reason}")
            assert "Traceback" not in err
        absent = tmp_path / "absent.npz"
        code, err = self.run(["eval", "--checkpoint", str(absent), "--data", str(dataset),
                              "--out", str(tmp_path / "eval")], capsys)
        assert code == 1
        assert err.startswith(f"error [train]: checkpoint {absent} is missing or not a version-4")


class TestUnreadableInput:
    """Input the system cannot read, or cannot decode as UTF-8, ends in an
    `error [...]` line and exit code 1, not in a traceback."""

    @staticmethod
    def os_message(code: int, path: Path) -> str:
        return f"error [io]: [Errno {code}] {os.strerror(code)}: '{path}'\n"

    @pytest.mark.parametrize("case", ["triples_byte", "config_byte", "config_directory",
                                      "triples_directory", "out_file"])
    def test_refused_with_a_message(self, dataset, tmp_path, capsys, case):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload(epochs=1)))
        out = tmp_path / "run"
        if case == "triples_byte":
            triples = data / "triples_kg1.tsv"
            offset = triples.stat().st_size
            triples.write_bytes(triples.read_bytes() + b"\xff\n")
            expected = f"error [kgdata]: {triples} is not UTF-8 text: byte {offset}\n"
        elif case == "config_byte":
            config_path.write_bytes(b'{"layers": 1\xff}')
            expected = f"error [train]: config file {config_path} is not UTF-8 text: byte 12\n"
        elif case == "config_directory":
            config_path = tmp_path / "config_dir"
            config_path.mkdir()
            expected = self.os_message(errno.EISDIR, config_path)
        elif case == "triples_directory":
            (data / "triples_zz.tsv").mkdir()
            expected = self.os_message(errno.EISDIR, data / "triples_zz.tsv")
        else:
            out.write_text("")
            expected = self.os_message(errno.EEXIST, out)
        code = main(["train", "--config", str(config_path), "--data", str(data),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == expected


def test_importing_the_cli_leaves_scipy_unloaded():
    """scipy loads at the first scatter-sum, so start-up does not pay for it;
    no thread starts at import, as each pooled sweep makes its own threads."""
    src = str(Path(jointkg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, threading, jointkg.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')), "
             "threading.active_count())")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[] 1"


# Runs the CLI with pooled sweeps sending ranges of any size to threads, on
# the first CPU alone ("one") or on all of them ("all"), and names the path
# its sweeps' rows took. The pin comes after numpy has loaded, so BLAS keeps
# its thread count and only `pooled_rows` sees one core.
CPU_RUN = """
import os, sys, threading
from jointkg import cli, diff
diff._POOL_MIN_SLICE = 1
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
names, pooled_rows = set(), diff.pooled_rows
def named(rows, buffer, work):
    names.add(threading.current_thread().name)
    work(rows, buffer)
diff.pooled_rows = lambda count, width, work: pooled_rows(
    count, width, lambda rows, buffer: named(rows, buffer, work))
code = cli.main(sys.argv[2:])
pooled = any(name.startswith("jointkg-rows") for name in names)
print("pooled" if pooled else "inline", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to compare one with all")
def test_one_cpu_and_all_cpus_write_the_same_files(dataset, tmp_path):
    src = str(Path(jointkg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_payload()))
    for cpus in ("one", "all"):
        run = tmp_path / cpus
        for argv in (["train", "--config", str(config), "--data", str(dataset),
                      "--out", str(run / "train")],
                     ["eval", "--checkpoint", str(run / "train" / "checkpoint.npz"),
                      "--data", str(dataset), "--out", str(run / "eval")]):
            out = subprocess.run([sys.executable, "-c", CPU_RUN, cpus, *argv], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert out.returncode == 0, out.stderr
            assert out.stderr.split()[-1] == ("inline" if cpus == "one" else "pooled")
    written = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*"))
    assert len(written) > 6
    assert written == sorted(p.relative_to(tmp_path / "all") for p in (tmp_path / "all").rglob("*"))
    for name in written:
        if (tmp_path / "one" / name).is_file():
            assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "all" / name,
                               shallow=False), name
