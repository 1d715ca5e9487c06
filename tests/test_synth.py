import numpy as np
import pytest

from jointkg.errors import SynthError
from jointkg.kgdata import load_multikg
from jointkg.synth import KG_FIRST, KG_SECOND, SynthSpec, generate, write_dataset


def small_spec(**overrides):
    defaults = dict(entity_count=40, relation_count=3, mean_degree=4.0,
                    missing_rate=0.0, seed_fraction=0.4, rng_seed=9)
    defaults.update(overrides)
    return SynthSpec(**defaults)


def kept_count(result, kg_id):
    """Triples a KG kept: the union of its three splits."""
    return sum(len(rows) for rows in result.splits[kg_id].values())


class TestSpecValidation:
    def test_rejects_empty_graph(self):
        with pytest.raises(SynthError):
            SynthSpec(entity_count=2, relation_count=1, mean_degree=0.1)

    def test_rejects_bad_missing_rate(self):
        with pytest.raises(SynthError, match="missing_rate"):
            small_spec(missing_rate=1.0)


class TestGenerate:
    def test_zero_missing_rate_gives_isomorphic_training_graphs(self):
        result = generate(small_spec())
        relabel = {i: int(result.permutation[i]) for i in range(40)}
        for split in ("train", "valid", "test"):
            mapped_split = {(relabel[h], r, relabel[t])
                            for h, r, t in result.splits[KG_FIRST][split]}
            assert mapped_split == set(result.splits[KG_SECOND][split])

    def test_deterministic_for_fixed_seed(self):
        a = generate(small_spec())
        b = generate(small_spec())
        assert a.splits == b.splits
        assert a.seeds == b.seeds
        assert np.array_equal(a.permutation, b.permutation)

    def test_kept_triple_count_is_binomial_over_twenty_seeds(self):
        # mean of kept counts must sit within 3 sigma of the binomial mean
        rho = 0.2
        spec0 = small_spec(entity_count=100, relation_count=12, mean_degree=20.0,
                           missing_rate=rho)
        n = spec0.triple_count
        assert n == 1000
        counts = [kept_count(generate(small_spec(entity_count=100, relation_count=12,
                                                 mean_degree=20.0, missing_rate=rho,
                                                 rng_seed=s)), KG_FIRST)
                  for s in range(20)]
        expected = (1 - rho) * n
        sigma_of_mean = np.sqrt(n * rho * (1 - rho) / 20)
        assert abs(np.mean(counts) - expected) <= 3 * sigma_of_mean

    def test_second_kg_always_keeps_every_base_triple(self):
        result = generate(small_spec(missing_rate=0.3))
        assert kept_count(result, KG_SECOND) == result.spec.triple_count
        assert kept_count(result, KG_FIRST) < result.spec.triple_count

    def test_seed_count_is_floored_fraction(self):
        result = generate(small_spec(seed_fraction=0.25))
        assert len(result.seeds) == 10

    def test_every_split_entity_resolves_in_training_graph(self):
        result = generate(small_spec(missing_rate=0.25, rng_seed=3))
        for kg_id in (KG_FIRST, KG_SECOND):
            train_entities = {e for h, _, t in result.splits[kg_id]["train"] for e in (h, t)}
            train_relations = {r for _, r, _ in result.splits[kg_id]["train"]}
            for split in ("valid", "test"):
                for h, r, t in result.splits[kg_id][split]:
                    assert h in train_entities and t in train_entities
                    assert r in train_relations


class TestWriteDataset:
    def test_written_directory_loads_cleanly(self, tmp_path):
        write_dataset(generate(small_spec()), tmp_path)
        multikg = load_multikg(tmp_path)
        assert {kg.id for kg in multikg.kgs} == {KG_FIRST, KG_SECOND}
        assert (KG_FIRST, KG_SECOND) in multikg.seed_sets
        for kg in multikg.kgs:
            assert len(multikg.kgc_splits[kg.id]["train"])
            assert len(multikg.kgc_splits[kg.id]["valid"])
            assert len(multikg.kgc_splits[kg.id]["test"])

    def test_triples_file_is_training_graph(self, tmp_path):
        result = generate(small_spec())
        write_dataset(result, tmp_path)
        lines = (tmp_path / f"triples_{KG_FIRST}.tsv").read_text().splitlines()
        assert len(lines) == len(result.splits[KG_FIRST]["train"])

    def test_rerun_writes_identical_bytes(self, tmp_path):
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        write_dataset(generate(small_spec()), out1)
        write_dataset(generate(small_spec()), out2)
        for path in sorted(out1.iterdir()):
            assert path.read_bytes() == (out2 / path.name).read_bytes()
