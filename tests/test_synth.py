import hashlib

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
                            for h, r, t in result.splits[KG_FIRST][split].tolist()}
            assert mapped_split == set(map(tuple, result.splits[KG_SECOND][split].tolist()))

    def test_deterministic_for_fixed_seed(self):
        a = generate(small_spec())
        b = generate(small_spec())
        for kg_id in (KG_FIRST, KG_SECOND):
            for split, rows in a.splits[kg_id].items():
                assert rows.tolist() == b.splits[kg_id][split].tolist()
        assert a.seeds.tolist() == b.seeds.tolist()
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
            train = result.splits[kg_id]["train"].tolist()
            train_entities = {e for h, _, t in train for e in (h, t)}
            train_relations = {r for _, r, _ in train}
            for split in ("valid", "test"):
                for h, r, t in result.splits[kg_id][split].tolist():
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


# SHA-256 of every file, in the order `write_dataset` writes them, for
# criterion 6's spec and one directional spec of the acceptance suite
GOLDEN_SHA256 = {
    (200, 0.0, 202): [
        ("triples_kg1.tsv", "7a747ec1bcffa71b792f317d408c664ce093aacf952458f7623c380271372b7f"),
        ("triples_kg2.tsv", "3b864ab7a831cdde16d2f53a07a0e8bb7612905507bcd0f78ca61bef6e23a87b"),
        ("kgc_train_kg1.tsv", "7a747ec1bcffa71b792f317d408c664ce093aacf952458f7623c380271372b7f"),
        ("kgc_valid_kg1.tsv", "edee0df968875bc21812ba09c75ce56029b7aaf86756f99e7f1114f028e53a6f"),
        ("kgc_test_kg1.tsv", "0b304e7dbdd06b2dcdc833d7c93dc863334b7288ac48aec8d1dac54f136e549f"),
        ("kgc_train_kg2.tsv", "3b864ab7a831cdde16d2f53a07a0e8bb7612905507bcd0f78ca61bef6e23a87b"),
        ("kgc_valid_kg2.tsv", "e1ac3e4cac0778812dadbf75e9fc747006bcfea352ce11dfe6b063fad34afb02"),
        ("kgc_test_kg2.tsv", "5369ef3d39f5429e6ffb7254f5dd60b42739d2ad022e4a10a011da4e6453396a"),
        ("seeds_kg1_kg2.tsv", "5a323257797e14fd660f74d7ef54741768ccbbdc47f495845295dab739bd44ba"),
        ("ground_truth_kg1_kg2.tsv",
         "1432948a798bfe946b74b0f0d10db6bfac5c61059d54eca9ccfbe028d4a9078d"),
    ],
    (80, 0.2, 101): [
        ("triples_kg1.tsv", "ab0c4ec6a82b325eda4fd9c85f02897c24ac251d3a0fad267854551333016cba"),
        ("triples_kg2.tsv", "f9d60a2fef6506ce7b2368efb97652ad11ca09236fa12db2e0d42c64225bcf71"),
        ("kgc_train_kg1.tsv", "ab0c4ec6a82b325eda4fd9c85f02897c24ac251d3a0fad267854551333016cba"),
        ("kgc_valid_kg1.tsv", "c0f360a8acf1aeb36bdc9fa1eb6e39de47118b54007c62791213b0faed2049ea"),
        ("kgc_test_kg1.tsv", "26a036700b8efe39439682e00f333b43aee8b7dadec62fad42d9d7395d263b94"),
        ("kgc_train_kg2.tsv", "f9d60a2fef6506ce7b2368efb97652ad11ca09236fa12db2e0d42c64225bcf71"),
        ("kgc_valid_kg2.tsv", "4d8c8f5dc42c923fbc48ee2915b3e8583831ca75e519f941f27b42f6d24fed41"),
        ("kgc_test_kg2.tsv", "4b3d6eb55fef0ace9a6ec0267e6d1d6626b623ca130b8124430c0473fb92d87a"),
        ("seeds_kg1_kg2.tsv", "6bbf14cc233640007b56d6dc035f0e189297ac6658411eea43899ec6b992eff4"),
        ("ground_truth_kg1_kg2.tsv",
         "3cf55f695603586534f5ed225ace85054373414a333918eb5475789221e29438"),
    ],
}


@pytest.mark.parametrize("entities, missing_rate, seed", sorted(GOLDEN_SHA256))
def test_written_files_keep_their_golden_bytes(tmp_path, entities, missing_rate, seed):
    spec = SynthSpec(entity_count=entities, relation_count=3, mean_degree=4.0,
                     missing_rate=missing_rate, seed_fraction=0.3, rng_seed=seed)
    written = write_dataset(generate(spec), tmp_path)
    assert [(path.name, hashlib.sha256(path.read_bytes()).hexdigest())
            for path in written] == GOLDEN_SHA256[(entities, missing_rate, seed)]
