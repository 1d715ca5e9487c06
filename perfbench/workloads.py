"""The benchmark's workloads: data shapes and training configs.

Plain dicts, so run.py can read them without importing numpy
or jointkg. The benchmark's `--seed` becomes both `SynthSpec.rng_seed` and
`TrainConfig.rng_seed`.
"""
from __future__ import annotations

from dataclasses import dataclass

# Data shapes, passed to jointkg.synth.SynthSpec.
C6_DATA = dict(entity_count=200, relation_count=3, mean_degree=4.0, missing_rate=0.0,
               seed_fraction=0.3)
K3_DATA = dict(entity_count=3000, relation_count=3, mean_degree=4.0, missing_rate=0.2,
               seed_fraction=0.3)

# The acceptance suite's criterion-6 model, passed to jointkg.train.TrainConfig.
MODEL = dict(layers=2, dim=128, lr_completion=0.005, lr_alignment=0.005, beta=0.2,
             gamma_completion=5.0, gamma_alignment=0.0, negatives_per_positive=10,
             nearest_neighbor_negatives=25, si_mode="without")

# One epoch of one step: what a run can afford at 3,000 entities per KG.
K3_CONFIG = dict(MODEL, epochs=1, steps_per_epoch=1)

# Self-check sizes: every code path of the full workloads, in seconds.
TINY_DATA = dict(entity_count=30, relation_count=3, mean_degree=4.0, missing_rate=0.2,
                 seed_fraction=0.3)
TINY_CONFIG = dict(MODEL, dim=8, negatives_per_positive=3, nearest_neighbor_negatives=5,
                   epochs=1, steps_per_epoch=2)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "train" (jointkg train) or "eval" (jointkg eval --task both)
    data_name: str       # workloads with the same data_name share one dataset per seed
    data: dict
    config: dict
    checkpoint_from: str | None = None  # eval: the train workload whose checkpoint it reads

    def sized(self, size: str) -> "Workload":
        if size == "full":
            return self
        return Workload(self.name, self.kind, self.data_name, TINY_DATA, TINY_CONFIG,
                        self.checkpoint_from)


WORKLOADS = {
    w.name: w for w in (
        # Criterion 6's shape: completion and alignment steps (diff backward, rgnn,
        # completion) carry nearly all of the time; evaluation almost none.
        Workload("train-c6", "train", "c6", C6_DATA, dict(MODEL, epochs=2, steps_per_epoch=20)),
        # 3,000 entities per KG: validation ranking, nearest negatives, the n^2 ENTR
        # matrix and edge rebuilds carry real weight, and tables outgrow a 2 MiB L2.
        Workload("train-3k", "train", "3k", K3_DATA, K3_CONFIG),
        # Forward-only use of the same modules on the checkpoint train-3k writes:
        # a training-only speed-up must leave it unchanged.
        Workload("eval-3k", "eval", "3k", K3_DATA, K3_CONFIG, checkpoint_from="train-3k"),
    )
}
