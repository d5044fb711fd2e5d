#!/usr/bin/env python3
"""Print the sha256 of the checkpoint ``train()`` returns for 24 configs.

Usage, from the repository root:

    OPENBLAS_NUM_THREADS=1 python3 tools/checkpoint_digests.py

The configs are the kinship and mid-scale workloads of
``benchmarks/run.py`` at seed 1, each under rotation and translation, with
vanilla and self-adversarial sampling, at 0, 1 and 2 layers.  The graphs
are written and loaded as the benchmark loads them.  Two checkouts print the
same lines exactly when their training is bit-identical on these configs;
under more than one BLAS thread the mid-scale bits may differ between runs
of the same code (ROADMAP M12).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

import inputs  # noqa: E402
from run import WORKLOADS  # noqa: E402
from transgcn.checkpoint import to_bytes  # noqa: E402
from transgcn.kg import load_dataset  # noqa: E402
from transgcn.trainer import TrainConfig, train  # noqa: E402

SEED = 1


def main() -> int:
    for name, workload in WORKLOADS.items():
        splits = inputs.kinship_splits(SEED) if name == "kinship" else inputs.midscale_splits(SEED)
        with tempfile.TemporaryDirectory() as data_dir:
            inputs.write_splits(data_dir, *splits)
            kg = load_dataset(data_dir)
        base = TrainConfig(seed=SEED, **workload.train)
        for assumption, sampling, layers in itertools.product(
                ("rotation", "translation"), ("vanilla", "self-adversarial"), (0, 1, 2)):
            config = base.replace(assumption=assumption, sampling=sampling, layers=layers)
            digest = hashlib.sha256(to_bytes(train(kg, config))).hexdigest()
            print(f"{name} {assumption} {sampling} {layers} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
