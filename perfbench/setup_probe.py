"""Do selc-lab's set-up and nothing else, so its wall time can be timed.

Usage: python3 perfbench/setup_probe.py [CONFIG.yaml]

Set-up is interpreter start, importing the CLI (which imports every
module), and, given a run config, loading it, building its blob data and
injecting each trial's label noise.
"""

import sys

import selc_lab.cli  # noqa: F401
from selc_lab.config import load_config
from selc_lab.data import BlobSpec, generate_blobs
from selc_lab.noise import build_symmetric_q, inject_noise


def main(argv):
    if not argv:
        return 0
    cfg = load_config(argv[0])
    ds = cfg.dataset
    spec = BlobSpec(n=ds.n, dim=ds.dim, num_classes=ds.num_classes,
                    cluster_std=ds.cluster_std, seed=ds.seed, test_n=ds.test_n)
    _, train_y = generate_blobs(spec, split="train")
    generate_blobs(spec, split="test")
    tm = build_symmetric_q(ds.num_classes, cfg.noise.eta,
                           exclude_true_class=cfg.noise.exclude_true_class)
    for seed in cfg.trials:
        inject_noise(train_y, tm, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
