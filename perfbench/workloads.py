"""The benchmark's workloads: inputs made from a seed, the selc-lab command
each round runs, and the check of that round's outputs.

- ``desk_selc``: the desk benchmark config (4000 x 16 blobs, 40 %
  symmetric noise, ``selc`` with auto activation, 3 trials) with its trial
  seeds taken from the benchmark seed. Drives every layer: warm phase,
  per-epoch GMM, losses.csv write, sequential trials.
- ``plus_smallbatch``: one ``selc_plus`` trial on 2000 blobs at batch
  32 with a fixed activation epoch (no warm phase) and a 120-epoch mixup
  retrain. Per-step MLP cost dominates; warm-phase reuse and trial
  parallelism cannot help here.
- ``detect_posthoc``: ``detect-turning-point`` on a synthetic losses.csv
  (100 epochs x 6000 samples) whose two overlapping loss modes drift apart up to a
  planted peak epoch and back. Only the turning-point layer and the
  losses parser run.
"""

import math
import os

import numpy as np
import yaml

import checks

DESK_CONFIG = os.path.join("configs", "desk_benchmark.yaml")


class TrainingWorkload:
    """A ``selc-lab run`` on a config derived from the desk benchmark."""

    def __init__(self, root, work_dir, seed, trials, overrides):
        with open(os.path.join(root, DESK_CONFIG)) as fh:
            cfg = yaml.safe_load(fh)
        # the seed picks the trial seeds, hence the injected label noise,
        # the initial weights and the batch order; the blob layout stays
        # the desk's
        cfg["trials"] = [trials * int(seed) + k for k in range(1, trials + 1)]
        for section, values in overrides.items():
            if isinstance(values, dict):
                cfg[section].update(values)
            else:
                cfg[section] = values
        cfg["out_dir"] = "run"
        self.config_path = os.path.join(work_dir, "config.yaml")
        with open(self.config_path, "w") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=False)
        ds, opt, method = cfg["dataset"], cfg["optimizer"], cfg["method"]
        plus_epochs = None
        if method["name"] == "selc_plus":
            plus_epochs = method.get("plus_epochs") or opt["epochs"]
        self.spec = {
            "n": ds["n"], "num_classes": ds["num_classes"], "trials": cfg["trials"],
            "epochs": opt["epochs"], "eta": cfg["noise"]["eta"], "plus_epochs": plus_epochs,
        }
        self.epochs_requested = (opt["epochs"] + (plus_epochs or 0)) * len(cfg["trials"])
        # requested samples x epochs (main + plus) x trials
        self.work_units = ds["n"] * self.epochs_requested
        self.setup_args = [self.config_path]
        self.out_dir = os.path.join(work_dir, "run")
        self.argv = ["run", self.config_path]

    def check(self, stdout):
        return checks.check_training_run(self.out_dir, self.spec)


# planted two-mode loss mixture for detect_posthoc, in normalized units.
# The modes overlap at the gap floor, so EM iterates about as long as on
# the desk's recorded losses (30-40 iterations per fit).
DETECT_EPOCHS = 100
DETECT_N = 6000
DETECT_NOISY_SHARE = 0.3
DETECT_LOW_MEAN = 0.17
DETECT_STD_LOW = 0.04
DETECT_STD_HIGH = 0.08
DETECT_GAP_PEAK = 0.45
DETECT_GAP_FLOOR = 0.2
DETECT_GAP_SLOPE = 0.02


def planted_losses(seed):
    """Per-epoch losses whose normalized form is a planted two-mode mixture.

    Mode gap g(e) = max(floor, peak_gap - slope * |e - peak|), with the
    peak epoch drawn from the seed. One sample is pinned at 0 and one at 1
    and all others are clipped strictly inside, so min-max normalization
    gives back the planted values; each epoch is then scaled by its own
    loss unit.

    Returns (losses, planted) where planted holds the peak, the gap series,
    the epochs where m1 is checked and its tolerance. Where the modes are
    at least 3 (std_low + std_high) apart, responsibilities are all but 0
    or 1 and m1 is a difference of two sample means, with standard error
    s = sqrt(std_low^2 / n_low + std_high^2 / n_high); the two pinned
    points move the means by at most 1/n_low + 1/n_high. The tolerance is
    6 s plus that shift.
    """
    rng = np.random.default_rng([int(seed), 0x5E1C])
    peak = int(rng.integers(30, 70))
    epochs = np.arange(DETECT_EPOCHS)
    gap = np.maximum(DETECT_GAP_FLOOR, DETECT_GAP_PEAK - DETECT_GAP_SLOPE * np.abs(epochs - peak))
    n_hi = int(round(DETECT_N * DETECT_NOISY_SHARE))
    n_lo = DETECT_N - n_hi
    losses = np.empty((DETECT_EPOCHS, DETECT_N))
    for e in epochs:
        noisy = rng.permutation(DETECT_N) < n_hi
        x = np.where(noisy,
                     DETECT_LOW_MEAN + gap[e] + DETECT_STD_HIGH * rng.standard_normal(DETECT_N),
                     DETECT_LOW_MEAN + DETECT_STD_LOW * rng.standard_normal(DETECT_N))
        x = np.clip(x, 1e-3, 1.0 - 1e-3)
        x[np.flatnonzero(~noisy)[0]] = 0.0
        x[np.flatnonzero(noisy)[0]] = 1.0
        losses[e] = x * rng.uniform(2.0, 4.0)
    se = math.sqrt(DETECT_STD_LOW ** 2 / n_lo + DETECT_STD_HIGH ** 2 / n_hi)
    separated = gap >= 3.0 * (DETECT_STD_LOW + DETECT_STD_HIGH)
    return losses, {
        "peak": peak,
        "gap": gap.tolist(),
        "checked_epochs": np.flatnonzero(separated).tolist(),
        "gap_tol": 6.0 * se + 1.0 / n_lo + 1.0 / n_hi,
    }


def write_losses_csv(losses, path):
    """The format ``selc-lab run`` writes: epoch,sample_id,loss with repr floats."""
    n = losses.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write("epoch,sample_id,loss\n")
        for e, row in enumerate(losses):
            fh.write("".join(f"{e},{i},{float(v)!r}\n" for i, v in zip(range(n), row)))


class DetectWorkload:
    """``selc-lab detect-turning-point`` on a planted losses.csv."""

    def __init__(self, root, work_dir, seed):
        losses, self.planted = planted_losses(seed)
        self.losses_path = os.path.join(work_dir, "losses.csv")
        write_losses_csv(losses, self.losses_path)
        self.epochs_requested = 0
        self.work_units = losses.size  # loss rows fitted
        self.setup_args = []
        self.out_dir = os.path.join(work_dir, "run")
        self.series_path = os.path.join(self.out_dir, "series.csv")
        self.argv = ["detect-turning-point", self.losses_path, "--series-out", self.series_path]

    def check(self, stdout):
        return checks.check_detection(stdout, self.series_path, self.planted)


WORKLOADS = {
    "desk_selc": lambda root, work, seed: TrainingWorkload(root, work, seed, 3, {}),
    "plus_smallbatch": lambda root, work, seed: TrainingWorkload(root, work, seed, 1, {
        "dataset": {"n": 2000},
        "optimizer": {"batch_size": 32},
        "method": {"name": "selc_plus", "activation_epoch": 1, "plus_epochs": 120},
    }),
    "detect_posthoc": lambda root, work, seed: DetectWorkload(root, work, seed),
}
