# selc_lab first: importing it before numpy is what lets its one-thread
# BLAS default take effect, and with it the worker processes for trials
import selc_lab  # noqa: F401  # isort: skip

import sys

import numpy as np
import pytest

from selc_lab.data import BlobSpec, TrainView, generate_blobs
from selc_lab.noise import build_symmetric_q, inject_noise


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_noisy_view():
    """A 300-sample 3-class blob set with 40% symmetric noise injected: the
    training view and the true labels."""
    spec = BlobSpec(n=300, dim=8, num_classes=3, cluster_std=0.4, seed=5)
    x, y = generate_blobs(spec, split="train")
    noisy = inject_noise(y, build_symmetric_q(3, 0.4), seed=11)
    return TrainView(features=x, noisy_labels=noisy, num_classes=3), y


@pytest.fixture
def replace_everywhere(monkeypatch):
    """``replace(real, stand_in)`` puts ``stand_in`` wherever a loaded
    selc_lab module holds the function ``real``, whatever name it was
    imported under; undone after the test."""
    def replace(real, stand_in):
        for name, module in list(sys.modules.items()):
            if name == "selc_lab" or name.startswith("selc_lab."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, stand_in)
    return replace


def _criterion_key(nodeid: str):
    # test_criterion_03_whatever -> 3
    marker = "test_criterion_"
    idx = nodeid.find(marker)
    if idx < 0:
        return None
    tail = nodeid[idx + len(marker):]
    digits = ""
    for ch in tail:
        if ch.isdigit():
            digits += ch
        else:
            break
    return int(digits) if digits else None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible pass/fail line per acceptance criterion."""
    lines = {}
    for status, verdict in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            num = _criterion_key(nodeid)
            if num is not None and "test_acceptance" in nodeid:
                name = nodeid.split("::")[-1].replace(f"test_criterion_{num:02d}_", "").replace("_", " ")
                lines[num] = f"criterion {num} ({name}): {verdict}"
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria")
        for num in sorted(lines):
            terminalreporter.write_line("  " + lines[num])
