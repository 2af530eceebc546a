"""The names and return shapes the benchmark's tracer relies on.

``perfbench/tracer.py`` finds the functions it times with ``getattr``,
counts epochs by the length of the epoch ranges the training entry
points return, binds some of their arguments by name and reads
``GmmFit.iterations``. A rename or a changed return shape would otherwise
only show as a missing layer or count in a traced benchmark run, or break
it.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from dataclasses import fields

import pytest

import selc_lab

from selc_lab.data import BlobSpec, TrainView, generate_blobs
from selc_lab.mlp import init_mlp, make_optimizer
from selc_lab.noise import build_symmetric_q, inject_noise
from selc_lab.rng import stream
from selc_lab.targets import save_state
from selc_lab.training import SelcRunConfig, run_selc_plus, run_training
from selc_lab.turning import GmmFit, save_loss_snapshots

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_every_traced_name_resolves():
    traced = load_traced()
    assert traced
    for module_name, names in traced.items():
        module = importlib.import_module(f"selc_lab.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"selc_lab.{module_name}.{name}"


def test_cli_import_loads_every_traced_module():
    # install() looks each traced module up in sys.modules after importing
    # the CLI, so a module the CLI imported lazily would break every trace
    code = "import sys, selc_lab.cli; print(*sorted(sys.modules))"
    src = os.path.dirname(os.path.dirname(os.path.abspath(selc_lab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    for module_name in load_traced():
        assert f"selc_lab.{module_name}" in loaded


@pytest.mark.parametrize("fn, name", [
    (save_loss_snapshots, "path"),  # bytes written
    (save_state, "path"),
    (run_training, "epoch_hook"),  # the hook span
    (run_selc_plus, "epoch_hook"),
])
def test_parameters_the_tracer_binds_by_name(fn, name):
    assert name in inspect.signature(fn).parameters


def test_gmm_fit_reports_em_iterations():
    assert "iterations" in {f.name for f in fields(GmmFit)}


@pytest.fixture
def tiny_view():
    spec = BlobSpec(n=48, dim=3, num_classes=3, cluster_std=0.3, seed=0)
    x, y = generate_blobs(spec)
    return TrainView(features=x, noisy_labels=inject_noise(y, build_symmetric_q(3, 0.2), seed=1),
                     num_classes=3)


def fresh(view):
    model = init_mlp([3, 8, view.num_classes], stream(0, "init"))
    return model, make_optimizer(model, base_lr=0.05)


def test_training_entry_points_return_one_record_per_epoch(tiny_view):
    cfg = SelcRunConfig(total_epochs=2, activation_epoch=1)
    hooked = []
    model, opt = fresh(tiny_view)
    result = run_training(tiny_view, model, opt, cfg, "selc", 16, seed=0,
                          epoch_hook=hooked.append)
    assert len(result) == 3 and result[0] is model
    assert list(result[2]) == [0, 1]
    targets = result[1].targets

    model, opt = fresh(tiny_view)
    result = run_selc_plus(tiny_view.features, targets, model, opt, cfg, 16, seed=0,
                           epoch_hook=hooked.append)
    assert len(result) == 2 and result[0] is model
    assert list(result[1]) == [0, 1]
    assert len(hooked) == 4
