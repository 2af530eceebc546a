"""Run the selc-lab CLI with spans recorded around calls into each layer.

Usage: python3 perfbench/tracer.py OUT.json -- <selc-lab arguments>

Every function in ``TRACED`` is replaced by a timing wrapper in every
``selc_lab`` module namespace that holds it, so calls made through a
module global (``turning.fit_gmm2`` calling ``fit_kmeans2_and_m3``) and
through a name imported into another module (``experiment.fit_gmm2``) are
both seen. Spans (name, start, end, parent) stay in memory until the
program ends; then per-name calls, total seconds and self seconds, a few
counts, and the share of the wall time no top-level span covers are
written to OUT.json. The program's own outputs are unchanged.
"""

import functools
import inspect
import json
import os
import sys
import threading
import time

_T0 = time.perf_counter()

# module -> public functions timed as layer boundaries. experiment._run_trial
# is the unit of trial parallelism, so it is traced to count trials in flight.
TRACED = {
    "config": ("load_config",),
    "data": ("generate_blobs",),
    "noise": ("inject_noise",),
    "mlp": ("backward", "sgd_step", "predict_proba"),
    "targets": ("update_targets", "save_state"),
    "training": ("run_training", "run_selc_plus", "mixup_batch"),
    "turning": ("fit_gmm2", "fit_kmeans2_and_m3", "save_loss_snapshots",
                "load_loss_snapshots", "compute_metric_series"),
    "diagnostics": ("memorization_stats", "append_metrics_ledger"),
    "experiment": ("_run_trial",),
}
HOOK_SPAN = "training.epoch_hook"


class Tracer:
    """Span recorder; one stack of open spans per thread."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._in_flight = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, value):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` timed as span ``name``.

        ``before(bound)`` may rewrite the bound arguments; ``after(bound,
        result)`` records counts from the call.
        """
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if before is not None or after is not None:
                bound = signature.bind(*args, **kwargs)
                if before is not None:
                    before(bound)
                args, kwargs = bound.args, bound.kwargs
            stack = self._stack()
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = self.spans[index]
                span[1] = start
                span[2] = end
            if after is not None:
                after(bound, result)
            return result

        return traced

    def enter_trial(self):
        with self._lock:
            self._in_flight += 1
            peak = max(self.counts.get("experiment.trials_in_flight", 0), self._in_flight)
            self.counts["experiment.trials_in_flight"] = peak

    def leave_trial(self):
        with self._lock:
            self._in_flight -= 1

    def summary(self, wall_s):
        layers = {}
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_s):
            entry = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        roots = sorted((s[1], s[2]) for s in self.spans if s[3] < 0)
        covered = 0.0
        reach = -float("inf")
        for start, end in roots:
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return {
            "wall_s": wall_s,
            "uncovered_share": max(0.0, wall_s - covered) / wall_s,
            "layers": layers,
            "counts": self.counts,
        }


def install(tracer):
    """Wrap every ``TRACED`` function wherever a selc_lab module holds it."""
    import selc_lab.cli  # noqa: F401  imports every module the CLI reaches

    def hook_wrapper(bound):
        hook = bound.arguments.get("epoch_hook")
        if hook is not None:
            bound.arguments["epoch_hook"] = tracer.wrap(HOOK_SPAN, hook)

    def count_epochs(index):
        def after(bound, result):
            tracer.add("training.epochs_trained", len(result[index]))
        return after

    def count_bytes(name):
        def after(bound, result):
            tracer.add(name, os.path.getsize(bound.arguments["path"]))
        return after

    hooks = {
        "training.run_training": (hook_wrapper, count_epochs(2)),
        "training.run_selc_plus": (hook_wrapper, count_epochs(1)),
        "turning.fit_gmm2": (None, lambda b, r: tracer.add("turning.em_iterations", r.iterations)),
        "turning.save_loss_snapshots": (None, count_bytes("turning.save_loss_snapshots.bytes")),
        "targets.save_state": (None, count_bytes("targets.save_state.bytes")),
    }
    modules = [m for n, m in sys.modules.items() if n == "selc_lab" or n.startswith("selc_lab.")]
    for module_name, names in TRACED.items():
        home = sys.modules[f"selc_lab.{module_name}"]
        for fn_name in names:
            span = f"{module_name}.{fn_name}"
            original = getattr(home, fn_name)
            before, after = hooks.get(span, (None, None))
            wrapped = tracer.wrap(span, original, before, after)
            if span == "experiment._run_trial":
                wrapped = _counted_trial(tracer, wrapped)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def _counted_trial(tracer, fn):
    @functools.wraps(fn)
    def trial(*args, **kwargs):
        tracer.enter_trial()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leave_trial()
    return trial


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- <selc-lab arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from selc_lab import cli
    status = cli.main(cli_args)
    with open(out_path, "w") as fh:
        json.dump(tracer.summary(time.perf_counter() - _T0), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
