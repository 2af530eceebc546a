"""selc-lab benchmark: one workload, timed end to end, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk_selc --seed 1 --seconds 40 --trace 0

The run builds its inputs from ``--seed``, then runs whole rounds until
the next round would end past ``--seconds``. A round is one ``selc-lab``
invocation of the workload, from ``src/``, followed by set-up probes
(``setup_probe.py``) that time the program's set-up alone. The first round's outputs are checked against the
workload's own oracle; every later round must reproduce them byte for
byte. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, medians over rounds; with ``--trace 1`` the
per-layer metrics from rounds run under ``tracer.py``, alternating with
untraced rounds so the tracing overhead can be stated.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
TRACE_DIR = os.path.join(HERE, "trace")
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracer import TRACED, HOOK_SPAN  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up probes after each round: at least MIN_PROBES, and at least
# SETUP_SHARE of the round's wall time
MIN_PROBES = 2
SETUP_SHARE = 0.1
# one BLAS thread per child: on a few shared cores, a second spinning BLAS
# thread makes the timings follow the host's load instead of the program
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150
# spans with traced children, whose self time differs from their total
PARENT_SPANS = ("experiment._run_trial", "training.run_training", "training.run_selc_plus",
                HOOK_SPAN, "turning.fit_gmm2", "turning.compute_metric_series")
SPANS = [f"{module}.{name}" for module, names in TRACED.items() for name in names] + [HOOK_SPAN]


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("SELC_OUT_DIR", None)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    return env


def run_child(cmd, env, log_path):
    """Run ``cmd`` to its end; returns (exit code, wall s, cpu s, peak RSS MB)."""
    with open(log_path, "w") as log, open(log_path + ".err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def read_text(path):
    with open(path) as fh:
        return fh.read()


def tree_digest(directory, stdout):
    digest = hashlib.sha256(stdout.encode())
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def layer_values(summary, workload):
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    layers, counts = summary["layers"], summary["counts"]
    values = {}
    for span in SPANS:
        entry = layers.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        values[f"{span}.calls"] = (entry["calls"], "count")
        values[f"{span}.s"] = (entry["s"], "s")
        if span in PARENT_SPANS:
            values[f"{span}.self_s"] = (entry["self_s"], "s")
    gmm_calls = values["turning.fit_gmm2.calls"][0]
    kmeans_calls = values["turning.fit_kmeans2_and_m3.calls"][0]
    values["turning.kmeans_per_gmm_fit"] = (kmeans_calls / gmm_calls if gmm_calls else 0.0, "ratio")
    for name in ("training.epochs_trained", "turning.em_iterations",
                 "turning.save_loss_snapshots.bytes", "targets.save_state.bytes",
                 "experiment.trials_in_flight"):
        values[name] = (counts.get(name, 0), "bytes" if name.endswith(".bytes") else "count")
    values["training.epochs_requested"] = (workload.epochs_requested, "count")
    values["trace.uncovered_pct"] = (100.0 * summary["uncovered_share"], "%")
    return values


def median_metrics(rounds):
    names = rounds[0].keys()
    return {name: (statistics.median(r[name][0] for r in rounds), rounds[0][name][1])
            for name in names}


def measure(args, work):
    workload = WORKLOADS[args.workload](ROOT, work, args.seed)
    env = child_env()
    log = os.path.join(work, "child.log")
    started = time.perf_counter()

    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), *workload.setup_args]
    setup_walls = []

    def probe_setup():
        status, wall, _, _ = run_child(probe, env, log)
        if status != 0:
            raise BenchError(f"set-up probe exited {status}: {read_text(log + '.err')[-2000:]}")
        return wall

    probe_setup()  # warms the file cache; not counted

    attempted = failed = 0
    correct = True
    quality = reference = None
    plain, traced, costs = [], [], []
    while True:
        elapsed = time.perf_counter() - started
        needed = not plain or (args.trace and not traced)
        if not needed and elapsed + statistics.median(costs) > args.seconds:
            break
        use_tracer = bool(args.trace) and attempted % 2 == 1
        round_start = time.perf_counter()
        shutil.rmtree(workload.out_dir, ignore_errors=True)
        os.makedirs(workload.out_dir)
        trace_path = os.path.join(work, "trace.json")
        if use_tracer:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path, "--", *workload.argv]
        else:
            cmd = [sys.executable, "-m", "selc_lab.cli", *workload.argv]
        status, wall, cpu, rss = run_child(cmd, env, log)
        attempted += 1
        if status != 0:
            failed += 1
            print(f"round {attempted} exited {status}: {read_text(log + '.err')[-2000:]}",
                  file=sys.stderr)
        else:
            stdout = read_text(log)
            if reference is None:
                try:
                    quality = workload.check(stdout)
                except checks.CheckError as exc:
                    correct = False
                    quality = (0.0, 0.0)
                    print(f"check failed: {exc}", file=sys.stderr)
                reference = tree_digest(workload.out_dir, stdout)
            elif tree_digest(workload.out_dir, stdout) != reference:
                correct = False
                print(f"round {attempted} outputs differ from the first round's", file=sys.stderr)
            if use_tracer:
                with open(trace_path) as fh:
                    traced.append((wall, json.load(fh)))
            else:
                plain.append((wall, cpu, rss))
        # set-up probes after every round sample the machine over the whole run
        probed = []
        while len(probed) < MIN_PROBES or sum(probed) < SETUP_SHARE * wall:
            probed.append(probe_setup())
        setup_walls.extend(probed)
        costs.append(time.perf_counter() - round_start)
        print(f"round {attempted}: {'traced' if use_tracer else 'plain'} wall {wall:.3f} s "
              f"cpu {cpu:.3f} s rss {rss:.1f} MB exit {status}", flush=True)
        if failed == attempted and attempted >= 2:
            break

    if not plain or (args.trace and not traced):
        raise BenchError(f"{failed} of {attempted} rounds failed; nothing to report")
    wall_s = statistics.median(w for w, _, _ in plain)
    if args.trace:
        rounds = [layer_values(summary, workload) for _, summary in traced]
        metrics = median_metrics(rounds)
        traced_wall = statistics.median(w for w, _ in traced)
        metrics["trace.overhead_pct"] = (100.0 * (traced_wall / wall_s - 1.0), "%")
        os.makedirs(TRACE_DIR, exist_ok=True)
        with open(os.path.join(TRACE_DIR, f"{args.workload}.json"), "w") as fh:
            json.dump({"seed": args.seed, "plain_wall_s": [w for w, _, _ in plain],
                       "traced": [s for _, s in traced]}, fh, indent=1)
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "cpu_s": (statistics.median(c for _, c, _ in plain), "s"),
            "setup_s": (statistics.median(setup_walls), "s"),
            "peak_rss_mb": (statistics.median(r for _, _, r in plain), "MB"),
            "sample_epochs_per_s": (workload.work_units / wall_s, "1/s"),
            "test_acc": (quality[0], "fraction"),
            "correction_acc": (quality[1], "fraction"),
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "selc_lab", "cli.py")):
        print(f"no selc_lab sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    print(f"nproc={len(os.sched_getaffinity(0))} "
          + " ".join(f"{name}={env[name]}" for name in BLAS_THREAD_VARS))
    work = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = measure(args, work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
