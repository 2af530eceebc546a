"""Command-line entry point.

Verbs: run, detect-turning-point, inspect, make-blobs. Exit codes: 0 on
success, 1 for configuration/input errors, 2 for runtime failures.
"""

import argparse
import json
import os
import sys

from .config import check_memory, data_memory, from_mapping, load_config, read_yaml
from .data import BlobSpec, generate_blobs, save_csv_dataset
from .errors import FormatError, ParameterError
from .experiment import WARM_FIELDS, run_experiment
from .turning import METRIC_NAMES, estimate_turning_point, losses_file_series, save_metric_series


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through the
    # config-error path instead
    def error(self, message):
        raise ParameterError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="selc-lab", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="YAML experiment config")

    p_det = sub.add_parser("detect-turning-point",
                           help="estimate the turning point from a losses CSV")
    p_det.add_argument("losses_csv", help="CSV with epoch,sample_id,loss rows")
    p_det.add_argument("--metric", default="m1", choices=METRIC_NAMES)
    p_det.add_argument("--smooth", action="store_true",
                       help="median-filter the series before the argmax")
    p_det.add_argument("--series-out", default=None,
                       help="also write the per-epoch metric series CSV here")

    p_ins = sub.add_parser("inspect", help="print a run directory's summary")
    p_ins.add_argument("run_dir")

    p_mk = sub.add_parser("make-blobs", help="generate a blob dataset as CSV")
    p_mk.add_argument("spec", help="YAML file with n, dim, num_classes, cluster_std, seed")
    p_mk.add_argument("out_dir", help="directory for train.csv and test.csv")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    summary = run_experiment(cfg)
    out_dir = os.environ.get("SELC_OUT_DIR") or cfg.out_dir
    print(f"wrote {os.path.join(out_dir, 'summary.json')}")
    if "alpha_sweep" in summary:
        any_failed = False
        for key, sub in summary["runs"].items():
            agg = sub.get("last_epoch_test_acc")
            if agg:
                print(f"alpha {key}: test acc {agg['mean']:.6g} +/- {agg['stddev']:.6g}")
            for seed, err in sub.get("failed", {}).items():
                print(f"alpha {key} trial {seed} failed: {err}", file=sys.stderr)
                any_failed = True
        spread = summary.get("test_acc_spread")
        if spread is not None:
            print(f"spread: {spread:.6g}")
        elif not any_failed:
            print("no trials ran")
        return 2 if any_failed else 0
    for seed, err in summary["failed"].items():
        print(f"trial {seed} failed: {err}", file=sys.stderr)
    if summary["empty"]:
        if summary["failed"]:
            return 2
        print("no trials ran")
        return 0
    agg = summary["last_epoch_test_acc"]
    print(f"{summary['method']}: last-epoch test acc {agg['mean']:.6g} +/- {agg['stddev']:.6g}")
    return 2 if summary["failed"] else 0


def _cmd_detect(args) -> int:
    # checked before the load and the fits, which take the verb's time
    folder = os.path.dirname(args.series_out or "")
    if folder and not os.path.isdir(folder):
        raise ParameterError(f"--series-out {args.series_out}: no directory {folder}")
    series = losses_file_series(args.losses_csv)
    if args.series_out:
        save_metric_series(series, args.series_out)
    for name in METRIC_NAMES:
        print(f"{name} {estimate_turning_point(series, name, smooth=args.smooth)}")
    print(f"turning_point {estimate_turning_point(series, args.metric, smooth=args.smooth)}")
    return 0


def _summary_lines(summary) -> list:
    """What ``inspect`` prints for a run's summary; a malformed one raises
    KeyError, TypeError, ValueError or AttributeError."""
    if "alpha_sweep" in summary:
        lines = [f"alpha sweep: {', '.join(summary['alpha_sweep'])}"]
        for key, sub in summary["runs"].items():
            agg = sub.get("last_epoch_test_acc")
            lines.append(f"  alpha {key}: " + ("no completed trials" if not agg else
                                              f"test acc {agg['mean']:.6g} +/- {agg['stddev']:.6g}"))
            lines.extend("    " + line for line in _trial_lines(sub))
        if summary.get("test_acc_spread") is not None:
            lines.append(f"spread: {summary['test_acc_spread']:.6g}")
        return lines
    lines = [f"method: {summary['method']}", f"alpha: {summary['alpha']:.6g}",
             f"trials: {len(summary['completed'])} completed, {len(summary['failed'])} failed"]
    for name, label in (("last_epoch_test_acc", "test acc"),
                        ("last_epoch_correction_acc", "correction acc"),
                        ("last_epoch_memorized_frac", "memorized frac"),
                        ("plus_last_epoch_test_acc", "retrain test acc")):
        agg = summary.get(name)
        if agg:
            lines.append(f"{label}: {agg['mean']:.6g} +/- {agg['stddev']:.6g}")
    return lines + _trial_lines(summary)


def _trial_lines(summary) -> list:
    """A line per trial of one alpha's summary that set an activation epoch,
    with what its warm phase found if it had one, then one per failed trial."""
    lines = []
    warm = [summary.get(key, {}) for key in WARM_FIELDS]
    for seed, epoch in summary.get("activation_epochs", {}).items():
        estimate, fired, clamped = (values.get(seed) for values in warm)
        if epoch is not None:
            lines.append(f"trial {seed}: activation epoch {epoch}" + (
                "" if estimate is None else f", turning point estimate {estimate}, "
                f"detector fired {_yes(fired)}, activation clamped {_yes(clamped)}"))
    return lines + [f"trial {seed} failed: {err}"
                    for seed, err in summary.get("failed", {}).items()]


def _yes(flag) -> str:
    return "yes" if flag else "no"


def _cmd_inspect(args) -> int:
    path = os.path.join(args.run_dir, "summary.json")
    if not os.path.exists(path):
        raise ParameterError(f"no summary.json under {args.run_dir}")
    with open(path) as fh:
        try:
            summary = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{exc.lineno}: not valid JSON: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    try:
        lines = _summary_lines(summary)
    except KeyError as exc:
        raise FormatError(f"{path}: not a run summary: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"{path}: not a run summary: {exc}") from exc
    print("\n".join(lines))
    return 0


def _cmd_make_blobs(args) -> int:
    raw = read_yaml(args.spec)
    try:
        spec = from_mapping(BlobSpec, raw, "the blob spec")
        check_memory([data_memory(spec.n, spec.test_n, spec.dim, ("n", "dim"))])
        # both splits exist before either file is written
        splits = [(split, *generate_blobs(spec, split=split)) for split in ("train", "test")]
    except ParameterError as exc:
        raise ParameterError(f"{args.spec}: {exc}") from exc
    os.makedirs(args.out_dir, exist_ok=True)
    for split, features, labels in splits:
        path = os.path.join(args.out_dir, f"{split}.csv")
        save_csv_dataset(path, features, labels)
        print(f"wrote {path} ({features.shape[0]} x {features.shape[1]})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "detect-turning-point":
            return _cmd_detect(args)
        if args.verb == "inspect":
            return _cmd_inspect(args)
        return _cmd_make_blobs(args)
    except (ParameterError, FormatError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError, ValueError, MemoryError, json.JSONDecodeError) as exc:
        # a bare MemoryError has no message
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
