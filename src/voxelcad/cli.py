"""Command-line driver: synth, extract, train, eval, predict.

Exit codes: 0 success, 1 domain errors (bad data or configuration), 2
usage errors (argparse). Diagnostics go to stderr; data and reports go to
files or stdout. --config loads a JSON RunConfig; explicit flags override
file values.

The argparse tree is built once per process (build_parser is cached) and
every dispatch only parses with it. That holds no state between calls:
parse_args fills a fresh Namespace each time, every flag's default is a
constant, and usage errors, --help and --version leave through SystemExit
before a command runs. A closed loop of predict requests then pays only
for the parse, not for rebuilding five subparsers and their ~70 actions.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__
from .ann import AnnError
from .config import RunConfig
from .evaluation import (EvalError, cross_validate, write_report_csv,
                         write_report_json)
from .features import build_feature_matrix, save_feature_matrix
from .pipeline import (PipelineModel, fit_pipeline, pipeline_feature_kind,
                       predict_volume)
from .svm import SvmError
from .synth import generate_dataset
from .volume import VolumeError, load_volume

_RUNCONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected AxBxC, got {text!r}")
    try:
        triple = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in AxBxC, got {text!r}") from None
    return triple


# flag spec per RunConfig field; every default is None so that only flags
# the user actually typed override the config file
_OVERRIDES: dict[str, dict] = {
    "n_ad": dict(flags=["--n-ad"], type=int, help="AD subject count"),
    "n_hc": dict(flags=["--n-hc"], type=int, help="control subject count"),
    "dims": dict(flags=["--dims"], type=_parse_triple, metavar="NXxNYxNZ",
                 help="volume dimensions, e.g. 34x47x39"),
    "separation": dict(flags=["--separation"], type=float,
                       help="class separation in noise-sigma units"),
    "noise_sigma": dict(flags=["--noise-sigma"], type=float, help="voxel noise sigma"),
    "feature_kind": dict(flags=["--features"], choices=["grayscale", "vaf"],
                         help="feature family for PCA pipelines"),
    "block_grid": dict(flags=["--block-grid"], type=_parse_triple, metavar="BXxBYxBZ",
                       help="grayscale block grid, e.g. 4x4x4"),
    "bins": dict(flags=["--bins"], type=int, help="histogram bins for entropy/energy"),
    "pca_threshold": dict(flags=["--pca-threshold"], type=float,
                          help="cumulative contribution threshold in (0, 1]"),
    "kernel": dict(flags=["--kernel"], choices=["linear", "gaussian"], help="SVM kernel"),
    "kernel_scale": dict(flags=["--kernel-scale"], type=float, help="Gaussian kernel scale"),
    "C": dict(flags=["--C"], type=float, help="SVM box constraint"),
    "svm_tol": dict(flags=["--svm-tol"], type=float, help="SMO KKT tolerance"),
    "hidden": dict(flags=["--hidden"], type=int, help="hidden layer size"),
    "activation": dict(flags=["--activation"], choices=["tansig", "relu"],
                       help="hidden activation"),
    "trainer": dict(flags=["--trainer"], choices=["lm", "gdm"], help="ANN trainer"),
    "max_iters": dict(flags=["--max-iters"], type=int, help="training iteration limit"),
    "lambda_": dict(flags=["--lambda"], type=float, metavar="LAMBDA",
                    help="L2 regularization strength"),
    "lr": dict(flags=["--lr"], type=float, help="GDM learning rate"),
    "momentum": dict(flags=["--momentum"], type=float, help="GDM momentum"),
    "goal_sse": dict(flags=["--goal-sse"], type=float, help="early-stop SSE target"),
    "patience": dict(flags=["--patience"], type=int,
                     help="validation iterations without improvement before stopping"),
    "folds": dict(flags=["--folds"], type=int, help="cross-validation folds"),
    "val_fraction": dict(flags=["--val-fraction"], type=float,
                         help="validation share of the cohort"),
    "seed": dict(flags=["--seed"], type=int, help="master RNG seed"),
}

_SYNTH_FIELDS = ["n_ad", "n_hc", "dims", "separation", "noise_sigma", "seed"]
_EXTRACT_FIELDS = ["feature_kind", "block_grid", "bins"]
_MODEL_FIELDS = ["feature_kind", "block_grid", "bins", "pca_threshold", "kernel",
                 "kernel_scale", "C", "svm_tol", "hidden", "activation", "trainer",
                 "max_iters", "lambda_", "lr", "momentum", "goal_sse", "patience", "seed"]
_EVAL_FIELDS = _MODEL_FIELDS[:-1] + ["folds", "val_fraction", "seed"]


def _add_overrides(parser: argparse.ArgumentParser, fields) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON config file; explicit flags override it")
    for name in fields:
        spec = dict(_OVERRIDES[name])
        flags = spec.pop("flags")
        parser.add_argument(*flags, dest=name, default=None, **spec)


def _config_from(args: argparse.Namespace) -> RunConfig:
    overrides = {k: v for k, v in vars(args).items()
                 if k in _RUNCONFIG_FIELDS and v is not None}
    cfg = RunConfig.from_sources(getattr(args, "config", None), overrides)
    return cfg.validate()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxelcad",
        description="Volumetric CAD pipelines: synthesize data, extract features, "
                    "train PCA/SVM/ANN models, cross-validate, predict.",
    )
    parser.add_argument("--version", action="version", version=f"voxelcad {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("synth", help="generate a synthetic cohort and manifest",
                       description="Write seeded synthetic volumes plus manifest.csv.")
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    _add_overrides(p, _SYNTH_FIELDS)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract a feature matrix to CSV",
                       description="Extract grayscale block statistics or raw voxel "
                                   "features for every manifest entry.")
    p.add_argument("--manifest", required=True, help="manifest.csv from synth")
    p.add_argument("--out", required=True, help="feature CSV destination")
    _add_overrides(p, _EXTRACT_FIELDS)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train one pipeline on a full manifest",
                       description="Fit features -> (PCA) -> standardize -> classifier "
                                   "and save a self-contained model bundle.")
    p.add_argument("--manifest", required=True, help="manifest.csv from synth")
    p.add_argument("--model", choices=["svm", "ann"], default="svm", help="classifier")
    p.add_argument("--pca", action=argparse.BooleanOptionalAction, default=True,
                   help="project features with PCA (--no-pca selects the voxel baseline)")
    p.add_argument("--model-out", required=True, help="bundle JSON destination")
    _add_overrides(p, _MODEL_FIELDS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="cross-validate pipelines and write reports",
                       description="Stratified k-fold comparison of the requested "
                                   "pipelines; writes a JSON report and optional CSV.")
    p.add_argument("--manifest", required=True, help="manifest.csv from synth")
    p.add_argument("--pipelines", default="pca-svm,pca-ann,vaf-svm",
                   help="comma list from pca-svm, pca-ann, vaf-svm")
    p.add_argument("--report", required=True, help="report JSON destination")
    p.add_argument("--csv", default=None, help="optional per-fold CSV destination")
    _add_overrides(p, _EVAL_FIELDS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one volume with a saved bundle",
                       description="Load a model bundle and one RVOL volume; print "
                                   "the label and decision score.")
    p.add_argument("--model", required=True, help="bundle JSON from train")
    p.add_argument("--volume", required=True, help="RVOL file to classify")
    p.set_defaults(func=cmd_predict)

    return parser


def cmd_synth(args) -> int:
    cfg = _config_from(args)
    manifest = generate_dataset(cfg.synth_config(), args.out)
    print(manifest)
    return 0


def cmd_extract(args) -> int:
    cfg = _config_from(args)
    fm = build_feature_matrix(args.manifest, cfg.feature_kind_enum(),
                              cfg.block_grid, cfg.bins)
    save_feature_matrix(fm, args.out)
    print(args.out)
    return 0


def cmd_train(args) -> int:
    cfg = _config_from(args)
    if args.pca:
        pid = "PCA-SVM" if args.model == "svm" else "PCA-ANN"
    elif args.model == "svm":
        pid = "VAF-SVM"
    else:
        raise ValueError("no voxel-baseline ANN pipeline; combine --model ann with --pca")
    kind = pipeline_feature_kind(pid, cfg)
    fm = build_feature_matrix(args.manifest, kind, cfg.block_grid, cfg.bins)
    model = fit_pipeline(pid, fm.values, fm.labels, cfg, ann_seed=cfg.seed)
    model.save(args.model_out)
    print(args.model_out)
    return 0


def cmd_eval(args) -> int:
    cfg = _config_from(args)
    ids = [p for p in (s.strip() for s in args.pipelines.split(",")) if p]
    reports = cross_validate(args.manifest, ids, cfg)
    write_report_json(reports, args.report)
    if args.csv:
        write_report_csv(reports, args.csv)
    for r in reports:
        print(f"{r.pipeline}: accuracy {_fmt(r.mean_scores.accuracy)} "
              f"sensitivity {_fmt(r.mean_scores.sensitivity)} "
              f"specificity {_fmt(r.mean_scores.specificity)}")
    return 0


def cmd_predict(args) -> int:
    model = PipelineModel.load(args.model)
    vol = load_volume(args.volume)
    label, score = predict_volume(model, vol)
    print(f"{label} {score:.6f}")
    return 0


def _fmt(value) -> str:
    return "absent" if value is None else f"{value:.4f}"


def dispatch(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, ArithmeticError,
            np.linalg.LinAlgError, VolumeError, SvmError, AnnError, EvalError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
