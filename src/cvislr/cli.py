"""Command-line pipeline: gen-data, train, predict, ensemble, evaluate.

Every subcommand echoes its fully resolved configuration (defaults included)
before doing any work, takes all randomness from an explicit --seed, and
exits 0 on success, 2 on usage errors, 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from . import data, ensemble, train as train_mod, vst
from .errors import CvislrError


def _parse_geometry(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if (len(parts) != 3 or not all(p.isdigit() for p in parts)
            or any(int(p) > m for p, m in zip(parts, vst.FULL_GEOMETRY))):
        raise argparse.ArgumentTypeError(
            f"geometry must look like 8x32x32 and may not exceed the paper's "
            f"clip size {vst.FULL_GEOMETRY}, got {text!r}")
    return tuple(int(p) for p in parts)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}")
    return value


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _echo_config(args: argparse.Namespace) -> None:
    skip = {"func", "command"}
    print(f"command: {args.command}")
    for key in sorted(vars(args)):
        if key not in skip:
            print(f"config {key}={getattr(args, key)}")


def _manifest_path(path: str) -> str:
    if os.path.isdir(path):
        return os.path.join(path, data.MANIFEST_NAME)
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    manifest = data.generate_dataset(args.classes, args.signers, args.geometry,
                                     args.out, seed=args.seed)
    for split in data.SPLITS:
        print(f"{split}: {len(manifest.split(split))} clips")
    print(f"manifest: {os.path.join(args.out, data.MANIFEST_NAME)}")
    return 0


def _build_model_config(args, manifest) -> vst.VstConfig:
    maker = vst.make_toy_config if args.arch == "toy" else vst.make_config
    cfg = maker(args.size, manifest.num_classes, geometry=manifest.geometry)
    overrides = {}
    if args.depths is not None:
        if len(args.depths) != 4:
            raise CvislrError(f"--depths needs 4 values, got {args.depths}")
        if any(d > m for d, m in zip(args.depths, vst.FULL_DEPTHS)):
            raise CvislrError(f"--depths may not exceed the paper's per-stage depths "
                              f"{vst.FULL_DEPTHS}, got {args.depths}")
        overrides["depths"] = args.depths
    if args.window is not None:
        if len(args.window) != 3:
            raise CvislrError(f"--window needs 3 values, got {args.window}")
        overrides["window"] = args.window
    return replace(cfg, **overrides) if overrides else cfg


def cmd_train(args) -> int:
    manifest = data.load_manifest(_manifest_path(args.data))
    # the head is sized by num_classes, so a class no clip trains is rejected
    covered = len({r.gloss_id for r in manifest.split("train")})
    if covered != manifest.num_classes:
        raise CvislrError(f"num_classes={manifest.num_classes}, but the train split "
                          f"covers {covered} classes; every class needs a train clip")
    cfg = _build_model_config(args, manifest)
    print(f"model: size={cfg.size} C={cfg.embed_dim} depths={cfg.depths} "
          f"heads={cfg.heads} window={cfg.window} classes={cfg.num_classes}")
    params = vst.init_params(cfg, seed=args.seed)
    tc = train_mod.TrainConfig(
        learning_rate=args.lr, weight_decay=args.weight_decay,
        batch_size=args.batch_size, epochs=args.epochs, seed=args.seed)
    curve = train_mod.train(cfg, params, manifest, tc, modality=args.modality,
                            log=print)
    vst.save_checkpoint(args.out, cfg, params)
    print(f"checkpoint: {args.out}")
    if args.loss_curve:
        train_mod.save_loss_curve(args.loss_curve, curve)
        print(f"loss curve: {args.loss_curve}")
    return 0


def cmd_predict(args) -> int:
    cfg, params = vst.load_checkpoint(args.checkpoint)
    manifest = data.load_manifest(_manifest_path(args.data))
    pset = train_mod.predict(cfg, params, manifest, args.split,
                             modality=args.modality,
                             batch_size=args.batch_size)
    ensemble.write_predictions(args.out, pset)
    print(f"predictions: {args.out} ({pset.num_samples} samples, "
          f"{pset.num_classes} classes)")
    return 0


def cmd_ensemble(args) -> int:
    if args.inputs and (args.rgb or args.depth):
        raise CvislrError("use either --inputs (size fusion) or --rgb/--depth "
                          "(modality fusion), not both")
    if args.inputs:
        paths = args.inputs
        default = ensemble.DEFAULT_SIZE_WEIGHTS if len(paths) == 3 else (1.0,) * len(paths)
    elif args.rgb and args.depth:
        paths, default = [args.rgb, args.depth], ensemble.DEFAULT_MODALITY_WEIGHTS
    else:
        raise CvislrError("ensemble needs --inputs, or both --rgb and --depth")
    weights = default if args.weights is None else args.weights
    fused = ensemble.single_modal_ensemble(
        [ensemble.read_predictions(p) for p in paths], weights)
    ensemble.write_predictions(args.out, fused)
    print(f"fused: {args.out} (weights {tuple(round(w, 6) for w in ensemble.normalize_weights(weights))})")
    return 0


def cmd_evaluate(args) -> int:
    pset = ensemble.read_predictions(args.pred)
    manifest = data.load_manifest(_manifest_path(args.data))
    report = train_mod.evaluate(pset, manifest, args.split)
    if args.out:
        train_mod.save_report(args.out, report)
        print(f"report: {args.out}")
        print(f"overall_acc: {report.accuracy:.6f}")
    else:
        print(train_mod.format_report(report), end="")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvislr",
        description="Cross-view isolated sign language recognition pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="render the synthetic multi-view dataset")
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--signers", type=int, default=6,
                   help="signers per class per split")
    p.add_argument("--geometry", type=_parse_geometry, default=(8, 32, 32),
                   metavar="TxHxW", help="clip extents, at most 32x224x224")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one model on the train split")
    p.add_argument("--data", required=True, help="dataset dir or manifest path")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--size", choices=("small", "base", "large"), default="small")
    p.add_argument("--modality", choices=data.MODALITIES, default="rgb")
    p.add_argument("--arch", choices=("toy", "full"), default="toy",
                   help="toy = desk-scale channels/depths, full = full-scale channels/depths")
    p.add_argument("--depths", type=_parse_ints, default=None,
                   metavar="L1,L2,L3,L4", help="blocks per stage, at most 2,2,18,2")
    p.add_argument("--window", type=_parse_ints, default=None, metavar="wT,wH,wW")
    p.add_argument("--lr", type=_positive_float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=0.05)
    p.add_argument("--batch-size", type=_positive_int, default=8)
    p.add_argument("--epochs", type=_positive_int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loss-curve", default=None, help="optional loss curve path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score one split with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=data.SPLITS, default="test")
    p.add_argument("--modality", choices=data.MODALITIES, default="rgb")
    p.add_argument("--batch-size", type=_positive_int, default=8)
    p.add_argument("--out", required=True, help="PRED output path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ensemble", help="fuse prediction files")
    p.add_argument("--inputs", nargs="+", default=None,
                   help="same-modality PRED files (large base small order "
                        "for the default weights)")
    p.add_argument("--weights", type=_parse_floats, default=None,
                   help="one ratio per input; default 0.4,0.4,0.2 for 3 --inputs "
                        "(uniform for other counts), 0.65,0.35 for --rgb/--depth")
    p.add_argument("--rgb", default=None, help="fused RGB PRED file")
    p.add_argument("--depth", default=None, help="fused depth PRED file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("evaluate", help="top-1 accuracy report for a PRED file")
    p.add_argument("--pred", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=data.SPLITS, default="test")
    p.add_argument("--out", default=None, help="report path (stdout if omitted)")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _echo_config(args)
    try:
        return args.func(args)
    except (CvislrError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
