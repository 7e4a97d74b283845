"""Command-line pipeline: gen-data, train, predict, ensemble, evaluate.

Every subcommand echoes its fully resolved configuration (defaults included)
before doing any work, takes all randomness from an explicit --seed, and
exits 0 on success, 2 on usage errors, 1 on runtime failures.  A flag's
value is checked by the library rule that owns it (the seed rule, the
training recipe, the model's geometry), so a value that rule refuses is a
usage error that names the flag.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import data, ensemble, train as train_mod, vst
from .errors import CvislrError, GeometryError, check_positive_int, check_seed


def _arg(convert, check=lambda value: None):
    """An argparse type: ``convert`` the text, then run ``check``, the library rule
    that owns the value, on it; a ValueError from either is a usage error (exit 2)."""
    def parse(text: str):
        try:
            value = convert(text)
            check(value)
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"{text!r}: {e}") from e
        return value
    return parse


def _items(kind, sep: str = ","):
    """A converter for ``sep``-separated items, each read by ``kind``."""
    return lambda text: tuple(kind(p) for p in text.lower().split(sep))


_GEOMETRY = _arg(_items(int, "x"), lambda g: vst.make_toy_config("small", 2, geometry=g))
_SEED = _arg(int, check_seed)
_BATCH_SIZE = _arg(int, partial(check_positive_int, "batch_size"))


def _echo_config(args: argparse.Namespace) -> None:
    print(f"command: {args.command}")
    for key in sorted(vars(args).keys() - {"func", "command"}):
        print(f"config {key}={getattr(args, key)}")


def _manifest_path(path: str) -> str:
    return os.path.join(path, data.MANIFEST_NAME) if os.path.isdir(path) else path


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    manifest = data.generate_dataset(args.classes, args.signers, args.geometry,
                                     args.out, seed=args.seed)
    for split in data.SPLITS:
        print(f"{split}: {len(manifest.split(split))} clips")
    print(f"manifest: {os.path.join(args.out, data.MANIFEST_NAME)}")
    return 0


def cmd_train(args) -> int:
    manifest = data.load_manifest(_manifest_path(args.data))
    maker = vst.make_toy_config if args.arch == "toy" else vst.make_config
    try:
        cfg = maker(args.size, manifest.num_classes, geometry=manifest.geometry)
    except GeometryError as e:
        raise GeometryError(f"manifest geometry {manifest.geometry}: {e}") from e
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
    p.add_argument("--classes", type=_arg(int, vst.check_num_classes), default=8)
    p.add_argument("--signers", type=_arg(int, partial(check_positive_int, "signers_per_class")),
                   default=6, help="signers per class per split")
    p.add_argument("--geometry", type=_GEOMETRY, default=(8, 32, 32),
                   metavar="TxHxW", help="clip extents, at most 32x224x224")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one model on the train split")
    p.add_argument("--data", required=True, help="dataset dir or manifest path")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--size", choices=tuple(vst.SIZE_CHANNELS), default="small")
    p.add_argument("--modality", choices=data.MODALITIES, default="rgb")
    p.add_argument("--arch", choices=("toy", "full"), default="toy",
                   help="toy = desk-scale channels/depths, full = full-scale channels/depths")
    recipe = train_mod.TrainConfig()  # the library's default recipe
    p.add_argument("--lr", type=_arg(float, lambda lr: train_mod.TrainConfig(learning_rate=lr)),
                   default=recipe.learning_rate)
    p.add_argument("--weight-decay", default=recipe.weight_decay,
                   type=_arg(float, lambda wd: train_mod.TrainConfig(weight_decay=wd)))
    p.add_argument("--batch-size", type=_BATCH_SIZE, default=recipe.batch_size)
    p.add_argument("--epochs", type=_arg(int, partial(check_positive_int, "epochs")),
                   default=recipe.epochs)
    p.add_argument("--seed", type=_SEED, default=recipe.seed)
    p.add_argument("--loss-curve", default=None, help="optional loss curve path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score one split with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=data.SPLITS, default="test")
    p.add_argument("--modality", choices=data.MODALITIES, default="rgb")
    p.add_argument("--batch-size", type=_BATCH_SIZE, default=8)
    p.add_argument("--out", required=True, help="PRED output path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ensemble", help="fuse prediction files")
    p.add_argument("--inputs", nargs="+", default=None,
                   help="same-modality PRED files (large base small order "
                        "for the default weights)")
    p.add_argument("--weights", type=_arg(_items(float)), default=None,
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
