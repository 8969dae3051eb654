"""Command-line surface for the whole pipeline.

Subcommands: pretrain, finetune, eval. eval is the one scoring command:
zero-shot against the label embeddings of --labels, or through the
classifier that finetune attached. Every run prints a banner with the seed
(`-` for eval, which draws no random numbers), a hash of the resolved
options and the hash of any checkpoint read or written, which together pin
down every reported number.

Exit codes: 0 success, 1 usage error (bad flags or flag values), 2 data
error (unreadable or malformed files, corrupt checkpoints).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys

from . import formats
from .checkpoint import load_checkpoint, save_checkpoint
from .contrastive import TrainConfig, pretrain
from .datasets import file_hash, load_eval_dataset, load_pretrain_samples
from .errors import DimMismatch, ParseError, PipelineError
from .graph_encoder import EncoderConfig
from .inference import FinetuneConfig, LabelSet, Model, evaluate, finetune
from .simulate import NoiseParams
from .skeleton import body22


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise UsageError(message)


def _config_hash(args):
    items = sorted(f"{k}={v}" for k, v in vars(args).items() if k != "func")
    return hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()[:12]


def _banner(command, args, checkpoint_hash="-"):
    print(
        f"run {command}: seed={getattr(args, 'seed', '-')} "
        f"config_hash={_config_hash(args)} checkpoint_hash={checkpoint_hash}"
    )


def _require(condition, message):
    if not condition:
        raise UsageError(message)


def _checked(convert, ok, want):
    """An argparse type: convert the text, then require ok(value), else a usage error naming `want`."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")

    return parse


def _int_at_least(low):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


def _widths(text):
    return [int(c) for c in text.split(",") if c]


NONNEGATIVE_INT = _int_at_least(0)
ODD_INT = _checked(int, lambda v: v > 0 and v % 2 == 1, "a positive odd integer")
POSITIVE_FLOAT = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
NONNEGATIVE_FLOAT = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
# kept as the string given, so the config hash of a run does not depend on the check
WIDTHS = _checked(str, lambda text: min(_widths(text), default=0) > 0, "comma-separated integers > 0")


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------


def _encoder_config(args, embed_dim):
    blocks, c_in = [], 6
    for c_out in _widths(args.channels):
        blocks.append((c_in, c_out, args.kt))
        c_in = c_out
    return EncoderConfig(blocks=tuple(blocks), embedding_dim=embed_dim)


def cmd_pretrain(args):
    _require(args.mask_max >= args.mask_min, "--mask-max must be >= --mask-min")
    table = formats.read_embedding_file(args.embeddings)
    descriptions = formats.read_description_file(args.desc)
    # every row's text id is checked here, before the banner and any simulation
    for seq_id in {**descriptions.originals, **descriptions.paraphrases}:
        for text_id in descriptions.candidates(seq_id):
            if text_id not in table.entries:
                raise ParseError(f"sequence {seq_id!r} names text id {text_id!r}, which {args.embeddings} lacks",
                                 path=args.desc)
    structure = body22()
    _require(args.mask_max <= structure.num_joints, "--mask-max exceeds the joint count")
    noise = NoiseParams(sigma_accel=args.sigma_accel, sigma_gyro=args.sigma_gyro)
    samples = load_pretrain_samples(
        args.data, fs=args.fs, noise=noise, seed=args.seed, gravity=args.gravity, num_joints=structure.num_joints
    )
    encoder_cfg = _encoder_config(args, table.dim)
    cfg = TrainConfig(
        batch_size=args.batch,
        epochs=args.epochs,
        lr=args.lr,
        mask_min=args.mask_min,
        mask_max=args.mask_max,
        seed=args.seed,
        rotation_augment=not args.no_rot_aug,
    )
    _banner("pretrain", args)
    metrics_path = args.out + ".metrics.tsv"
    metrics = []

    def on_epoch(epoch, mean_loss, inv_gamma):
        line = f"{epoch}\t{mean_loss!r}\t{inv_gamma!r}"
        print(line)
        metrics.append(line + "\n")

    ckpt = pretrain(samples, descriptions, table, structure, encoder_cfg, cfg, on_epoch=on_epoch)
    formats.write_atomic(metrics_path, "".join(metrics).encode("utf-8"))
    save_checkpoint(args.out, ckpt)
    print(f"saved {args.out} checkpoint_hash={file_hash(args.out)} metrics={metrics_path}")
    return 0


# ---------------------------------------------------------------------------
# finetune / eval
# ---------------------------------------------------------------------------


def _print_report(report, report_path=None):
    print(report.as_text())
    if report_path:
        lines = [f"{key}\t{value}\n" for key, value in report.as_key_values()]
        formats.write_atomic(report_path, "".join(lines).encode("utf-8"))
        print(f"report written to {report_path}")


def _model_and_dataset(command, args, ckpt):
    """Banner, then the model of a loaded checkpoint and the manifest's windows (--window or the training window)."""
    _banner(command, args, file_hash(args.model))
    window = args.window if args.window else ckpt.train_window
    dataset = load_eval_dataset(args.manifest, ckpt.structure, ckpt.sample_rate, window=window)
    return Model(ckpt), dataset


def cmd_finetune(args):
    model, dataset = _model_and_dataset("finetune", args, load_checkpoint(args.model))
    names = tuple(sorted({label for _, label in dataset}))
    if model.ckpt.label_names is not None:
        names = model.ckpt.label_names  # keep the existing classifier's class order
    labels = LabelSet(names=names)
    cfg = FinetuneConfig(epochs=args.epochs, lr=args.lr, batch_size=args.batch, seed=args.seed)
    model = finetune(model, dataset, labels, cfg)
    save_checkpoint(args.out, model.to_checkpoint())
    print(f"saved {args.out} checkpoint_hash={file_hash(args.out)}")
    return 0


def cmd_eval(args):
    # the labels are read and checked against the checkpoint before the banner and the manifest
    ckpt = load_checkpoint(args.model)
    if args.labels:
        table = formats.read_embedding_file(args.labels)
        if table.dim != ckpt.config.embedding_dim:
            raise DimMismatch(
                f"{args.labels}: label embeddings have dim {table.dim}, model emits {ckpt.config.embedding_dim}"
            )
        ids = table.ids()
        names = tuple(table.text(i) for i in ids)
        for k, text in enumerate(names):
            if text in names[:k]:
                first = ids[names.index(text)]
                raise ParseError(f"labels {first!r} and {ids[k]!r} share the text {text!r}", path=args.labels)
        labels = LabelSet(names=names, embeddings=table.matrix(ids))
    else:
        _require(ckpt.has_classifier(), "--labels is required to evaluate a model without a classifier")
        if ckpt.label_names is None:
            raise PipelineError("checkpoint has a classifier but no label names")
        labels = LabelSet(names=ckpt.label_names)
    model, dataset = _model_and_dataset("eval", args, ckpt)
    _print_report(evaluate(model, dataset, labels), args.report)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser():
    parser = Parser(prog="imuclr", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="contrastive pre-training against text embeddings")
    p.add_argument("--seed", type=NONNEGATIVE_INT, default=0)
    p.add_argument("--data", required=True, help="directory of .skel skeleton files")
    p.add_argument("--desc", required=True, help="description assignment file")
    p.add_argument("--embeddings", required=True, help="text embedding file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--epochs", type=NONNEGATIVE_INT, default=1)
    p.add_argument("--batch", type=_int_at_least(2), default=64)
    p.add_argument("--lr", type=POSITIVE_FLOAT, default=0.0001)
    p.add_argument("--mask-min", type=_int_at_least(1), default=1, help="joints are 1..V")
    p.add_argument("--mask-max", type=int, default=5)
    p.add_argument("--no-rot-aug", action="store_true")
    p.add_argument("--fs", type=POSITIVE_FLOAT, default=20.0)
    p.add_argument("--sigma-accel", type=NONNEGATIVE_FLOAT, default=0.05)
    p.add_argument("--sigma-gyro", type=NONNEGATIVE_FLOAT, default=0.005)
    p.add_argument("--gravity", action="store_true")
    p.add_argument("--channels", type=WIDTHS, default="32,64", help="comma-separated block widths")
    p.add_argument("--kt", type=ODD_INT, default=9, help="temporal kernel size (odd)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="attach and train a linear classifier")
    p.add_argument("--seed", type=NONNEGATIVE_INT, default=0)
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=NONNEGATIVE_INT, default=50)
    p.add_argument("--lr", type=POSITIVE_FLOAT, default=0.0001)
    p.add_argument("--batch", type=_int_at_least(1), default=16)
    p.add_argument("--window", type=NONNEGATIVE_INT, default=0)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="score a checkpoint on a manifest, zero-shot or through its classifier")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--labels", help="label embeddings to score zero-shot against; without it, the classifier")
    p.add_argument("--window", type=NONNEGATIVE_INT, default=0, help="override evaluation window length")
    p.add_argument("--report", help="write metrics to a key-value file")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
