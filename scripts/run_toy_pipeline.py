#!/usr/bin/env python3
"""End-to-end demo on the toy dataset, driving the CLI programmatically.

Generates data, pre-trains a small encoder, scores it zero-shot with
`eval --labels` on the held-out rotated recordings (zero_shot.tsv),
fine-tunes, and scores the classifier with `eval` (finetuned.tsv).

Usage: python scripts/run_toy_pipeline.py [--workdir toy_run] [--epochs 150]
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from imuclr.cli import main as cli_main


def run(args):
    print("+ imuclr " + " ".join(args))
    code = cli_main(args)
    if code != 0:
        raise SystemExit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="toy_run")
    parser.add_argument("--epochs", type=int, default=150)
    parser.add_argument("--train", type=int, default=30)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    data = os.path.join(args.workdir, "data")
    subprocess.check_call(
        [sys.executable, os.path.join(ROOT, "scripts", "make_toy_data.py"),
         "--out", data, "--train", str(args.train)]
    )

    model = os.path.join(args.workdir, "model.ckpt")
    run([
        "pretrain",
        "--data", os.path.join(data, "skel"),
        "--desc", os.path.join(data, "descriptions.tsv"),
        "--embeddings", os.path.join(data, "embeddings.txt"),
        "--out", model,
        "--epochs", str(args.epochs),
        "--batch", "16",
        "--lr", "0.0001",
        "--channels", "16,32",
        "--seed", str(args.seed),
    ])

    manifest = os.path.join(data, "real", "manifest.tsv")
    labels = os.path.join(data, "labels.txt")
    run(["eval", "--model", model, "--manifest", manifest, "--labels", labels,
         "--report", os.path.join(args.workdir, "zero_shot.tsv")])

    tuned = os.path.join(args.workdir, "finetuned.ckpt")
    run(["finetune", "--model", model, "--manifest", manifest,
         "--out", tuned, "--epochs", "30", "--lr", "0.001"])
    run(["eval", "--model", tuned, "--manifest", manifest,
         "--report", os.path.join(args.workdir, "finetuned.tsv")])


if __name__ == "__main__":
    main()
