import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import UNSCORABLE, rewrite_checkpoint, src_env, torn_writes
from imuclr import formats
from imuclr.checkpoint import load_checkpoint
from imuclr.cli import main
from imuclr.simulate import MotionTimeSeries, SkeletonSequence
from imuclr.text_embeddings import DescriptionSet, TextEmbeddingTable
from imuclr.toy import make_toy_sequence


@pytest.fixture
def workspace(tmp_path):
    """Small on-disk dataset: skeletons, descriptions, embeddings, manifest."""
    rng = np.random.default_rng(0)
    skel_dir = tmp_path / "skel"
    skel_dir.mkdir()
    ds = DescriptionSet()
    for i in range(4):
        cls = i % 2
        seq = make_toy_sequence(cls, rng, fs=20.0, duration=0.6)
        formats.write_skeleton_file(skel_dir / f"seq{i}.skel", seq)
        ds.add(f"seq{i}", f"t{cls}")
    desc_path = tmp_path / "descriptions.tsv"
    formats.write_description_file(desc_path, ds)

    dim = 8
    entries = {
        "t0": ("slow wave", np.eye(dim)[0]),
        "t1": ("steady kick", np.eye(dim)[1]),
    }
    emb_path = tmp_path / "embeddings.txt"
    formats.write_embedding_file(emb_path, TextEmbeddingTable(dim=dim, entries=entries))

    # one wrist device recording, 2 labeled samples
    data_dir = tmp_path / "real"
    data_dir.mkdir()
    for i, label in enumerate(("slow wave", "steady kick")):
        device = MotionTimeSeries(rng.standard_normal((6, 12, 1)), np.ones(1, dtype=bool), 20.0)
        formats.write_timeseries_file(data_dir / f"rec{i}.ts", device)
    (data_dir / "mapping.txt").write_text("wrist left_wrist\n")
    manifest = data_dir / "manifest.tsv"
    manifest.write_text(
        "mapping mapping.txt\n"
        "sample\trec0.ts\tslow wave\twrist\t20\t1.0\n"
        "sample\trec1.ts\tsteady kick\twrist\t20\t1.0\n"
    )
    return {
        "root": tmp_path,
        "skel_dir": skel_dir,
        "desc": desc_path,
        "emb": emb_path,
        "manifest": manifest,
        "model": tmp_path / "model.ckpt",
    }


def pretrain_args(ws, extra=()):
    return [
        "pretrain",
        "--data", str(ws["skel_dir"]),
        "--desc", str(ws["desc"]),
        "--embeddings", str(ws["emb"]),
        "--out", str(ws["model"]),
        "--epochs", "1",
        "--batch", "2",
        "--channels", "3",
        "--seed", "3",
        *extra,
    ]


def command_args(ws, tmp_path, command):
    """The arguments of a complete run of `command` on the workspace, and the file it would write."""
    outputs = {"pretrain": ws["model"], "finetune": tmp_path / "tuned.ckpt", "eval": tmp_path / "report.tsv"}
    data = ["--model", str(ws["model"]), "--manifest", str(ws["manifest"])]
    args = {
        "pretrain": pretrain_args(ws),
        "finetune": ["finetune", *data, "--out", str(outputs["finetune"])],
        "eval": ["eval", *data, "--labels", str(ws["emb"]), "--report", str(outputs["eval"])],
    }[command]
    return args, outputs[command]


def assert_nothing_written(ws):
    """No checkpoint and no .simcache: the run stopped before loading the data."""
    assert not ws["model"].exists() and not (ws["skel_dir"] / ".simcache").exists()


def test_simulate_command_is_gone(workspace, tmp_path, capsys):
    # pretrain simulates and caches skeleton files itself; no command exports recordings
    assert main(["simulate", "--skeleton-dir", str(workspace["skel_dir"]), "--out", str(tmp_path / "sim")]) == 1
    out, err = capsys.readouterr()
    assert "usage error" in err and "'simulate'" in err and "run " not in out
    assert not (tmp_path / "sim").exists()


def test_pretrain_on_recordings_without_skeletons_is_located_data_error(workspace, tmp_path, capsys):
    # already simulated recordings are not pretraining input: the simulation's rate, noise
    # and --gravity would have no effect on them. Refused before the banner and any write
    data = tmp_path / "recordings"
    data.mkdir()
    series = MotionTimeSeries(np.zeros((6, 12, 22)), np.ones(22, dtype=bool), 20.0)
    formats.write_timeseries_file(data / "seq0.ts", series)
    formats.write_timeseries_file(data / "seq1.tsb", series, binary=True)
    args = pretrain_args(workspace)
    args[args.index("--data") + 1] = str(data)
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert f"{data}: no .skel files" in err and "run " not in out
    assert not workspace["model"].exists() and sorted(p.name for p in data.iterdir()) == ["seq0.ts", "seq1.tsb"]


def test_pretrain_and_zero_shot_roundtrip(workspace, capsys):
    assert main(pretrain_args(workspace)) == 0
    out = capsys.readouterr().out
    assert "checkpoint_hash=" in out
    assert workspace["model"].exists()
    metrics = (workspace["model"].parent / (workspace["model"].name + ".metrics.tsv")).read_text()
    assert len(metrics.splitlines()) == 1  # one epoch line

    code = main([
        "eval",
        "--model", str(workspace["model"]),
        "--manifest", str(workspace["manifest"]),
        "--labels", str(workspace["emb"]),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "run eval: seed=- " in out  # eval draws no random numbers and takes no --seed
    assert "accuracy" in out and "macro_f1" in out and "r_at_2" in out


def test_zero_shot_command_is_gone(workspace, capsys):
    # eval --labels is the one scoring command
    assert main(["zero-shot", "--model", str(workspace["model"]), "--manifest", str(workspace["manifest"]),
                 "--labels", str(workspace["emb"])]) == 1
    out, err = capsys.readouterr()
    assert "usage error" in err and "zero-shot" in err and "run " not in out


def test_finetune_and_eval(workspace, tmp_path, capsys):
    assert main(pretrain_args(workspace)) == 0
    tuned = tmp_path / "tuned.ckpt"
    code = main([
        "finetune",
        "--model", str(workspace["model"]),
        "--manifest", str(workspace["manifest"]),
        "--out", str(tuned),
        "--epochs", "2",
        "--lr", "0.001",
    ])
    assert code == 0
    ckpt = load_checkpoint(tuned)
    assert ckpt.has_classifier()
    assert ckpt.label_names == ("slow wave", "steady kick")

    report_path = tmp_path / "report.tsv"
    code = main([
        "eval",
        "--model", str(tuned),
        "--manifest", str(workspace["manifest"]),
        "--report", str(report_path),
    ])
    assert code == 0
    lines = report_path.read_text().splitlines()
    assert lines[0].startswith("accuracy\t")
    capsys.readouterr()


def test_eval_with_labels_scores_a_finetuned_model_zero_shot(workspace, tmp_path, capsys):
    # --labels wins over the classifier head: the report is the zero-shot one,
    # here over three candidate labels where the classifier knows two
    assert main(pretrain_args(workspace)) == 0
    tuned = tmp_path / "tuned.ckpt"
    data = ["--manifest", str(workspace["manifest"])]
    assert main(["finetune", "--model", str(workspace["model"]), *data, "--out", str(tuned), "--epochs", "2"]) == 0
    table = formats.read_embedding_file(workspace["emb"])
    table.entries["t2"] = ("idle", 3 * np.ones(table.dim))
    labels_path = tmp_path / "labels.txt"
    formats.write_embedding_file(labels_path, table)
    report = tmp_path / "report.tsv"
    assert main(["eval", "--model", str(tuned), *data, "--labels", str(labels_path), "--report", str(report)]) == 0
    assert "confusion_2\t" in report.read_text()
    capsys.readouterr()
    # label vectors are scored as the file holds them: no flag normalizes them
    assert main(["eval", "--model", str(tuned), *data, "--labels", str(labels_path), "--l2-normalize-text"]) == 1
    out, err = capsys.readouterr()
    assert "unrecognized arguments: --l2-normalize-text" in err and "run " not in out


def test_torn_metrics_write_keeps_previous_file(workspace, capsys):
    assert main(pretrain_args(workspace)) == 0  # warms .simcache, so no cache entry is written below
    metrics = workspace["root"] / "model.ckpt.metrics.tsv"
    metrics.write_bytes(b"previous\n")
    with torn_writes():
        assert main(pretrain_args(workspace)) == 2
    assert "killed midway" in capsys.readouterr().err
    assert metrics.read_bytes() == b"previous\n"
    assert not list(workspace["root"].glob("*.tmp"))


def test_pretrain_on_an_unwritable_data_directory_trains_with_one_warning(workspace, monkeypatch, capsys):
    # chmod does not stop root, so writes into the data directory are refused by a patch
    real = formats.write_atomic

    def refuse_in_data(path, data):
        if str(path).startswith(str(workspace["skel_dir"])):
            raise PermissionError(13, "Permission denied", str(path))
        return real(path, data)

    monkeypatch.setattr(formats, "write_atomic", refuse_in_data)
    with pytest.warns(UserWarning, match="cannot write the cache") as caught:
        assert main(pretrain_args(workspace)) == 0
    assert len([w for w in caught if "cannot write" in str(w.message)]) == 1
    assert workspace["model"].exists()
    assert os.listdir(workspace["skel_dir"] / ".simcache") == []


def test_cold_pretrain_process_exits_with_its_workers_and_prints_nothing_at_exit(workspace):
    # run() reads the pipes to EOF: a simulation worker that outlived the command would still hold them open
    out = subprocess.run([sys.executable, "-m", "imuclr.cli", *pretrain_args(workspace)], env=src_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert len(list((workspace["skel_dir"] / ".simcache").glob("*.tsb"))) == 4


def test_torn_report_write_keeps_previous_file(workspace, capsys):
    assert main(pretrain_args(workspace)) == 0
    report = workspace["root"] / "report.tsv"
    report.write_bytes(b"previous\n")
    zero_shot = [
        "eval",
        "--model", str(workspace["model"]),
        "--manifest", str(workspace["manifest"]),
        "--labels", str(workspace["emb"]),
        "--report", str(report),
    ]
    # the torn writes reach the eval loader's cache entries too: it goes on without them, with one warning
    with torn_writes(), pytest.warns(UserWarning, match="cannot write the cache") as caught:
        assert main(zero_shot) == 2
    assert len(caught) == 1 and "killed midway" in str(caught[0].message)
    assert "killed midway" in capsys.readouterr().err
    assert report.read_bytes() == b"previous\n"
    assert not list(workspace["root"].glob("*.tmp"))
    assert main(zero_shot) == 0
    assert report.read_text().startswith("accuracy\t")


def test_eval_zero_shot_requires_labels(workspace, capsys):
    # checked on the loaded checkpoint before the banner and the manifest,
    # so a missing manifest still gets the usage error
    assert main(pretrain_args(workspace)) == 0
    capsys.readouterr()
    for manifest in (workspace["manifest"], workspace["root"] / "absent.tsv"):
        assert main(["eval", "--model", str(workspace["model"]), "--manifest", str(manifest)]) == 1
        out, err = capsys.readouterr()
        assert "--labels is required" in err and "run eval" not in out


def test_eval_labels_of_another_dim_is_data_error_before_the_manifest(workspace, capsys):
    # the labels are read and checked against the checkpoint's embedding dim
    # before the banner, so a missing manifest still gets the dimension error
    assert main(pretrain_args(workspace)) == 0
    labels = workspace["root"] / "labels5.txt"
    entries = {"a": ("a", np.ones(5)), "b": ("b", -np.ones(5))}
    formats.write_embedding_file(labels, TextEmbeddingTable(dim=5, entries=entries))
    capsys.readouterr()
    args = ["eval", "--model", str(workspace["model"]), "--manifest", str(workspace["root"] / "absent.tsv"),
            "--labels", str(labels)]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert "label embeddings have dim 5, model emits 8" in err and "run eval" not in out


def test_eval_labels_repeating_a_text_is_located_data_error(workspace, capsys):
    # two ids with one text would make two indistinguishable classes; the error
    # names the labels file and the text, before the banner and the manifest
    assert main(pretrain_args(workspace)) == 0
    labels = workspace["root"] / "labels.txt"
    eye = np.eye(8)
    entries = {"a": ("walk", eye[0]), "b": ("run", eye[1]), "c": ("walk", eye[2])}
    formats.write_embedding_file(labels, TextEmbeddingTable(dim=8, entries=entries))
    capsys.readouterr()
    args = ["eval", "--model", str(workspace["model"]), "--manifest", str(workspace["root"] / "absent.tsv"),
            "--labels", str(labels)]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert f"{labels}: labels 'a' and 'c' share the text 'walk'" in err and "run eval" not in out


@pytest.mark.parametrize("header_changes, old, new, message", UNSCORABLE)
def test_eval_of_a_checkpoint_no_model_can_score_is_data_error(workspace, capsys, header_changes, old, new, message):
    assert main(pretrain_args(workspace)) == 0
    model = workspace["model"]
    model.write_bytes(rewrite_checkpoint(model.read_bytes(), header_changes, old, new))
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--manifest", str(workspace["manifest"])]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n" and "run eval" not in out


@pytest.mark.parametrize("token", ["nan", "1e400"])
@pytest.mark.parametrize("command", ["pretrain", "eval"])
def test_non_finite_embedding_is_located_data_error_before_the_banner(workspace, capsys, command, token):
    # a nan label vector would win every window's argmax, and the run would exit 0
    if command == "eval":
        assert main(pretrain_args(workspace)) == 0
    path = workspace["root"] / "bad_embeddings.txt"
    lines = workspace["emb"].read_text().splitlines()
    key, text, values = lines[2].split("\t")
    lines[2] = "\t".join([key, text, " ".join([token] + values.split()[1:])])
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    if command == "pretrain":
        args = pretrain_args(workspace)
        args[args.index("--embeddings") + 1] = str(path)
    else:
        args = ["eval", "--model", str(workspace["model"]), "--manifest", str(workspace["manifest"]),
                "--labels", str(path)]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert f"{path}:3: embedding values must be finite" in err and "run " not in out


def test_unknown_flag_is_usage_error(capsys):
    assert main(["pretrain", "--nonsense"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_missing_file_is_data_error(workspace, capsys):
    args = pretrain_args(workspace)
    args[args.index("--desc") + 1] = str(workspace["root"] / "absent.tsv")
    assert main(args) == 2
    capsys.readouterr()


def test_description_id_missing_from_embeddings_is_located_data_error(workspace, capsys):
    # checked before the banner and before any skeleton is simulated
    with open(workspace["desc"], "a", encoding="utf-8") as fh:
        fh.write("seq1\tpara\tt9\n")
    assert main(pretrain_args(workspace)) == 2
    out, err = capsys.readouterr()
    assert f"{workspace['desc']}: sequence 'seq1' names text id 't9', which {workspace['emb']} lacks" in err
    assert "run " not in out
    assert not (workspace["skel_dir"] / ".simcache").exists()


def test_corrupt_model_is_data_error(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    code = main(["eval", "--model", str(bad), "--manifest", str(workspace["manifest"]),
                 "--labels", str(workspace["emb"])])
    assert code == 2
    capsys.readouterr()


def test_bad_partition_is_usage_error_before_loading(workspace, capsys):
    # the partition is fixed (distance): any --partition is exit 1 before the data is simulated and cached
    for value in ("bogus", "uniform", "distance"):
        assert main(pretrain_args(workspace, ["--partition", value])) == 1, value
        assert "unrecognized arguments: --partition" in capsys.readouterr().err
    assert not (workspace["skel_dir"] / ".simcache").exists()


def test_trainable_text_is_usage_error(workspace, capsys):
    # no flag trains the text side: zero-shot labels live in the frozen table's space
    assert main(pretrain_args(workspace, ["--trainable-text"])) == 1
    assert "trainable" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("pretrain", "--config"), ("finetune", "--config"), ("eval", "--config"),
                                           ("pretrain", "--structure")])
def test_config_and_structure_files_are_usage_errors(workspace, tmp_path, capsys, command, flag):
    # flags are the one way to set a run, and pretraining builds the built-in body22 tree
    path = tmp_path / "settings.txt"
    if flag == "--config":
        path.write_text("seed = 3\n")
    else:
        path.write_text("22\n0 node0 -1\n" + "".join(f"{i} node{i} {i - 1}\n" for i in range(1, 22)))
    args, output = command_args(workspace, tmp_path, command)
    assert main(args + [flag, str(path)]) == 1
    out, err = capsys.readouterr()
    assert f"unrecognized arguments: {flag} {path}" in err and "run " not in out
    assert_nothing_written(workspace)
    assert not output.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("pretrain", "--fs", "20"),
        ("pretrain", "--sigma-accel", "0.05"),
        ("pretrain", "--sigma-gyro", "0.005"),
        ("pretrain", "--kt", "9"),
        ("pretrain", "--mask-min", "1"),
        ("pretrain", "--mask-max", "5"),
        ("pretrain", "--no-rot-aug", None),
        ("finetune", "--window", "6"),
        ("eval", "--window", "6"),
    ],
)
def test_fixed_settings_are_usage_errors_before_loading(workspace, tmp_path, capsys, command, flag, value):
    # pretraining has one recipe (20 Hz simulation, its noise levels, rotations, 1..5 live joints,
    # temporal kernel 9) and finetune and eval window with the checkpoint's training window:
    # a flag for any of them is exit 1 before the banner, even at the value the run uses
    args, output = command_args(workspace, tmp_path, command)
    assert main(args + [flag] + ([value] if value else [])) == 1
    out, err = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in err and "run " not in out
    assert_nothing_written(workspace)
    assert not output.exists()


@pytest.mark.parametrize("extra", [[], ["--gravity"]], ids=["frozen-text", "gravity"])
def test_deterministic_pretrain_byte_identical(workspace, tmp_path, capsys, extra):
    m1, m2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
    for out in (m1, m2):
        args = pretrain_args(workspace, extra)
        args[args.index("--out") + 1] = str(out)
        assert main(args) == 0
    assert m1.read_bytes() == m2.read_bytes()
    capsys.readouterr()


def test_pretrain_flag_variants(workspace, capsys):
    # the objective has one form: one-way loss, raw text vectors, paraphrases sampled
    for flag in ("--symmetric-loss", "--no-text-aug", "--l2-normalize-text"):
        assert main(pretrain_args(workspace, [flag])) == 1, flag
        out, err = capsys.readouterr()
        assert f"unrecognized arguments: {flag}" in err and "run " not in out


def test_config_file_setting_deterministic_is_usage_error(workspace, capsys):
    # determinism is unconditional; no flag or file switches it, so the name is refused
    assert main(pretrain_args(workspace, ["--deterministic"])) == 1
    out, err = capsys.readouterr()
    assert "unrecognized arguments: --deterministic" in err and "run " not in out
    assert not workspace["model"].exists()


def test_pretrain_flags_change_training(workspace, tmp_path, capsys):
    ckpts = {}
    for name, extra in (("base", []), ("gravity", ["--gravity"])):
        ckpts[name] = tmp_path / f"{name}.ckpt"
        args = pretrain_args(workspace, extra)
        args[args.index("--out") + 1] = str(ckpts[name])
        assert main(args) == 0
    capsys.readouterr()
    assert len({path.read_bytes() for path in ckpts.values()}) == 2


def test_structure_joint_count_mismatch_is_data_error(workspace, tmp_path, capsys):
    # pretraining builds the 22-joint body tree; 3-joint skeletons do not fit it. The
    # headers are checked before the banner, any simulation and any cache write, so
    # the fitting file that sorts first is not simulated either
    data = tmp_path / "three"
    data.mkdir()
    for i in range(2):
        positions = np.zeros((3, 4, 3))
        positions[:, :, 0] = np.arange(4) * 0.1 * (i + 1)
        orientations = np.tile([1.0, 0.0, 0.0, 0.0], (3, 4, 1))
        formats.write_skeleton_file(data / f"seq{i}.skel", SkeletonSequence(positions, orientations, 20.0))
    (data / "a.skel").write_bytes((workspace["skel_dir"] / "seq0.skel").read_bytes())
    args = pretrain_args(workspace)
    args[args.index("--data") + 1] = str(data)
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert f"{data / 'seq0.skel'}: sequence 'seq0' has 3 joints, skeleton has 22" in err
    assert "run " not in out
    assert not workspace["model"].exists()
    assert sorted(os.listdir(data)) == ["a.skel", "seq0.skel", "seq1.skel"]  # no .simcache, no index


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("pretrain", "channels", "a"),
        ("pretrain", "channels", "0"),
        ("pretrain", "lr", "inf"),
        ("pretrain", "seed", "-1"),
        ("pretrain", "batch", "1"),
        ("eval", "seed", "-1"),
        ("eval", "seed", "3"),
    ],
)
def test_bad_flag_values_are_usage_errors(workspace, tmp_path, capsys, command, flag, value):
    # checked where the flag is declared: exit 1 before the banner and before any file is read
    if command == "pretrain":
        args = pretrain_args(workspace)
    else:
        args = ["eval", "--model", str(tmp_path / "absent.ckpt"), "--manifest", str(workspace["manifest"]),
                "--labels", str(workspace["emb"])]
    assert main(args + [f"--{flag}", value]) == 1
    out, err = capsys.readouterr()
    assert f"--{flag}" in err and "run " not in out
    assert_nothing_written(workspace)
