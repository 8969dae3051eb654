import re

import numpy as np
import pytest

from conftest import torn_writes
from imuclr import formats
from imuclr.checkpoint import load_checkpoint
from imuclr.cli import main
from imuclr.simulate import MotionTimeSeries
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
        "--kt", "3",
        "--seed", "3",
        *extra,
    ]


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
    # already simulated recordings are not pretraining input: --fs, --gravity and the
    # noise levels would have no effect on them. Refused before the banner and any write
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
    assert "run eval" in out
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
    with torn_writes():
        assert main(zero_shot) == 2
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


def test_mask_min_zero_is_usage_error(workspace, capsys):
    assert main(pretrain_args(workspace, ["--mask-min", "0"])) == 1
    assert "mask-min" in capsys.readouterr().err


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


def test_config_file_defaults_and_override(workspace, capsys):
    cfg = workspace["root"] / "run.cfg"
    cfg.write_text("epochs = 2\nbatch = 2\nchannels = 3\nkt = 3\nseed = 3\n")
    args = [
        "pretrain",
        "--config", str(cfg),
        "--data", str(workspace["skel_dir"]),
        "--desc", str(workspace["desc"]),
        "--embeddings", str(workspace["emb"]),
        "--out", str(workspace["model"]),
        "--epochs", "1",  # explicit flag beats the config file
    ]
    assert main(args) == 0
    metrics = (workspace["model"].parent / (workspace["model"].name + ".metrics.tsv")).read_text()
    assert len(metrics.splitlines()) == 1
    capsys.readouterr()


@pytest.mark.parametrize("spelling", [["--config={}"], ["--conf", "{}"]])
def test_config_file_alternate_spellings(workspace, capsys, spelling):
    cfg = workspace["root"] / "run.cfg"
    cfg.write_text("seed = 5\n")
    flags = [part.format(cfg) for part in spelling]
    args = pretrain_args(workspace)
    seed = args.index("--seed")
    del args[seed:seed + 2]
    assert main(args + flags) == 0
    assert "seed=5" in capsys.readouterr().out
    cfg.write_text("bogus = 1\n")
    assert main(args + flags) == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("lines", ["seed = 3\nseed = 5\n", "sigma-accel = 0.1\nsigma_accel = 0.2\n"],
                         ids=["same-spelling", "dash-and-underscore"])
def test_config_file_repeated_flag_is_usage_error(workspace, capsys, lines):
    # a second key for a flag the file already set is refused, not read as "the last one wins"
    cfg = workspace["root"] / "run.cfg"
    cfg.write_text(lines)
    assert main(pretrain_args(workspace, ["--config", str(cfg)])) == 1
    out, err = capsys.readouterr()
    second_key = lines.splitlines()[1].split("=")[0].strip()
    assert "usage error" in err and repr(second_key) in err and "run " not in out
    assert_nothing_written(workspace)


def test_config_file_naming_another_config_is_usage_error(workspace, capsys):
    # the nested file would never be read, so its settings would be silently dropped
    inner = workspace["root"] / "inner.cfg"
    inner.write_text("seed = 9\n")
    cfg = workspace["root"] / "outer.cfg"
    cfg.write_text(f"config = {inner}\n")
    assert main(pretrain_args(workspace, ["--config", str(cfg)])) == 1
    out, err = capsys.readouterr()
    assert "usage error" in err and "'config'" in err and "run " not in out
    assert_nothing_written(workspace)


def test_config_file_unknown_key(workspace, capsys):
    # the objective has no switches: their names are unknown keys like any other
    cfg = workspace["root"] / "run.cfg"
    eval_args = ["eval", "--model", str(workspace["model"]), "--manifest", str(workspace["manifest"]),
                 "--labels", str(workspace["emb"])]
    cases = [(pretrain_args(workspace), key) for key in ("bogus", "symmetric-loss", "no-text-aug", "l2-normalize-text")]
    for args, key in cases + [(eval_args, "l2-normalize-text")]:
        cfg.write_text(f"{key} = 1\n")
        assert main(args + ["--config", str(cfg)]) == 1, (args[0], key)
        out, err = capsys.readouterr()
        assert f"unknown flag {key!r}" in err and "run " not in out


def test_config_file_bad_choice_is_usage_error_before_loading(workspace, capsys):
    # checked like --partition bogus: exit 1 before the data is simulated and cached
    cfg = workspace["root"] / "run.cfg"
    cfg.write_text("partition = bogus\n")
    assert main(pretrain_args(workspace, ["--config", str(cfg)])) == 1
    assert "partition" in capsys.readouterr().err
    assert not (workspace["skel_dir"] / ".simcache").exists()


def test_config_file_switch_values(workspace, tmp_path, capsys):
    cfg = workspace["root"] / "run.cfg"
    cfg.write_text("gravity = maybe\n")
    assert main(pretrain_args(workspace, ["--config", str(cfg)])) == 1
    assert "gravity" in capsys.readouterr().err
    assert_nothing_written(workspace)
    cfg.write_text("gravity = Yes\n")
    ckpts = {}
    for name, extra in (("file", ["--config", str(cfg)]), ("flag", ["--gravity"]), ("off", [])):
        ckpts[name] = tmp_path / f"{name}.ckpt"
        args = pretrain_args(workspace, extra)
        args[args.index("--out") + 1] = str(ckpts[name])
        assert main(args) == 0
    capsys.readouterr()
    assert ckpts["file"].read_bytes() == ckpts["flag"].read_bytes()
    assert ckpts["file"].read_bytes() != ckpts["off"].read_bytes()


def test_config_file_setting_deterministic_is_usage_error(workspace, capsys):
    # determinism is unconditional; the flag that claimed to switch it is gone
    cfg = workspace["root"] / "run.cfg"
    cfg.write_text("deterministic = true\n")
    assert main(pretrain_args(workspace, ["--config", str(cfg)])) == 1
    assert "deterministic" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_trainable_text_is_usage_error(workspace, capsys, source):
    # no flag trains the text side: zero-shot labels live in the frozen table's space
    extra = ["--trainable-text"]
    if source == "config":
        cfg = workspace["root"] / "run.cfg"
        cfg.write_text("trainable-text = true\n")
        extra = ["--config", str(cfg)]
    assert main(pretrain_args(workspace, extra)) == 1
    assert "trainable" in capsys.readouterr().err


def test_mask_max_above_joint_count_is_usage_error_before_simulation(workspace, capsys):
    assert main(pretrain_args(workspace, ["--mask-max", "30"])) == 1
    out, err = capsys.readouterr()
    assert "--mask-max exceeds the joint count" in err and "run " not in out
    assert not (workspace["skel_dir"] / ".simcache").exists()


@pytest.mark.parametrize("extra", [[], ["--no-rot-aug"]], ids=["frozen-text", "no-rot-aug"])
def test_deterministic_pretrain_byte_identical(workspace, tmp_path, capsys, extra):
    m1, m2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
    for out in (m1, m2):
        args = pretrain_args(workspace, extra)
        args[args.index("--out") + 1] = str(out)
        assert main(args) == 0
    assert m1.read_bytes() == m2.read_bytes()
    capsys.readouterr()


def test_pretrain_flag_variants(workspace, capsys):
    # each optional switch must be accepted and produce a checkpoint
    for extra in (["--no-rot-aug"], ["--partition", "uniform"]):
        assert main(pretrain_args(workspace, extra)) == 0, extra
    capsys.readouterr()
    # the objective has one form: one-way loss, raw text vectors, paraphrases sampled
    for flag in ("--symmetric-loss", "--no-text-aug", "--l2-normalize-text"):
        assert main(pretrain_args(workspace, [flag])) == 1, flag
        out, err = capsys.readouterr()
        assert f"unrecognized arguments: {flag}" in err and "run " not in out


def test_pretrain_flags_change_training(workspace, tmp_path, capsys):
    base, variant = tmp_path / "base.ckpt", tmp_path / "variant.ckpt"
    args = pretrain_args(workspace)
    args[args.index("--out") + 1] = str(base)
    assert main(args) == 0
    args = pretrain_args(workspace, ["--no-rot-aug"])
    args[args.index("--out") + 1] = str(variant)
    assert main(args) == 0
    assert base.read_bytes() != variant.read_bytes()
    capsys.readouterr()


def test_structure_override(workspace, tmp_path, capsys):
    # a custom 22-joint structure file (different tree) is accepted
    lines = ["22"] + [f"{i} node{i} {i - 1}" for i in range(22)]
    lines[1] = "0 node0 -1"
    structure_path = tmp_path / "structure.txt"
    structure_path.write_text("\n".join(lines) + "\n")
    assert main(pretrain_args(workspace, ["--structure", str(structure_path)])) == 0
    from imuclr.checkpoint import load_checkpoint

    ckpt = load_checkpoint(workspace["model"])
    assert ckpt.structure.names[3] == "node3"
    capsys.readouterr()


def test_structure_joint_count_mismatch_is_data_error(workspace, tmp_path, capsys):
    # a 3-joint tree against 22-joint recordings; --mask-max fits the tree
    structure_path = tmp_path / "three.txt"
    structure_path.write_text("3\n0 a -1\n1 b 0\n2 c 1\n")
    args = pretrain_args(workspace, ["--structure", str(structure_path), "--mask-max", "2"])
    assert main(args) == 2
    assert re.search(r"22 joints.*skeleton has 3", capsys.readouterr().err)


def test_zero_shot_window_flag(workspace, capsys):
    assert main(pretrain_args(workspace)) == 0
    code = main([
        "eval", "--model", str(workspace["model"]),
        "--manifest", str(workspace["manifest"]),
        "--labels", str(workspace["emb"]),
        "--window", "6",
    ])
    assert code == 0
    capsys.readouterr()


def test_config_file_supplies_required_flags(workspace, tmp_path, capsys):
    cfg = workspace["root"] / "run.cfg"
    cfg.write_text(
        f"data = {workspace['skel_dir']}\ndesc = {workspace['desc']}\n"
        f"embeddings = {workspace['emb']}\nout = {tmp_path / 'file.ckpt'}\n"
    )
    flags = pretrain_args(workspace)
    flags[flags.index("--out") + 1] = str(tmp_path / "flag.ckpt")
    assert main(["pretrain", "--config", str(cfg), *flags[flags.index("--epochs"):]]) == 0
    assert main(flags) == 0
    capsys.readouterr()
    assert (tmp_path / "file.ckpt").read_bytes() == (tmp_path / "flag.ckpt").read_bytes()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("pretrain", "channels", "a"),
        ("pretrain", "channels", "0"),
        ("pretrain", "kt", "-1"),
        ("pretrain", "fs", "inf"),
        ("pretrain", "seed", "-1"),
        ("pretrain", "sigma-accel", "inf"),
        ("eval", "seed", "-1"),
        ("eval", "window", "-1"),
    ],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_flag_values_are_usage_errors(workspace, tmp_path, capsys, command, flag, value, source):
    # checked where the flag is declared: exit 1 before the banner and before any file is read
    if command == "pretrain":
        args = pretrain_args(workspace)
    else:
        args = ["eval", "--model", str(tmp_path / "absent.ckpt"), "--manifest", str(workspace["manifest"]),
                "--labels", str(workspace["emb"])]
    if source == "flag":
        args += [f"--{flag}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = {value}\n")
        args += ["--config", str(cfg)]
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert f"--{flag}" in err and "run " not in out
    assert_nothing_written(workspace)
