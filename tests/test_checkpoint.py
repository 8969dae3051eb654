import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNSCORABLE, chain_structure, position, rewrite_checkpoint, torn_writes
from imuclr.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from imuclr.errors import CorruptCheckpoint, VersionMismatch
from imuclr.graph_encoder import EncoderConfig, init_encoder_params
from imuclr.inference import Model
from imuclr.simulate import MotionTimeSeries


def sample_checkpoint(rng=None):
    """A fine-tuned checkpoint: every encoder parameter, log(1/gamma) and a 2-class classifier."""
    rng = rng or np.random.default_rng(0)
    cfg = EncoderConfig(blocks=((6, 4, 3), (4, 8, 5)), partition="distance", embedding_dim=16)
    params = {name: p.value for name, p in init_encoder_params(cfg, rng).items()}
    params["log_inv_gamma"] = np.asarray(2.659)
    params["classifier.weight"] = rng.standard_normal((16, 2))
    params["classifier.bias"] = rng.standard_normal(2)
    return Checkpoint(
        config=cfg,
        structure=chain_structure(5),
        sample_rate=20.0,
        params=params,
        train_window=40,
        label_names=("walk", "run"),
    )


def test_save_load_save_byte_identical(tmp_path):
    ckpt = sample_checkpoint()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, ckpt)
    back = load_checkpoint(p1)
    save_checkpoint(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_interrupted_save_keeps_the_old_checkpoint(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint())
    old = path.read_bytes()
    with torn_writes(), pytest.raises(OSError, match="killed midway"):
        save_checkpoint(path, sample_checkpoint(np.random.default_rng(1)))
    assert path.read_bytes() == old and os.listdir(tmp_path) == ["m.ckpt"]


def test_load_restores_everything(tmp_path):
    ckpt = sample_checkpoint()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, ckpt)
    back = load_checkpoint(p)
    assert back.config == ckpt.config
    assert back.structure == ckpt.structure
    assert back.sample_rate == ckpt.sample_rate
    assert back.train_window == 40
    assert back.label_names == ("walk", "run")
    assert list(back.params) == list(ckpt.params)  # order preserved
    for k in ckpt.params:
        assert np.array_equal(back.params[k], ckpt.params[k])


def test_truncated_file_rejected(tmp_path):
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, sample_checkpoint())
    blob = p.read_bytes()
    for cut in (5, 11, len(blob) // 2, len(blob) - 1):
        (tmp_path / "t.ckpt").write_bytes(blob[:cut])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(tmp_path / "t.ckpt")


def test_version_bump_reports_mismatch(tmp_path):
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, sample_checkpoint())
    blob = bytearray(p.read_bytes())
    blob[8] = 99  # version field is right after the magic
    p.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        load_checkpoint(p)


def test_flipped_payload_byte_fails_crc(tmp_path):
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, sample_checkpoint())
    blob = bytearray(p.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    p.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(p)


def test_bad_magic(tmp_path):
    p = tmp_path / "a.ckpt"
    p.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(p)


def test_garbage_header_with_valid_crc(tmp_path):
    import struct
    import zlib

    from imuclr.checkpoint import FORMAT_VERSION, MAGIC

    body = b"not json at all"
    blob = MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<I", len(body)) + body
    blob += struct.pack("<I", 0)  # zero parameters
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
    p = tmp_path / "a.ckpt"
    p.write_bytes(blob)
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(p)


def test_checkpoint_naming_the_uniform_partition_is_corrupt(tmp_path):
    # the uniform partition is gone; a checkpoint that names it is refused, not loaded with another graph
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, sample_checkpoint())
    raw = p.read_bytes()
    assert raw.count(b'"distance"') == 1
    body = raw[:-4].replace(b'"distance"', b'"uniform" ')  # as long, so the header length holds
    p.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(CorruptCheckpoint) as caught:
        load_checkpoint(p)
    assert str(caught.value) == "malformed checkpoint header: unknown partition strategy 'uniform'"


@pytest.mark.parametrize("header_changes, old, new, message", UNSCORABLE)
def test_checkpoint_that_no_model_can_score_is_corrupt(tmp_path, header_changes, old, new, message):
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, sample_checkpoint())
    p.write_bytes(rewrite_checkpoint(p.read_bytes(), header_changes, old, new))
    with pytest.raises(CorruptCheckpoint) as caught:
        load_checkpoint(p)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "drop, label_names, message",
    [
        ("classifier.bias", ["walk", "run"], "parameter 'classifier.bias' is missing"),
        ("classifier.weight", ["walk", "run"], "parameter 'classifier.weight' is missing"),
        (None, ["walk", "run", "jump"], "parameter 'classifier.bias' has shape (2,), expected (3,)"),
    ],
)
def test_classifier_needs_both_arrays_and_one_column_per_label(tmp_path, drop, label_names, message):
    ckpt = sample_checkpoint()
    params = {name: value for name, value in ckpt.params.items() if name != drop}
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, Checkpoint(ckpt.config, ckpt.structure, ckpt.sample_rate, params))
    p.write_bytes(rewrite_checkpoint(p.read_bytes(), {"label_names": label_names}))
    with pytest.raises(CorruptCheckpoint) as caught:
        load_checkpoint(p)
    assert str(caught.value) == message


def test_empty_array_of_a_shape_too_big_for_numpy_is_corrupt(tmp_path):
    # 8 * 0 bytes to read, but numpy cannot even describe a (0, 2**32 - 1, 2**32 - 1) array
    ckpt = sample_checkpoint()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, Checkpoint(ckpt.config, ckpt.structure, 20.0, {**ckpt.params, "extra": np.zeros((0, 3, 3))}))
    huge = struct.pack("<4I", 3, 0, 2**32 - 1, 2**32 - 1)
    p.write_bytes(rewrite_checkpoint(p.read_bytes(), {}, struct.pack("<4I", 3, 0, 3, 3), huge))
    with pytest.raises(CorruptCheckpoint, match=r"^parameter 'extra' has shape \(0, 4294967295, 4294967295\): "):
        load_checkpoint(p)


def test_encoder_parameter_of_another_shape_is_corrupt(tmp_path):
    # an embedding_dim of 8 implies an (8, 8) projection, but the file holds the (8, 16) one
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, sample_checkpoint())
    encoder = dict(sample_checkpoint().config.to_dict(), embedding_dim=8)
    p.write_bytes(rewrite_checkpoint(p.read_bytes(), {"encoder": encoder}))
    with pytest.raises(CorruptCheckpoint) as caught:
        load_checkpoint(p)
    assert str(caught.value) == "parameter 'proj.weight' has shape (8, 16), expected (8, 8)"


@given(st.binary(min_size=0, max_size=200))
@settings(max_examples=60, deadline=None)
def test_loader_never_crashes_on_garbage(tmp_path_factory, blob):
    p = tmp_path_factory.mktemp("fuzz") / "g.ckpt"
    p.write_bytes(blob)
    try:
        load_checkpoint(p)
    except (CorruptCheckpoint, VersionMismatch):
        pass


def mutate_checkpoint(raw, kind, a, b):
    """raw with one fault before its CRC32, which is then recomputed; a, b in [0, 1) pick the bytes or bit.

    A deletion or duplication covers 1 to 8 bytes; a swap exchanges two bytes
    of the JSON header.
    """
    body = raw[:-4]
    i, n = int(a * len(body)), 1 + int(b * 8)
    if kind == "bitflip":
        body = body[:i] + bytes([body[i] ^ (1 << int(b * 8))]) + body[i + 1 :]
    elif kind == "truncate":
        body = body[:i]
    elif kind == "delete":
        body = body[:i] + body[i + n :]
    elif kind == "duplicate":
        body = body[: i + n] + body[i : i + n] + body[i + n :]
    else:
        start, length = 16, struct.unpack("<I", body[12:16])[0]
        j, k = start + int(a * length), start + int(b * length)
        out = bytearray(body)
        out[j], out[k] = body[k], body[j]
        body = bytes(out)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


@given(
    labels=st.booleans(),
    mutation=st.tuples(st.sampled_from(["bitflip", "truncate", "delete", "duplicate", "swap"]), position, position),
)
@settings(max_examples=500, deadline=None)
def test_mutated_checkpoint_loads_or_raises_corrupt(tmp_path_factory, labels, mutation):
    # the CRC32 is recomputed, so every mutant reaches the parser behind it
    # and a mutant that loads builds a Model that embeds and, with its classifier, scores a window
    ckpt = sample_checkpoint()
    if not labels:
        params = {k: v for k, v in ckpt.params.items() if not k.startswith("classifier.")}
        ckpt = Checkpoint(ckpt.config, ckpt.structure, ckpt.sample_rate, params)
    p = tmp_path_factory.mktemp("mut") / "m.ckpt"
    save_checkpoint(p, ckpt)
    p.write_bytes(mutate_checkpoint(p.read_bytes(), *mutation))
    try:
        back = load_checkpoint(p)
    except (CorruptCheckpoint, VersionMismatch):
        return
    assert isinstance(back, Checkpoint)
    assert all(isinstance(v, np.ndarray) and v.dtype == np.float64 for v in back.params.values())
    v = back.structure.num_joints
    window = MotionTimeSeries(np.linspace(-1.0, 1.0, 6 * 8 * v).reshape(6, 8, v), np.ones(v, dtype=bool), 20.0)
    model = Model(back)
    with np.errstate(all="ignore"):  # a flipped bit may leave a parameter huge or NaN; shapes are the point
        assert model.embed(window).shape == (back.config.embedding_dim,)
        if model.has_classifier():
            assert model.classifier_logits(window).shape == back.params["classifier.bias"].shape
