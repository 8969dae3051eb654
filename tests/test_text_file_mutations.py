"""Mutation fuzzing of the embedding, description, device mapping and
manifest readers.

Valid files are built, then damaged the way real files get damaged: a bit
flip, truncation at a byte, a line deleted, duplicated or blanked, or one
token (a field between tabs or spaces) swapped for a value that float() takes
and is not finite, one that numpy or int() reads differently, a number at or
past the edge of a joint index or a rate, or one that nothing takes. Each
reader must return or raise a PipelineError, and a file that is not UTF-8 is
a ParseError. What comes back holds only valid values: an embedding table
only finite float64 vectors of its dimension, a mapping only joint indices
of the skeleton, and a manifest at least one sample, each with a device
location, a finite rate > 0 and a finite unit scale.
"""

import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import position
from imuclr import formats
from imuclr.errors import ParseError, PipelineError
from imuclr.skeleton import body22
from imuclr.text_embeddings import DescriptionSet, TextEmbeddingTable

SWAP_TOKENS = ["nan", "-nan", "1e400", "-inf", "1_0", "１", "٣", "0", "-1", "22", "#", "x", "", "orig", "para"]


def _token(x, style):
    return repr(float(x)) if style == 0 else f"{x:.6g}" if style == 1 else f"{x:.2e}"


def embedding_text(rng, n, dim, style):
    words = ["walk", "run fast", "wave the left hand", "sit", "jump up"]
    lines = [f"{n} {dim}"]
    for i in range(n):
        vec = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
        lines.append(f"id{i}\t{words[i % len(words)]} {i}\t" + " ".join(_token(x, style) for x in vec))
    return "\n".join(lines) + "\n"


def description_text(rng, n_seq, per_seq):
    lines = ["# seq_id\tkind\ttext_id"]
    for s in range(n_seq):
        for k in range(per_seq):
            kind = "orig" if k == 0 or rng.random() < 0.3 else "para"
            lines.append(f"seq{s}\t{kind}\tt{int(rng.integers(0, 9))}")
        if rng.random() < 0.3:
            lines.append("")
    return "\n".join(lines) + "\n"


def mapping_text(rng, n):
    names = body22().names
    lines = ["# location joint"]
    for i in range(n):
        j = int(rng.integers(len(names)))
        lines.append(f"loc{i} {names[j] if rng.random() < 0.5 else j}")
        if rng.random() < 0.3:
            lines.append("")
    return "\n".join(lines) + "\n"


def manifest_text(rng, n, style):
    lines = ["# manifest", "mapping devices.txt"]
    for i in range(n):
        locations = ",".join(["wrist", "hip", "ankle"][: int(rng.integers(1, 4))])
        fs, scale = _token(rng.uniform(1.0, 200.0), style), _token(rng.uniform(-10.0, 10.0), style)
        lines.append(f"sample\trec{i}.ts\tlabel {i % 2}\t{locations}\t{fs}\t{scale}")
    return "\n".join(lines) + "\n"


def mutate(raw, kind, a, b, token):
    """raw with one fault; a, b in [0, 1) pick the byte, line, bit or token."""
    if kind == "bitflip":
        i = int(a * len(raw))
        return raw[:i] + bytes([raw[i] ^ (1 << int(b * 8))]) + raw[i + 1 :]
    if kind == "truncate":
        return raw[: int(a * len(raw))]
    lines = raw.decode("utf-8").split("\n")[:-1]
    i = int(a * len(lines))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "blank":
        lines[i] = ""
    else:
        parts = re.split(r"([\t ])", lines[i])  # separators at odd indices
        parts[2 * int(b * ((len(parts) + 1) // 2))] = token
        lines[i] = "".join(parts)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _is_utf8(content):
    try:
        content.decode("utf-8")
        return True
    except UnicodeDecodeError:
        return False


def read_or_error(read, path, mutant):
    """The reader's result on the mutant, None if it raised a PipelineError."""
    path.write_bytes(mutant)
    try:
        result = read(path)
    except PipelineError as exc:
        if not _is_utf8(mutant):
            assert type(exc) is ParseError and "not valid UTF-8" in str(exc)
        return None
    assert _is_utf8(mutant)
    return result


mutations = st.tuples(
    st.sampled_from(["bitflip", "truncate", "delete", "duplicate", "blank", "swap"]),
    position,
    position,
    st.sampled_from(SWAP_TOKENS),
)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    dim=st.integers(1, 5),
    style=st.integers(0, 2),
    mutation=mutations,
)
# the last value of id0 swapped for nan, then 1e400: once read back as they were
@example(seed=0, n=2, dim=3, style=0, mutation=("swap", 0.5, 0.9, "nan"))
@example(seed=0, n=2, dim=3, style=0, mutation=("swap", 0.5, 0.9, "1e400"))
@settings(max_examples=400, deadline=None)
def test_mutated_embedding_file_reads_finite_or_fails(tmp_path_factory, seed, n, dim, style, mutation):
    raw = embedding_text(np.random.default_rng(seed), n, dim, style).encode("utf-8")
    path = tmp_path_factory.mktemp("mut") / "e.txt"
    path.write_bytes(raw)
    assert len(formats.read_embedding_file(path).ids()) == n
    table = read_or_error(formats.read_embedding_file, path, mutate(raw, *mutation))
    if table is not None:
        assert isinstance(table, TextEmbeddingTable)
        for key in table.ids():
            vec = table.vector(key)
            assert vec.dtype == np.float64 and vec.shape == (table.dim,) and np.isfinite(vec).all()


@given(
    seed=st.integers(0, 2**32 - 1),
    n_seq=st.integers(1, 4),
    per_seq=st.integers(1, 3),
    mutation=mutations,
)
@settings(max_examples=400, deadline=None)
def test_mutated_description_file_reads_or_fails(tmp_path_factory, seed, n_seq, per_seq, mutation):
    raw = description_text(np.random.default_rng(seed), n_seq, per_seq).encode("utf-8")
    path = tmp_path_factory.mktemp("mut") / "d.tsv"
    path.write_bytes(raw)
    assert len(formats.read_description_file(path).originals) == n_seq
    ds = read_or_error(formats.read_description_file, path, mutate(raw, *mutation))
    if ds is not None:
        assert isinstance(ds, DescriptionSet)
        for bucket in (ds.originals, ds.paraphrases):
            for seq_id, ids in bucket.items():
                assert ids and all(isinstance(i, str) for i in [seq_id, *ids])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), mutation=mutations)
# loc0's joint swapped for the first index past body22
@example(seed=0, n=1, mutation=("swap", 0.5, 0.9, "22"))
@settings(max_examples=400, deadline=None)
def test_mutated_mapping_file_reads_joint_indices_or_fails(tmp_path_factory, seed, n, mutation):
    raw = mapping_text(np.random.default_rng(seed), n).encode("utf-8")
    path = tmp_path_factory.mktemp("mut") / "m.txt"
    path.write_bytes(raw)

    def read(p):
        return formats.read_mapping_file(p, body22())

    assert len(read(path).joint_for) == n
    mapping = read_or_error(read, path, mutate(raw, *mutation))
    if mapping is not None:
        for location, idx in mapping.joint_for.items():
            assert location and type(idx) is int and 0 <= idx < 22


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), style=st.integers(0, 2), mutation=mutations)
# the one sample's locations swapped for none, then its rate for 0
@example(seed=0, n=1, style=0, mutation=("swap", 0.9, 0.6, ""))
@example(seed=0, n=1, style=0, mutation=("swap", 0.9, 0.75, "0"))
@settings(max_examples=400, deadline=None)
def test_mutated_manifest_file_reads_valid_samples_or_fails(tmp_path_factory, seed, n, style, mutation):
    raw = manifest_text(np.random.default_rng(seed), n, style).encode("utf-8")
    path = tmp_path_factory.mktemp("mut") / "manifest.tsv"
    path.write_bytes(raw)
    assert len(formats.read_manifest_file(path).samples) == n
    manifest = read_or_error(formats.read_manifest_file, path, mutate(raw, *mutation))
    if manifest is not None:
        assert manifest.mapping_path and manifest.samples
        for sample in manifest.samples:
            assert sample.locations and all(sample.locations)
            assert np.isfinite(sample.native_fs) and sample.native_fs > 0 and np.isfinite(sample.unit_scale)
