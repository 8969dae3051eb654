import numpy as np
import pytest

from imuclr.errors import DimMismatch, EmptyText
from imuclr.text_embeddings import DescriptionSet, TextEmbeddingTable, sample_description


def small_table():
    return TextEmbeddingTable(
        dim=3,
        entries={
            "a": ("walking", np.array([1.0, 0.0, 0.0])),
            "b": ("running fast", np.array([0.0, 2.0, 0.0])),
        },
    )


def test_table_dim_validation():
    with pytest.raises(DimMismatch):
        TextEmbeddingTable(dim=3, entries={"a": ("x", np.zeros(2))})


def test_table_matrix_and_vector():
    t = small_table()
    assert np.array_equal(t.vector("b"), [0.0, 2.0, 0.0])
    assert np.array_equal(t.matrix(["b", "a"]), [[0.0, 2.0, 0.0], [1.0, 0.0, 0.0]])


def test_snapshot_is_bit_exact_copy():
    t = small_table()
    snap = t.state_snapshot()
    t.entries["a"][1][0] = 99.0
    assert snap["a"][0] == 1.0  # snapshot unaffected by later mutation


def test_sample_description_single():
    ds = DescriptionSet()
    ds.add("s", "only")
    rng = np.random.default_rng(0)
    assert all(sample_description(ds, "s", rng) == "only" for _ in range(10))


def test_sample_description_uniform():
    ds = DescriptionSet()
    ds.add("s", "o1")
    for p in ("p1", "p2", "p3"):
        ds.add("s", p, paraphrase=True)
    rng = np.random.default_rng(1)
    n = 100_000
    counts = {}
    for _ in range(n):
        pick = sample_description(ds, "s", rng)
        counts[pick] = counts.get(pick, 0) + 1
    sigma = np.sqrt(0.25 * 0.75 / n)
    for key in ("o1", "p1", "p2", "p3"):
        assert abs(counts[key] / n - 0.25) < 3 * sigma


def test_sample_description_deterministic():
    ds = DescriptionSet()
    for i in range(4):
        ds.add("s", f"d{i}", paraphrase=i > 0)
    run1 = [sample_description(ds, "s", np.random.default_rng(3)) for _ in range(1)]
    run2 = [sample_description(ds, "s", np.random.default_rng(3)) for _ in range(1)]
    assert run1 == run2


def test_sample_description_empty():
    with pytest.raises(EmptyText):
        sample_description(DescriptionSet(), "missing", np.random.default_rng(0))


def test_load_embeddings_wrapper(tmp_path):
    from imuclr.formats import read_embedding_file

    p = tmp_path / "e.txt"
    p.write_text("1 2\na\talpha\t3 4\n")
    table = read_embedding_file(p)
    assert np.array_equal(table.vector("a"), [3.0, 4.0])
