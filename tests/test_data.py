import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_csv
from continuum import data


def index_dataset(n: int, num_classes: int = 4) -> data.Dataset:
    """Features whose first column is the sample index, for tracking partitions."""
    features = np.zeros((n, 2))
    features[:, 0] = np.arange(n)
    labels = np.arange(n) % num_classes
    return data.Dataset(features, labels, num_classes)


def whole_part(ds: data.Dataset) -> data.Part:
    """Every row of `ds`, in order, as one part."""
    return data.Part(ds, np.arange(len(ds)))


def centroid_oracle_accuracy(ds: data.Dataset) -> float:
    """Nearest empirical-class-centroid classifier; independent of any model code."""
    centroids = np.stack(
        [ds.features[ds.labels == c].mean(axis=0) for c in range(ds.num_classes)]
    )
    d2 = ((ds.features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d2, axis=1) == ds.labels))


def test_blobs_shapes_and_determinism():
    ds = data.synth_blobs(800, 512, 8, separation=6.0, seed=7)
    assert ds.features.shape == (800, 512)
    assert ds.labels.shape == (800,)
    assert ds.num_classes == 8
    again = data.synth_blobs(800, 512, 8, separation=6.0, seed=7)
    assert np.array_equal(ds.features, again.features)
    assert np.array_equal(ds.labels, again.labels)
    different = data.synth_blobs(800, 512, 8, separation=6.0, seed=8)
    assert not np.array_equal(ds.features, different.features)


def test_blobs_labels_balanced_within_one():
    ds = data.synth_blobs(802, 16, 4, separation=2.0, seed=1)
    counts = np.bincount(ds.labels, minlength=4)
    assert counts.max() - counts.min() <= 1


def test_blobs_argument_validation():
    with pytest.raises(ValueError):
        data.synth_blobs(1, 4, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        data.synth_blobs(10, 4, 1, 1.0, seed=0)
    with pytest.raises(ValueError):
        data.synth_blobs(10, 0, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        data.synth_blobs(10, 4, 2, -1.0, seed=0)


def test_class_directions_are_orthonormal_when_possible():
    dirs = data.class_directions(6, 32, seed=3)
    gram = dirs @ dirs.T
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)


def test_class_directions_degenerate_when_classes_exceed_dims():
    dirs = data.class_directions(5, 2, seed=3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-10)


def test_separated_blobs_are_learnable_by_centroid_oracle():
    ds = data.synth_blobs(2000, 16, 4, separation=6.0, seed=5)
    assert centroid_oracle_accuracy(ds) >= 0.99


def test_zero_separation_blobs_are_chance_level():
    ds = data.synth_blobs(4000, 16, 4, separation=0.0, seed=5)
    assert 0.15 <= centroid_oracle_accuracy(ds) <= 0.35


def test_load_csv_basic(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
    ds = data.load_csv(path, label_column=2, num_classes=2)
    assert len(ds) == 3
    assert ds.features.shape == (3, 2)
    assert list(ds.labels) == [0, 1, 0]
    np.testing.assert_array_equal(ds.features[1], [3.0, 4.0])


def test_load_csv_reports_bad_cell_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,0\noops,4.0,1\n")
    with pytest.raises(ValueError, match="row 2, column 1"):
        data.load_csv(path, label_column=2, num_classes=2)


def test_load_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0,0\n1.0,1\n")
    with pytest.raises(ValueError, match="row 2"):
        data.load_csv(path, label_column=2, num_classes=2)


def test_load_csv_rejects_out_of_range_label(tmp_path):
    path = tmp_path / "range.csv"
    path.write_text("1.0,2.0,5\n")
    with pytest.raises(ValueError, match="label 5"):
        data.load_csv(path, label_column=2, num_classes=2)


def test_load_csv_header_and_517_row_file(tmp_path):
    ds = data.synth_blobs(517, 10, 4, separation=4.0, seed=2)
    path = tmp_path / "forest.csv"
    write_csv(ds, path)
    loaded = data.load_csv(path, label_column=10, num_classes=4)
    assert len(loaded) == 517
    assert loaded.features.shape == (517, 10)
    with_header = tmp_path / "forest_header.csv"
    with_header.write_text("a,b,c,d,e,f,g,h,i,j,label\n" + path.read_text())
    loaded2 = data.load_csv(with_header, label_column=10, num_classes=4, has_header=True)
    assert len(loaded2) == 517


def test_write_then_load_round_trips_exactly(tmp_path):
    ds = data.synth_blobs(40, 6, 3, separation=1.5, seed=9)
    path = tmp_path / "roundtrip.csv"
    write_csv(ds, path)
    back = data.load_csv(path, label_column=6, num_classes=3)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_partition_sizes_for_16000_across_3():
    ds = index_dataset(16000)
    parts = data.partition(ds, 3, seed=4)
    assert sorted(len(p) for p in parts) == [5333, 5333, 5334]


def test_partition_is_disjoint_cover():
    ds = index_dataset(101)
    parts = data.partition(ds, 4, seed=0)
    seen = np.concatenate([p.rows for p in parts])
    assert sorted(seen.tolist()) == list(range(101))
    assert all(p.dataset is ds for p in parts)  # indices into ds, no row copied


def test_partition_single_part_is_permutation():
    ds = index_dataset(50)
    (part,) = data.partition(ds, 1, seed=1)
    assert len(part) == 50
    assert sorted(part.rows.tolist()) == list(range(50))
    assert not np.array_equal(part.rows, np.arange(50))  # actually shuffled


def test_partition_determinism_and_errors():
    ds = index_dataset(20)
    a = data.partition(ds, 3, seed=7)
    b = data.partition(ds, 3, seed=7)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.rows, pb.rows)
    with pytest.raises(ValueError):
        data.partition(ds, 21, seed=0)
    with pytest.raises(ValueError):
        data.partition(ds, 0, seed=0)


@given(n=st.integers(1, 300), parts=st.integers(1, 12), seed=st.integers(0, 2**31))
@settings(max_examples=80, deadline=None)
def test_partition_properties(n, parts, seed):
    ds = index_dataset(n)
    if parts > n:
        with pytest.raises(ValueError):
            data.partition(ds, parts, seed)
        return
    split = data.partition(ds, parts, seed)
    assert all(p.dataset is ds for p in split)
    members = [p.rows for p in split]
    assert sorted(np.concatenate(members).tolist()) == list(range(n))
    counts = [len(p) for p in split]
    assert min(counts) >= 1
    assert max(counts) - min(counts) <= 1
    again = data.partition(ds, parts, seed)
    assert all(np.array_equal(a, p.rows) for a, p in zip(members, again))
    copies = [ds.take(p.rows) for p in split]  # a dist-train shard is its rows copied out
    assert all(np.array_equal(a, c.features[:, 0].astype(int)) for a, c in zip(members, copies))


@given(n=st.integers(1, 200), parts=st.integers(1, 9), per_round=st.integers(1, 50),
       seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_round_batches_gathered_by_index_equal_batches_of_copied_parts(n, parts, per_round, seed):
    parts = min(parts, n)
    rng = np.random.default_rng(seed)
    ds = data.Dataset(rng.normal(size=(n, 3)), rng.integers(0, 5, size=n), 5)
    dealt = data.partition(ds, parts, seed)
    for part, copy in zip(dealt, [ds.take(p.rows) for p in dealt]):
        for r in range(2 * n // per_round + 2):  # past the wrap of every part
            idx = (r * per_round + np.arange(per_round)) % len(copy)
            batch = data.next_round_batch(part, r, per_round)
            assert batch.features.tobytes() == copy.features[idx].tobytes()
            assert batch.labels.tobytes() == copy.labels[idx].tobytes()
            assert batch.num_classes == 5


def test_next_round_batch_sequential_and_wrapping():
    part = whole_part(index_dataset(6000))
    batches = [data.next_round_batch(part, r, 60) for r in range(100)]
    seen = np.concatenate([b.features[:, 0] for b in batches]).astype(int)
    assert len(set(seen.tolist())) == 6000  # 100 disjoint batches before the wrap
    wrapped = data.next_round_batch(part, 100, 60)
    assert np.array_equal(wrapped.features, batches[0].features)


def test_next_round_batch_whole_part_and_validation():
    part = whole_part(index_dataset(30))
    whole = data.next_round_batch(part, 0, 30)
    assert np.array_equal(whole.features, part.dataset.features)
    with pytest.raises(ValueError):
        data.next_round_batch(part, 0, 0)
    with pytest.raises(ValueError):
        data.next_round_batch(part, -1, 5)


def test_round_batches_cover_min_of_budget_and_part():
    part = whole_part(index_dataset(100))
    rounds, per_round = 7, 9
    seen = set()
    for r in range(rounds):
        seen.update(data.next_round_batch(part, r, per_round).features[:, 0].astype(int).tolist())
    assert len(seen) == min(rounds * per_round, 100)


def test_dataset_validation():
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((2, 2)), np.array([0, 3]), num_classes=2)
    with pytest.raises(ValueError):
        data.Dataset(np.array([[np.inf, 0.0]]), np.array([0]), num_classes=2)
    for value in (np.nan, np.inf, -np.inf):
        for row in (0, -1):  # the first and the last value of the array
            features = np.zeros((5, 3))
            features[row, row] = value
            with pytest.raises(ValueError, match="features must be finite"):
                data.Dataset(features, np.zeros(5, dtype=int), num_classes=2)
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), num_classes=2)


def test_take_views_a_slice_copies_indexed_rows_and_checks_nothing_again(monkeypatch):
    ds = index_dataset(10)
    head = ds.take(slice(None, 4))
    rows = ds.take(np.array([7, 2]))
    assert np.shares_memory(head.features, ds.features)
    assert not np.shares_memory(rows.features, ds.features)
    assert rows.features[:, 0].tolist() == [7.0, 2.0] and rows.labels.tolist() == [3, 2]
    assert (len(head), len(rows), rows.num_classes) == (4, 2, 4)
    monkeypatch.setattr(np, "isfinite", None)  # a re-scan would call it
    ds.take(slice(2, None))
    with pytest.raises(ValueError):
        ds.take(slice(10, None))


def test_synth_blobs_adds_centres_in_place_bit_for_bit():
    n, d, classes, separation, seed = 3001, 17, 5, 2.5, 11
    got = data.synth_blobs(n, d, classes, separation, seed)
    centers = separation * data.class_directions(classes, d, seed)
    labels = np.arange(n, dtype=np.int64) % classes
    expected = np.random.default_rng(seed).normal(size=(n, d)) + centers[labels]
    assert got.features.tobytes() == expected.tobytes()
    assert np.array_equal(got.labels, labels)
