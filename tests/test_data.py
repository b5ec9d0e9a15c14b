import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudkit.data import (
    Dataset,
    Feature,
    FeatureSchema,
    NormParams,
    apply_normalize,
    as_matrix,
    Range,
    check_value,
    cleanse,
    dataset_from_matrix,
    encode_one_hot,
    fit_normalize,
    load_csv,
    numeric_schema,
    occ_split,
    read_document,
    save_csv,
    save_split,
    stratified_split,
    write_document,
)
from fraudkit.errors import ConfigError, DataError


def two_feature_schema():
    return numeric_schema(["a", "b"])


# ---------------------------------------------------------------- schema


def test_schema_rejects_duplicate_names():
    with pytest.raises(DataError):
        FeatureSchema([Feature("x", "numeric"), Feature("x", "numeric")])


def test_schema_rejects_empty_categorical():
    with pytest.raises(DataError):
        Feature("c", "categorical", categories=())


def test_schema_rejects_categories_on_numeric():
    with pytest.raises(DataError):
        Feature("n", "numeric", categories=("a",))


def test_schema_json_round_trip(mixed_schema, tmp_path):
    path = tmp_path / "schema.json"
    write_document(mixed_schema.to_dict(), path)
    assert read_document(path, FeatureSchema.from_dict, DataError) == mixed_schema


def _split_of_four():
    data = dataset_from_matrix(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1])
    return stratified_split(data, 0.5, seed=0)


def _write_split_manifest_onto_a_directory(tmp_path):
    (tmp_path / "out" / "split_manifest.json").mkdir(parents=True)
    save_split(_split_of_four(), tmp_path / "out")


def _read_non_utf8(tmp_path):
    (tmp_path / "d.csv").write_bytes(b"a,b\n\xff\xfe,2\n")
    load_csv(tmp_path / "d.csv", two_feature_schema())


@pytest.mark.parametrize(
    "act, path",
    [
        (lambda t: save_csv(dataset_from_matrix(np.ones((2, 2))), t / "file" / "d.csv"), "file/d.csv"),
        (_write_split_manifest_onto_a_directory, "out/split_manifest.json"),
        (lambda t: load_csv(t, two_feature_schema()), ""),
        (_read_non_utf8, "d.csv"),
    ],
    ids=["save-csv-under-a-file", "split-manifest-onto-a-directory",
         "load-csv-of-a-directory", "load-csv-of-non-utf8"],
)
def test_file_error_is_a_data_error_naming_the_path(tmp_path, act, path):
    # these used to escape as NotADirectoryError, FileExistsError,
    # IsADirectoryError and UnicodeDecodeError
    (tmp_path / "file").write_text("a regular file")
    with pytest.raises(DataError, match=re.escape(str(tmp_path / path))):
        act(tmp_path)


def test_check_value_message_shows_a_bounded_value():
    # a malformed 400 x 30 matrix used to be printed whole
    with pytest.raises(ConfigError) as caught:
        check_value("rows", [[0.5] * 30] * 400, Range(float, 0.0))
    assert len(str(caught.value)) < 400  # printed whole, it ran to 60,846 characters


# ---------------------------------------------------------------- load_csv


def test_load_csv_plain_numeric(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3,4\n5,6\n")
    ds = load_csv(p, two_feature_schema())
    assert ds.n == 3 and ds.d == 2
    assert ds.labels is None
    assert ds.values[0].tolist() == [1.0, 2.0]


def test_load_csv_labels(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,label\n1,2,0\n3,4,1\n5,6,1\n")
    ds = load_csv(p, two_feature_schema(), label_column="label")
    assert list(ds.labels) == [0, 1, 1]


def test_load_csv_unknown_category(tmp_path, mixed_schema):
    p = tmp_path / "d.csv"
    p.write_text("color,amount,hour\ngreen,1,2\n")
    with pytest.raises(DataError, match="unknown category"):
        load_csv(p, mixed_schema)


def test_load_csv_rejects_a_label_column_named_like_a_feature(tmp_path):
    # set(header) collapsed the duplicate name: column a was read as both a
    # feature and the label, values [[0, 5], [1, 6]] and labels [0, 1]
    p = tmp_path / "d.csv"
    p.write_text("a,b\n0,5\n1,6\n")
    with pytest.raises(DataError, match="label column 'a'"):
        load_csv(p, two_feature_schema(), label_column="a")


def test_load_csv_header_mismatch(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,c\n1,2\n")
    with pytest.raises(DataError, match="header mismatch"):
        load_csv(p, two_feature_schema())


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_csv(tmp_path / "nope.csv", two_feature_schema())


def test_load_csv_unparseable_numeric_becomes_null(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\noops,2\n3,4\n")
    ds = load_csv(p, two_feature_schema())
    assert np.isnan(ds.values[0, 0])


def test_load_csv_non_finite_numerics_become_null(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\ninf,2\n3,-inf\nnan,5\n6,NaN\n7,8\n9,10\n")
    ds = load_csv(p, two_feature_schema())
    assert np.isnan(ds.values).sum(axis=1).tolist() == [1, 1, 1, 1, 0, 0]
    clean = cleanse(ds, 0.9)
    assert clean.values.tolist() == [[7.0, 8.0], [9.0, 10.0]]
    params = fit_normalize(clean)
    assert all(np.isfinite([lo, hi]).all() for _, lo, hi in params.bounds)


def test_non_finite_cells_of_a_matrix_become_null():
    # a kept inf would keep its row through cleanse, and fit_normalize would
    # return the bound ('f0', 3.0, inf)
    ds = dataset_from_matrix(np.array([[np.nan, 1.0], [np.inf, 2.0], [3.0, 3.0], [4.0, -np.inf], [5.0, 6.0]]))
    assert np.isnan(ds.values).sum(axis=1).tolist() == [1, 1, 0, 1, 0]
    clean = cleanse(ds, 0.9)
    assert clean.values.tolist() == [[3.0, 3.0], [5.0, 6.0]]
    assert fit_normalize(clean).bounds == (("f0", 3.0, 5.0), ("f1", 3.0, 6.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_and_as_matrix_reject_non_finite(bad):
    ds = dataset_from_matrix(np.array([[1.0, 2.0], [bad, 3.0]]))
    with pytest.raises(DataError):
        ds.matrix()
    with pytest.raises(DataError):
        as_matrix([[1.0, bad]], 2)


def test_load_csv_null_token(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\nNA,2\n3,4\n")
    ds = load_csv(p, two_feature_schema(), null_token="NA")
    assert np.isnan(ds.values[0, 0])


def test_csv_round_trip(tmp_path, mixed_schema):
    ds = dataset_from_matrix(np.array([[0, 5.0, 10.0], [1, 7.5, 0.0]]), [0, 1], schema=mixed_schema)
    p = tmp_path / "out.csv"
    save_csv(ds, p)
    back = load_csv(p, mixed_schema, label_column="label")
    assert np.array_equal(back.values, ds.values)  # category indices, then the numbers
    assert list(back.labels) == [0, 1]


def test_save_csv_then_load_csv_gives_back_the_same_bits(tmp_path):
    # the round trip gives back every float64 bit for bit, the float extremes
    # included, except -0.0: save_csv writes it as the whole number "0", which
    # DATA_PATH_GOLDEN pins, and it comes back as 0.0
    schema = FeatureSchema(
        [Feature("kind", "categorical", ("card", "wire, cash", 'q"uote')), Feature("amount", "numeric"),
         Feature("at", "numeric")]
    )
    rng = np.random.default_rng(5)
    n = 200
    amount = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    special = [0.0, -0.0, 1e15, -1e15, 1e15 - 1, -(1e15 - 1), 0.1 + 0.2, 5e-324, -5e-324, np.finfo(float).max,
               -np.finfo(float).max, np.nan]
    amount[: len(special)] = special
    at = rng.integers(-(10**6), 10**6, size=n).astype(float)
    at[::7] = np.nan
    kind = rng.integers(0, 3, size=n).astype(float)
    kind[::11] = np.nan
    ds = dataset_from_matrix(np.column_stack([kind, amount, at]), rng.integers(0, 2, size=n), schema=schema)
    save_csv(ds, tmp_path / "d.csv")
    back = load_csv(tmp_path / "d.csv", schema, label_column="label")
    expected = ds.values + 0.0  # -0.0 becomes 0.0, every other bit pattern stays
    assert np.signbit(ds.values[1, 1]) and not np.signbit(back.values[1, 1])
    assert back.values.tobytes() == expected.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


def test_load_csv_field_past_the_csv_limit_is_a_data_error(tmp_path):
    # a field longer than csv.field_size_limit() escaped as _csv.Error
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n" + "9" * 200_000 + ",3\n")
    with pytest.raises(DataError, match=re.escape(f"{p}:3")):
        load_csv(p, two_feature_schema())


def test_save_csv_rejects_a_label_column_named_like_a_feature(tmp_path):
    # the header a,b,a was written, and load_csv rejected it as a header mismatch
    p = tmp_path / "d.csv"
    with pytest.raises(DataError, match="label column 'a'"):
        save_csv(dataset_from_matrix(np.ones((2, 2)), [0, 1], names=["a", "b"]), p, label_column="a")
    assert not p.exists()


def test_save_csv_deterministic_bytes(tmp_path, mixed_schema):
    ds = dataset_from_matrix(np.array([[0, 5.25, 10.0]]), [1], schema=mixed_schema)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(ds, p1)
    save_csv(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_csv_peak_memory_is_a_small_multiple_of_the_file(tmp_path):
    # a table like the scored rows of the supervised bench workload (about 1 MB of
    # text); holding the per-column fields and the joined text plus a copy
    # ending in the last newline peaked at 7.5 times the file
    rng = np.random.default_rng(0)
    n = 1454
    x = np.column_stack([rng.uniform(size=(n, 30)), rng.integers(0, 2, size=(n, 6)), rng.uniform(size=(n, 6))])
    data = dataset_from_matrix(x, rng.integers(0, 2, size=n))
    path = tmp_path / "scored.csv"
    tracemalloc.start()
    try:
        save_csv(data, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * path.stat().st_size


# ---------------------------------------------------------------- cleanse


def test_cleanse_removes_duplicates():
    ds = dataset_from_matrix(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]))
    out = cleanse(ds, 0.9)
    assert out.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_cleanse_drops_feature_at_threshold_boundary():
    # feature b null in 9/10 rows: 0.9 >= 0.9 drops it, all rows kept
    rows = [(float(i), np.nan) for i in range(9)] + [(9.0, 1.0)]
    ds = dataset_from_matrix(np.array(rows), names=["a", "b"])
    out = cleanse(ds, 0.9)
    assert out.schema.names == ["a"]
    assert out.n == 10


def test_cleanse_keeps_feature_below_threshold_drops_null_rows():
    # feature b null in 8/10 rows: kept, but those 8 rows are dropped
    rows = [(float(i), np.nan) for i in range(8)] + [(8.0, 1.0), (9.0, 2.0)]
    ds = dataset_from_matrix(np.array(rows), names=["a", "b"])
    out = cleanse(ds, 0.9)
    assert out.schema.names == ["a", "b"]
    assert out.n == 2
    assert out.values.tolist() == [[8.0, 1.0], [9.0, 2.0]]


def test_cleanse_duplicate_key_includes_label():
    ds = dataset_from_matrix(np.ones((3, 1)), [0, 1, 0])
    out = cleanse(ds, 0.9)
    assert out.n == 2  # same cells but different labels are distinct rows


def test_cleanse_idempotent():
    rows = [(1.0, np.nan), (1.0, np.nan), (2.0, 3.0), (2.0, 3.0), (4.0, 5.0)]
    ds = dataset_from_matrix(np.array(rows), names=["a", "b"])
    once = cleanse(ds, 0.6)
    twice = cleanse(once, 0.6)
    assert np.array_equal(once.values, twice.values)
    assert once.schema.names == twice.schema.names


def test_cleanse_threshold_must_be_a_number():
    ds = dataset_from_matrix(np.array([[1.0], [2.0]]))
    with pytest.raises(ConfigError):
        cleanse(ds, "0.5")


def test_cleanse_error_when_everything_null():
    ds = dataset_from_matrix(np.full((2, 1), np.nan))
    with pytest.raises(DataError):
        cleanse(ds, 0.9)


# ---------------------------------------------------------------- one-hot


def test_one_hot_basic(mixed_schema):
    ds = dataset_from_matrix(np.array([[0, 1.0, 2.0], [1, 3.0, 4.0]]), schema=mixed_schema)  # red, blue
    enc, mapping = encode_one_hot(ds)
    assert enc.schema.names == ["color=red", "color=blue", "amount", "hour"]
    assert enc.values.tolist() == [[1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 3.0, 4.0]]
    assert mapping.groups() == [[0, 1]]


def test_one_hot_no_categoricals_is_identity():
    ds = dataset_from_matrix(np.array([[1.0, 2.0]]))
    enc, mapping = encode_one_hot(ds)
    assert np.array_equal(enc.values, ds.values)
    assert enc.schema.names == ds.schema.names
    assert mapping.groups() == []


def test_one_hot_rows_sum_to_one():
    schema = FeatureSchema([Feature("c", "categorical", categories=("a", "b", "c"))])
    ds = dataset_from_matrix(np.array([[0], [2], [1], [0], [2]]), schema=schema)  # a, c, b, a, c
    enc, _ = encode_one_hot(ds)
    assert enc.values.sum(axis=1).tolist() == [1.0] * 5


def test_one_hot_indicator_columns_hold_each_category_index(mixed_schema):
    # a categorical cell becomes its span's indicators, 1.0 only at the
    # category's index; a numeric cell is copied into its one column
    ds = dataset_from_matrix(np.array([[0, 1.0, 2.0], [1, 3.0, 4.0], [0, 5.0, 6.0]]), schema=mixed_schema)
    enc, mapping = encode_one_hot(ds)
    assert mapping.spans == ((0, 2), (2, 1), (3, 1))
    for j, (start, width) in enumerate(mapping.spans):
        block = enc.values[:, start : start + width]
        if mixed_schema[j].kind == "categorical":
            assert np.array_equal(block, np.eye(width)[ds.values[:, j].astype(int)])
        else:
            assert np.array_equal(block[:, 0], ds.values[:, j])


def test_one_hot_rejects_nulls(mixed_schema):
    ds = dataset_from_matrix(np.array([[np.nan, 1.0, 2.0]]), schema=mixed_schema)
    with pytest.raises(DataError):
        encode_one_hot(ds)


# ---------------------------------------------------------------- normalize


def test_normalize_definition():
    ds = dataset_from_matrix(np.array([[2.0], [4.0], [6.0]]))
    params = fit_normalize(ds)
    out = apply_normalize(ds, params)
    assert out.values[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_normalize_constant_feature_maps_to_zero():
    ds = dataset_from_matrix(np.array([[7.0], [7.0]]))
    out = apply_normalize(ds, fit_normalize(ds))
    assert out.values[:, 0].tolist() == [0.0, 0.0]


def test_normalize_many_random_vectors():
    # (x - min) / (max - min) per column, with the fitted set's minimum at
    # exactly 0.0 and its maximum at exactly 1.0
    rng = np.random.default_rng(3)
    base = rng.uniform(-50, 120, size=(40, 5))
    params = fit_normalize(dataset_from_matrix(base))
    samples = rng.uniform(base.min(axis=0), base.max(axis=0), size=(100, 5))
    x = np.vstack([base, samples])
    low, high = base.min(axis=0), base.max(axis=0)
    out = apply_normalize(dataset_from_matrix(x), params).matrix()
    assert np.array_equal(out, (x - low) / (high - low))
    assert out[base.argmin(axis=0), np.arange(5)].tolist() == [0.0] * 5
    assert out[base.argmax(axis=0), np.arange(5)].tolist() == [1.0] * 5


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=20),
)
@settings(max_examples=50, deadline=None)
def test_normalize_definition_property(values):
    ds = dataset_from_matrix(np.array(values).reshape(-1, 1))
    out = apply_normalize(ds, fit_normalize(ds)).matrix().ravel()
    low, high = min(values), max(values)
    if high == low:
        assert out.tolist() == [0.0] * len(values)
    else:
        assert np.array_equal(out, (np.array(values) - low) / (high - low))
        assert out[np.argmin(values)] == 0.0 and out[np.argmax(values)] == 1.0
    assert ((0.0 <= out) & (out <= 1.0)).all()


def test_norm_params_validate():
    with pytest.raises(DataError):
        NormParams((("f", 2.0, 1.0),))


# ---------------------------------------------------------------- splits


def test_stratified_split_counts(imbalanced_blobs):
    pair = stratified_split(imbalanced_blobs, 0.8, seed=5)
    train_labels = pair.train.labels
    assert int(np.sum(train_labels == 0)) == 70  # round(88 * 0.8)
    assert int(np.sum(train_labels == 1)) == 10  # round(12 * 0.8)
    assert pair.train.n + pair.test.n == imbalanced_blobs.n


def test_stratified_split_full_fraction_means_empty_test(imbalanced_blobs):
    pair = stratified_split(imbalanced_blobs, 1.0, seed=1)
    assert pair.test.n == 0
    assert pair.train.n == imbalanced_blobs.n


@pytest.mark.parametrize(
    "fraction, seed, name", [(0.5, -1, "seed"), (0.5, 1.5, "seed"), ("0.5", 0, "train_fraction")]
)
def test_stratified_split_arguments_are_config_errors(imbalanced_blobs, fraction, seed, name):
    with pytest.raises(ConfigError, match=name):
        stratified_split(imbalanced_blobs, fraction, seed)


def test_stratified_split_deterministic(imbalanced_blobs):
    a = stratified_split(imbalanced_blobs, 0.8, seed=42)
    b = stratified_split(imbalanced_blobs, 0.8, seed=42)
    for side in ("train", "test"):
        assert np.array_equal(getattr(a, side).values, getattr(b, side).values)
        assert np.array_equal(getattr(a, side).labels, getattr(b, side).labels)


def test_stratified_split_reconstructs_multiset(imbalanced_blobs):
    pair = stratified_split(imbalanced_blobs, 0.8, seed=9)
    rows = [np.column_stack([d.values, d.labels]) for d in (pair.train, pair.test, imbalanced_blobs)]
    assert sorted(np.vstack(rows[:2]).tolist()) == sorted(rows[2].tolist())


def test_stratified_split_proportion_bound(imbalanced_blobs):
    pair = stratified_split(imbalanced_blobs, 0.8, seed=11)
    overall = np.mean(imbalanced_blobs.labels)
    train_frac = np.mean(pair.train.labels)
    assert abs(train_frac - overall) <= 1.0 / pair.train.n


def test_stratified_split_requires_two_rows_per_class():
    ds = dataset_from_matrix(np.array([[0.0], [1.0], [2.0]]), [0, 0, 1])
    with pytest.raises(DataError):
        stratified_split(ds, 0.8, seed=0)


def test_occ_split_counts(imbalanced_blobs):
    pair = occ_split(imbalanced_blobs)
    assert pair.train.n == 88
    assert pair.test.n == 12
    assert set(pair.train.labels) == {0}
    assert set(pair.test.labels) == {1}


def test_occ_split_all_negative_errors():
    ds = dataset_from_matrix(np.zeros((4, 1)), [0, 0, 0, 0])
    with pytest.raises(DataError):
        occ_split(ds)


def test_occ_split_preserves_order():
    ds = dataset_from_matrix(np.arange(8).reshape(4, 2).astype(float), [0, 1, 0, 1])
    pair = occ_split(ds)
    assert np.array_equal(pair.train.values, ds.values[[0, 2]])
    assert np.array_equal(pair.test.values, ds.values[[1, 3]])


def test_save_split_writes_manifest(tmp_path, imbalanced_blobs):
    pair = stratified_split(imbalanced_blobs, 0.8, seed=2)
    save_split(pair, tmp_path, train_fraction=0.8)
    assert (tmp_path / "train.csv").exists()
    assert (tmp_path / "test.csv").exists()
    manifest = (tmp_path / "split_manifest.json").read_text()
    assert '"seed": 2' in manifest


def test_matrix_is_the_stored_read_only_array():
    ds = dataset_from_matrix(np.arange(6.0).reshape(3, 2))
    m = ds.matrix()
    assert np.shares_memory(m, ds.matrix())
    assert np.shares_memory(m, ds.values)
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_data_stages_peak_below_eight_matrices():
    import tracemalloc

    x = np.random.default_rng(0).uniform(size=(20_000, 30))
    tracemalloc.start()
    try:
        raw = dataset_from_matrix(x)
        clean = cleanse(raw)
        params = fit_normalize(clean)
        scaled = apply_normalize(clean, params)
        m = scaled.matrix()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.shape == x.shape
    assert peak < 8 * x.nbytes, f"peak {peak / x.nbytes:.1f}x the matrix"


def test_dataset_leaves_the_callers_label_array_writable():
    y = np.array([0, 1, 0])
    ds = dataset_from_matrix(np.zeros((3, 2)), y)
    y[0] = 1
    assert ds.labels.tolist() == [0, 1, 0]


@pytest.mark.parametrize("index", [2.0, 0.5, -1.0])
def test_dataset_rejects_a_categorical_cell_that_is_not_a_category_index(mixed_schema, index):
    # color has two categories, so its cells are 0, 1 or a null
    with pytest.raises(DataError, match="'color': a categorical cell must be a category index or NaN"):
        dataset_from_matrix(np.array([[0, 1.0, 2.0], [index, 3.0, 4.0]]), schema=mixed_schema)


def test_dataset_from_matrix_nulls_the_non_finite_cells_of_a_mixed_schema(mixed_schema):
    x = np.array([[0, np.inf, 2.0], [np.inf, 3.0, 4.0], [1, 5.0, -np.inf], [np.nan, 6.0, 7.0], [1, 8.0, 9.0]])
    ds = dataset_from_matrix(x, [0, 1, 0, 1, 1], schema=mixed_schema)
    assert np.array_equal(np.isnan(ds.values), ~np.isfinite(x))
    assert np.array_equal(ds.values[~np.isnan(ds.values)], x[np.isfinite(x)])
    clean = cleanse(ds, 0.9)
    assert clean.values.tolist() == [[1.0, 8.0, 9.0]] and clean.labels.tolist() == [1]
    assert np.isfinite(x).sum() == 11  # the caller's matrix is copied, not nulled in place


@pytest.mark.parametrize(
    "values",
    [np.zeros((2, 2)), np.zeros((2, 4)), np.zeros(3), np.zeros((2, 3), dtype=int), [[0.0, 1.0, 2.0]]],
    ids=["narrow", "wide", "1-d", "int", "list"],
)
def test_dataset_constructor_takes_only_a_float_matrix_of_the_schemas_width(mixed_schema, values):
    with pytest.raises(DataError, match="values must be a float64 matrix of 3 columns"):
        Dataset(mixed_schema, values)


def test_dataset_constructor_keeps_the_matrix_it_is_given(mixed_schema):
    x = np.array([[1, 5.0, np.nan]])
    ds = Dataset(mixed_schema, x, [1])
    assert ds.values is x and not x.flags.writeable  # no copy


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_dataset_constructor_rejects_an_infinite_cell(mixed_schema, bad):
    # an inf kept in values would keep its row through cleanse and become a
    # bound of fit_normalize; dataset_from_matrix and load_csv make it a null
    with pytest.raises(DataError, match="infinite"):
        Dataset(mixed_schema, np.array([[1, 5.0, bad]]))


@pytest.mark.parametrize("labels", [[0.5, 1.0], [0.0, 0.999], [1.0, np.nan]])
def test_dataset_rejects_labels_that_are_not_exactly_0_or_1(labels):
    with pytest.raises(DataError, match="0/1"):
        dataset_from_matrix(np.zeros((2, 1)), labels)
