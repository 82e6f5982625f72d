"""Manifest/blob persistence and the .sgd dataset format."""
import contextlib
import dataclasses
import json
import struct
import tempfile
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_group_assignment, random_group_mask
from sgconv import model as model_module
from sgconv.cli import main
from sgconv.data import MAGIC, load_dataset, make_blob_dataset, save_dataset
from sgconv.deploy import convert_layer
from sgconv.io import (KINDS, ModelFormatError, OverlappingRangesError, TruncatedBlobError,
                       VersionMismatchError, _BlobReader, _BlobWriter, load_model, save_model,
                       sgm_paths)
from sgconv.model import AffineLayer, ConvLayer, FcLayer, Model, apply_mask, build_toy_cnn
from sgconv.ops import ACTIVATIONS


def rewrite(path, data):
    """Write ``data`` (str or bytes) to ``path`` as a new file. The byte-fuzz
    tests rewrite one file per example: ext4 flushes a file truncated and
    rewritten in place when it is closed (its auto_da_alloc default), which
    can cost tens of ms per write, while a file written afresh is not flushed."""
    path.unlink(missing_ok=True)
    (path.write_text if isinstance(data, str) else path.write_bytes)(data)


def save_load(model, tmp_path, name="m"):
    manifest, blob = sgm_paths(tmp_path / name)
    save_model(model, manifest, blob)
    return load_model(manifest, blob), manifest, blob


def prune_a_bit(model, rng):
    layer = model.layer("conv2")
    layer.grouping = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.int64)
    layer.mask[(layer.grouping == 1)[:, None] & (np.arange(8) == 3)[None, :]] = False
    layer.mask[(layer.grouping == 2)[:, None] & (np.arange(8) < 2)[None, :]] = False
    apply_mask(layer)
    fc = model.layer("fc1")
    fc.grouping = np.zeros(10, dtype=np.int64)
    fc.mask[:, rng.integers(0, 128, 20)] = False
    apply_mask(fc)
    return model


def test_roundtrip_bit_exact(tmp_path, rng):
    model = prune_a_bit(build_toy_cnn(3), rng)
    loaded, manifest, blob = save_load(model, tmp_path)
    for orig, back in zip(model.layers, loaded.layers):
        np.testing.assert_array_equal(orig.weight, back.weight)
        np.testing.assert_array_equal(orig.bias, back.bias)
        if orig.kind in ("conv2d", "fc"):
            np.testing.assert_array_equal(orig.mask, back.mask)
            if orig.grouping is None:
                assert back.grouping is None
            else:
                np.testing.assert_array_equal(orig.grouping, back.grouping)
            assert orig.compress == back.compress
        assert orig.activation == back.activation


def test_save_is_byte_deterministic(tmp_path, rng):
    model = prune_a_bit(build_toy_cnn(3), rng)
    m1, b1 = sgm_paths(tmp_path / "a")
    m2, b2 = sgm_paths(tmp_path / "b")
    save_model(model, m1, b1)
    save_model(model, m2, b2)
    assert m1.read_bytes() == m2.read_bytes()
    assert b1.read_bytes() == b2.read_bytes()


def test_save_load_save_byte_identical(tmp_path, rng):
    model = prune_a_bit(build_toy_cnn(3), rng)
    loaded, m1, b1 = save_load(model, tmp_path, "a")
    m2, b2 = sgm_paths(tmp_path / "b")
    save_model(loaded, m2, b2)
    assert m1.read_bytes() == m2.read_bytes()
    assert b1.read_bytes() == b2.read_bytes()


def test_pruned_reload_forward_bit_exact(tmp_path, rng):
    model = prune_a_bit(build_toy_cnn(3), rng)
    loaded, _, _ = save_load(model, tmp_path)
    x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
    np.testing.assert_array_equal(model.forward(x), loaded.forward(x))


def test_empty_model(tmp_path):
    loaded, manifest, _ = save_load(Model(layers=[]), tmp_path)
    assert loaded.layers == []
    assert json.loads(manifest.read_text())["layers"] == []


def test_toy_fixture_parameter_count(tmp_path):
    # independent count from the manifest records alone:
    # conv 3->8 k3, conv 8->8 k3, fc 128->10, biases 8+8+10 -> 2098
    _, manifest, _ = save_load(build_toy_cnn(0), tmp_path)
    records = json.loads(manifest.read_text())["layers"]
    count = 0
    for rec in records:
        if rec["kind"] == "conv2d":
            count += rec["out_channels"] * rec["in_channels"] * rec["kernel_size"] ** 2
            count += rec["bias_length"] // 4
        elif rec["kind"] == "fc":
            count += rec["out_features"] * rec["in_features"]
            count += rec["bias_length"] // 4
    assert count == 3 * 8 * 9 + 8 * 8 * 9 + 128 * 10 + (8 + 8 + 10) == 2098


def test_truncated_blob(tmp_path):
    model = build_toy_cnn(1)
    manifest, blob = sgm_paths(tmp_path / "t")
    save_model(model, manifest, blob)
    blob.write_bytes(blob.read_bytes()[:-40])
    with pytest.raises(TruncatedBlobError):
        load_model(manifest, blob)


def test_offset_beyond_blob(tmp_path):
    model = build_toy_cnn(1)
    manifest, blob = sgm_paths(tmp_path / "t")
    save_model(model, manifest, blob)
    doc = json.loads(manifest.read_text())
    doc["layers"][0]["blob_offset"] = 10 ** 6
    manifest.write_text(json.dumps(doc))
    with pytest.raises(TruncatedBlobError):
        load_model(manifest, blob)


def test_overlapping_ranges(tmp_path):
    model = build_toy_cnn(1)
    manifest, blob = sgm_paths(tmp_path / "t")
    save_model(model, manifest, blob)
    doc = json.loads(manifest.read_text())
    doc["layers"][1]["blob_offset"] = doc["layers"][0]["blob_offset"]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(OverlappingRangesError):
        load_model(manifest, blob)


@pytest.mark.parametrize("where", ["trailing", "gap"])
def test_blob_bytes_that_no_range_claims_are_refused(tmp_path, capsys, where):
    """Such bytes loaded, and a re-save dropped them, so load -> save did not
    reproduce the file; the error names the byte span."""
    manifest, blob = sgm_paths(tmp_path / "t")
    save_model(build_toy_cnn(1), manifest, blob)
    raw, doc = blob.read_bytes(), json.loads(manifest.read_text())
    cut = len(raw) if where == "trailing" else doc["layers"][1]["blob_offset"]
    blob.write_bytes(raw[:cut] + bytes(8) + raw[cut:])
    for rec in doc["layers"]:
        for key in ("blob_offset", "bias_offset"):
            if rec[key] >= cut:
                rec[key] += 8
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=rf"blob bytes \[{cut}, {cut + 8}\) "
                                               rf"belong to no range"):
        load_model(manifest, blob)
    assert main(["report", "--model", str(manifest)]) == 2
    assert f"[{cut}, {cut + 8}) belong to no range" in capsys.readouterr().err


def test_version_mismatch(tmp_path):
    model = build_toy_cnn(1)
    manifest, blob = sgm_paths(tmp_path / "t")
    save_model(model, manifest, blob)
    doc = json.loads(manifest.read_text())
    doc["format_version"] = 99
    manifest.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatchError):
        load_model(manifest, blob)


@pytest.mark.parametrize("version", [True, 1.0])
def test_version_equal_to_1_but_not_the_integer(tmp_path, version):
    manifest, blob = sgm_paths(tmp_path / "t")
    save_model(build_toy_cnn(1), manifest, blob)
    doc = json.loads(manifest.read_text())
    doc["format_version"] = version
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="format_version"):
        load_model(manifest, blob)


def test_first_conv_compress_rejected(tmp_path, rng):
    bad = Model(layers=[ConvLayer("c0", rng.standard_normal((2, 1, 3, 3)).astype(np.float32),
                                  compress=True)])
    manifest, blob = sgm_paths(tmp_path / "bad")
    with pytest.raises(ValueError, match="compress"):
        save_model(bad, manifest, blob)
    good = Model(layers=[ConvLayer("c0", bad.layers[0].weight, compress=False)])
    save_model(good, manifest, blob)
    doc = json.loads(manifest.read_text())
    doc["layers"][0]["compress"] = True
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="compress"):
        load_model(manifest, blob)


def test_duplicate_layer_names_are_refused_before_writing(tmp_path):
    model = build_toy_cnn(0)
    model.layer("fc1").name = "conv2"
    manifest, blob = sgm_paths(tmp_path / "dup")
    with pytest.raises(ValueError, match="duplicate layer name 'conv2'"):
        save_model(model, manifest, blob)
    assert not manifest.exists() and not blob.exists()


@pytest.mark.parametrize("given", ["m", "m.sgm.json", "m.sgm.bin"])
def test_sgm_paths_take_a_prefix_or_either_file(tmp_path, given):
    assert sgm_paths(tmp_path / given) == (tmp_path / "m.sgm.json", tmp_path / "m.sgm.bin")


def test_bad_json_and_missing_version(tmp_path):
    manifest, blob = sgm_paths(tmp_path / "x")
    blob.write_bytes(b"")
    manifest.write_text("{not json")
    with pytest.raises(ModelFormatError, match="JSON"):
        load_model(manifest, blob)
    manifest.write_text(json.dumps({"layers": []}))
    with pytest.raises(ModelFormatError, match="format_version"):
        load_model(manifest, blob)


def test_groupconv_roundtrip_identical_outputs(tmp_path, rng):
    from sgconv.deploy import convert_model
    model = prune_a_bit(build_toy_cnn(5), rng)
    deployed = convert_model(model)
    loaded, _, _ = save_load(deployed, tmp_path, "deployed")
    x = rng.standard_normal((3, 3, 8, 8)).astype(np.float32)
    np.testing.assert_array_equal(deployed.forward(x), loaded.forward(x))


def test_groupconv_too_many_outputs_is_a_format_error(tmp_path, rng, capsys):
    # the filter count is compared first: enumerating 10**13 ids would not fit in memory
    from sgconv.deploy import convert_model
    manifest, blob = sgm_paths(tmp_path / "d")
    save_model(convert_model(prune_a_bit(build_toy_cnn(5), rng)), manifest, blob)
    doc = json.loads(manifest.read_text())
    rec = next(rec for rec in doc["layers"] if rec["name"] == "conv2")
    assert rec["kind"] == "groupconv"
    del rec["bias_offset"], rec["bias_length"]
    rec["out_channels"] = 10**13
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="do not partition"):
        load_model(manifest, blob)
    assert main(["report", "--model", str(manifest)]) == 2
    assert "error:" in capsys.readouterr().err


# Keys the loader needs, per record kind; optional keys (bias, mask and
# grouping references) are left out.
REQUIRED_KEYS = {
    "conv2d": ["name", "kind", "out_channels", "in_channels", "kernel_size", "stride",
               "padding", "activation", "compress", "blob_offset", "blob_length"],
    "fc": ["name", "kind", "out_features", "in_features", "activation", "compress",
           "blob_offset", "blob_length"],
    "groupconv": ["name", "kind", "out_channels", "in_channels", "kernel_size", "stride",
                  "padding", "activation", "source", "groups"],
    "affine_passthrough": ["name", "kind", "channels", "activation", "blob_offset",
                           "blob_length", "bias_offset", "bias_length"],
    "groups": ["filters", "channels", "blob_offset", "blob_length"],
    "masks": ["bits"],
    "groupings": ["num_groups", "assignment"],
}
MALFORMED = [(where, key) for where, keys in REQUIRED_KEYS.items() for key in keys]
# (id, where, key, value): a field of the first record of ``where`` set to a bad value
BAD_VALUES = [
    ("groups-overlapping-filters", "groups", "filters", [0, 1, 4]),
    ("groups-filters-not-a-partition", "groups", "filters", [0, 2, 7]),
    ("groups-channel-out-of-range", "groups", "channels", [0, 1, 2, 3, 4, 6]),
    ("groups-channel-twice", "groups", "channels", [0, 1, 2, 3, 4, 4]),
    ("masks-short-bits", "masks", "bits", "AAA="),
    ("groupconv-unknown-source", "groupconv", "source", "pool"),
    ("conv2d-stride-zero", "conv2d", "stride", 0),
    ("conv2d-stride-fraction", "conv2d", "stride", 1.5),
    ("conv2d-padding-negative", "conv2d", "padding", -1),
    ("conv2d-unknown-activation", "conv2d", "activation", "tanh"),
    ("fc-unknown-activation", "fc", "activation", "sigmoid"),
    ("affine-unknown-activation", "affine_passthrough", "activation", "tanh"),
    ("groupconv-stride-zero", "groupconv", "stride", 0),
    ("groupconv-stride-fraction", "groupconv", "stride", 1.5),
    ("groupconv-padding-negative", "groupconv", "padding", -1),
    ("groupconv-unknown-activation", "groupconv", "activation", "tanh"),
    # a fractional index would be floored into a valid one
    ("groupings-fractional-group-id", "groupings", "assignment", [0.5, 1, 0, 1, 0, 1]),
    ("groups-fractional-filter", "groups", "filters", [0, 2, 4.5]),
    ("groups-fractional-channel", "groups", "channels", [0, 1, 2, 3, 4, 5.5]),
    ("groupings-num-groups-fraction", "groupings", "num_groups", 2.5),
    # ids 0..1 would be re-saved with num_groups 2
    ("groupings-num-groups-above-largest-id", "groupings", "num_groups", 5),
    # a string "false" is truthy: the layer would count as compressible
    ("fc-compress-string", "fc", "compress", "false"),
    ("fc-compress-int", "fc", "compress", 0),
    ("conv2d-name-number", "conv2d", "name", 5),
    # the manifest's top-level input_shape
    ("input-shape-not-a-list", "manifest", "input_shape", "3,8,8"),
    ("input-shape-float", "manifest", "input_shape", [3, 8.5, 8]),  # 8 would fit
    ("input-shape-true", "manifest", "input_shape", [True, 8, 8]),
    ("input-shape-zero", "manifest", "input_shape", [3, 0, 8]),
    ("input-shape-first-layer-rejects", "manifest", "input_shape", [4, 8, 8]),
    ("input-shape-scalar-into-a-conv", "manifest", "input_shape", []),  # fc-first models take it
]


def every_kind_model(rng):
    """conv -> affine -> pruned conv -> group conv -> pruned fc -> group fc,
    recording its 3x8x8 input shape."""
    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    def pruned(layer):
        layer.grouping = np.arange(layer.mask.shape[0], dtype=np.int64) % 2
        layer.mask[layer.grouping == 1, 0] = False
        apply_mask(layer)
        return layer

    group_conv = pruned(ConvLayer("gconv", f32(6, 6, 1, 1), f32(6)))
    group_fc = pruned(FcLayer("gfc", f32(3, 5), f32(3)))
    return Model(input_shape=(3, 8, 8), layers=[
        ConvLayer("conv1", f32(4, 3, 3, 3), f32(4), activation="relu", compress=False),
        AffineLayer("bn", f32(4), f32(4)),
        pruned(ConvLayer("conv2", f32(6, 4, 3, 3), f32(6), activation="relu")),
        convert_layer(group_conv),
        pruned(FcLayer("fc", f32(5, 6 * 4 * 4), f32(5))),
        convert_layer(group_fc),
    ])


def test_every_kind_model_roundtrips(tmp_path, rng):
    model = every_kind_model(rng)
    loaded, _, _ = save_load(model, tmp_path)
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    np.testing.assert_array_equal(model.forward(x), loaded.forward(x))


def test_kind_table_holds_every_layer_class():
    """A layer class without a KINDS entry could be built but never saved."""
    classes = {obj for obj in vars(model_module).values()
               if isinstance(obj, type) and isinstance(getattr(obj, "kind", None), str)}
    assert set(KINDS.values()) == classes and len(classes) == 4
    for kind, cls in KINDS.items():
        assert cls.kind == kind and callable(cls.to_record) and callable(cls.from_record)


def random_kind_chain(data):
    """A flat chain of conv, fc and affine layers and of group layers from
    convert_layer, each with or without bias, random masks, groupings and
    compress flags; and its per-sample input shape."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    size = data.draw(st.integers(3, 7), label="size")
    input_shape = shape = (data.draw(st.integers(1, 5), label="channels"), size, size)
    layers = []
    for i in range(data.draw(st.integers(1, 5), label="depth")):
        kind = data.draw(st.sampled_from(
            ["conv2d", "groupconv", "fc", "groupfc", "affine"] if len(shape) == 3
            else ["fc", "groupfc", "affine"]), label=f"kind{i}")
        activation = data.draw(st.sampled_from(ACTIVATIONS), label=f"activation{i}")
        if kind == "affine":
            layers.append(AffineLayer(f"l{i}", f32(shape[0]), f32(shape[0]), activation))
            continue
        c_out = data.draw(st.integers(1, 6), label=f"c_out{i}")
        bias = f32(c_out) if data.draw(st.booleans(), label=f"bias{i}") else None
        # the first plain conv feeds raw input and is never compressed
        first_conv = kind == "conv2d" and not any(l.kind == "conv2d" for l in layers)
        compress = not first_conv and data.draw(st.booleans(), label=f"compress{i}")
        if kind in ("conv2d", "groupconv"):
            padding = data.draw(st.integers(0, 1), label=f"padding{i}")
            kernel = 3 if shape[1] + 2 * padding >= 3 and rng.random() < 0.5 else 1
            layer = ConvLayer(f"l{i}", f32(c_out, shape[0], kernel, kernel), bias,
                              stride=data.draw(st.integers(1, 2), label=f"stride{i}"),
                              padding=padding, activation=activation, compress=compress)
        else:
            layer = FcLayer(f"l{i}", f32(c_out, int(np.prod(shape))), bias,
                            activation=activation, compress=compress)
        if kind.startswith("group") or data.draw(st.booleans(), label=f"grouped{i}"):
            layer.grouping = random_group_assignment(rng, c_out, int(rng.integers(1, 5)))
            layer.mask = random_group_mask(rng, layer.grouping, layer.mask.shape[1])
        elif data.draw(st.booleans(), label=f"masked{i}"):
            layer.mask = rng.random(layer.mask.shape) < 0.6
        apply_mask(layer)
        layers.append(convert_layer(layer) if kind.startswith("group") else layer)
        shape = layers[-1].out_shape(shape)
    return Model(layers, input_shape), input_shape


@settings(max_examples=150)
@given(data=st.data())
def test_random_chains_of_every_kind_roundtrip(data):
    """save -> load -> save writes the same bytes, recorded input shape
    included, and the reloaded model's forward is bit-identical."""
    model, shape = random_kind_chain(data)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = sgm_paths(Path(tmp) / "a"), sgm_paths(Path(tmp) / "b")
        save_model(model, *first)
        loaded = load_model(*first)
        assert loaded.input_shape == shape
        save_model(loaded, *second)
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()
    x = np.random.default_rng(0).standard_normal((2, *shape)).astype(np.float32)
    assert model.forward(x).tobytes() == loaded.forward(x).tobytes()


def assert_same(a, b, what):
    """Two layers, or parts of them, equal field by field; arrays in values and dtype."""
    assert type(a) is type(b), what
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            if f.compare:
                assert_same(getattr(a, f.name), getattr(b, f.name), f"{what}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, what
        np.testing.assert_array_equal(a, b, err_msg=what)
    elif isinstance(a, list):
        assert len(a) == len(b), what
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{what}[{i}]")
    else:
        assert a == b, what


@settings(max_examples=150)
@given(data=st.data())
def test_every_record_reads_back_its_layer(data):
    """A layer's record holds all of it: from_record, given only what to_record
    stored through the in-memory blob writer (its records, masks and
    groupings as JSON, as a manifest holds them), rebuilds the weights,
    bias, mask, grouping and settings."""
    model, _ = random_kind_chain(data)
    writer = _BlobWriter()
    records = json.loads(json.dumps([layer.to_record(writer) for layer in model.layers]))
    masks, groupings = json.loads(json.dumps([writer.masks, writer.groupings]))
    reader = _BlobReader(writer.bytes(), "memory", masks, groupings)
    for layer, rec in zip(model.layers, records, strict=True):
        assert_same(layer, KINDS[rec["kind"]].from_record(rec, reader), layer.name)


DELETE = object()


@pytest.mark.parametrize(
    "where,key,value",
    [(w, k, DELETE) for w, k in MALFORMED] + [("layers", None, DELETE)]
    + [case[1:] for case in BAD_VALUES],
    ids=[f"{w}-{k}" for w, k in MALFORMED] + ["layers-not-a-list"]
    + [case[0] for case in BAD_VALUES])
def test_malformed_manifest_is_a_format_error(tmp_path, rng, capsys, where, key, value):
    manifest, blob = sgm_paths(tmp_path / "m")
    save_model(every_kind_model(rng), manifest, blob)
    doc = json.loads(manifest.read_text())
    if where == "layers":
        doc["layers"] = {rec["name"]: rec for rec in doc["layers"]}
    else:
        if where == "manifest":
            records = [doc]
        elif where in ("masks", "groupings"):
            records = list(doc[where].values())
        elif where == "groups":
            records = [rec["groups"][0] for rec in doc["layers"] if "groups" in rec]
        else:
            records = [rec for rec in doc["layers"] if rec["kind"] == where]
        assert records, where
        if value is DELETE:
            del records[0][key]
        else:
            assert key in records[0] and records[0][key] != value
            records[0][key] = value
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError):
        load_model(manifest, blob)
    assert main(["report", "--model", str(manifest)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("layer,key,value", [
    ("conv2", "out_channels", 8.0), ("conv2", "kernel_size", 3.0),
    ("fc1", "in_features", "128"), ("conv2", "in_channels", True),
    ("conv1", "blob_length", 864.0), ("conv1", "blob_offset", 0.0),
    ("conv1", "blob_offset", True), ("fc1", "bias_offset", 8352.0),
    ("gfc.group0", "blob_offset", 8392.0), ("gfc.group1", "blob_length", True),
    ("gfc", "bias_length", 40.0)])
def test_size_field_that_is_not_an_integer_is_named(tmp_path, capsys, layer, key, value):
    """numpy fails on 8.0 or "128" as a size or a blob range without naming
    the field, 864.0 as a blob length passes the range checks, and True is
    taken for 1; the loader refuses each first, by layer and field. A group
    record of layer gfc is named gfc.group<index>."""
    model = build_toy_cnn(0)
    gfc = FcLayer("gfc", np.ones((10, 10), np.float32), np.zeros(10, np.float32))
    gfc.grouping = np.arange(10) % 2
    gfc.mask[gfc.grouping == 1, :5] = False
    apply_mask(gfc)
    model.layers.append(convert_layer(gfc))
    manifest, blob = sgm_paths(tmp_path / "m")
    save_model(model, manifest, blob)
    doc = json.loads(manifest.read_text())
    name, _, group = layer.partition(".group")
    rec = next(rec for rec in doc["layers"] if rec["name"] == name)
    rec = rec["groups"][int(group)] if group else rec
    assert key in rec
    rec[key] = value
    manifest.write_text(json.dumps(doc))
    assert main(["report", "--model", str(manifest)]) == 2
    assert f"layer {layer!r}: {key} must be an integer, got {value!r}" in \
        capsys.readouterr().err


# values no larger than 10**6, so one that passes validation fails its allocation
# at once rather than paging the machine
ODD_VALUES = [0, -1, 2.5, True, None, "x", [], {}, 10**6]


def test_every_one_field_mutation_exits_0_or_2(tmp_path, rng, capsys):
    """Every field of every record set to each odd value in turn: report and
    eval either run or refuse with a named error, never a traceback."""
    manifest, blob = sgm_paths(tmp_path / "m")
    save_model(every_kind_model(rng), manifest, blob)
    data = tmp_path / "d.sgd"
    save_dataset(make_blob_dataset(4, seed=1), data)
    doc = json.loads(manifest.read_text())
    records = (doc["layers"] + [g for rec in doc["layers"] for g in rec.get("groups", [])]
               + list(doc["masks"].values()) + list(doc["groupings"].values()))
    fields = [(doc, "format_version")] + [(rec, key) for rec in records for key in rec]
    assert len(fields) == 97
    failures = []
    for rec, key in fields:
        for value in ODD_VALUES:
            original, rec[key] = rec[key], value
            rewrite(manifest, json.dumps(doc))
            rec[key] = original
            for command in ("report", "eval"):
                try:
                    code = main([command, "--model", str(manifest), "--data", str(data)])
                except Exception as exc:  # an escaping exception fails like a bad exit code
                    code = repr(exc)[:80]
                err = capsys.readouterr().err
                if code not in (0, 2) or (code == 2 and "error:" not in err):
                    failures.append((rec.get("name"), key, value, command, code))
    assert failures == []


def small_pruned_model(seed=0):
    """conv 3->4, conv 4->4 and fc 64->2 on 8x8 images, both later layers pruned
    in groups: 390 weights and biases, a 1,560-byte blob."""
    rng = np.random.default_rng(seed)

    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    conv2 = ConvLayer("conv2", f32(4, 4, 3, 3), f32(4), activation="relu")
    conv2.grouping = np.array([0, 1, 0, 1])
    conv2.mask[conv2.grouping == 1, :2] = False
    fc = FcLayer("fc", f32(2, 64), f32(2))
    fc.grouping = np.array([0, 1])
    fc.mask[0, ::3] = False
    for layer in (conv2, fc):
        apply_mask(layer)
    return Model([ConvLayer("conv1", f32(4, 3, 3, 3), f32(4), activation="relu",
                            compress=False), conv2, fc])


def run_cli(argv):
    """Exit code and stderr of one in-process CLI run; an escaping exception
    gives its repr in place of the code."""
    err = StringIO()
    with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # an escaping exception fails like a bad exit code
            code = repr(exc)[:80]
    return code, err.getvalue()


BLOB_COMMANDS = {
    "eval": lambda prefix, data: ["eval", "--model", str(prefix), "--data", str(data)],
    "report": lambda prefix, data: ["report", "--model", str(prefix), "--data", str(data)],
    "deploy": lambda prefix, data: ["deploy", "--model", str(prefix),
                                    "--out", str(prefix.parent / "out")],
}


@pytest.fixture(scope="module")
def blob_workdir(tmp_path_factory):
    """The small pruned model, its deployed form and a 4-sample dataset."""
    from sgconv.deploy import convert_model
    workdir = tmp_path_factory.mktemp("blob")
    model = small_pruned_model()
    save_model(model, *sgm_paths(workdir / "pruned"))
    save_model(convert_model(model), *sgm_paths(workdir / "deployed"))
    save_dataset(make_blob_dataset(4, seed=1), workdir / "d.sgd")
    return workdir


def blob_exit(workdir, which, blob_bytes, command):
    """Exit code and stderr of ``command`` on model ``which`` with its blob
    replaced by ``blob_bytes``; the manifest is the saved one."""
    manifest, blob = sgm_paths(workdir / "case")
    rewrite(manifest, (workdir / f"{which}.sgm.json").read_bytes())
    rewrite(blob, blob_bytes)
    return run_cli(BLOB_COMMANDS[command](workdir / "case", workdir / "d.sgd"))


@settings(max_examples=300)
@given(data=st.data())
def test_flipped_model_blob_bytes_exit_0_2_or_3(blob_workdir, data):
    which = data.draw(st.sampled_from(["pruned", "deployed"]))
    command = data.draw(st.sampled_from(sorted(BLOB_COMMANDS)))
    raw = bytearray((blob_workdir / f"{which}.sgm.bin").read_bytes())
    positions = data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=4,
                                   unique=True))
    for pos in positions:
        raw[pos] ^= data.draw(st.integers(1, 255))
    if data.draw(st.booleans()):  # and one float made NaN, which few flips reach
        top = 4 * data.draw(st.integers(0, len(raw) // 4 - 1)) + 2
        raw[top:top + 2] = b"\xff\xff"
    with np.errstate(all="ignore"):  # flipped exponent bits overflow on purpose
        code, err = blob_exit(blob_workdir, which, bytes(raw), command)
    assert code in (0, 2, 3), (which, command, positions, code, err)
    assert code == 0 or "error:" in err, (which, command, positions, code, err)


@pytest.mark.parametrize("which,size", [("pruned", 1560), ("deployed", 1328)])
def test_truncated_model_blob_exits_2_at_every_length(blob_workdir, which, size):
    """Every length short of the whole blob, each through one of the commands
    in turn (they share the loader); the deployed blob holds no pruned weights."""
    raw = (blob_workdir / f"{which}.sgm.bin").read_bytes()
    assert len(raw) == size
    commands = sorted(BLOB_COMMANDS)
    for length in range(len(raw)):
        command = commands[length % len(commands)]
        code, err = blob_exit(blob_workdir, which, raw[:length], command)
        assert code == 2 and "error:" in err, (length, command, code, err)


@pytest.fixture(scope="module")
def fields_workdir(tmp_path_factory):
    """A model with a record of every kind, its blob and a 4-sample dataset."""
    workdir = tmp_path_factory.mktemp("fields")
    save_model(every_kind_model(np.random.default_rng(3)), *sgm_paths(workdir / "m"))
    save_dataset(make_blob_dataset(4, seed=1), workdir / "d.sgd")
    return workdir


@settings(max_examples=200)
@given(data=st.data())
def test_several_bad_manifest_fields_at_once_exit_0_or_2(fields_workdir, data):
    base_manifest, base_blob = sgm_paths(fields_workdir / "m")
    manifest, blob = sgm_paths(fields_workdir / "case")
    rewrite(blob, base_blob.read_bytes())
    doc = json.loads(base_manifest.read_text())
    records = {
        "groups": [g for rec in doc["layers"] for g in rec.get("groups", [])],
        "masks": list(doc["masks"].values()),
        "groupings": list(doc["groupings"].values()),
        "manifest": [doc],
    }
    cases = data.draw(st.lists(st.sampled_from(BAD_VALUES), min_size=2, max_size=4,
                               unique_by=lambda case: case[1:3]))
    for _, where, key, value in cases:
        targets = records.get(where) or [rec for rec in doc["layers"] if rec["kind"] == where]
        targets[data.draw(st.integers(0, len(targets) - 1))][key] = value
    rewrite(manifest, json.dumps(doc))
    for command in ("report", "eval"):
        code, err = run_cli([command, "--model", str(manifest), "--data",
                             str(fields_workdir / "d.sgd")])
        assert code == 0 or (code == 2 and "error:" in err), (cases, command, code, err)


# ---------------------------------------------------------------- datasets

def test_dataset_roundtrip(tmp_path):
    ds = make_blob_dataset(40, num_classes=3, image_size=6, channels=2, seed=9)
    path = tmp_path / "d.sgd"
    save_dataset(ds, path)
    back = load_dataset(path)
    np.testing.assert_array_equal(ds.features, back.features)
    np.testing.assert_array_equal(ds.labels, back.labels)
    assert back.num_classes == 3


def test_dataset_flat_features(tmp_path, rng):
    from sgconv.data import Dataset
    ds = Dataset(features=rng.standard_normal((10, 7)).astype(np.float32),
                 labels=np.zeros(10, np.int32), num_classes=1)
    path = tmp_path / "flat.sgd"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.features.shape == (10, 7)


def test_dataset_truncation_and_magic(tmp_path):
    ds = make_blob_dataset(8, seed=0)
    path = tmp_path / "d.sgd"
    save_dataset(ds, path)
    whole = path.read_bytes()
    path.write_bytes(whole[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_dataset(path)
    model_prefix = tmp_path / "toy"
    save_model(build_toy_cnn(0), *sgm_paths(model_prefix))
    ds.features[3, 1, 4, 4] = np.nan  # one NaN pixel
    save_dataset(ds, path)
    with pytest.raises(ValueError, match="non-finite") as err:
        load_dataset(path)
    assert str(path) in str(err.value)
    assert main(["eval", "--model", str(model_prefix), "--data", str(path)]) == 2
    path.write_bytes(whole + b"\x00" * 400)
    with pytest.raises(ValueError, match="400 bytes past the labels") as err:
        load_dataset(path)
    assert str(path) in str(err.value)
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_dataset(path)
    bad_headers = [
        MAGIC + b"\x00" * 6,                              # 10 bytes: header cut short
        MAGIC + struct.pack("<3i", -1, 2, 1) + struct.pack("<i", 4),  # negative count
        MAGIC + struct.pack("<3i", 1, 2, -1),               # negative ndim
        MAGIC + struct.pack("<3i", 1, 2, 3) + struct.pack("<i", 4),   # dims cut short
        MAGIC + struct.pack("<3i", 1, 2, 1) + struct.pack("<i", -4),  # negative dim
    ]
    for raw in bad_headers:
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="header"):
            load_dataset(path)
        assert main(["eval", "--model", str(model_prefix), "--data", str(path)]) == 2


def eval_exit(workdir, data_bytes):
    """Exit code and stderr of ``sgconv eval`` of the toy net in ``workdir`` on a
    dataset file holding ``data_bytes``."""
    rewrite(workdir / "d.sgd", data_bytes)
    return run_cli(["eval", "--model", str(workdir / "toy"), "--data", str(workdir / "d.sgd")])


@pytest.fixture(scope="module")
def sgd_workdir(tmp_path_factory):
    """The toy net and a one-sample dataset (800 bytes, 28 of them header)."""
    workdir = tmp_path_factory.mktemp("sgd")
    save_model(build_toy_cnn(0), *sgm_paths(workdir / "toy"))
    save_dataset(make_blob_dataset(1, seed=3), workdir / "base.sgd")
    return workdir


@settings(max_examples=300)
@given(data=st.data())
def test_flipped_dataset_bytes_exit_0_or_2(sgd_workdir, data):
    raw = bytearray((sgd_workdir / "base.sgd").read_bytes())
    fields = (4, 16 + 4 * 3 - 1)  # count, num_classes, ndim and dims: after the magic
    positions = data.draw(st.one_of(
        st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=1),
        st.lists(st.integers(*fields), min_size=2, max_size=8, unique=True)))
    for pos in positions:
        raw[pos] ^= data.draw(st.integers(1, 255))
    code, err = eval_exit(sgd_workdir, bytes(raw))
    assert code == 0 or (code == 2 and "error:" in err), (positions, code, err)


def test_truncated_dataset_exits_2_at_every_length(sgd_workdir):
    raw = (sgd_workdir / "base.sgd").read_bytes()
    assert len(raw) == 800
    for length in range(len(raw)):
        code, err = eval_exit(sgd_workdir, raw[:length])
        assert code == 2 and "error:" in err, (length, code, err)


def test_blob_generator_properties():
    a = make_blob_dataset(100, seed=4)
    b = make_blob_dataset(100, seed=4)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.features.shape == (100, 3, 8, 8)
    assert a.features.dtype == np.float32
    assert set(np.unique(a.labels)) <= {0, 1}
    assert (a.labels == 0).sum() == 50  # balanced by construction
    c = make_blob_dataset(100, seed=5)
    assert not np.array_equal(a.features, c.features)
