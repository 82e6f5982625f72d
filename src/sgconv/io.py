"""Model persistence: .sgm.json manifest plus .sgm.bin weight blob.

The manifest is UTF-8 JSON with sorted keys, so identical models always
serialize to identical bytes. The blob holds nothing but little-endian
float32 values, laid out in layer order (weights, then bias), each range
referenced from the manifest by byte offset and length. Masks travel in
the manifest as base64-packed row-major bitsets, groupings as plain
integer arrays; neither ever round-trips through floating point.

Each layer class writes and reads its own record's fields (``to_record``,
``from_record``, reached through ``KINDS``); this module keeps the blob,
the manifest's top level, bias ranges, masks and groupings.
"""
from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .model import (AffineLayer, ConvLayer, FcLayer, GroupConvLayer, MaskedLayer, Model,
                    validate_first_conv_uncompressed)

FORMAT_VERSION = 1
KINDS = {cls.kind: cls for cls in (ConvLayer, FcLayer, GroupConvLayer, AffineLayer)}


class ModelFormatError(Exception):
    """Malformed manifest or blob."""


class VersionMismatchError(ModelFormatError):
    """Manifest format_version is not supported."""


class TruncatedBlobError(ModelFormatError):
    """A manifest range points past the end of the blob."""


class OverlappingRangesError(ModelFormatError):
    """Two manifest ranges claim the same blob bytes."""


def sgm_paths(prefix) -> tuple[Path, Path]:
    """Map a path prefix (or an .sgm.json path) to (manifest, blob) paths."""
    text = str(prefix)
    if text.endswith(".sgm.json"):
        text = text[: -len(".sgm.json")]
    elif text.endswith(".sgm.bin"):
        text = text[: -len(".sgm.bin")]
    return Path(text + ".sgm.json"), Path(text + ".sgm.bin")


class _BlobWriter:
    def __init__(self):
        self.chunks = []
        self.offset = 0

    def add(self, arr) -> tuple[int, int]:
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        start = self.offset
        self.chunks.append(data)
        self.offset += len(data)
        return start, len(data)

    def bytes(self) -> bytes:
        return b"".join(self.chunks)


def _encode_mask(mask: np.ndarray) -> str:
    return base64.b64encode(np.packbits(mask.astype(np.uint8).ravel())).decode("ascii")


def _decode_mask(text: str, shape, name) -> np.ndarray:
    raw = base64.b64decode(text)
    count = int(np.prod(shape))
    if len(raw) != -(-count // 8):
        raise ModelFormatError(f"{name}: mask bits hold {len(raw)} bytes, a "
                               f"{shape[0]}x{shape[1]} mask needs {-(-count // 8)}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count)
    return bits.reshape(shape).astype(bool)


def _kind_class(kind):
    if kind not in KINDS:
        raise ModelFormatError(f"unknown layer kind {kind!r}")
    return KINDS[kind]


def save_model(model: Model, manifest_path, blob_path) -> None:
    """Write the manifest and blob; byte-deterministic for identical models."""
    validate_first_conv_uncompressed(model)
    blob = _BlobWriter()
    records = []
    masks = {}
    groupings = {}
    for layer in model.layers:
        rec = {"name": layer.name, "kind": layer.kind, "activation": layer.activation,
               **_kind_class(layer.kind).to_record(layer, blob.add)}
        if getattr(layer, "bias", None) is not None:
            rec["bias_offset"], rec["bias_length"] = blob.add(layer.bias)
        if isinstance(layer, MaskedLayer):
            if not layer.mask.all():
                masks[layer.name] = {"bits": _encode_mask(layer.mask)}
                rec["mask_ref"] = layer.name
            if layer.grouping is not None:
                groupings[layer.name] = {
                    "num_groups": int(layer.grouping.max()) + 1,
                    "assignment": [int(v) for v in layer.grouping],
                }
                rec["grouping_ref"] = layer.name
        records.append(rec)
    manifest = {"format_version": FORMAT_VERSION, "layers": records,
                "masks": masks, "groupings": groupings}
    if model.input_shape is not None:
        manifest["input_shape"] = [int(v) for v in model.input_shape]
    Path(manifest_path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    Path(blob_path).write_bytes(blob.bytes())


class _BlobReader:
    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.path = path
        self.ranges = []

    def fetch(self, rec, shape, what, offset_key="blob_offset", length_key="blob_length"):
        offset, length = rec.get(offset_key), rec.get(length_key)
        if offset is None or length is None:
            raise ModelFormatError(f"{what}: missing {offset_key}/{length_key}")
        count = int(np.prod(shape)) if shape else 0
        if length != count * 4 or offset < 0:
            raise ModelFormatError(
                f"{what}: blob range ({offset}, {length}) does not match shape {tuple(shape)}"
            )
        if offset + length > len(self.raw):
            raise TruncatedBlobError(
                f"{what}: range ends at {offset + length} but {self.path} has "
                f"{len(self.raw)} bytes"
            )
        self.ranges.append((offset, length, what))
        arr = np.frombuffer(self.raw, dtype="<f4", count=count, offset=offset)
        return arr.reshape(shape).copy()

    def bias(self, rec, size):
        """The record's optional (size,) bias, or None."""
        if "bias_offset" not in rec:
            return None
        return self.fetch(rec, (size,), f"{rec['name']}.bias", "bias_offset", "bias_length")

    @staticmethod
    def indices(values, what) -> np.ndarray:
        """A JSON list of integers as an int64 array; a float is rejected, not floored."""
        if not isinstance(values, list) or not all(type(v) is int for v in values):
            raise ModelFormatError(f"{what} must be a list of integers")
        return np.array(values, dtype=np.int64)

    def check_disjoint(self):
        spans = sorted((o, o + l, what) for o, l, what in self.ranges if l > 0)
        for (s0, e0, w0), (s1, e1, w1) in zip(spans, spans[1:]):
            if s1 < e0:
                raise OverlappingRangesError(f"blob ranges overlap: {w0} and {w1}")


def _ref(table, rec, key, name):
    ref = rec[key]
    if ref not in table:
        raise ModelFormatError(f"{name}: {key} {ref!r} not found")
    return table[ref]


def _read_layer(rec, blob, masks, groupings):
    """One layer from its manifest record; KeyError/TypeError/ValueError when malformed."""
    layer = _kind_class(rec["kind"]).from_record(rec, blob)
    if not isinstance(layer, MaskedLayer):
        return layer
    if "mask_ref" in rec:
        bits = _ref(masks, rec, "mask_ref", layer.name)["bits"]
        layer.mask = _decode_mask(bits, layer.mask.shape, layer.name)
    if "grouping_ref" in rec:
        entry = _ref(groupings, rec, "grouping_ref", layer.name)
        assignment = blob.indices(entry["assignment"], f"{layer.name}: grouping assignment")
        num_groups = entry["num_groups"]
        if type(num_groups) is not int:  # 2.5 would load and be re-saved as another count
            raise ModelFormatError(f"{layer.name}: grouping num_groups must be an integer, "
                                   f"got {num_groups!r}")
        if len(assignment) != layer.mask.shape[0]:
            raise ModelFormatError(f"{layer.name}: grouping length {len(assignment)} "
                                   f"!= {layer.mask.shape[0]} filters")
        # a saved num_groups is always the largest id + 1; another would re-save changed
        if len(assignment) and (assignment.min() < 0 or assignment.max() != num_groups - 1):
            raise ModelFormatError(f"{layer.name}: group ids must lie in [0, {num_groups}) "
                                   f"and reach {num_groups - 1}")
        layer.grouping = assignment
    return layer


def load_model(manifest_path, blob_path) -> Model:
    """Materialize a model: weights, masks (default all-keep) and groupings.

    Any malformed manifest, blob or record raises ModelFormatError.
    """
    try:
        manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{manifest_path}: invalid JSON ({exc})") from exc
    if not isinstance(manifest, dict) or "format_version" not in manifest:
        raise ModelFormatError(f"{manifest_path}: missing format_version")
    version = manifest["format_version"]
    if type(version) is not int or version != FORMAT_VERSION:  # True and 1.0 equal 1
        raise VersionMismatchError(f"{manifest_path}: format_version {version} "
                                   f"unsupported (expected {FORMAT_VERSION})")
    if not isinstance(manifest.get("layers"), list):
        raise ModelFormatError(f"{manifest_path}: \"layers\" must be a list of records")
    blob = _BlobReader(Path(blob_path).read_bytes(), blob_path)
    masks = manifest.get("masks", {})
    groupings = manifest.get("groupings", {})
    layers = []
    seen_names = set()
    for index, rec in enumerate(manifest["layers"]):
        try:
            layer = _read_layer(rec, blob, masks, groupings)
            if layer.name in seen_names:
                raise ModelFormatError(f"duplicate layer name {layer.name!r}")
            seen_names.add(layer.name)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelFormatError(f"{manifest_path}: layer record {index} is malformed "
                                   f"({type(exc).__name__}: {exc})") from exc
        layers.append(layer)
    blob.check_disjoint()
    model = Model(layers=layers)
    try:
        validate_first_conv_uncompressed(model)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    if "input_shape" in manifest:
        shape = manifest["input_shape"]
        try:  # type() rejects true, and every layer in turn must take the shape ([]: scalars)
            if not (isinstance(shape, list) and all(type(v) is int and v >= 1 for v in shape)):
                raise ValueError("want a list of integers >= 1")
            list(model.layer_inputs(shape))
        except ValueError as exc:
            raise ModelFormatError(f"{manifest_path}: input_shape {shape!r}: {exc}") from exc
        model.input_shape = tuple(shape)
    return model
