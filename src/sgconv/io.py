"""Model persistence: .sgm.json manifest plus .sgm.bin weight blob.

The manifest is UTF-8 JSON with sorted keys, so identical models always
serialize to identical bytes. The blob holds nothing but little-endian
float32 values, laid out in layer order (weights, then bias), each range
referenced from the manifest by byte offset and length; each of its bytes
lies in exactly one range. Masks travel in the manifest as base64-packed
row-major bitsets, groupings as plain integer arrays; neither ever
round-trips through floating point.

Each layer class writes and reads its whole record (``to_record``,
``from_record``, reached through ``KINDS``) through this module's blob
writer and reader. They keep what belongs to the format, not to a kind:
the blob and its range checks, the mask bit encoding, and the masks and
groupings tables; ``save_model`` and ``load_model`` the manifest's top level.
"""
from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .model import (AffineLayer, ConvLayer, FcLayer, GroupConvLayer, Model, _integer,
                    _is_integer, validate_first_conv_uncompressed)

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
    """One model's blob, filled in layer order, and its masks and groupings tables."""

    def __init__(self):
        self.chunks = []
        self.offset = 0
        self.masks, self.groupings = {}, {}

    def add(self, arr) -> tuple[int, int]:
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        start = self.offset
        self.chunks.append(data)
        self.offset += len(data)
        return start, len(data)

    def bias(self, bias) -> dict:
        """The record fields of an optional bias: its range, if there is one."""
        return {} if bias is None else dict(zip(("bias_offset", "bias_length"), self.add(bias)))

    def mask(self, name, mask) -> dict:
        """Layer ``name``'s mask_ref, if ``mask`` drops any connection."""
        if mask.all():
            return {}
        bits = np.packbits(mask.astype(np.uint8).ravel())
        self.masks[name] = {"bits": base64.b64encode(bits).decode("ascii")}
        return {"mask_ref": name}

    def grouping(self, name, grouping) -> dict:
        """Layer ``name``'s grouping_ref, if it has a grouping."""
        if grouping is None:
            return {}
        self.groupings[name] = {"num_groups": int(grouping.max()) + 1,
                                "assignment": [int(v) for v in grouping]}
        return {"grouping_ref": name}

    def bytes(self) -> bytes:
        return b"".join(self.chunks)


def save_model(model: Model, manifest_path, blob_path) -> None:
    """Write the manifest and blob; byte-deterministic for identical models.
    Raises ValueError, writing nothing, for a model that load_model would
    refuse: repeated layer names or a compressible first conv."""
    names = [layer.name for layer in model.layers]
    for name in names:
        if names.count(name) > 1:  # the masks and groupings tables are keyed by name
            raise ValueError(f"duplicate layer name {name!r}")
    validate_first_conv_uncompressed(model)
    blob = _BlobWriter()
    records = [layer.to_record(blob) for layer in model.layers]
    manifest = {"format_version": FORMAT_VERSION, "layers": records,
                "masks": blob.masks, "groupings": blob.groupings}
    if model.input_shape is not None:
        manifest["input_shape"] = [int(v) for v in model.input_shape]
    Path(manifest_path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    Path(blob_path).write_bytes(blob.bytes())


class _BlobReader:
    """A blob and the manifest's masks and groupings tables, read back
    record by record; a malformed record raises KeyError, TypeError,
    ValueError or ModelFormatError."""

    def __init__(self, raw: bytes, path, masks, groupings):
        self.raw = raw
        self.path = path
        self.masks, self.groupings = masks, groupings
        self.ranges = []

    def layer(self, rec):
        """The layer a record describes, built by its kind's class."""
        if rec["kind"] not in KINDS:
            raise ModelFormatError(f"unknown layer kind {rec['kind']!r}")
        return KINDS[rec["kind"]].from_record(rec, self)

    def fetch(self, rec, shape, what, offset_key="blob_offset", length_key="blob_length"):
        offset, length = rec.get(offset_key), rec.get(length_key)
        if offset is None or length is None:
            raise ModelFormatError(f"{what}: missing {offset_key}/{length_key}")
        # true and 864.0 would be read as 1 and 864; a group record has no name: what names it
        offset, length = (_integer(rec[key], key, owner=f"layer {rec.get('name', what)!r}: ")
                          for key in (offset_key, length_key))
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

    def _entry(self, table, rec, key):
        if rec[key] not in table:
            raise ModelFormatError(f"{rec['name']}: {key} {rec[key]!r} not found")
        return table[rec[key]]

    def mask(self, rec, shape):
        """The record's (C_out, C_in) mask, or None (all-keep) without a mask_ref."""
        if "mask_ref" not in rec:
            return None
        raw = base64.b64decode(self._entry(self.masks, rec, "mask_ref")["bits"])
        count = int(np.prod(shape))
        if len(raw) != -(-count // 8):
            raise ModelFormatError(f"{rec['name']}: mask bits hold {len(raw)} bytes, a "
                                   f"{shape[0]}x{shape[1]} mask needs {-(-count // 8)}")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count)
        return bits.reshape(shape).astype(bool)

    def grouping(self, rec, filters):
        """The record's group id per filter, or None without a grouping_ref."""
        if "grouping_ref" not in rec:
            return None
        name, entry = rec["name"], self._entry(self.groupings, rec, "grouping_ref")
        assignment = self.indices(entry["assignment"], f"{name}: grouping assignment")
        num_groups = entry["num_groups"]
        if not _is_integer(num_groups):  # 2.5 would load and be re-saved as another count
            raise ModelFormatError(f"{name}: grouping num_groups must be an integer, "
                                   f"got {num_groups!r}")
        if len(assignment) != filters:
            raise ModelFormatError(f"{name}: grouping length {len(assignment)} "
                                   f"!= {filters} filters")
        # a saved num_groups is always the largest id + 1; another would re-save changed
        if len(assignment) and (assignment.min() < 0 or assignment.max() != num_groups - 1):
            raise ModelFormatError(f"{name}: group ids must lie in [0, {num_groups}) "
                                   f"and reach {num_groups - 1}")
        return assignment

    @staticmethod
    def indices(values, what) -> np.ndarray:
        """A JSON list of integers as an int64 array; a float is rejected, not floored."""
        if not isinstance(values, list) or not all(map(_is_integer, values)):
            raise ModelFormatError(f"{what} must be a list of integers")
        return np.array(values, dtype=np.int64)

    def check_ranges(self):
        """Refuse blob bytes that two ranges claim, or that none does (a
        re-save would drop those, so load -> save would not reproduce the file)."""
        spans = sorted((o, o + l, what) for o, l, what in self.ranges if l > 0)
        end, last = 0, None
        for start, stop, what in [*spans, (len(self.raw), None, None)]:  # then the blob's end
            if start < end:
                raise OverlappingRangesError(f"blob ranges overlap: {last} and {what}")
            if start > end:
                raise ModelFormatError(f"{self.path}: blob bytes [{end}, {start}) "
                                       f"belong to no range")
            end, last = stop, what


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
    if not _is_integer(version) or version != FORMAT_VERSION:  # True and 1.0 equal 1
        raise VersionMismatchError(f"{manifest_path}: format_version {version} "
                                   f"unsupported (expected {FORMAT_VERSION})")
    if not isinstance(manifest.get("layers"), list):
        raise ModelFormatError(f"{manifest_path}: \"layers\" must be a list of records")
    blob = _BlobReader(Path(blob_path).read_bytes(), blob_path,
                       manifest.get("masks", {}), manifest.get("groupings", {}))
    layers = []
    seen_names = set()
    for index, rec in enumerate(manifest["layers"]):
        try:
            layer = blob.layer(rec)
            if layer.name in seen_names:
                raise ModelFormatError(f"duplicate layer name {layer.name!r}")
            seen_names.add(layer.name)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelFormatError(f"{manifest_path}: layer record {index} is malformed "
                                   f"({type(exc).__name__}: {exc})") from exc
        layers.append(layer)
    blob.check_ranges()
    model = Model(layers=layers)
    try:
        validate_first_conv_uncompressed(model)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    if "input_shape" in manifest:
        shape = manifest["input_shape"]
        try:  # true is no integer, and every layer in turn must take the shape ([]: scalars)
            if not (isinstance(shape, list) and all(_is_integer(v) and v >= 1 for v in shape)):
                raise ValueError("want a list of integers >= 1")
            list(model.layer_inputs(shape))
        except ValueError as exc:
            raise ModelFormatError(f"{manifest_path}: input_shape {shape!r}: {exc}") from exc
        model.input_shape = tuple(shape)
    return model
