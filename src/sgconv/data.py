"""Desk-scale dataset handling: the .sgd binary format and synthetic blobs.

.sgd layout (all integers little-endian int32, floats little-endian
float32):

    magic   4 bytes        b"SGD1"
    count   int32
    num_classes int32
    ndim    int32
    dims    int32 * ndim   per-sample feature shape
    features float32 * count * prod(dims)
    labels  int32 * count

Nothing may follow the labels, and every feature must be finite.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"SGD1"


@dataclass
class Dataset:
    features: np.ndarray   # (count, *dims) float32
    labels: np.ndarray     # (count,) int32 in [0, num_classes)
    num_classes: int

    def __len__(self):
        return len(self.labels)


def save_dataset(dataset: Dataset, path) -> None:
    dims = dataset.features.shape[1:]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<3i", len(dataset), dataset.num_classes, len(dims)))
        fh.write(struct.pack(f"<{len(dims)}i", *dims))
        fh.write(dataset.features.astype("<f4", copy=False).tobytes())
        fh.write(dataset.labels.astype("<i4", copy=False).tobytes())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a dataset file (bad magic)")
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated dataset header")
    count, num_classes, ndim = struct.unpack_from("<3i", raw, 4)
    if min(count, num_classes, ndim) < 0:
        raise ValueError(f"{path}: negative count, num_classes or ndim in dataset header")
    offset = 16 + 4 * ndim
    if len(raw) < offset:
        raise ValueError(f"{path}: truncated dataset header")
    dims = struct.unpack_from(f"<{ndim}i", raw, 16)
    if min(dims, default=0) < 0:
        raise ValueError(f"{path}: negative dims {dims} in dataset header")
    size = math.prod(dims)
    feat_len = count * size * 4
    end = offset + feat_len + count * 4
    if len(raw) < end:
        raise ValueError(f"{path}: truncated dataset file")
    if len(raw) > end:
        raise ValueError(f"{path}: {len(raw) - end} bytes past the labels")
    features = np.frombuffer(raw, dtype="<f4", count=count * size,
                             offset=offset).reshape(count, *dims).copy()
    if not np.isfinite(features).all():
        raise ValueError(f"{path}: non-finite feature values")
    labels = np.frombuffer(raw, dtype="<i4", count=count, offset=offset + feat_len).copy()
    if len(labels) and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"{path}: labels outside [0, {num_classes})")
    return Dataset(features=features, labels=labels.astype(np.int32),
                   num_classes=num_classes)


def make_blob_dataset(count: int, num_classes: int = 2, image_size: int = 8,
                      channels: int = 3, noise: float = 0.05, seed=0) -> Dataset:
    """Seeded class-colored gaussian bumps rendered as small images.

    Each class has a fixed bump location and channel mix, so classes are
    separable by a linear map on raw pixels; per-sample center jitter and
    pixel noise keep the task non-degenerate.
    """
    rng = np.random.default_rng(seed)
    half = (image_size - 1) / 2.0
    angles = 2 * np.pi * np.arange(num_classes) / num_classes
    centers = np.stack([half + half * 0.55 * np.cos(angles),
                        half + half * 0.55 * np.sin(angles)], axis=1)
    mix = 0.3 + 0.7 * (1 + np.cos(
        2 * np.pi * (np.arange(channels)[None, :] / max(channels, 1)
                     + np.arange(num_classes)[:, None] / num_classes))) / 2

    labels = np.arange(count) % num_classes
    labels = labels[rng.permutation(count)].astype(np.int32)
    ys, xs = np.mgrid[0:image_size, 0:image_size].astype(np.float64)
    sigma = image_size / 5.0
    features = np.empty((count, channels, image_size, image_size), dtype=np.float32)
    for i, label in enumerate(labels):
        cy, cx = centers[label] + rng.normal(0.0, 0.6, size=2)
        bump = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma ** 2))
        img = mix[label][:, None, None] * bump[None]
        img = img + rng.normal(0.0, noise, size=img.shape)
        features[i] = img.astype(np.float32)
    return Dataset(features=features, labels=labels, num_classes=num_classes)
