"""Synthetic image datasets, splits, normalization, and batch streaming.

Everything here is deterministic given a seed.  Batch order is a pure
function of (seed, epoch), so two streams constructed with the same
arguments produce identical batches regardless of consumption pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "FormatError",
    "make_shapes",
    "make_blobs",
    "split_dataset",
    "normalization_stats",
    "normalize",
    "BatchStream",
    "load_cifar10_binary",
    "cutout",
]


class FormatError(ValueError):
    """Raised when an on-disk dataset file does not match its format."""


@dataclass(frozen=True)
class Dataset:
    """An in-memory labelled image set.

    images: float64 array of shape (n, channels, h, w) with values in [0, 1].
    labels: int64 array of shape (n,).
    """

    name: str
    images: np.ndarray
    labels: np.ndarray
    n_classes: int
    seed: int

    def __post_init__(self) -> None:
        if self.images.ndim != 4:
            raise ValueError(f"images must be 4-d, got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("labels must align with images along axis 0")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return int(self.images.shape[0])

    @property
    def image_hw(self) -> tuple[int, int]:
        return (int(self.images.shape[2]), int(self.images.shape[3]))

    @property
    def channels(self) -> int:
        return int(self.images.shape[1])


def _paint_shape(canvas: np.ndarray, label: int, cy: int, cx: int, r: int) -> None:
    """Draw one of four glyphs (disk, hollow square, plus, X) centred at (cy, cx)."""
    h, w = canvas.shape
    ys, xs = np.mgrid[0:h, 0:w]
    dy, dx = ys - cy, xs - cx
    if label == 0:  # disk
        canvas[dy * dy + dx * dx <= r * r] = 1.0
    elif label == 1:  # hollow square
        box = (np.abs(dy) <= r) & (np.abs(dx) <= r)
        inner = (np.abs(dy) <= r - 2) & (np.abs(dx) <= r - 2)
        canvas[box & ~inner] = 1.0
    elif label == 2:  # plus
        canvas[(np.abs(dy) <= 1) & (np.abs(dx) <= r)] = 1.0
        canvas[(np.abs(dx) <= 1) & (np.abs(dy) <= r)] = 1.0
    else:  # X
        diag = (np.abs(dy - dx) <= 1) | (np.abs(dy + dx) <= 1)
        canvas[diag & (np.abs(dy) <= r) & (np.abs(dx) <= r)] = 1.0


def make_shapes(n: int, hw: tuple[int, int] = (16, 16), seed: int = 0) -> Dataset:
    """Four glyph classes at random positions and scales on noisy backgrounds.

    Classes are not linearly separable in pixel space (positions vary), but a
    small convolutional net resolves them easily.  Three channels: the glyph
    is tinted with a random per-image colour so channel statistics differ.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    h, w = hw
    images = np.zeros((n, 3, h, w), dtype=np.float64)
    labels = rng.integers(0, 4, size=n).astype(np.int64)
    r_lo, r_hi = max(2, min(h, w) // 8), max(3, min(h, w) // 4)
    for i in range(n):
        canvas = np.zeros((h, w), dtype=np.float64)
        r = int(rng.integers(r_lo, r_hi + 1))
        cy = int(rng.integers(r, h - r))
        cx = int(rng.integers(r, w - r))
        _paint_shape(canvas, int(labels[i]), cy, cx, r)
        tint = 0.5 + 0.5 * rng.random(3)
        for c in range(3):
            images[i, c] = canvas * tint[c]
    images += 0.08 * rng.standard_normal(images.shape)
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset("shapes", images, labels, n_classes=4, seed=seed)


def make_blobs(n: int, hw: tuple[int, int] = (16, 16), seed: int = 0) -> Dataset:
    """Three classes: Gaussian blobs whose count (1..3) is one more than the label."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    h, w = hw
    images = np.zeros((n, 3, h, w), dtype=np.float64)
    labels = rng.integers(0, 3, size=n).astype(np.int64)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    for i in range(n):
        count = int(labels[i]) + 1
        canvas = np.zeros((h, w), dtype=np.float64)
        for _ in range(count):
            cy, cx = rng.uniform(2, h - 2), rng.uniform(2, w - 2)
            sig = rng.uniform(1.0, 2.0)
            canvas += np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * sig * sig))
        canvas = np.clip(canvas, 0.0, 1.0)
        for c in range(3):
            images[i, c] = canvas
    return Dataset("blobs", images, labels, n_classes=3, seed=seed)


_GENERATORS = {"shapes": make_shapes, "blobs": make_blobs}


def make_dataset(name: str, n: int, hw: tuple[int, int] = (16, 16), seed: int = 0) -> Dataset:
    """Dispatch to a named generator."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown dataset {name!r}; choose from {sorted(_GENERATORS)}")
    return _GENERATORS[name](n, hw=hw, seed=seed)


def split_dataset(ds: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint shuffle-split; the first part receives `fraction` of the rows."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = rng.permutation(len(ds))
    cut = int(round(fraction * len(ds)))
    if cut == 0 or cut == len(ds):
        raise ValueError("split produced an empty part")
    a, b = order[:cut], order[cut:]
    first = Dataset(ds.name, ds.images[a], ds.labels[a], ds.n_classes, ds.seed)
    second = Dataset(ds.name, ds.images[b], ds.labels[b], ds.n_classes, ds.seed)
    return first, second


def normalization_stats(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std over all pixels.  Std is floored to avoid /0."""
    mean = ds.images.mean(axis=(0, 2, 3))
    std = ds.images.std(axis=(0, 2, 3))
    std = np.maximum(std, 1e-8)
    return mean, std


def normalize(ds: Dataset, mean: np.ndarray, std: np.ndarray) -> Dataset:
    images = (ds.images - mean[None, :, None, None]) / std[None, :, None, None]
    return Dataset(ds.name, images, ds.labels, ds.n_classes, ds.seed)


class BatchStream:
    """Deterministic epoch-shuffled minibatches; the last partial batch of
    each epoch is dropped.

    The permutation for epoch e is a pure function of (seed, e): it is drawn
    from a child of SeedSequence(seed) spawned at index e.
    """

    def __init__(self, ds: Dataset, batch_size: int, seed: int):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if batch_size > len(ds):
            raise ValueError("batch_size exceeds dataset size")
        self.ds = ds
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.epoch = 0
        self.pos = 0
        self._order = self._epoch_order(0)

    def _epoch_order(self, epoch: int) -> np.ndarray:
        root = np.random.SeedSequence(self.seed)
        child = root.spawn(epoch + 1)[epoch]
        return np.random.default_rng(child).permutation(len(self.ds))

    @property
    def batches_per_epoch(self) -> int:
        return len(self.ds) // self.batch_size

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (images, labels) and advance; rolls into the next epoch as needed."""
        if self.pos >= self.batches_per_epoch * self.batch_size:
            self.epoch += 1
            self.pos = 0
            self._order = self._epoch_order(self.epoch)
        idx = self._order[self.pos : self.pos + self.batch_size]
        self.pos += self.batch_size
        return self.ds.images[idx], self.ds.labels[idx]


_CIFAR_RECORD = 3073  # 1 label byte + 3*32*32 pixel bytes
_CIFAR_HW = 32


def load_cifar10_binary(paths: list[str | Path], name: str = "cifar10") -> Dataset:
    """Parse CIFAR-10 binary batch files (label byte + CHW uint8 pixels).

    Raises FormatError on truncated files or out-of-range labels.
    """
    images_parts: list[np.ndarray] = []
    labels_parts: list[np.ndarray] = []
    for p in paths:
        raw = Path(p).read_bytes()
        if len(raw) == 0 or len(raw) % _CIFAR_RECORD != 0:
            offset = len(raw) - len(raw) % _CIFAR_RECORD
            raise FormatError(
                f"{p}: record truncated at byte {offset} (file holds {len(raw)} bytes; records are {_CIFAR_RECORD} bytes)"
            )
        n = len(raw) // _CIFAR_RECORD
        buf = np.frombuffer(raw, dtype=np.uint8).reshape(n, _CIFAR_RECORD)
        labels = buf[:, 0].astype(np.int64)
        if labels.max(initial=0) > 9:
            bad = int(np.argmax(labels > 9))
            raise FormatError(f"{p}: record {bad} has label {labels[bad]} > 9")
        pixels = buf[:, 1:].reshape(n, 3, _CIFAR_HW, _CIFAR_HW).astype(np.float64) / 255.0
        images_parts.append(pixels)
        labels_parts.append(labels)
    images = np.concatenate(images_parts, axis=0)
    labels = np.concatenate(labels_parts, axis=0)
    return Dataset(name, images, labels, n_classes=10, seed=0)


def cutout(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Zero a random square patch per image (training-time regularizer).

    The patch side is h // 4 (at least 1).  The patch centre may fall
    anywhere, so the zeroed region is clipped at borders the way the usual
    implementation does.
    """
    out = images.copy()
    n, _, h, w = images.shape
    s = max(1, h // 4)
    for i in range(n):
        cy = int(rng.integers(0, h))
        cx = int(rng.integers(0, w))
        y0, y1 = max(0, cy - s // 2), min(h, cy + (s + 1) // 2)
        x0, x1 = max(0, cx - s // 2), min(w, cx + (s + 1) // 2)
        out[i, :, y0:y1, x0:x1] = 0.0
    return out
