"""Compressed sparse row-vector format.

The SparseTrain architecture stores sparse operands (input activations ``I``
and output activation gradients ``dO``) in a compressed format: the non-zero
values plus an offset vector.  The PPU converts dense results into this format
before writing them back to the global buffer, and the PE's Port-3 consumes
offset vectors to know which output positions of an MSRC operation can be
skipped.

``CompressedRow`` is the software model of that format for one row of a
feature map; ``compress_feature_map`` applies it row-wise to a (C, H, W)
tensor and reports the resulting storage footprint, which the energy model
uses to count buffer traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CompressedRow:
    """One sparse row: non-zero values and their positions.

    Attributes
    ----------
    values:
        The non-zero values, in increasing position order.
    offsets:
        The column index of each value.
    length:
        The logical (dense) length of the row.
    """

    values: np.ndarray
    offsets: np.ndarray
    length: int

    def __post_init__(self) -> None:
        if self.values.shape != self.offsets.shape:
            raise ValueError(
                f"values shape {self.values.shape} != offsets shape {self.offsets.shape}"
            )
        if self.length < 0:
            raise ValueError(f"length must be non-negative, got {self.length}")
        if self.offsets.size and (
            self.offsets.min() < 0 or self.offsets.max() >= self.length
        ):
            raise ValueError("offsets out of range for the declared row length")

    @property
    def nnz(self) -> int:
        """Number of stored non-zero values."""
        return int(self.values.size)

    @property
    def density(self) -> float:
        """Fraction of non-zero positions."""
        if self.length == 0:
            return 0.0
        return self.nnz / self.length

    @classmethod
    def from_dense(cls, row: np.ndarray) -> "CompressedRow":
        """Compress a dense 1-D row."""
        row = np.asarray(row, dtype=np.float64)
        if row.ndim != 1:
            raise ValueError(f"expected a 1-D row, got shape {row.shape}")
        offsets = np.flatnonzero(row)
        return cls(values=row[offsets].copy(), offsets=offsets.astype(np.int64), length=row.size)

    def to_dense(self) -> np.ndarray:
        """Decompress back to a dense 1-D row."""
        dense = np.zeros(self.length, dtype=np.float64)
        dense[self.offsets] = self.values
        return dense

    def storage_words(self, offset_packing: int = 2) -> int:
        """Buffer words needed to store this row in compressed form.

        One word per value plus offsets packed ``offset_packing`` per word
        (offsets are short integers; the default packs two per 16-bit-pair
        word, matching a 16-bit datapath).  Dense storage would use
        ``length`` words, so compression wins whenever
        ``nnz * (1 + 1/packing) < length``.
        """
        if offset_packing <= 0:
            raise ValueError(f"offset_packing must be positive, got {offset_packing}")
        offset_words = int(np.ceil(self.nnz / offset_packing))
        return self.nnz + offset_words


@dataclass(frozen=True)
class CompressedFeatureMap:
    """Row-wise compression of a (C, H, W) feature map."""

    rows: tuple[tuple[CompressedRow, ...], ...]  # [channel][row]
    channels: int
    height: int
    width: int

    @property
    def nnz(self) -> int:
        return sum(row.nnz for channel in self.rows for row in channel)

    @property
    def dense_words(self) -> int:
        return self.channels * self.height * self.width

    def storage_words(self, offset_packing: int = 2) -> int:
        """Total compressed storage in buffer words."""
        return sum(
            row.storage_words(offset_packing) for channel in self.rows for row in channel
        )

    @property
    def density(self) -> float:
        if self.dense_words == 0:
            return 0.0
        return self.nnz / self.dense_words

    def row(self, channel: int, row_index: int) -> CompressedRow:
        return self.rows[channel][row_index]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.channels, self.height, self.width), dtype=np.float64)
        for c, channel_rows in enumerate(self.rows):
            for r, row in enumerate(channel_rows):
                dense[c, r] = row.to_dense()
        return dense


def compress_feature_map(feature_map: np.ndarray) -> CompressedFeatureMap:
    """Compress a (C, H, W) feature map row by row."""
    feature_map = np.asarray(feature_map, dtype=np.float64)
    if feature_map.ndim != 3:
        raise ValueError(f"expected a (C, H, W) tensor, got shape {feature_map.shape}")
    channels, height, width = feature_map.shape
    rows = tuple(
        tuple(CompressedRow.from_dense(feature_map[c, r]) for r in range(height))
        for c in range(channels)
    )
    return CompressedFeatureMap(rows=rows, channels=channels, height=height, width=width)


def compression_ratio(feature_map: np.ndarray, offset_packing: int = 2) -> float:
    """Dense-to-compressed storage ratio for a feature map (>1 means smaller)."""
    compressed = compress_feature_map(feature_map)
    words = compressed.storage_words(offset_packing)
    if words == 0:
        return float("inf")
    return compressed.dense_words / words
