"""Sparsity-aware matmul operands for pruned inference plans.

Global magnitude pruning (:mod:`repro.compression.pruning`) zeroes weights
in place, but a dense GEMM spends exactly the same time on a zero as on any
other value — a 90 %-pruned plan was byte-identical in cost to the unpruned
one.  This module is the representation that finally skips the zeroed
multiply-accumulates.

:class:`ColumnSparseWeight` stores a ``(in_features, out_features)`` matrix
column-compressed with padding (the ELL layout): every output column keeps
only its non-zero input rows, padded to the widest column so the whole
product stays three dense ufunc passes —

``gather``
    ``x.take(indices)`` pulls each column's surviving input features
    (``(n, out*kmax)``; the source row is small enough to sit in cache);
``scale``
    one multiply against the padded value matrix;
``reduce``
    one sum over the padding axis.

Fully-zero *rows* of the weight never appear in ``indices`` — their input
features are simply never read — and fully-zero *columns* degenerate to a
single padded zero entry, so structured sparsity automatically shrinks the
working set the same way dropping them from a dense GEMM would.  Padding
entries point at row 0 with value ``0.0``; they contribute exactly ``+0.0``
to the accumulation.

Numerically the padded-column sum accumulates in a different order than a
BLAS GEMM, so sparse kernels match the dense/autograd oracle to the same
``1e-5`` tolerance the float32 plans are held to — not bit-for-bit.  A
sparse kernel has one execution path, its arena-bound ``matmul`` into
preallocated scratch, so every plan call runs the same gather/scale/reduce
in the same order.

Both operand types travel inside plan payloads by their ``transport``
fields — the constructor arguments, read back from the attributes of the
same name — through the generic encoder in :mod:`repro.nn.inference`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class ColumnSparseWeight:
    """A pruned matmul operand stored as padded compressed columns."""

    __slots__ = ("shape", "nnz", "kmax", "indices", "values", "_flat_indices")
    transport = ("shape", "indices", "values")

    def __init__(self, shape: Tuple[int, int], indices: np.ndarray, values: np.ndarray) -> None:
        in_features, out_features = shape
        if indices.shape != values.shape or indices.ndim != 2:
            raise ValueError("indices and values must share one (out, kmax) shape")
        if indices.shape[0] != out_features:
            raise ValueError(
                f"indices describe {indices.shape[0]} columns, shape says {out_features}"
            )
        self.shape = (int(in_features), int(out_features))
        # intp indices feed ndarray.take without a per-call cast copy.
        self.indices = np.ascontiguousarray(indices, dtype=np.intp)
        self.values = np.ascontiguousarray(values)
        self.kmax = int(indices.shape[1])
        self.nnz = int(np.count_nonzero(self.values))
        self._flat_indices = self.indices.reshape(-1)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "ColumnSparseWeight":
        """Compress a ``(in, out)`` matrix, keeping only non-zero entries.

        Entries within a column are kept in ascending input-row order; the
        layout is fully determined by the zero pattern, so two calls on the
        same matrix (or one call on a transported copy) build identical
        operands.
        """
        if dense.ndim != 2:
            raise ValueError("ColumnSparseWeight needs a 2-D matrix")
        in_features, out_features = dense.shape
        rows, cols = np.nonzero(dense)
        counts = np.bincount(cols, minlength=out_features)
        kmax = max(1, int(counts.max()) if counts.size else 1)
        indices = np.zeros((out_features, kmax), dtype=np.intp)
        values = np.zeros((out_features, kmax), dtype=dense.dtype)
        # np.nonzero is row-major ordered; a stable sort by column yields
        # ascending rows within each column.
        order = np.argsort(cols, kind="stable")
        rows, cols = rows[order], cols[order]
        col_starts = np.concatenate(([0], np.cumsum(counts)))
        within = np.arange(rows.size) - col_starts[cols]
        indices[cols, within] = rows
        values[cols, within] = dense[rows, cols]
        return cls((in_features, out_features), indices, values)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def matmul(
        self,
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
        gather: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``x @ W`` over the compressed columns.

        ``x`` is ``(n, in_features)``; the result is ``(n, out_features)``.
        ``out`` and ``gather`` (shape ``(n, out_features * kmax)``) let a
        plan arena run the product with zero allocations; when omitted the
        scratch is allocated per call, exactly as a dense kernel would.
        """
        n = x.shape[0]
        if gather is None:
            gather = np.empty((n, self.shape[1] * self.kmax), dtype=x.dtype)
        # mode="clip" writes straight into ``gather``: the default "raise"
        # stages a full temporary even with ``out=``.  Indices are in-range
        # by construction, so clipping never fires.
        x.take(self._flat_indices, axis=1, out=gather, mode="clip")
        gathered = gather.reshape(n, self.shape[1], self.kmax)
        np.multiply(gathered, self.values, out=gathered)
        if out is None:
            return gathered.sum(axis=-1)
        np.add.reduce(gathered, axis=-1, out=out)
        return out

    def gather_scratch(self, n: int, dtype: np.dtype) -> np.ndarray:
        """Allocate the gather buffer :meth:`matmul` needs for ``n`` rows."""
        return np.empty((n, self.shape[1] * self.kmax), dtype=dtype)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    @property
    def density(self) -> float:
        """Fraction of the dense matrix that survived pruning."""
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    @property
    def nbytes(self) -> int:
        """Bytes actually held (padded values + indices), not dense bytes."""
        return int(self.values.nbytes + self.indices.nbytes)

    def __repr__(self) -> str:
        return (
            f"ColumnSparseWeight({self.shape[0]}x{self.shape[1]}, "
            f"nnz={self.nnz}, density={self.density:.1%}, kmax={self.kmax})"
        )


class BlockSparseWeight:
    """A block-pruned matmul operand stored as a padded slab of dense tiles.

    Where :class:`ColumnSparseWeight` compresses individual non-zeros (and
    pays a scattered one-element-at-a-time gather for it), this layout
    compresses ``(th, tw)`` *tiles*: the ``(in, out)`` matrix is cut into a
    ``(R, C)`` grid of tiles (``R = in/th`` row blocks, ``C = out/tw``
    column blocks) and only tiles containing at least one non-zero survive.
    Surviving tiles are stored as a dense slab — ELL-of-blocks:

    ``block_indices``
        ``(C, kmax)`` — for each column block, the row-block ids of its
        surviving tiles (ascending, padded with row block 0);
    ``blocks``
        ``(C, kmax, th, groups*tw)`` — the tile values (padding tiles are
        zero and contribute exactly ``+0.0``, like ELL padding).

    ``groups`` is the fused-gate extension: for a gate-concatenated matrix
    ``(in, G*W)`` (the LSTM's ``[i, f, o, g]`` projections), ``groups=G``
    fuses the ``G`` tiles at the same ``(row-block, within-gate-column)``
    position into one ``(th, G*tw)`` super-tile, so a single input-panel
    gather feeds all ``G`` gates — the gather and index fetch amortise
    ``G``-fold.  Column block ``j`` then covers the *union* of the per-gate
    zero patterns; gate-coupled pruning (see
    :func:`repro.compression.pruning.apply_block_magnitude_pruning`) keeps
    that union equal to each gate's own pattern, so fusion costs no padding.
    ``groups=1`` is the plain layout.

    Execution gathers whole ``th``-row input panels (contiguous runs, so the
    gather is a strided memcpy rather than ELL's per-element pick) and
    contracts them against the slab with one batched row-blocked micro-GEMM:
    ``(n, kmax*th) @ (kmax*th, groups*tw)`` per column block, a single
    ``np.matmul`` over the ``C`` axis, so every surviving tile accumulates
    in BLAS.  (Earlier revisions special-cased ``tw == 1`` with a
    ``multiply + add.reduce`` pass; the micro-GEMM is strictly faster on
    every measured host and batch size, so all layouts now share it.)

    Both paths run with caller-owned scratch (``matmul_scratch``) so a plan
    arena executes them with zero allocations, and the scratch path is
    bit-for-bit the allocating path.  ``from_dense`` is fully determined by
    the zero pattern, so transported replicas rebuild identical operands.
    """

    __slots__ = (
        "shape",
        "tile",
        "groups",
        "kmax",
        "n_row_blocks",
        "n_col_blocks",
        "block_indices",
        "blocks",
        "nnz",
        "tiles_kept",
        "_flat_indices",
        "_mat",
    )
    transport = ("shape", "tile", "block_indices", "blocks", "groups")

    def __init__(
        self,
        shape: Tuple[int, int],
        tile: Tuple[int, int],
        block_indices: np.ndarray,
        blocks: np.ndarray,
        groups: int = 1,
    ) -> None:
        in_features, out_features = int(shape[0]), int(shape[1])
        th, tw = int(tile[0]), int(tile[1])
        groups = int(groups)
        if th < 1 or tw < 1:
            raise ValueError(f"tile dims must be positive, got {(th, tw)}")
        if groups < 1:
            raise ValueError(f"groups must be positive, got {groups}")
        if in_features % th or out_features % (groups * tw):
            raise ValueError(
                f"tile {(th, tw)} x {groups} groups does not divide matrix "
                f"{(in_features, out_features)}"
            )
        n_row_blocks = in_features // th
        n_col_blocks = out_features // (groups * tw)
        if block_indices.ndim != 2 or block_indices.shape[0] != n_col_blocks:
            raise ValueError(
                f"block_indices must be (n_col_blocks, kmax); got {block_indices.shape}"
            )
        kmax = int(block_indices.shape[1])
        if blocks.shape != (n_col_blocks, kmax, th, groups * tw):
            raise ValueError(
                f"blocks must be {(n_col_blocks, kmax, th, groups * tw)}; "
                f"got {blocks.shape}"
            )
        self.shape = (in_features, out_features)
        self.tile = (th, tw)
        self.groups = groups
        self.kmax = kmax
        self.n_row_blocks = n_row_blocks
        self.n_col_blocks = n_col_blocks
        self.block_indices = np.ascontiguousarray(block_indices, dtype=np.intp)
        self.blocks = np.ascontiguousarray(blocks)
        self.nnz = int(np.count_nonzero(self.blocks))
        self.tiles_kept = int(np.count_nonzero(np.any(self.blocks != 0, axis=(2, 3))))
        self._flat_indices = self.block_indices.reshape(-1)
        # Contiguous micro-GEMM view of the slab.
        self._mat = self.blocks.reshape(n_col_blocks, kmax * th, groups * tw)

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, tile: Tuple[int, int], groups: int = 1
    ) -> "BlockSparseWeight":
        """Compress a ``(in, out)`` matrix into surviving ``tile`` blocks.

        Requires the tile (times ``groups`` along the columns) to divide the
        matrix exactly (the pruning side clamps edge tiles, the kernel side
        does not).  With ``groups=G`` the matrix is read as ``G``
        concatenated gate panels and a super-tile survives when *any* gate's
        tile at that position holds a non-zero.  Tiles within a column block
        are kept in ascending row-block order, so the layout is fully
        determined by the zero pattern.
        """
        if dense.ndim != 2:
            raise ValueError("BlockSparseWeight needs a 2-D matrix")
        in_features, out_features = dense.shape
        th, tw, g = int(tile[0]), int(tile[1]), int(groups)
        if th < 1 or tw < 1 or g < 1 or in_features % th or out_features % (g * tw):
            raise ValueError(
                f"tile {(th, tw)} x {g} groups does not divide matrix {dense.shape}"
            )
        n_row_blocks = in_features // th
        n_col_blocks = out_features // (g * tw)
        # (C, R, th, g, tw) tile view: column block j spans the same
        # tw-wide slice of every group (for g == 1 this is the plain grid).
        tiles = dense.reshape(n_row_blocks, th, g, n_col_blocks, tw).transpose(
            3, 0, 1, 2, 4
        )
        keep = np.any(tiles != 0, axis=(2, 3, 4))  # (C, R) union over groups
        counts = keep.sum(axis=1)
        kmax = max(1, int(counts.max()) if counts.size else 1)
        block_indices = np.zeros((n_col_blocks, kmax), dtype=np.intp)
        blocks = np.zeros((n_col_blocks, kmax, th, g * tw), dtype=dense.dtype)
        # np.nonzero on (C, R) is row-major: ascending row blocks per column.
        cols, rows = np.nonzero(keep)
        starts = np.concatenate(([0], np.cumsum(counts)))
        within = np.arange(rows.size) - starts[cols]
        block_indices[cols, within] = rows
        blocks[cols, within] = tiles[cols, rows].reshape(-1, th, g * tw)
        return cls(
            (in_features, out_features), (th, tw), block_indices, blocks, groups=g
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def matmul(
        self,
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
        panels: Optional[np.ndarray] = None,
        prod: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``x @ W`` over the surviving tiles.

        ``x`` is ``(n, in_features)`` (C-contiguous on the zero-allocation
        path; a non-contiguous input merely costs a reshape copy).  ``out``,
        ``panels`` and ``prod`` are the buffers from :meth:`matmul_scratch`;
        when omitted the scratch is allocated per call.
        """
        n = x.shape[0]
        th, tw = self.tile
        g = self.groups
        x3 = x.reshape(n, self.n_row_blocks, th)
        if panels is None:
            panels = np.empty((n, self.n_col_blocks * self.kmax, th), dtype=x.dtype)
        # Gather whole th-row panels; each take element copies a contiguous
        # th-run of the input row.  mode="clip" writes straight into
        # ``panels`` (the default "raise" stages a full temporary even with
        # ``out=``); indices are in-range by construction.
        x3.take(self._flat_indices, axis=1, out=panels, mode="clip")
        if out is None:
            out = np.empty((n, self.shape[1]), dtype=x.dtype)
        if prod is None:
            prod = np.empty((self.n_col_blocks, n, g * tw), dtype=x.dtype)
        # (C, n, kmax*th) strided view — last axis contiguous, so each 2-D
        # slice feeds BLAS without an internal copy.
        lhs = panels.reshape(n, self.n_col_blocks, self.kmax * th).transpose(1, 0, 2)
        np.matmul(lhs, self._mat, out=prod)
        # Scatter column blocks back to the (gate-major) output layout: for
        # groups == 1 this is the plain (n, C, tw) interleave.
        np.copyto(
            out.reshape(n, g, self.n_col_blocks, tw),
            prod.reshape(self.n_col_blocks, n, g, tw).transpose(1, 2, 0, 3),
        )
        return out

    def matmul_scratch(
        self, n: int, dtype: np.dtype
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(panels, prod)`` buffers :meth:`matmul` needs for ``n`` rows."""
        th, tw = self.tile
        panels = np.empty((n, self.n_col_blocks * self.kmax, th), dtype=dtype)
        prod = np.empty((self.n_col_blocks, n, self.groups * tw), dtype=dtype)
        return panels, prod

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    @property
    def density(self) -> float:
        """Fraction of the dense matrix that survived pruning."""
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    @property
    def tiles_total(self) -> int:
        """Super-tiles in the grid (each spans all ``groups`` gates)."""
        return self.n_row_blocks * self.n_col_blocks

    @property
    def block_occupancy(self) -> float:
        """Fraction of the tile grid holding at least one non-zero."""
        return self.tiles_kept / self.tiles_total if self.tiles_total else 0.0

    @property
    def nbytes(self) -> int:
        """Bytes actually held (padded tile slab + indices), not dense bytes."""
        return int(self.blocks.nbytes + self.block_indices.nbytes)

    def __repr__(self) -> str:
        gtag = f", groups={self.groups}" if self.groups > 1 else ""
        return (
            f"BlockSparseWeight({self.shape[0]}x{self.shape[1]}, "
            f"tile={self.tile[0]}x{self.tile[1]}{gtag}, "
            f"tiles={self.tiles_kept}/{self.tiles_total}, kmax={self.kmax})"
        )
