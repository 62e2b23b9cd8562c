"""Tests for sparsity-aware kernel lowering (repro.nn.sparse + compiler)."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor, no_grad
from repro.nn.inference import (
    DENSE_ONLY,
    SPARSE_ALWAYS,
    DenseKernel,
    InferencePlan,
    LSTMKernel,
    PlanTransportError,
    SoftmaxKernel,
    SparseDenseKernel,
    SparsityConfig,
    compile_network,
)
from repro.nn.layers import Dense
from repro.nn.lstm import LSTM
from repro.nn.module import Sequential
from repro.nn.sparse import BlockSparseWeight, ColumnSparseWeight
from tests.helpers import block_prune_projections_separately


def _forward_autograd(module, x):
    module.eval()
    with no_grad():
        return module(Tensor(x)).data


def _prune_to(param, sparsity, seed=0):
    """Zero the smallest-magnitude fraction of one parameter in place."""
    flat = np.abs(param.data).reshape(-1)
    k = int(sparsity * flat.size)
    if k:
        threshold = np.partition(flat, k - 1)[k - 1]
        param.data[np.abs(param.data) <= threshold] = 0.0


#: Lowering config with no size floor, so tiny test matrices qualify.
TINY_ALWAYS = SparsityConfig(mode="always", min_size=0)
TINY_DENSE = SparsityConfig(mode="never")


class TestColumnSparseWeight:
    @pytest.mark.parametrize("sparsity", [0.5, 0.9, 0.99])
    def test_matmul_matches_dense(self, sparsity):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((40, 25)).astype(np.float32)
        dense[rng.random(dense.shape) < sparsity] = 0.0
        weight = ColumnSparseWeight.from_dense(dense)
        x = rng.standard_normal((7, 40)).astype(np.float32)
        np.testing.assert_allclose(weight.matmul(x), x @ dense, atol=1e-5)
        assert weight.nnz == int(np.count_nonzero(dense))

    def test_bound_buffers_match_allocating_path_bitwise(self):
        rng = np.random.default_rng(1)
        dense = rng.standard_normal((30, 12)).astype(np.float32)
        dense[rng.random(dense.shape) < 0.8] = 0.0
        weight = ColumnSparseWeight.from_dense(dense)
        x = rng.standard_normal((5, 30)).astype(np.float32)
        out = np.empty((5, 12), dtype=np.float32)
        gather = weight.gather_scratch(5, np.float32)
        weight.matmul(x, out=out, gather=gather)
        assert np.array_equal(out, weight.matmul(x))

    def test_fully_zero_rows_are_never_gathered(self):
        dense = np.zeros((10, 4), dtype=np.float32)
        dense[3, :] = 1.0  # single surviving input row
        weight = ColumnSparseWeight.from_dense(dense)
        assert set(np.unique(weight.indices[weight.values != 0])) == {3}
        assert weight.kmax == 1

    def test_fully_zero_columns_yield_zero_output(self):
        rng = np.random.default_rng(2)
        dense = rng.standard_normal((8, 5)).astype(np.float32)
        dense[:, 2] = 0.0
        weight = ColumnSparseWeight.from_dense(dense)
        out = weight.matmul(rng.standard_normal((3, 8)).astype(np.float32))
        np.testing.assert_array_equal(out[:, 2], np.zeros(3, dtype=np.float32))

    def test_all_zero_matrix_supported(self):
        weight = ColumnSparseWeight.from_dense(np.zeros((6, 4), dtype=np.float32))
        out = weight.matmul(np.ones((2, 6), dtype=np.float32))
        np.testing.assert_array_equal(out, np.zeros((2, 4), dtype=np.float32))

    def test_construction_is_deterministic(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((20, 9)).astype(np.float32)
        dense[rng.random(dense.shape) < 0.7] = 0.0
        a = ColumnSparseWeight.from_dense(dense)
        b = ColumnSparseWeight.from_dense(dense.copy())
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)


class TestSparseLowering:
    def test_pruned_dense_lowers_to_sparse_kernel(self):
        layer = Dense(30, 12, seed=0)
        _prune_to(layer.weight, 0.8)
        plan = compile_network(Sequential(layer), sparsity=TINY_ALWAYS)
        assert isinstance(plan.kernels[0], SparseDenseKernel)
        assert "sparse-dense" in plan.describe()[0]

    def test_below_threshold_stays_dense(self):
        layer = Dense(30, 12, seed=0)
        _prune_to(layer.weight, 0.5)  # under the 0.7 threshold
        plan = compile_network(
            Sequential(layer), sparsity=SparsityConfig(mode="always", min_size=0)
        )
        assert isinstance(plan.kernels[0], DenseKernel)

    def test_min_size_keeps_tiny_matrices_dense(self):
        layer = Dense(30, 12, seed=0)
        _prune_to(layer.weight, 0.9)
        plan = compile_network(Sequential(layer), sparsity=SPARSE_ALWAYS)
        assert isinstance(plan.kernels[0], DenseKernel)  # 360 < min_size

    def test_dense_only_suppresses_lowering(self):
        layer = Dense(30, 12, seed=0)
        _prune_to(layer.weight, 0.95)
        plan = compile_network(Sequential(layer), sparsity=TINY_DENSE)
        assert isinstance(plan.kernels[0], DenseKernel)

    def test_sparse_dense_matches_autograd_with_fused_activation(self):
        net = Sequential(Dense(30, 12, seed=0, activation="relu"), Dense(12, 3, seed=1))
        _prune_to(net.layers[0].weight, 0.85)
        plan = compile_network(net, sparsity=TINY_ALWAYS)
        assert isinstance(plan.kernels[0], SparseDenseKernel)
        assert plan.kernels[0].activation == "relu"
        x = np.random.default_rng(4).standard_normal((6, 30))
        np.testing.assert_allclose(plan(x), _forward_autograd(net, x), atol=1e-5)

    def test_pruned_lstm_lowers_recurrent_projection(self):
        lstm = LSTM(input_size=6, hidden_size=16, seed=0)
        _prune_to(lstm.cells[0].weight_hh, 0.85)
        plan = compile_network(Sequential(lstm), sparsity=TINY_ALWAYS)
        kernel = plan.kernels[0]
        assert isinstance(kernel, LSTMKernel)
        _, w_hh, _ = kernel.layers[0]
        assert isinstance(w_hh, ColumnSparseWeight)
        assert "sparse" in kernel.describe()
        x = np.random.default_rng(5).standard_normal((4, 9, 6))
        np.testing.assert_allclose(plan(x), _forward_autograd(lstm, x), atol=1e-5)

    def test_sparse_lstm_specialized_is_bit_for_bit_generic(self):
        lstm = LSTM(input_size=6, hidden_size=16, num_layers=2, seed=1)
        for cell in lstm.cells:
            _prune_to(cell.weight_hh, 0.9)
            _prune_to(cell.weight_ih, 0.9)
        plan = compile_network(Sequential(lstm), sparsity=TINY_ALWAYS)
        plan.append(SoftmaxKernel())
        x = np.random.default_rng(6).standard_normal((5, 9, 6))
        generic = plan(x).copy()
        assert plan.specialize(5)
        plan(x)
        assert np.array_equal(generic, plan(x))

    def test_quantized_plans_never_lower_sparse(self):
        layer = Dense(30, 12, seed=0)
        _prune_to(layer.weight, 0.9)

        def quantizer(values):
            scale = float(np.max(np.abs(values)) / 127 or 1.0)
            return np.round(values / scale), scale

        plan = compile_network(
            Sequential(layer), quantizer=quantizer, sparsity=TINY_ALWAYS
        )
        assert isinstance(plan.kernels[0], DenseKernel)

    def test_auto_mode_is_a_valid_config(self):
        layer = Dense(30, 12, seed=0)
        _prune_to(layer.weight, 0.9)
        # auto calibrates on the actual matrix; either outcome is legal,
        # but the plan must match the network regardless.
        plan = compile_network(
            Sequential(layer), sparsity=SparsityConfig(mode="auto", min_size=0)
        )
        x = np.random.default_rng(7).standard_normal((3, 30))
        np.testing.assert_allclose(plan(x), _forward_autograd(layer, x), atol=1e-5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SparsityConfig(mode="sometimes")


class TestSparseTransport:
    def test_sparse_dense_round_trips_exactly(self):
        layer = Dense(30, 12, seed=0)
        _prune_to(layer.weight, 0.85)
        plan = compile_network(Sequential(layer), sparsity=TINY_ALWAYS)
        rebuilt = InferencePlan.from_payload(plan.to_payload())
        kernel, copy = plan.kernels[0], rebuilt.kernels[0]
        assert isinstance(copy, SparseDenseKernel)
        assert np.array_equal(kernel.weight.indices, copy.weight.indices)
        assert np.array_equal(kernel.weight.values, copy.weight.values)
        x = np.random.default_rng(8).standard_normal((4, 30))
        assert np.array_equal(plan(x), rebuilt(x))

    def test_sparse_lstm_round_trips_exactly(self):
        lstm = LSTM(input_size=6, hidden_size=16, seed=2)
        _prune_to(lstm.cells[0].weight_hh, 0.9)
        _prune_to(lstm.cells[0].weight_ih, 0.9)
        plan = compile_network(Sequential(lstm), sparsity=TINY_ALWAYS)
        rebuilt = InferencePlan.from_payload(plan.to_payload())
        x = np.random.default_rng(9).standard_normal((3, 7, 6))
        assert np.array_equal(plan(x), rebuilt(x))

    def test_v1_payload_is_rejected_naming_the_format(self):
        """Hand-serialized v1 payloads have no reader: a typed refusal."""
        lstm = LSTM(input_size=4, hidden_size=8, seed=3)
        plan = compile_network(Sequential(lstm), sparsity=TINY_DENSE)
        payload = plan.to_payload()
        import json

        meta = json.loads(str(payload[InferencePlan.META_KEY]))
        meta["format"] = "repro-inference-plan-v1"
        payload[InferencePlan.META_KEY] = np.asarray(json.dumps(meta))
        with pytest.raises(PlanTransportError, match="repro-inference-plan-v1"):
            InferencePlan.from_payload(payload)


# ---------------------------------------------------------------------- #
# Block-structured layout (tile slabs)
# ---------------------------------------------------------------------- #
def _block_pruned(shape, tile, keep=0.2, seed=0, dtype=np.float32):
    """A dense matrix keeping exactly ``keep`` of its tiles (rest all-zero)."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal(shape).astype(dtype)
    th, tw = tile
    n_row, n_col = shape[0] // th, shape[1] // tw
    n_tiles = n_row * n_col
    n_keep = max(1, int(round(keep * n_tiles)))
    mask = np.zeros(n_tiles, dtype=bool)
    mask[rng.permutation(n_tiles)[:n_keep]] = True
    tiles = dense.reshape(n_row, th, n_col, tw)
    tiles *= mask.reshape(n_row, n_col)[:, None, :, None]
    return dense


def _round_trip_operand(weight):
    """``weight`` after a plan payload round trip, as a bias-free kernel."""
    plan = InferencePlan([SparseDenseKernel(weight, None)])
    return InferencePlan.from_payload(plan.to_payload()).kernels[0].weight


class TestBlockSparseWeight:
    @pytest.mark.parametrize("tile", [(8, 8), (16, 1), (4, 2)])
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_matmul_matches_dense(self, tile, batch):
        dense = _block_pruned((32, 16), tile, seed=1)
        weight = BlockSparseWeight.from_dense(dense, tile)
        x = np.random.default_rng(2).standard_normal((batch, 32)).astype(np.float32)
        np.testing.assert_allclose(weight.matmul(x), x @ dense, atol=1e-5)
        assert weight.nnz == int(np.count_nonzero(dense))

    @pytest.mark.parametrize("tile", [(8, 8), (16, 1)])
    def test_bound_scratch_matches_allocating_path_bitwise(self, tile):
        dense = _block_pruned((32, 16), tile, seed=3)
        weight = BlockSparseWeight.from_dense(dense, tile)
        x = np.random.default_rng(4).standard_normal((5, 32)).astype(np.float32)
        out = np.empty((5, 16), dtype=np.float32)
        panels, prod = weight.matmul_scratch(5, np.float32)
        weight.matmul(x, out=out, panels=panels, prod=prod)
        assert np.array_equal(out, weight.matmul(x))

    def test_tile_must_divide_the_matrix(self):
        with pytest.raises(ValueError):
            BlockSparseWeight.from_dense(np.zeros((30, 16), dtype=np.float32), (8, 8))
        with pytest.raises(ValueError):
            BlockSparseWeight.from_dense(np.zeros((32, 15), dtype=np.float32), (8, 8))

    def test_all_zero_matrix_supported(self):
        weight = BlockSparseWeight.from_dense(np.zeros((16, 8), dtype=np.float32), (8, 8))
        out = weight.matmul(np.ones((3, 16), dtype=np.float32))
        np.testing.assert_array_equal(out, np.zeros((3, 8), dtype=np.float32))
        assert weight.tiles_kept == 0

    def test_occupancy_reports_the_tile_grid(self):
        dense = np.zeros((16, 16), dtype=np.float32)
        dense[:8, :8] = 1.0  # exactly one of four (8, 8) tiles survives
        weight = BlockSparseWeight.from_dense(dense, (8, 8))
        assert weight.tiles_total == 4
        assert weight.tiles_kept == 1
        assert weight.block_occupancy == 0.25
        assert weight.kmax == 1

    def test_construction_is_deterministic(self):
        dense = _block_pruned((32, 16), (8, 8), seed=5)
        a = BlockSparseWeight.from_dense(dense, (8, 8))
        b = BlockSparseWeight.from_dense(dense.copy(), (8, 8))
        assert np.array_equal(a.block_indices, b.block_indices)
        assert np.array_equal(a.blocks, b.blocks)

    def test_state_round_trips_exactly(self):
        dense = _block_pruned((32, 16), (16, 1), seed=6)
        weight = BlockSparseWeight.from_dense(dense, (16, 1))
        rebuilt = _round_trip_operand(weight)
        x = np.random.default_rng(7).standard_normal((4, 32)).astype(np.float32)
        assert np.array_equal(weight.matmul(x), rebuilt.matmul(x))

    def test_slab_is_smaller_than_dense_at_high_sparsity(self):
        dense = _block_pruned((128, 64), (8, 8), keep=0.1, seed=8)
        weight = BlockSparseWeight.from_dense(dense, (8, 8))
        assert weight.nbytes < dense.nbytes


def _gate_coupled_pruned(hidden=64, groups=4, grid=(32, 8), keep=0.15, seed=0):
    """A (hidden, groups*hidden) matrix pruned gate-coupled on the LCM grid.

    Every kept super-tile spans the same column slice of all ``groups`` gate
    panels — the pattern ``apply_block_magnitude_pruning`` produces for LSTM
    projections, under which the fused union occupancy equals the per-gate
    occupancy exactly.
    """
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((hidden, groups * hidden)).astype(np.float32)
    rows_g, cols_g = hidden // grid[0], hidden // grid[1]
    mask = rng.random((rows_g, cols_g)) < keep
    view = dense.reshape(rows_g, grid[0], groups, cols_g, grid[1])
    view *= mask[:, None, None, :, None]
    return dense


class TestFusedGateSlabs:
    """The gate-fused block layout: one slab per column across all four gates."""

    TILES = [(8, 8), (16, 1), (32, 1)]

    @pytest.mark.parametrize("tile", TILES)
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_fused_matmul_matches_dense(self, tile, batch):
        dense = _gate_coupled_pruned(seed=31)
        fused = BlockSparseWeight.from_dense(dense, tile, groups=4)
        assert fused.groups == 4
        assert fused.nnz == int(np.count_nonzero(dense))
        x = np.random.default_rng(32).standard_normal((batch, 64)).astype(np.float32)
        np.testing.assert_allclose(fused.matmul(x), x @ dense, atol=1e-5)

    @pytest.mark.parametrize("tile", TILES)
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_fused_matches_the_split_layout(self, tile, batch):
        """Same matrix, split (groups=1) vs fused slabs: same product.

        Not bit-for-bit — fusing changes the BLAS problem shape, and with it
        the kernel's accumulation order — but within float32 rounding of the
        identical sum.
        """
        dense = _gate_coupled_pruned(seed=33)
        split = BlockSparseWeight.from_dense(dense, tile)
        fused = BlockSparseWeight.from_dense(dense, tile, groups=4)
        x = np.random.default_rng(34).standard_normal((batch, 64)).astype(np.float32)
        np.testing.assert_allclose(fused.matmul(x), split.matmul(x), atol=1e-5)

    def test_gate_coupling_makes_fusion_free(self):
        """Coupled patterns: the fused union keeps exactly the split tiles."""
        dense = _gate_coupled_pruned(seed=35)
        split = BlockSparseWeight.from_dense(dense, (8, 8))
        fused = BlockSparseWeight.from_dense(dense, (8, 8), groups=4)
        # Four split tiles collapse into one 4x-wide slab: same stored count.
        assert fused.tiles_kept * 4 == split.tiles_kept
        assert fused.blocks.size == split.blocks.size

    @pytest.mark.parametrize("tile", [(8, 8), (16, 1)])
    def test_fused_bound_scratch_matches_allocating_path_bitwise(self, tile):
        dense = _gate_coupled_pruned(seed=36)
        fused = BlockSparseWeight.from_dense(dense, tile, groups=4)
        x = np.random.default_rng(37).standard_normal((5, 64)).astype(np.float32)
        out = np.empty((5, 256), dtype=np.float32)
        panels, prod = fused.matmul_scratch(5, np.float32)
        fused.matmul(x, out=out, panels=panels, prod=prod)
        assert np.array_equal(out, fused.matmul(x))

    def test_fused_state_round_trips_exactly(self):
        dense = _gate_coupled_pruned(seed=38)
        fused = BlockSparseWeight.from_dense(dense, (8, 8), groups=4)
        rebuilt = _round_trip_operand(fused)
        assert rebuilt.groups == 4
        x = np.random.default_rng(39).standard_normal((4, 64)).astype(np.float32)
        assert np.array_equal(fused.matmul(x), rebuilt.matmul(x))

    def test_groups_must_divide_the_columns(self):
        with pytest.raises(ValueError):
            BlockSparseWeight.from_dense(
                np.zeros((16, 24), dtype=np.float32), (8, 8), groups=4
            )

    def test_repr_names_the_slab_geometry(self):
        dense = _gate_coupled_pruned(seed=40)
        fused = BlockSparseWeight.from_dense(dense, (8, 8), groups=4)
        assert "groups=4" in repr(fused)


class TestFusedGateLowering:
    """Gate-coupled pruned LSTMs lower to ONE fused slab per projection."""

    def _coupled_lstm(self, seed=41):
        from repro.compression.pruning import apply_block_magnitude_pruning

        lstm = LSTM(input_size=32, hidden_size=64, seed=seed)
        apply_block_magnitude_pruning(Sequential(lstm), 0.9)
        return lstm

    def test_coupled_lstm_lowers_fused_slabs(self):
        lstm = self._coupled_lstm()
        plan = compile_network(Sequential(lstm), sparsity=TINY_ALWAYS)
        kernel = plan.kernels[0]
        assert isinstance(kernel, LSTMKernel)
        w_ih, w_hh, _ = kernel.layers[0]
        assert isinstance(w_ih, BlockSparseWeight) and w_ih.groups == 4
        assert isinstance(w_hh, BlockSparseWeight) and w_hh.groups == 4
        x = np.random.default_rng(42).standard_normal((4, 9, 32))
        np.testing.assert_allclose(plan(x), _forward_autograd(lstm, x), atol=1e-5)

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_fused_plan_matches_autograd_across_batches(self, batch):
        lstm = self._coupled_lstm(seed=43)
        plan = compile_network(Sequential(lstm), sparsity=TINY_ALWAYS)
        x = np.random.default_rng(44 + batch).standard_normal((batch, 9, 32))
        np.testing.assert_allclose(plan(x), _forward_autograd(lstm, x), atol=1e-5)

    def test_fused_specialized_is_bit_for_bit_generic(self):
        lstm = self._coupled_lstm(seed=45)
        plan = compile_network(Sequential(lstm), sparsity=TINY_ALWAYS)
        plan.append(SoftmaxKernel())
        x = np.random.default_rng(46).standard_normal((5, 9, 32))
        generic = plan(x).copy()
        assert plan.specialize(5)
        plan(x)  # bind the arena
        assert np.array_equal(generic, plan(x))

    def test_fused_plan_round_trips_through_payloads(self):
        lstm = self._coupled_lstm(seed=47)
        plan = compile_network(Sequential(lstm), sparsity=TINY_ALWAYS)
        rebuilt = InferencePlan.from_payload(plan.to_payload())
        w_ih, w_hh, _ = rebuilt.kernels[0].layers[0]
        assert isinstance(w_ih, BlockSparseWeight) and w_ih.groups == 4
        assert isinstance(w_hh, BlockSparseWeight) and w_hh.groups == 4
        x = np.random.default_rng(48).standard_normal((3, 7, 32))
        assert np.array_equal(plan(x), rebuilt(x))

    # The fixture above prunes all of ``weight_ih`` (its output ignores the
    # input), so the checks below repeat on an LSTM whose two projections
    # are pruned separately and both keep surviving tiles.
    @staticmethod
    def _live_plan(seed=49):
        lstm = LSTM(input_size=32, hidden_size=64, seed=seed)
        block_prune_projections_separately(lstm, 0.9)
        plan = compile_network(Sequential(lstm), sparsity=TINY_ALWAYS)
        w_ih, w_hh, _ = plan.kernels[0].layers[0]
        assert isinstance(w_ih, BlockSparseWeight) and w_ih.groups == 4
        assert isinstance(w_hh, BlockSparseWeight) and w_hh.groups == 4
        assert w_ih.nnz > 0 and w_hh.nnz > 0
        return lstm, plan

    def test_live_fused_plan_depends_on_its_input(self):
        _, plan = self._live_plan()
        rng = np.random.default_rng(50)
        a = plan(rng.standard_normal((4, 9, 32)))
        b = plan(rng.standard_normal((4, 9, 32)))
        assert np.abs(a - b).max() > 1e-2

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_live_fused_plan_matches_autograd(self, batch):
        lstm, plan = self._live_plan()
        x = np.random.default_rng(51 + batch).standard_normal((batch, 9, 32))
        np.testing.assert_allclose(plan(x), _forward_autograd(lstm, x), atol=1e-5)

    def test_live_fused_plan_round_trips_through_payloads(self):
        _, plan = self._live_plan()
        rebuilt = InferencePlan.from_payload(plan.to_payload())
        w_ih, w_hh, _ = rebuilt.kernels[0].layers[0]
        assert w_ih.groups == 4 and w_hh.groups == 4 and w_ih.nnz > 0
        x = np.random.default_rng(52).standard_normal((3, 7, 32))
        assert np.array_equal(plan(x), rebuilt(x))


class TestBlockLowering:
    def test_block_pruned_dense_lowers_to_block_kernel(self):
        layer = Dense(32, 16, seed=0)
        layer.weight.data = _block_pruned((32, 16), (8, 8), keep=0.1, seed=9)
        plan = compile_network(Sequential(layer), sparsity=TINY_ALWAYS)
        kernel = plan.kernels[0]
        assert isinstance(kernel, SparseDenseKernel)
        assert isinstance(kernel.weight, BlockSparseWeight)
        assert "block8x8" in plan.describe()[0]

    def test_elementwise_pruning_stays_ell(self):
        layer = Dense(32, 16, seed=0)
        _prune_to(layer.weight, 0.9)  # unstructured zeros ignore the tile grid
        plan = compile_network(Sequential(layer), sparsity=TINY_ALWAYS)
        assert isinstance(plan.kernels[0].weight, ColumnSparseWeight)

    def test_indivisible_shape_falls_back_to_ell(self):
        layer = Dense(30, 12, seed=0)  # no configured tile divides (30, 12)
        layer.weight.data[np.random.default_rng(10).random((30, 12)) < 0.9] = 0.0
        plan = compile_network(Sequential(layer), sparsity=TINY_ALWAYS)
        assert isinstance(plan.kernels[0].weight, ColumnSparseWeight)

    def test_block_dense_matches_autograd(self):
        net = Sequential(Dense(32, 16, seed=0, activation="relu"), Dense(16, 3, seed=1))
        net.layers[0].weight.data = _block_pruned((32, 16), (8, 8), keep=0.2, seed=11)
        plan = compile_network(net, sparsity=TINY_ALWAYS)
        assert isinstance(plan.kernels[0].weight, BlockSparseWeight)
        assert plan.kernels[0].activation == "relu"
        x = np.random.default_rng(12).standard_normal((6, 32))
        np.testing.assert_allclose(plan(x), _forward_autograd(net, x), atol=1e-5)

    def test_block_pruned_lstm_lowers_row_tiles(self):
        lstm = LSTM(input_size=16, hidden_size=32, seed=0)
        cell = lstm.cells[0]
        cell.weight_ih.data = _block_pruned((16, 128), (16, 1), keep=0.1, seed=13)
        cell.weight_hh.data = _block_pruned((32, 128), (16, 1), keep=0.1, seed=14)
        plan = compile_network(Sequential(lstm), sparsity=TINY_ALWAYS)
        kernel = plan.kernels[0]
        assert isinstance(kernel, LSTMKernel)
        w_ih, w_hh, _ = kernel.layers[0]
        assert isinstance(w_ih, BlockSparseWeight) and w_ih.tile == (16, 1)
        assert isinstance(w_hh, BlockSparseWeight) and w_hh.tile == (16, 1)
        assert "block" in kernel.describe()
        x = np.random.default_rng(15).standard_normal((4, 9, 16))
        np.testing.assert_allclose(plan(x), _forward_autograd(lstm, x), atol=1e-5)

    def test_block_lstm_specialized_is_bit_for_bit_generic(self):
        lstm = LSTM(input_size=16, hidden_size=32, seed=1)
        cell = lstm.cells[0]
        cell.weight_ih.data = _block_pruned((16, 128), (16, 1), keep=0.15, seed=16)
        cell.weight_hh.data = _block_pruned((32, 128), (16, 1), keep=0.15, seed=17)
        plan = compile_network(Sequential(lstm), sparsity=TINY_ALWAYS)
        plan.append(SoftmaxKernel())
        x = np.random.default_rng(18).standard_normal((5, 9, 16))
        generic = plan(x).copy()
        assert plan.specialize(5)
        plan(x)
        assert np.array_equal(generic, plan(x))

    def test_block_plans_round_trip_through_payloads(self):
        lstm = LSTM(input_size=16, hidden_size=32, seed=2)
        cell = lstm.cells[0]
        cell.weight_ih.data = _block_pruned((16, 128), (16, 1), keep=0.1, seed=19)
        cell.weight_hh.data = _block_pruned((32, 128), (16, 1), keep=0.1, seed=20)
        plan = compile_network(Sequential(lstm), sparsity=TINY_ALWAYS)
        rebuilt = InferencePlan.from_payload(plan.to_payload())
        w_ih, _, _ = rebuilt.kernels[0].layers[0]
        assert isinstance(w_ih, BlockSparseWeight)
        x = np.random.default_rng(21).standard_normal((3, 7, 16))
        assert np.array_equal(plan(x), rebuilt(x))


class TestBlockEquivalenceAtPaperLevels:
    """Block-sparse serving matches the autograd oracle at every paper level."""

    @pytest.mark.parametrize("level", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_dense_network(self, level, batch):
        from repro.compression.pruning import apply_block_magnitude_pruning

        net = Sequential(Dense(32, 16, seed=3, activation="relu"), Dense(16, 8, seed=4))
        apply_block_magnitude_pruning(net, level, tile=(8, 8))
        plan = compile_network(net, sparsity=TINY_ALWAYS)
        x = np.random.default_rng(int(level * 10) + batch).standard_normal((batch, 32))
        np.testing.assert_allclose(plan(x), _forward_autograd(net, x), atol=1e-5)

    @pytest.mark.parametrize("level", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_lstm_network(self, level, batch):
        from repro.compression.pruning import apply_block_magnitude_pruning

        lstm = LSTM(input_size=16, hidden_size=32, seed=5)
        apply_block_magnitude_pruning(Sequential(lstm), level)
        plan = compile_network(Sequential(lstm), sparsity=TINY_ALWAYS)
        x = np.random.default_rng(int(level * 100) + batch).standard_normal((batch, 9, 16))
        np.testing.assert_allclose(plan(x), _forward_autograd(lstm, x), atol=1e-5)
