"""Tests for the compiled inference engine (repro.nn.inference)."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor, no_grad
from repro.nn.inference import (
    ActivationKernel,
    DenseKernel,
    InferencePlan,
    Kernel,
    LSTMKernel,
    PlanCompilationError,
    SoftmaxKernel,
    compile_network,
)
from repro.nn.layers import Conv2d, Dense, Dropout, Flatten, LayerNorm, MaxPool2d, ReLU
from repro.nn.lstm import LSTM
from repro.nn.module import Module, Sequential
from repro.nn.attention import TransformerEncoderLayer
from tests.helpers import block_prune_projections_separately


def _forward_autograd(module, x):
    module.eval()
    with no_grad():
        return module(Tensor(x)).data


class TestCompileSequential:
    def test_dense_stack_matches_autograd(self):
        net = Sequential(
            Dense(10, 16, seed=0, activation="relu"),
            Dense(16, 8, seed=1, activation="tanh"),
            Dense(8, 3, seed=2),
        )
        plan = compile_network(net)
        x = np.random.default_rng(0).standard_normal((5, 10))
        np.testing.assert_allclose(plan(x), _forward_autograd(net, x), atol=1e-5)

    def test_standalone_activation_fused_into_dense(self):
        net = Sequential(Dense(6, 4, seed=0), ReLU(), Dense(4, 2, seed=1))
        plan = compile_network(net)
        # ReLU folded into the first dense kernel: 2 kernels, not 3.
        assert len(plan) == 2
        assert isinstance(plan.kernels[0], DenseKernel)
        assert plan.kernels[0].activation == "relu"
        x = np.random.default_rng(1).standard_normal((3, 6))
        np.testing.assert_allclose(plan(x), _forward_autograd(net, x), atol=1e-5)

    def test_unfusable_activation_stays_standalone(self):
        net = Sequential(Flatten(), ReLU(), Dense(6, 2, seed=0))
        plan = compile_network(net)
        assert isinstance(plan.kernels[1], ActivationKernel)
        x = np.random.default_rng(2).standard_normal((4, 2, 3))
        np.testing.assert_allclose(plan(x), _forward_autograd(net, x), atol=1e-5)

    def test_dropout_compiles_away(self):
        net = Sequential(Dense(5, 5, seed=0), Dropout(0.5), Dense(5, 2, seed=1))
        plan = compile_network(net)
        assert len(plan) == 2

    def test_conv_pool_flatten_matches_autograd(self):
        net = Sequential(
            Conv2d(1, 4, kernel_size=3, stride=1, seed=0),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Dense(4 * 3 * 9, 3, seed=1),
        )
        plan = compile_network(net)
        x = np.random.default_rng(3).standard_normal((2, 1, 8, 20))
        np.testing.assert_allclose(plan(x), _forward_autograd(net, x), atol=1e-5)

    def test_padded_conv_matches_autograd(self):
        net = Sequential(Conv2d(2, 3, kernel_size=3, stride=2, padding=1, seed=4))
        plan = compile_network(net)
        x = np.random.default_rng(4).standard_normal((3, 2, 9, 11))
        np.testing.assert_allclose(plan(x), _forward_autograd(net, x), atol=1e-5)

    def test_layernorm_matches_autograd(self):
        net = Sequential(LayerNorm(12))
        plan = compile_network(net)
        x = np.random.default_rng(5).standard_normal((4, 7, 12))
        np.testing.assert_allclose(plan(x), _forward_autograd(net, x), atol=1e-5)


class TestRecurrentAndAttention:
    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_lstm_kernel_matches_autograd(self, num_layers):
        lstm = LSTM(input_size=6, hidden_size=13, num_layers=num_layers, seed=0)
        plan = compile_network(lstm)
        assert isinstance(plan.kernels[0], LSTMKernel)
        x = np.random.default_rng(6).standard_normal((4, 9, 6))
        np.testing.assert_allclose(plan(x), _forward_autograd(lstm, x), atol=1e-5)

    def test_encoder_block_matches_autograd(self):
        layer = TransformerEncoderLayer(
            d_model=16, n_heads=4, dim_feedforward=24, dropout=0.3, seed=2
        )
        plan = compile_network(layer)
        x = np.random.default_rng(8).standard_normal((3, 6, 16))
        np.testing.assert_allclose(plan(x), _forward_autograd(layer, x), atol=1e-5)


class TestPlanMechanics:
    def test_unsupported_module_raises(self):
        class Exotic(Module):
            def forward(self, x):
                return x

        with pytest.raises(PlanCompilationError):
            compile_network(Sequential(Exotic()))

    def test_plan_casts_input_to_serving_dtype(self):
        net = Sequential(Dense(4, 2, seed=0))
        plan = compile_network(net)
        out = plan(np.random.default_rng(9).standard_normal((2, 4)))
        assert out.dtype == np.float32

    def test_float64_plan_supported(self):
        net = Sequential(Dense(4, 2, seed=0))
        plan = compile_network(net, dtype=np.float64)
        out = plan(np.random.default_rng(10).standard_normal((2, 4)))
        assert out.dtype == np.float64

    def test_softmax_kernel_rows_sum_to_one_in_float64(self):
        plan = InferencePlan([SoftmaxKernel()])
        logits = np.random.default_rng(11).standard_normal((5, 3)).astype(np.float32)
        out = plan(logits)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)

    def test_nbytes_counts_weight_storage(self):
        net = Sequential(Dense(4, 2, bias=False, seed=0))
        plan = compile_network(net)
        assert plan.nbytes == 4 * 2 * 4  # float32

    def test_describe_lists_kernels(self):
        net = Sequential(Dense(4, 2, seed=0), ReLU())
        plan = compile_network(net)
        assert plan.describe() == ["dense[4x2]+relu"]


# ---------------------------------------------------------------------- #
# Shape specialisation: pre-bound arenas
# ---------------------------------------------------------------------- #
def _alloc_profile(call, warm=3):
    """(net_bytes, peak_bytes) of one steady-state ``call`` under tracemalloc."""
    import gc
    import tracemalloc

    for _ in range(warm):
        call()
    gc.collect()
    tracemalloc.start()
    try:
        call()
        call()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current - before, peak - before


def _small_lstm_net():
    return Sequential(LSTM(input_size=6, hidden_size=24, num_layers=2, seed=3))


def _small_cnn_net():
    return Sequential(
        Conv2d(1, 4, kernel_size=3, padding=1, seed=0),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Dense(4 * 4 * 5, 8, seed=1, activation="relu"),
        LayerNorm(8),
        Dense(8, 3, seed=3),
    )


def _small_encoder_net():
    return Sequential(
        TransformerEncoderLayer(
            d_model=16, n_heads=4, dim_feedforward=24, dropout=0.1, seed=2
        ),
        Dense(16, 3, seed=4),
    )


def _padded_conv_net():
    return Sequential(Conv2d(1, 2, kernel_size=3, padding=2, seed=0))


def _pool_plan(kind):
    from repro.nn.inference import AvgPool2dKernel, MaxPool2dKernel

    kernel = {"max": MaxPool2dKernel, "avg": AvgPool2dKernel}[kind]
    return lambda: InferencePlan([kernel((2, 2), (2, 2))])


def _posenc_plan():
    from repro.nn.inference import PositionalEncodingKernel

    return InferencePlan([PositionalEncodingKernel(16)])


def _compiled(net_fn):
    return lambda: compile_network(net_fn())


#: case -> (plan builder, a good input shape, a bad one, the error's text).
_BAD_INPUTS = {
    "conv-rank": (_compiled(_small_cnn_net), (4, 1, 8, 10), (4, 8, 10),
                  "Conv2dKernel expects"),
    "conv-too-small": (
        _compiled(lambda: Sequential(Conv2d(1, 2, kernel_size=3, seed=0))),
        (4, 1, 6, 7), (4, 1, 2, 2), "too small for convolution",
    ),
    "maxpool-rank": (_pool_plan("max"), (4, 2, 6, 6), (4, 6, 6),
                     "MaxPool2dKernel expects"),
    "maxpool-too-small": (_pool_plan("max"), (4, 2, 6, 6), (4, 2, 1, 1),
                          "too small for pooling"),
    "avgpool-rank": (_pool_plan("avg"), (4, 2, 6, 6), (4, 6, 6),
                     "AvgPool2dKernel expects"),
    "avgpool-too-small": (_pool_plan("avg"), (4, 2, 6, 6), (4, 2, 1, 1),
                          "too small for pooling"),
    "lstm-rank": (_compiled(_small_lstm_net), (4, 9, 6), (4, 54),
                  "LSTMKernel expects"),
    "lstm-empty": (_compiled(_small_lstm_net), (4, 9, 6), (4, 0, 6),
                   "LSTMKernel expects"),
    "lstm-features": (_compiled(_small_lstm_net), (4, 9, 6), (4, 9, 5),
                      "LSTMKernel expects"),
    "encoder-rank": (_compiled(_small_encoder_net), (4, 6, 16), (4, 16),
                     "EncoderBlockKernel expects"),
    "encoder-empty": (_compiled(_small_encoder_net), (4, 6, 16), (4, 0, 16),
                      "EncoderBlockKernel expects"),
    "posenc-rank": (_posenc_plan, (4, 6, 16), (4, 16),
                    "PositionalEncodingKernel expects"),
    "posenc-empty": (_posenc_plan, (4, 6, 16), (4, 0, 16), "must be positive"),
}


class TestShapeSpecialization:
    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize(
        "net_fn,shape",
        [
            (_small_lstm_net, (9, 6)),
            (_small_cnn_net, (1, 8, 10)),
            (_small_encoder_net, (6, 16)),
        ],
        ids=["lstm", "cnn", "encoder"],
    )
    def test_specialized_is_bit_for_bit_generic(self, net_fn, shape, batch):
        plan = compile_network(net_fn())
        plan.append(SoftmaxKernel())
        x = np.random.default_rng(batch).standard_normal((batch,) + shape)
        generic = plan(x).copy()
        assert plan.specialize(batch)
        first = plan(x)  # binds the arena
        steady = plan(x)  # pure arena replay
        assert np.array_equal(generic, first)
        assert np.array_equal(generic, steady)
        assert plan.specialized_calls == 2
        assert plan.generic_calls == 1

    def test_steady_state_flush_allocates_no_arrays(self):
        """The zero-allocation claim, asserted.

        A specialised plan call must not allocate any data arrays: its
        tracemalloc peak stays within numpy's constant-size internal
        iteration buffers (independent of model and batch geometry), while
        the generic path's peak scales with the intermediates it allocates.
        The bound covers every kernel family at once.
        """
        bound = 128 * 1024
        for net_fn, shape in [
            (_small_lstm_net, (9, 6)),
            (_small_cnn_net, (1, 8, 10)),
            (_small_encoder_net, (6, 16)),
        ]:
            plan = compile_network(net_fn())
            plan.append(SoftmaxKernel())
            x = np.random.default_rng(0).standard_normal((32,) + shape).astype(
                np.float32
            )
            plan.specialize(32)
            net_bytes, peak = _alloc_profile(lambda: plan(x))
            assert peak < bound, f"specialised peak {peak}B blows {bound}B"
            assert net_bytes < 4096, f"specialised call retains {net_bytes}B"

    def test_unpinned_steady_state_call_stays_under_the_bound(self):
        """An unspecialised call reuses the plan's private arena: past its
        first call at a geometry it allocates only the output copy."""
        bound = 128 * 1024
        for net_fn, shape in [
            (_small_lstm_net, (9, 6)),
            (_small_cnn_net, (1, 8, 10)),
            (_small_encoder_net, (6, 16)),
        ]:
            plan = compile_network(net_fn())
            plan.append(SoftmaxKernel())
            x = np.random.default_rng(1).standard_normal((32,) + shape).astype(
                np.float32
            )
            net_bytes, peak = _alloc_profile(lambda: plan(x))
            assert peak < bound, f"unpinned peak {peak}B blows {bound}B"
            assert net_bytes < 4096, f"unpinned call retains {net_bytes}B"
            assert plan.specialized_calls == 0

    @pytest.mark.parametrize(
        "net_fn,shape",
        [(_small_lstm_net, (9, 6)), (_padded_conv_net, (1, 6, 7))],
        ids=["lstm", "padded-conv"],
    )
    def test_unpinned_calls_are_repeatable_and_own_their_output(
        self, net_fn, shape
    ):
        plan = compile_network(net_fn())
        rng = np.random.default_rng(9)
        inputs = {b: rng.standard_normal((b,) + shape) for b in (2, 6)}
        outs = [(b, plan(inputs[b])) for b in (2, 6, 2, 2, 6, 2)]
        first = {}
        for batch, out in outs:
            assert np.array_equal(out, first.setdefault(batch, out))
        for i, (_, a) in enumerate(outs):
            for _, b in outs[i + 1 :]:
                assert not np.shares_memory(a, b)
        assert plan.generic_calls == len(outs)
        assert plan.specialization_stats()["arenas"] == 0

    def test_mismatched_batch_falls_back_to_generic(self):
        plan = compile_network(_small_lstm_net())
        plan.specialize(4)
        x4 = np.random.default_rng(2).standard_normal((4, 9, 6))
        x5 = np.random.default_rng(3).standard_normal((5, 9, 6))
        plan(x4)
        before = plan.generic_calls
        plan(x5)
        assert plan.generic_calls == before + 1
        assert plan.specialized_calls == 1

    def test_despecialize_releases_arenas(self):
        plan = compile_network(_small_lstm_net())
        x = np.random.default_rng(4).standard_normal((3, 9, 6))
        plan.specialize(3)
        plan(x)
        assert plan.specialization_stats()["arenas"] == 1
        plan.despecialize(3)
        assert plan.specialization_stats()["arenas"] == 0
        plan(x)  # generic again
        assert plan.generic_calls == 1

    def test_auto_specialization_binds_after_streak_and_evicts_lru(self):
        plan = compile_network(_small_lstm_net())
        plan.enable_auto_specialization(streak=2, max_arenas=2)
        rng = np.random.default_rng(5)
        x2 = rng.standard_normal((2, 9, 6))
        x3 = rng.standard_normal((3, 9, 6))
        x4 = rng.standard_normal((4, 9, 6))
        plan(x2)  # streak 1: generic
        assert plan.specialization_stats()["arenas"] == 0
        plan(x2)  # streak 2: binds and serves from the arena
        assert plan.specialization_stats()["arenas"] == 1
        assert plan.specialized_calls == 1
        # A fleet resize re-specialises; the LRU cap bounds held scratch.
        for x in (x3, x3, x4, x4):
            plan(x)
        stats = plan.specialization_stats()
        assert stats["arenas"] == 2  # batch-2 arena evicted
        assert plan((np.asarray(x2))) is not None
        assert plan.specialization_stats()["arenas"] == 2

    def test_kernel_without_bind_raises_plan_compilation_error(self):
        class Unbound(Kernel):
            pass

        plan = InferencePlan([Unbound()])
        x = np.random.default_rng(6).standard_normal((2, 4))
        with pytest.raises(PlanCompilationError, match="Unbound"):
            plan(x)
        plan.specialize(2)
        with pytest.raises(PlanCompilationError, match="Unbound"):
            plan(x)

    def test_custom_kernel_with_bind_serves(self):
        from repro.nn.inference import BoundKernel

        class Doubler(Kernel):
            def bind(self, x):
                out = np.empty_like(x)
                return BoundKernel(lambda: np.multiply(x, 2.0, out=out), out)

        plan = InferencePlan([Doubler()])
        x = np.random.default_rng(6).standard_normal((2, 4)).astype(np.float32)
        np.testing.assert_array_equal(plan(x), x * 2.0)
        assert plan.specialize(2)
        np.testing.assert_array_equal(plan(x), x * 2.0)
        assert (plan.generic_calls, plan.specialized_calls) == (1, 1)

    def test_bad_input_leaves_specialisation_serving(self):
        plan = compile_network(_small_lstm_net())
        plan.specialize(4)
        x = np.random.default_rng(13).standard_normal((4, 9, 6))
        plan(x)
        plan(x)
        assert plan.specialized_calls == 2
        with pytest.raises(ValueError, match="LSTMKernel expects"):
            plan(np.zeros((4, 54)))
        plan(x)
        assert plan.specialized_calls == 3
        assert plan.has_arena((4, 9, 6))

    def test_specialized_output_buffer_is_reused_across_calls(self):
        """The documented ownership contract: rows are valid until the next
        call, so retaining callers must copy (MicroBatcher.finalize does)."""
        plan = compile_network(Sequential(Dense(4, 3, seed=0)))
        plan.append(SoftmaxKernel())
        plan.specialize(2)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 4)).astype(np.float32)
        b = rng.standard_normal((2, 4)).astype(np.float32)
        plan(a)
        out_a = plan(a)
        expected_b = plan(b).copy()
        assert np.array_equal(out_a, expected_b)  # same buffer, overwritten

    def test_append_invalidates_existing_arenas(self):
        plan = compile_network(Sequential(Dense(4, 3, seed=0)))
        plan.specialize(2)
        x = np.random.default_rng(8).standard_normal((2, 4)).astype(np.float32)
        plan(x)
        assert plan.specialization_stats()["arenas"] == 1
        plan.append(SoftmaxKernel())
        assert plan.specialization_stats()["arenas"] == 0
        out = plan(x)  # rebinds through the full kernel list
        np.testing.assert_allclose(out.sum(axis=1), np.ones(2), atol=1e-12)

    @pytest.mark.parametrize("pinned", [False, True], ids=["unpinned", "pinned"])
    @pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
    def test_bad_input_raises_a_typed_value_error(self, case, pinned):
        build, good_shape, bad_shape, match = _BAD_INPUTS[case]
        plan = build()
        if pinned:
            plan.specialize(bad_shape[0])
        with pytest.raises(ValueError, match=match) as info:
            plan(np.zeros(bad_shape))
        assert type(info.value) is ValueError
        # The refused geometry holds no arena; the plan keeps serving.
        assert plan.specialization_stats()["arenas"] == 0
        x = np.random.default_rng(14).standard_normal(good_shape)
        assert np.array_equal(plan(x), build()(x))


class TestBlockSparseSpecialization:
    """The zero-allocation arena contract extends to block-sparse plans.

    The fused-gate slab kernels add their own scratch (gathered input
    panels, the micro-GEMM product buffer); a specialised block plan must
    pre-bind ALL of it, so a steady-state flush stays within numpy's
    constant-size iteration buffers exactly like the dense plans gated in
    :class:`TestShapeSpecialization`.
    """

    @staticmethod
    def _block_plan():
        from repro.compression.pruning import apply_block_magnitude_pruning
        from repro.nn.inference import SparsityConfig
        from repro.nn.sparse import BlockSparseWeight

        net = Sequential(
            LSTM(input_size=32, hidden_size=64, seed=7),
            Dense(64, 8, seed=8),
        )
        apply_block_magnitude_pruning(net, 0.9)
        plan = compile_network(
            net, sparsity=SparsityConfig(mode="always", min_size=0)
        )
        plan.append(SoftmaxKernel())
        w_ih, w_hh, _ = plan.kernels[0].layers[0]
        assert isinstance(w_hh, BlockSparseWeight) and w_hh.groups == 4
        assert isinstance(w_ih, BlockSparseWeight) and w_ih.groups == 4
        return plan

    def test_steady_state_block_flush_allocates_no_arrays(self):
        plan = self._block_plan()
        x = np.random.default_rng(11).standard_normal((32, 9, 32)).astype(
            np.float32
        )
        assert plan.specialize(32)
        bound = 128 * 1024
        net_bytes, peak = _alloc_profile(lambda: plan(x))
        assert peak < bound, f"specialised block peak {peak}B blows {bound}B"
        assert net_bytes < 4096, f"specialised block call retains {net_bytes}B"

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_specialized_block_plan_is_bit_for_bit_generic(self, batch):
        plan = self._block_plan()
        x = np.random.default_rng(12 + batch).standard_normal((batch, 9, 32))
        generic = plan(x).copy()
        assert plan.specialize(batch)
        plan(x)  # binds the arena
        assert np.array_equal(generic, plan(x))

    # ``_block_plan`` prunes all of ``weight_ih``, so its output ignores the
    # input; this plan prunes the two projections separately.
    @staticmethod
    def _live_block_plan():
        from repro.nn.inference import SparsityConfig

        net = Sequential(
            LSTM(input_size=32, hidden_size=64, seed=7),
            Dense(64, 8, seed=8),
        )
        block_prune_projections_separately(net.layers[0], 0.9)
        plan = compile_network(
            net, sparsity=SparsityConfig(mode="always", min_size=0)
        )
        plan.append(SoftmaxKernel())
        w_ih, w_hh, _ = plan.kernels[0].layers[0]
        assert w_ih.groups == 4 and w_hh.groups == 4
        assert w_ih.nnz > 0
        return net, plan

    def test_live_block_plan_matches_autograd_and_its_input(self):
        net, plan = self._live_block_plan()
        rng = np.random.default_rng(15)
        a = rng.standard_normal((5, 9, 32))
        b = rng.standard_normal((5, 9, 32))
        logits = _forward_autograd(net, a)
        expected = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(plan(a), expected, atol=1e-5)
        assert np.abs(plan(a) - plan(b)).max() > 1e-3

    def test_steady_state_live_block_flush_allocates_no_arrays(self):
        _, plan = self._live_block_plan()
        x = np.random.default_rng(16).standard_normal((32, 9, 32)).astype(
            np.float32
        )
        assert plan.specialize(32)
        bound = 128 * 1024
        net_bytes, peak = _alloc_profile(lambda: plan(x))
        assert peak < bound, f"specialised block peak {peak}B blows {bound}B"
        assert net_bytes < 4096, f"specialised block call retains {net_bytes}B"

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_live_block_plan_round_trips_bit_exact(self, batch):
        _, plan = self._live_block_plan()
        x = np.random.default_rng(17 + batch).standard_normal((batch, 9, 32))
        expected = plan(x).copy()
        copy = InferencePlan.from_payload(plan.to_payload())
        assert copy.specialize(batch)
        assert np.array_equal(copy(x), expected)


# ---------------------------------------------------------------------- #
# Plan transport: every registered class round-trips bit-exact
# ---------------------------------------------------------------------- #
def _quantized(net, bits):
    from repro.compression.quantization import make_plan_quantizer

    return None if bits is None else make_plan_quantizer(net, bits)


def _cnn_case(pool, bits):
    from repro.nn.layers import AvgPool2d

    net = _small_cnn_net()
    if pool == "avg":
        net.layers[2] = AvgPool2d(2)
    plan = compile_network(net, quantizer=_quantized(net, bits))
    return plan, np.random.default_rng(20).standard_normal((5, 1, 8, 10))


def _lstm_case(bits):
    net = Sequential(
        LSTM(input_size=6, hidden_size=24, num_layers=2, seed=3),
        Dense(24, 3, seed=4),
    )
    plan = compile_network(net, quantizer=_quantized(net, bits))
    return plan, np.random.default_rng(21).standard_normal((4, 9, 6))


def _encoder_case(bits):
    from repro.nn.inference import MeanOverTimeKernel, PositionalEncodingKernel

    net = _small_encoder_net()
    body = compile_network(net, quantizer=_quantized(net, bits)).kernels
    plan = InferencePlan(
        [PositionalEncodingKernel(16)] + body[:1] + [MeanOverTimeKernel()]
        + body[1:] + [SoftmaxKernel()]
    )
    return plan, np.random.default_rng(22).standard_normal((3, 9, 16))


def _flatten_activation_case():
    from repro.nn.layers import Tanh

    plan = compile_network(Sequential(Flatten(), Tanh(), Dense(6, 2, seed=0)))
    return plan, np.random.default_rng(23).standard_normal((4, 2, 3))


def _tile_pruned(shape, seed):
    """A float32 matrix with about half of its (8, 8) tiles zeroed."""
    rng = np.random.default_rng(seed)
    dense = (0.3 * rng.standard_normal(shape)).astype(np.float32)
    tiles = dense.reshape(shape[0] // 8, 8, shape[1] // 8, 8)
    tiles *= (rng.random((shape[0] // 8, shape[1] // 8)) < 0.5)[:, None, :, None]
    return dense


def _sparse_case(kind, host):
    from repro.nn.inference import SparseDenseKernel
    from repro.nn.sparse import BlockSparseWeight, ColumnSparseWeight

    operand = {
        "ell": ColumnSparseWeight.from_dense,
        "block": lambda m: BlockSparseWeight.from_dense(m, (8, 8)),
        "fused": lambda m: BlockSparseWeight.from_dense(m, (8, 8), groups=4),
    }[kind]
    rng = np.random.default_rng(24)
    bias = (0.1 * rng.standard_normal(64)).astype(np.float32)
    if host == "dense":
        kernel = SparseDenseKernel(operand(_tile_pruned((16, 64), 25)), bias, "tanh")
        x = rng.standard_normal((5, 16))
    else:
        layer = (
            operand(_tile_pruned((16, 64), 26)),
            operand(_tile_pruned((16, 64), 27)),
            bias,
        )
        kernel = LSTMKernel([layer], 16, np.dtype(np.float32))
        x = rng.standard_normal((3, 7, 16))
    return InferencePlan([kernel, SoftmaxKernel()]), x


_TRANSPORT_CASES = {
    **{
        f"cnn-{pool}-{bits or 'f32'}": (lambda p=pool, b=bits: _cnn_case(p, b))
        for pool in ("max", "avg")
        for bits in (None, 8, 16)
    },
    **{
        f"lstm-{bits or 'f32'}": (lambda b=bits: _lstm_case(b))
        for bits in (None, 8, 16)
    },
    **{
        f"encoder-{bits or 'f32'}": (lambda b=bits: _encoder_case(b))
        for bits in (None, 8, 16)
    },
    "flatten-activation": _flatten_activation_case,
    **{
        f"{host}-{kind}": (lambda k=kind, h=host: _sparse_case(k, h))
        for kind in ("ell", "block", "fused")
        for host in ("dense", "lstm")
    },
}


def _through_archive(plan):
    """``plan`` rebuilt from its payload written to and read from ``.npz`` bytes."""
    import io

    buffer = io.BytesIO()
    np.savez(buffer, **plan.to_payload())
    with np.load(io.BytesIO(buffer.getvalue()), allow_pickle=False) as archive:
        return InferencePlan.from_payload({n: archive[n] for n in archive.files})


def _transported_classes(value, seen):
    from repro.nn.inference import _TRANSPORTABLE

    if isinstance(value, (list, tuple)):
        for item in value:
            _transported_classes(item, seen)
    elif _TRANSPORTABLE.get(type(value).__name__) is type(value):
        seen.add(type(value))
        for name in type(value).transport:
            _transported_classes(getattr(value, name), seen)
    return seen


class TestTransportRegistry:
    @pytest.mark.parametrize("case", sorted(_TRANSPORT_CASES))
    def test_round_trips_bit_exact(self, case):
        plan, x = _TRANSPORT_CASES[case]()
        expected = plan(x).copy()
        assert np.unique(expected).size > 1  # a degenerate output proves nothing
        copy = plan
        for _ in range(2):
            copy = _through_archive(copy)
            assert copy.describe() == plan.describe()
            assert copy.nbytes == plan.nbytes  # quantized weights ship as ints
            assert np.array_equal(copy(x), expected)
            assert copy.specialize(x.shape[0])
            assert np.array_equal(copy(x), expected)  # arena == generic
            assert copy.specialization_stats()["specialized_calls"] == 1

    def test_cases_cover_every_registered_class(self):
        from repro.nn.inference import _TRANSPORTABLE

        seen = set()
        for build in _TRANSPORT_CASES.values():
            _transported_classes(build()[0].kernels, seen)
        assert seen == set(_TRANSPORTABLE.values())

    def test_every_library_kernel_is_registered(self):
        import inspect

        from repro.nn import inference

        concrete = {
            cls
            for _, cls in inspect.getmembers(inference, inspect.isclass)
            if issubclass(cls, Kernel)
            and cls.__module__ == inference.__name__
            and cls.bind is not Kernel.bind
        }
        assert {DenseKernel, LSTMKernel, SoftmaxKernel} <= concrete  # not vacuous
        assert concrete <= set(inference._TRANSPORTABLE.values())
