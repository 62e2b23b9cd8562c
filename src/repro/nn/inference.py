"""Compiled inference engine: the serving hot path without the autograd graph.

Training needs the tape — every op on :class:`~repro.nn.autograd.Tensor`
records parents and a backward closure, in float64, so the finite-difference
gradient checks stay meaningful.  Serving needs none of that: a fitted model
is a fixed pipeline of array transformations, and paying one Python op node
per layer (and per LSTM timestep) on every ``predict_proba`` call is pure
overhead.

This module is the layer split that removes it.  :func:`compile_network`
walks a fitted :class:`~repro.nn.module.Module` tree once, extracts the
weights into the serving dtype (float32 by default) and emits an
:class:`InferencePlan` — a flat list of pure-NumPy kernels:

* ``Dense``/``Conv2d`` with their trailing ReLU/Tanh fused into one kernel;
* a single fused LSTM kernel that projects the whole input sequence through
  the input weights in one matmul and then runs the recurrence with
  preallocated gate/state buffers reused across timesteps;
* one fused kernel per Transformer encoder block (norms, attention heads,
  feed-forward and both residuals);
* dropout layers compiled away entirely (the plan is inference-only).

Plans are built from *inference specs*: a module either is a known leaf
layer, or exposes ``inference_spec()`` returning the ordered list of
modules/kernels equivalent to its eval-mode ``forward``.  Weight-bearing
kernels accept an optional quantizer hook so
:mod:`repro.compression.quantization` can emit integer-scaled (int8) plan
variants without materialising a dequantized module copy.

Two execution refinements sit on top of the float plans:

* **Sparsity-aware lowering** — when a pruned weight matrix crosses the
  :class:`SparsityConfig` threshold (70 % zeros by default), ``Dense``
  layers and the LSTM input/recurrent projections compile to
  :class:`~repro.nn.sparse.ColumnSparseWeight`-backed kernels that only
  touch the surviving entries, so the paper's effective-parameter counts
  finally translate into measured latency (§III-E1).
* **Shape specialisation** — every kernel executes only through its
  :meth:`Kernel.bind` form: a :class:`PlanArena` pre-binds every
  intermediate and scratch buffer for one input geometry.
  :meth:`InferencePlan.specialize` keeps arenas for chosen batch sizes,
  whose steady-state calls allocate no new arrays; any other geometry runs
  through one private arena, rebound when its shape changes, and returns a
  copy of the output.

The autograd path stays authoritative: classifiers keep it for training and
as the numerical oracle the compiled plan is tested against (atol 1e-5).
"""

from __future__ import annotations

import json
import math
import zipfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn import autotune
from repro.nn.autotune import AutotuneCache
from repro.nn.sparse import BlockSparseWeight, ColumnSparseWeight

from repro.nn.attention import (
    MultiHeadAttention,
    TransformerEncoderLayer,
    positional_encoding,
)
from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    LayerNorm,
    MaxPool2d,
    ReLU,
    Tanh,
)
from repro.nn.lstm import LSTM
from repro.nn.module import Module

#: Hook mapping a float parameter array to ``(integer_values, scale)`` such
#: that ``integer_values * scale`` approximates the original array.  Supplied
#: by :mod:`repro.compression.quantization` for int8 plan variants.
WeightQuantizer = Callable[[np.ndarray], Tuple[np.ndarray, float]]


class PlanCompilationError(NotImplementedError):
    """Raised when a module tree contains a layer the compiler cannot lower."""


class PlanTransportError(ValueError):
    """Raised when a plan cannot be (de)serialized for cross-process shipping."""


class PlanWeight:
    """A matmul operand extracted at compile time.

    ``compute`` is the array actually fed to BLAS (serving dtype);
    ``storage`` is the canonical representation — identical to ``compute``
    for float plans, the raw int8/int16 values for quantized plans, in which
    case ``scale`` is applied to the matmul *output* (integer-scaled
    execution, the standard way int8 inference runs on float hardware).
    """

    __slots__ = ("compute", "scale", "storage")

    def __init__(
        self,
        compute: np.ndarray,
        scale: Optional[float] = None,
        storage: Optional[np.ndarray] = None,
    ) -> None:
        self.compute = compute
        self.scale = scale
        self.storage = compute if storage is None else storage

    @property
    def nbytes(self) -> int:
        return int(self.storage.nbytes)


def _make_weight(
    values: np.ndarray, dtype: np.dtype, quantizer: Optional[WeightQuantizer]
) -> PlanWeight:
    """Extract a matmul weight, optionally through the quantizer hook."""
    if quantizer is None:
        return _stored_weight(values, None, dtype)
    q, scale = quantizer(np.asarray(values, dtype=np.float64))
    return _stored_weight(q, scale, dtype)


def _stored_weight(
    storage: np.ndarray, scale: Optional[float], dtype: np.dtype
) -> PlanWeight:
    """A weight from its canonical ``storage`` (and quantization ``scale``).

    The one place the serving-dtype ``compute`` operand is cast, so a weight
    rebuilt from a payload is the very weight the compiler built.
    """
    if scale is None:
        return PlanWeight(np.asarray(storage, dtype=dtype))
    return PlanWeight(storage.astype(dtype), float(scale), storage)


def _make_elementwise(
    values: np.ndarray, dtype: np.dtype, quantizer: Optional[WeightQuantizer]
) -> np.ndarray:
    """Extract a bias/scale-style parameter (stored dequantized: it is tiny,
    and keeping it in floats matches the rounded values the quantization
    oracle computes with, bit for bit)."""
    if quantizer is None:
        return np.asarray(values, dtype=dtype)
    q, scale = quantizer(np.asarray(values, dtype=np.float64))
    return (q.astype(np.float64) * scale).astype(dtype)


def _sigmoid_inplace(a: np.ndarray) -> None:
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    np.reciprocal(a, out=a)


def _apply_activation_inplace(a: np.ndarray, activation: Optional[str]) -> None:
    if activation is None:
        return
    if activation == "relu":
        np.maximum(a, 0.0, out=a)
    elif activation == "tanh":
        np.tanh(a, out=a)
    else:
        raise PlanCompilationError(f"Unsupported activation {activation!r}")


def _mean_into(
    x: np.ndarray, axis, out: np.ndarray, count: int, keepdims: bool = True
) -> None:
    """``x.mean(axis)`` written into ``out`` without the internal temporary.

    ``np.add.reduce`` is the very pairwise summation ``ndarray.mean`` runs,
    so dividing by the element count afterwards is bit-for-bit the generic
    result — but, unlike ``np.mean(out=...)``, it allocates nothing.
    """
    np.add.reduce(x, axis=axis, keepdims=keepdims, out=out)
    out /= count


# ---------------------------------------------------------------------- #
# Kernels
# ---------------------------------------------------------------------- #
class BoundKernel:
    """One kernel pre-bound to fixed input/output buffers (see :class:`PlanArena`).

    ``run`` executes the kernel against the arena's buffers — it takes no
    arguments because every operand (including the input array *object*)
    was captured at bind time; ``out`` is the buffer the result lands in,
    which the next kernel in the arena binds against.
    """

    __slots__ = ("run", "out", "scratch_nbytes")

    def __init__(
        self, run: Callable[[], None], out: np.ndarray, scratch_nbytes: int = 0
    ) -> None:
        self.run = run
        self.out = out
        self.scratch_nbytes = int(scratch_nbytes)


class Kernel:
    """One step of an :class:`InferencePlan`: a pure array transformation.

    Kernels never mutate their input array; a plan executes them only
    through :meth:`bind`, so all their working memory lives in the arena
    that bound them, which makes a plan cheap to call but *not* safe to
    share across threads.
    """

    def bind(self, x: np.ndarray) -> BoundKernel:
        """Pre-bind this kernel to the fixed input array ``x``.

        Returns a :class:`BoundKernel` whose ``run()`` recomputes the
        kernel's output from the *current contents* of ``x`` into a
        preallocated buffer.  This is the kernel's only implementation.
        An input the kernel cannot take (wrong rank, too small) raises
        ``ValueError`` here, before any arena holds it.  Custom kernels
        injected through ``inference_spec`` must override it.
        """
        raise PlanCompilationError(
            f"kernel {type(self).__name__} defines no bind(); plans execute "
            "kernels only through their bound form"
        )

    @property
    def nbytes(self) -> int:
        """Bytes of weight storage held by this kernel."""
        return 0

    def describe(self) -> str:
        return type(self).__name__


class DenseKernel(Kernel):
    """Fused ``y = act(x @ W [* scale] + b)``."""

    transport = ("weight", "bias", "activation")

    def __init__(
        self,
        weight: PlanWeight,
        bias: Optional[np.ndarray],
        activation: Optional[str] = None,
    ) -> None:
        self.weight = weight
        self.bias = bias
        self.activation = activation

    def bind(self, x: np.ndarray) -> BoundKernel:
        weight, bias, activation = self.weight, self.bias, self.activation
        out = np.empty(x.shape[:-1] + (weight.compute.shape[1],), dtype=x.dtype)

        def run() -> None:
            np.matmul(x, weight.compute, out=out)
            if weight.scale is not None:
                np.multiply(out, weight.scale, out=out)
            if bias is not None:
                np.add(out, bias, out=out)
            _apply_activation_inplace(out, activation)

        return BoundKernel(run, out)

    @property
    def nbytes(self) -> int:
        return self.weight.nbytes + (self.bias.nbytes if self.bias is not None else 0)

    def describe(self) -> str:
        shape = "x".join(map(str, self.weight.compute.shape))
        act = f"+{self.activation}" if self.activation else ""
        return f"dense[{shape}]{act}"


#: Sparse matmul operand types the kernels below execute interchangeably.
SparseOperand = Union[ColumnSparseWeight, BlockSparseWeight]
_SPARSE_OPERANDS = (ColumnSparseWeight, BlockSparseWeight)


def _sparse_scratch(
    weight: SparseOperand, n: int, dtype: np.dtype
) -> Tuple[np.ndarray, ...]:
    """The per-call scratch buffers a sparse operand's matmul needs."""
    if isinstance(weight, BlockSparseWeight):
        return weight.matmul_scratch(n, dtype)  # (panels, prod)
    return (weight.gather_scratch(n, dtype),)


def _sparse_scratch_nbytes(scratch: Optional[Tuple[np.ndarray, ...]]) -> int:
    return sum(buffer.nbytes for buffer in scratch) if scratch else 0


def _matmul_into(
    weight: LSTMWeight,
    x: np.ndarray,
    out: np.ndarray,
    scratch: Optional[Tuple[np.ndarray, ...]],
) -> None:
    """``out[:] = x @ weight`` with pre-bound scratch, any operand type.

    The dense branch runs the exact matmul/scale ops the kernels ran before
    sparse operands existed, so dense plans stay bit-for-bit unchanged.
    """
    if isinstance(weight, ColumnSparseWeight):
        weight.matmul(x, out=out, gather=scratch[0])
    elif isinstance(weight, BlockSparseWeight):
        weight.matmul(
            x, out=out, panels=scratch[0], prod=scratch[1] if len(scratch) > 1 else None
        )
    else:
        np.matmul(x, weight.compute, out=out)
        if weight.scale is not None:
            np.multiply(out, weight.scale, out=out)


class SparseDenseKernel(Kernel):
    """Fused ``y = act(x @ W + b)`` over a compressed pruned weight.

    Emitted by the compiler instead of :class:`DenseKernel` when the layer's
    weight crossed the :class:`SparsityConfig` threshold (and, in ``auto``
    mode, won its calibration).  The operand is either a
    :class:`~repro.nn.sparse.ColumnSparseWeight` (element-level ELL: gather,
    scale, reduce over surviving entries) or a
    :class:`~repro.nn.sparse.BlockSparseWeight` (tile-level: panel gather
    plus batched micro-GEMMs over surviving tiles), so a 90 %-pruned layer
    touches ~10 % of the dense working set either way.
    """

    transport = ("weight", "bias", "activation")

    def __init__(
        self,
        weight: SparseOperand,
        bias: Optional[np.ndarray],
        activation: Optional[str] = None,
    ) -> None:
        self.weight = weight
        self.bias = bias
        self.activation = activation

    def bind(self, x: np.ndarray) -> BoundKernel:
        weight, bias, activation = self.weight, self.bias, self.activation
        # The operand reads a contiguous (rows, features) matrix: the panel
        # gather needs contiguous th-runs, and a reshape of a strided input
        # would detach from the bound buffer.  Such inputs are staged into
        # a contiguous buffer bound once.
        staged = None if x.flags.c_contiguous else np.empty(x.shape, dtype=x.dtype)
        flat = (x if staged is None else staged).reshape(-1, x.shape[-1])
        n = flat.shape[0]
        scratch = _sparse_scratch(weight, n, x.dtype)
        out2d = np.empty((n, weight.shape[1]), dtype=x.dtype)
        out = out2d.reshape(x.shape[:-1] + (weight.shape[1],))

        def run() -> None:
            if staged is not None:
                np.copyto(staged, x)
            _matmul_into(weight, flat, out2d, scratch)
            if bias is not None:
                np.add(out2d, bias, out=out2d)
            _apply_activation_inplace(out2d, activation)

        staged_nbytes = 0 if staged is None else staged.nbytes
        return BoundKernel(
            run, out, scratch_nbytes=_sparse_scratch_nbytes(scratch) + staged_nbytes
        )

    @property
    def nbytes(self) -> int:
        return self.weight.nbytes + (self.bias.nbytes if self.bias is not None else 0)

    def describe(self) -> str:
        shape = "x".join(map(str, self.weight.shape))
        act = f"+{self.activation}" if self.activation else ""
        if isinstance(self.weight, BlockSparseWeight):
            return (
                f"sparse-dense[{shape},{autotune.variant_name(self.weight)},"
                f"{self.weight.density:.0%}]{act}"
            )
        return f"sparse-dense[{shape},{self.weight.density:.0%}]{act}"


class ActivationKernel(Kernel):
    """Standalone ReLU/Tanh when there is no preceding kernel to fuse into."""

    transport = ("activation",)

    def __init__(self, activation: str) -> None:
        self.activation = activation

    def bind(self, x: np.ndarray) -> BoundKernel:
        out = np.empty(x.shape, dtype=x.dtype)
        activation = self.activation

        def run() -> None:
            np.copyto(out, x)
            _apply_activation_inplace(out, activation)

        return BoundKernel(run, out)

    def describe(self) -> str:
        return self.activation


class Conv2dKernel(Kernel):
    """im2col convolution with bias and activation fused into the matmul tail."""

    transport = (
        "weight", "bias", "kernel_size", "stride", "padding", "out_channels",
        "activation",
    )

    def __init__(
        self,
        weight: PlanWeight,
        bias: Optional[np.ndarray],
        kernel_size: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
        out_channels: int,
        activation: Optional[str] = None,
    ) -> None:
        # Stored pre-reshaped as (in_ch*kh*kw, out_ch) so run time is a single
        # patches @ w_mat product.
        self.weight = PlanWeight(
            np.ascontiguousarray(
                weight.compute.reshape(out_channels, -1).T
            ),
            weight.scale,
            weight.storage,
        )
        self.bias = bias
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.out_channels = out_channels
        self.activation = activation

    def bind(self, x: np.ndarray) -> BoundKernel:
        if x.ndim != 4:
            raise ValueError("Conv2dKernel expects (batch, channels, height, width)")
        weight, bias, activation = self.weight, self.bias, self.activation
        ph, pw = self.padding
        batch, in_ch, height, width = x.shape
        scratch = 0
        if ph or pw:
            padded = np.zeros(
                (batch, in_ch, height + 2 * ph, width + 2 * pw), dtype=x.dtype
            )
            interior = padded[:, :, ph : ph + height, pw : pw + width]
            scratch += padded.nbytes
        else:
            padded, interior = x, None
        kh, kw = self.kernel_size
        sh, sw = self.stride
        out_h = (padded.shape[2] - kh) // sh + 1
        out_w = (padded.shape[3] - kw) // sw + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError("Input too small for convolution window")
        # The strided im2col window view, precomputed once (the padded
        # source is a fixed array object), already transposed to the
        # (batch, out_h, out_w, in_ch, kh, kw) copy order.
        windows = np.lib.stride_tricks.as_strided(
            padded,
            shape=(batch, in_ch, out_h, out_w, kh, kw),
            strides=(
                padded.strides[0],
                padded.strides[1],
                padded.strides[2] * sh,
                padded.strides[3] * sw,
                padded.strides[2],
                padded.strides[3],
            ),
        ).transpose(0, 2, 3, 1, 4, 5)
        patches = np.empty(
            (batch, out_h, out_w, in_ch * kh * kw), dtype=x.dtype
        )
        patches6 = patches.reshape(batch, out_h, out_w, in_ch, kh, kw)
        mm_out = np.empty((batch, out_h, out_w, self.out_channels), dtype=x.dtype)
        out = mm_out.transpose(0, 3, 1, 2)
        scratch += patches.nbytes

        def run() -> None:
            if interior is not None:
                np.copyto(interior, x)
            np.copyto(patches6, windows)
            np.matmul(patches, weight.compute, out=mm_out)
            if weight.scale is not None:
                np.multiply(mm_out, weight.scale, out=mm_out)
            if bias is not None:
                np.add(mm_out, bias, out=mm_out)
            _apply_activation_inplace(mm_out, activation)

        return BoundKernel(run, out, scratch_nbytes=scratch)

    @property
    def nbytes(self) -> int:
        return self.weight.nbytes + (self.bias.nbytes if self.bias is not None else 0)

    def describe(self) -> str:
        kh, kw = self.kernel_size
        act = f"+{self.activation}" if self.activation else ""
        return f"conv2d[{self.out_channels}@{kh}x{kw}]{act}"


class _PoolKernel(Kernel):
    transport = ("kernel_size", "stride")

    def __init__(self, kernel_size: Tuple[int, int], stride: Tuple[int, int]) -> None:
        self.kernel_size = kernel_size
        self.stride = stride

    def _patches(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(
                f"{type(self).__name__} expects (batch, channels, height, width)"
            )
        batch, ch, height, width = x.shape
        kh, kw = self.kernel_size
        sh, sw = self.stride
        out_h = (height - kh) // sh + 1
        out_w = (width - kw) // sw + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError("Input too small for pooling window")
        shape = (batch, ch, out_h, out_w, kh, kw)
        strides = (
            x.strides[0],
            x.strides[1],
            x.strides[2] * sh,
            x.strides[3] * sw,
            x.strides[2],
            x.strides[3],
        )
        return np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)


class MaxPool2dKernel(_PoolKernel):
    # The window view is built from x's own strides, so a non-contiguous
    # input (e.g. the channel-last transpose a Conv2dKernel returns) pools
    # directly — no defensive np.ascontiguousarray copy on the hot path.
    def bind(self, x: np.ndarray) -> BoundKernel:
        windows = self._patches(x)
        out = np.empty(windows.shape[:4], dtype=x.dtype)

        def run() -> None:
            np.max(windows, axis=(-1, -2), out=out)

        return BoundKernel(run, out)

    def describe(self) -> str:
        return f"maxpool{self.kernel_size}"


class AvgPool2dKernel(_PoolKernel):
    def bind(self, x: np.ndarray) -> BoundKernel:
        windows = self._patches(x)
        out = np.empty(windows.shape[:4], dtype=x.dtype)
        count = self.kernel_size[0] * self.kernel_size[1]

        def run() -> None:
            _mean_into(windows, (-1, -2), out, count, keepdims=False)

        return BoundKernel(run, out)

    def describe(self) -> str:
        return f"avgpool{self.kernel_size}"


class FlattenKernel(Kernel):
    transport = ()

    def bind(self, x: np.ndarray) -> BoundKernel:
        flat_shape = (x.shape[0], int(np.prod(x.shape[1:], dtype=np.intp)))
        if x.flags.c_contiguous:
            out = x.reshape(flat_shape)  # a view: flattening is free

            def run() -> None:
                pass

            return BoundKernel(run, out)
        buf = np.empty(flat_shape, dtype=x.dtype)
        shaped = buf.reshape(x.shape)

        def run() -> None:
            np.copyto(shaped, x)

        return BoundKernel(run, buf)

    def describe(self) -> str:
        return "flatten"


class LayerNormKernel(Kernel):
    transport = ("gamma", "beta", "eps")

    def __init__(self, gamma: np.ndarray, beta: np.ndarray, eps: float) -> None:
        self.gamma = gamma
        self.beta = beta
        self.eps = eps

    def bind(self, x: np.ndarray) -> BoundKernel:
        return _bind_layer_norm(x, self.gamma, self.beta, self.eps)

    @property
    def nbytes(self) -> int:
        return self.gamma.nbytes + self.beta.nbytes

    def describe(self) -> str:
        return f"layernorm[{self.gamma.shape[0]}]"


def _bind_layer_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float
) -> BoundKernel:
    """Layer norm over the last axis of ``x``, bound to fixed buffers."""
    features = x.shape[-1]
    stat_shape = x.shape[:-1] + (1,)
    mean = np.empty(stat_shape, dtype=x.dtype)
    var = np.empty(stat_shape, dtype=x.dtype)
    sq = np.empty(x.shape, dtype=x.dtype)
    centred = np.empty(x.shape, dtype=x.dtype)

    def run() -> None:
        _mean_into(x, -1, mean, features)
        np.subtract(x, mean, out=centred)
        np.multiply(centred, centred, out=sq)
        _mean_into(sq, -1, var, features)
        np.add(var, eps, out=var)
        np.sqrt(var, out=var)
        np.divide(centred, var, out=centred)
        np.multiply(centred, gamma, out=centred)
        np.add(centred, beta, out=centred)

    return BoundKernel(
        run, centred, scratch_nbytes=mean.nbytes + var.nbytes + sq.nbytes
    )


#: A projection operand inside the LSTM kernel: dense (extracted at compile
#: time, possibly integer-scaled) or column-compressed for pruned models.
LSTMWeight = Union[PlanWeight, ColumnSparseWeight, BlockSparseWeight]


def _operand_shape(weight: LSTMWeight) -> Tuple[int, int]:
    """``(in_features, out_features)`` of a dense or sparse matmul operand."""
    if isinstance(weight, _SPARSE_OPERANDS):
        return tuple(weight.shape)
    return weight.compute.shape


class LSTMKernel(Kernel):
    """The whole (possibly multi-layer) recurrence as one fused kernel.

    Per layer, the input-to-hidden projection of *every* timestep is computed
    with a single ``(batch*time, in) @ (in, 4H)`` matmul up front; the
    timestep loop then only performs the hidden-to-hidden matvec and the gate
    nonlinearities, in place, on gate/state buffers bound once per input
    geometry and reused across timesteps and calls.

    The compiler permutes the gate columns from the cell's ``[i, f, g, o]``
    layout to ``[i, f, o, g]`` so the three sigmoid gates form one contiguous
    slice — one ufunc pass instead of three per timestep.

    Either projection may be a :class:`~repro.nn.sparse.ColumnSparseWeight`
    or :class:`~repro.nn.sparse.BlockSparseWeight` when the source model was
    pruned past the sparsity threshold; the per-timestep recurrent matvec
    then gathers only the surviving weights (or weight tiles) instead of
    streaming the full ``(H, 4H)`` matrix through BLAS.
    """

    transport = ("layers", "hidden_size", "dtype")

    def __init__(
        self,
        layers: Sequence[Tuple[LSTMWeight, LSTMWeight, np.ndarray]],
        hidden_size: int,
        dtype: np.dtype,
    ) -> None:
        self.layers = list(layers)
        self.hidden_size = hidden_size
        self.dtype = dtype

    def bind(self, x: np.ndarray) -> BoundKernel:
        features = _operand_shape(self.layers[0][0])[0]
        if x.ndim != 3 or not x.size or x.shape[2] != features:
            raise ValueError(
                f"LSTMKernel expects (batch, time, {features}) input, got {x.shape}"
            )
        batch, steps, _ = x.shape
        hs = self.hidden_size
        dtype = self.dtype
        h = np.empty((batch, hs), dtype=dtype)
        c = np.empty((batch, hs), dtype=dtype)
        hh = np.empty((batch, 4 * hs), dtype=dtype)
        tmp = np.empty((batch, hs), dtype=dtype)
        out = np.empty((batch, hs), dtype=dtype)
        scratch = h.nbytes + c.nbytes + hh.nbytes + tmp.nbytes
        bound_layers = []
        cur: Optional[np.ndarray] = None  # time-major input from layer 1 on
        for index, (w_ih, w_hh, bias) in enumerate(self.layers):
            if cur is None:
                # Layer 0 reads the caller-shaped (batch, time, features)
                # input; the time-major copy target is bound once.  Keeping
                # the projection time-major, (steps, batch, 4H), makes every
                # per-timestep gate slab one contiguous block, so the gate
                # ufuncs run their fast contiguous loops.
                x_tm = x.transpose(1, 0, 2)
                if x_tm.flags.c_contiguous:  # batch == 1: transpose is free
                    src, copy_src = x_tm, None
                else:
                    src = np.empty((steps, batch, x.shape[2]), dtype=dtype)
                    copy_src = x_tm
                    scratch += src.nbytes
            else:
                src, copy_src = cur, None
            flat = src.reshape(batch * steps, -1)
            proj2 = np.empty((batch * steps, 4 * hs), dtype=dtype)
            proj3 = proj2.reshape(steps, batch, 4 * hs)
            scratch += proj2.nbytes
            ih_scratch = None
            if isinstance(w_ih, _SPARSE_OPERANDS):
                ih_scratch = _sparse_scratch(w_ih, batch * steps, dtype)
                scratch += _sparse_scratch_nbytes(ih_scratch)
            hh_scratch = None
            if isinstance(w_hh, _SPARSE_OPERANDS):
                hh_scratch = _sparse_scratch(w_hh, batch, dtype)
                scratch += _sparse_scratch_nbytes(hh_scratch)
            last_layer = index == len(self.layers) - 1
            seq_out = (
                None if last_layer else np.empty((steps, batch, hs), dtype=dtype)
            )
            if seq_out is not None:
                scratch += seq_out.nbytes
            # Every per-step view the timestep loop touches, created once.
            step_views = []
            for step in range(steps):
                gates = proj3[step]
                step_views.append(
                    (
                        gates,
                        gates[:, 0:hs],
                        gates[:, hs : 2 * hs],
                        gates[:, 2 * hs : 3 * hs],
                        gates[:, 3 * hs : 4 * hs],
                        gates[:, 0 : 3 * hs],
                        None if seq_out is None else seq_out[step],
                    )
                )
            bound_layers.append(
                (w_ih, w_hh, bias, copy_src, src, flat, proj2,
                 ih_scratch, hh_scratch, step_views)
            )
            cur = seq_out

        def run() -> None:
            for (w_ih, w_hh, bias, copy_src, src, flat, proj2,
                 ih_scratch, hh_scratch, step_views) in bound_layers:
                if copy_src is not None:
                    np.copyto(src, copy_src)
                _matmul_into(w_ih, flat, proj2, ih_scratch)
                np.add(proj2, bias, out=proj2)
                h[:] = 0.0
                c[:] = 0.0
                for (gates, i_gate, f_gate, o_gate, g_gate,
                     sig_slice, seq_view) in step_views:
                    _matmul_into(w_hh, h, hh, hh_scratch)
                    np.add(gates, hh, out=gates)
                    _sigmoid_inplace(sig_slice)
                    np.tanh(g_gate, out=g_gate)
                    np.multiply(c, f_gate, out=c)
                    np.multiply(i_gate, g_gate, out=tmp)
                    np.add(c, tmp, out=c)
                    np.tanh(c, out=tmp)
                    np.multiply(o_gate, tmp, out=h)
                    if seq_view is not None:
                        np.copyto(seq_view, h)
            np.copyto(out, h)

        return BoundKernel(run, out, scratch_nbytes=scratch)

    @property
    def nbytes(self) -> int:
        return sum(
            w_ih.nbytes + w_hh.nbytes + bias.nbytes for w_ih, w_hh, bias in self.layers
        )

    def describe(self) -> str:
        weights = [w for w_ih, w_hh, _ in self.layers for w in (w_ih, w_hh)]
        tag = ""
        if any(isinstance(w, BlockSparseWeight) for w in weights):
            tag = ",sparse,block"
        elif any(isinstance(w, ColumnSparseWeight) for w in weights):
            tag = ",sparse"
        return f"lstm[{len(self.layers)}x{self.hidden_size}{tag}]"


class EncoderBlockKernel(Kernel):
    """One fused pre-norm Transformer encoder block.

    Mirrors ``TransformerEncoderLayer.forward`` in eval mode: layer norm,
    multi-head self-attention, residual, layer norm, two-layer feed-forward,
    residual — with all eight weight matrices extracted at compile time.
    """

    transport = (
        "n_heads", "d_model", "norm1", "qkv", "attn_out", "norm2", "ff1", "ff2",
    )

    def __init__(
        self,
        n_heads: int,
        d_model: int,
        norm1: Tuple[np.ndarray, np.ndarray, float],
        qkv: Sequence[Tuple[PlanWeight, Optional[np.ndarray]]],
        attn_out: Tuple[PlanWeight, Optional[np.ndarray]],
        norm2: Tuple[np.ndarray, np.ndarray, float],
        ff1: Tuple[PlanWeight, Optional[np.ndarray]],
        ff2: Tuple[PlanWeight, Optional[np.ndarray]],
    ) -> None:
        self.n_heads = n_heads
        self.d_model = d_model
        self.d_head = d_model // n_heads
        self.norm1 = norm1
        self.qkv = list(qkv)
        self.attn_out = attn_out
        self.norm2 = norm2
        self.ff1 = ff1
        self.ff2 = ff2

    @staticmethod
    def _bind_project(
        x: np.ndarray,
        weight_bias: Tuple[PlanWeight, Optional[np.ndarray]],
        out: np.ndarray,
    ) -> Callable[[], None]:
        weight, bias = weight_bias

        def run() -> None:
            np.matmul(x, weight.compute, out=out)
            if weight.scale is not None:
                np.multiply(out, weight.scale, out=out)
            if bias is not None:
                np.add(out, bias, out=out)

        return run

    def bind(self, x: np.ndarray) -> BoundKernel:
        if x.ndim != 3 or not x.shape[1] or x.shape[2] != self.d_model:
            raise ValueError(
                f"EncoderBlockKernel expects (batch, time, {self.d_model}), "
                f"got {x.shape}"
            )
        batch, steps, _ = x.shape
        d_model, d_head, n_heads = self.d_model, self.d_head, self.n_heads
        dtype = x.dtype

        def buf(*shape: int) -> np.ndarray:
            return np.empty(shape, dtype=dtype)

        gamma1, beta1, eps1 = self.norm1
        norm1 = _bind_layer_norm(x, gamma1, beta1, eps1)
        normed = norm1.out
        projs = [buf(batch, steps, d_model) for _ in range(3)]
        proj_runs = [
            self._bind_project(normed, pair, out)
            for pair, out in zip(self.qkv, projs)
        ]
        # Head-split views of the fixed projection buffers.
        q, k, v = (
            p.reshape(batch, steps, n_heads, d_head).transpose(0, 2, 1, 3)
            for p in projs
        )
        k_t = k.transpose(0, 1, 3, 2)
        scores = buf(batch, n_heads, steps, steps)
        stat = buf(batch, n_heads, steps, 1)
        context = buf(batch, n_heads, steps, d_head)
        merged = buf(batch, steps, d_model)
        merged_heads = merged.reshape(batch, steps, n_heads, d_head)
        context_t = context.transpose(0, 2, 1, 3)
        attn_proj = buf(batch, steps, d_model)
        attn_run = self._bind_project(merged, self.attn_out, attn_proj)
        resid1 = buf(batch, steps, d_model)
        gamma2, beta2, eps2 = self.norm2
        norm2 = _bind_layer_norm(resid1, gamma2, beta2, eps2)
        ff_dim = self.ff1[0].compute.shape[1]
        hidden = buf(batch, steps, ff_dim)
        ff1_run = self._bind_project(norm2.out, self.ff1, hidden)
        ff_proj = buf(batch, steps, d_model)
        ff2_run = self._bind_project(hidden, self.ff2, ff_proj)
        out = buf(batch, steps, d_model)
        inv_scale = 1.0 / math.sqrt(d_head)

        def run() -> None:
            norm1.run()
            for proj_run in proj_runs:
                proj_run()
            np.matmul(q, k_t, out=scores)
            np.multiply(scores, inv_scale, out=scores)
            np.max(scores, axis=-1, keepdims=True, out=stat)
            np.subtract(scores, stat, out=scores)
            np.exp(scores, out=scores)
            np.add.reduce(scores, axis=-1, keepdims=True, out=stat)
            np.divide(scores, stat, out=scores)
            np.matmul(scores, v, out=context)
            np.copyto(merged_heads, context_t)
            attn_run()
            np.add(x, attn_proj, out=resid1)
            norm2.run()
            ff1_run()
            np.maximum(hidden, 0.0, out=hidden)
            ff2_run()
            np.add(resid1, ff_proj, out=out)

        scratch = sum(
            b.nbytes
            for b in (*projs, scores, stat, context, merged, attn_proj,
                      resid1, hidden, ff_proj)
        ) + norm1.scratch_nbytes + norm2.scratch_nbytes
        return BoundKernel(run, out, scratch_nbytes=scratch)

    @property
    def nbytes(self) -> int:
        total = self.norm1[0].nbytes + self.norm1[1].nbytes
        total += self.norm2[0].nbytes + self.norm2[1].nbytes
        for weight, bias in [*self.qkv, self.attn_out, self.ff1, self.ff2]:
            total += weight.nbytes + (bias.nbytes if bias is not None else 0)
        return total

    def describe(self) -> str:
        return f"encoder[{self.n_heads}h,d{self.d_model}]"


class PositionalEncodingKernel(Kernel):
    """Add sinusoidal positional encodings (computed once per bind)."""

    transport = ("d_model",)

    def __init__(self, d_model: int) -> None:
        self.d_model = d_model

    def bind(self, x: np.ndarray) -> BoundKernel:
        if x.ndim != 3 or x.shape[2] != self.d_model:
            raise ValueError(
                f"PositionalEncodingKernel expects (batch, time, {self.d_model}), "
                f"got {x.shape}"
            )
        encoding = positional_encoding(x.shape[1], self.d_model).astype(x.dtype)
        broadcast = encoding[None, :, :]
        out = np.empty(x.shape, dtype=x.dtype)

        def run() -> None:
            np.add(x, broadcast, out=out)

        return BoundKernel(run, out)

    def describe(self) -> str:
        return f"posenc[d{self.d_model}]"


class MeanOverTimeKernel(Kernel):
    """Mean-pool ``(batch, time, features)`` over the time axis."""

    transport = ()

    def bind(self, x: np.ndarray) -> BoundKernel:
        if x.ndim < 2:
            raise ValueError("MeanOverTimeKernel expects (batch, time, ...)")
        out = np.empty(x.shape[:1] + x.shape[2:], dtype=x.dtype)

        def run() -> None:
            _mean_into(x, 1, out, x.shape[1], keepdims=False)

        return BoundKernel(run, out)

    def describe(self) -> str:
        return "mean-over-time"


class SoftmaxKernel(Kernel):
    """Probability tail: logits to class probabilities, in float64.

    The handful of output values is tiny, and computing the final softmax in
    double precision keeps each probability row summing to one at float64
    resolution regardless of the plan's serving dtype.
    """

    transport = ()

    def bind(self, x: np.ndarray) -> BoundKernel:
        z = np.empty(x.shape, dtype=np.float64)
        stat = np.empty(x.shape[:-1] + (1,), dtype=np.float64)

        def run() -> None:
            np.copyto(z, x)  # the float64 upcast
            np.max(z, axis=-1, keepdims=True, out=stat)
            np.subtract(z, stat, out=z)
            np.exp(z, out=z)
            np.add.reduce(z, axis=-1, keepdims=True, out=stat)
            np.divide(z, stat, out=z)

        return BoundKernel(run, z, scratch_nbytes=stat.nbytes)

    def describe(self) -> str:
        return "softmax"


# ---------------------------------------------------------------------- #
# The plan
# ---------------------------------------------------------------------- #
class PlanArena:
    """A plan pre-bound to one input geometry: zero-allocation execution.

    Every plan call runs through one: the arenas :meth:`InferencePlan
    .specialize` (directly or through the auto-specialisation policy) keeps
    per batch size, or the plan's private arena for any other geometry.
    Every kernel's intermediates, scratch space and per-step views are
    created once at bind time; ``run`` then only copies the caller's input
    into the arena and replays the bound kernels, allocating no new arrays.

    The returned output is an **arena-owned buffer**: it is valid until the
    next call into the same arena.  A specialised plan hands it out as is,
    so callers that retain probabilities across calls must copy them (the
    serving stack's ``MicroBatcher.finalize`` does).
    """

    def __init__(self, kernels: Sequence[Kernel], example: np.ndarray) -> None:
        self.input = np.empty(example.shape, dtype=example.dtype)
        self.bound: List[BoundKernel] = []
        cur: np.ndarray = self.input
        for kernel in kernels:
            bound = kernel.bind(cur)
            self.bound.append(bound)
            cur = bound.out
        self.output = cur
        self.calls = 0

    @property
    def scratch_nbytes(self) -> int:
        """Arena-held bytes: the input buffer, every kernel's output buffer
        and all private scratch (what steady-state calls no longer allocate)."""
        return self.input.nbytes + sum(
            b.out.nbytes + b.scratch_nbytes for b in self.bound
        )

    def run(self, x: np.ndarray) -> np.ndarray:
        np.copyto(self.input, x)
        for bound in self.bound:
            bound.run()
        self.calls += 1
        return self.output


def _operand_variant(weight: LSTMWeight) -> str:
    """Variant label of a matmul operand: ``dense``/``ell``/``block<th>x<tw>[g<G>]``."""
    if isinstance(weight, _SPARSE_OPERANDS):
        return autotune.variant_name(weight)
    return "dense"


def _derive_lowering(kernels: Sequence[Kernel]) -> List[Dict[str, object]]:
    """Reconstruct lowering variants from kernels (payload-rebuilt plans)."""
    report: List[Dict[str, object]] = []

    def entry(op: str, weight: LSTMWeight) -> None:
        report.append(
            {
                "op": op,
                "shape": list(_operand_shape(weight)),
                "variant": _operand_variant(weight),
                "cached": None,
                "timings": {},
                "reason": "from-kernels",
            }
        )

    for kernel in kernels:
        if isinstance(kernel, (DenseKernel, SparseDenseKernel)):
            entry("dense", kernel.weight)
        elif isinstance(kernel, LSTMKernel):
            for w_ih, w_hh, _ in kernel.layers:
                entry("lstm-ih", w_ih)
                entry("lstm-hh", w_hh)
    return report


class InferencePlan:
    """A compiled network: a flat list of kernels applied in order.

    Every call executes through a :class:`PlanArena`.  :meth:`specialize`
    (or the :meth:`enable_auto_specialization` policy) keeps arenas for
    chosen batch sizes; calls whose input matches one execute with zero
    array allocations and return the arena-owned output.  Every other
    geometry runs through one private arena, reused while its shape repeats
    and rebound when it changes, and returns a copy of its output; those
    calls count as ``generic_calls``.
    """

    #: Default cap on concurrently held arenas (LRU-evicted, pinned batch
    #: sizes exempt): a cohort that resizes re-specialises without hoarding
    #: scratch for every fleet size it ever saw.
    MAX_ARENAS = 2

    def __init__(self, kernels: Sequence[Kernel], dtype: np.dtype = np.float32) -> None:
        self.kernels = list(kernels)
        self.dtype = np.dtype(dtype)
        self._arenas: "OrderedDict[Tuple[int, ...], PlanArena]" = OrderedDict()
        self._pinned_batches: set = set()
        self._max_arenas = self.MAX_ARENAS
        self._auto_streak: Optional[int] = None
        self._last_batch: Optional[int] = None
        self._batch_streak = 0
        #: The private arena of the last unspecialised geometry.  Not one of
        #: ``_arenas``: never reported by :meth:`has_arena` or in the
        #: specialisation stats.
        self._unpinned: Optional[PlanArena] = None
        self.specialized_calls = 0
        self.generic_calls = 0
        #: Per-matmul lowering decisions captured at compile time (variant
        #: chosen, whether it came from the autotune cache, timings).  Empty
        #: for plans rebuilt from a payload — :meth:`lowering_report` then
        #: derives the variants from the kernels themselves.
        self.lowering_records: List[Dict[str, object]] = []

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim == 0:
            raise ValueError("plan input needs a leading batch axis")
        arena = self._arena_for(x)
        if arena is not None:
            self.specialized_calls += 1
            return arena.run(x)
        self.generic_calls += 1
        if self._unpinned is None or self._unpinned.input.shape != x.shape:
            self._unpinned = None  # release the old geometry before binding
            self._unpinned = PlanArena(self.kernels, x)
        return self._unpinned.run(x).copy()

    # ------------------------------------------------------------------ #
    # shape specialisation
    # ------------------------------------------------------------------ #
    def specialize(self, batch_size: int) -> bool:
        """Pin ``batch_size`` for arena execution.

        The arena itself is built on the first call with that batch size
        (the full input geometry — channels, samples, layout — is only
        known then).  Always returns ``True``; a kernel that cannot bind
        raises :class:`PlanCompilationError` on the first call instead.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self._pinned_batches.add(int(batch_size))
        return True

    def despecialize(self, batch_size: Optional[int] = None) -> None:
        """Release arenas (and the pin) for one batch size, or all of them
        (the private arena of unspecialised calls included)."""
        if batch_size is None:
            self._pinned_batches.clear()
            self._arenas.clear()
            self._unpinned = None
            return
        self._pinned_batches.discard(int(batch_size))
        for shape in [s for s in self._arenas if s[0] == batch_size]:
            del self._arenas[shape]

    def enable_auto_specialization(
        self, streak: int = 2, max_arenas: Optional[int] = None
    ) -> None:
        """Specialise automatically for dominant batch sizes.

        After ``streak`` consecutive calls with the same batch size the plan
        binds an arena for it; the LRU ``max_arenas`` cap (default
        :attr:`MAX_ARENAS`) bounds held scratch when a fleet resizes.  This
        is what :class:`~repro.serving.batcher.MicroBatcher` and the shard
        workers turn on.
        """
        if streak < 1:
            raise ValueError("streak must be at least 1")
        self._auto_streak = int(streak)
        if max_arenas is not None:
            if max_arenas < 1:
                raise ValueError("max_arenas must be at least 1")
            self._max_arenas = int(max_arenas)

    def specialization_stats(self) -> Dict[str, float]:
        """Telemetry snapshot: hit rate, arenas held, scratch bytes."""
        total = self.specialized_calls + self.generic_calls
        return {
            "specialized_calls": float(self.specialized_calls),
            "generic_calls": float(self.generic_calls),
            "hit_rate": self.specialized_calls / total if total else 0.0,
            "arenas": float(len(self._arenas)),
            "scratch_bytes": float(
                sum(a.scratch_nbytes for a in self._arenas.values())
            ),
        }

    def _arena_for(self, x: np.ndarray) -> Optional[PlanArena]:
        shape = x.shape
        arena = self._arenas.get(shape)
        if arena is not None:
            self._arenas.move_to_end(shape)
            return arena
        batch = shape[0]
        wanted = batch in self._pinned_batches
        if not wanted and self._auto_streak is not None:
            if batch == self._last_batch:
                self._batch_streak += 1
            else:
                self._last_batch, self._batch_streak = batch, 1
            wanted = self._batch_streak >= self._auto_streak
        if not wanted:
            return None
        if self._unpinned is not None and self._unpinned.input.shape == shape:
            arena, self._unpinned = self._unpinned, None  # already bound
        else:
            arena = PlanArena(self.kernels, x)
        self._arenas[shape] = arena
        self._evict_arenas()
        return arena

    def _evict_arenas(self) -> None:
        evictable = [
            s for s in self._arenas if s[0] not in self._pinned_batches
        ]
        while len(self._arenas) > self._max_arenas and evictable:
            del self._arenas[evictable.pop(0)]

    def has_arena(self, shape: Tuple[int, ...]) -> bool:
        """Whether an arena is currently bound for this exact input shape.

        Lets upstream stages (the compiled classifier's preprocessing arena)
        mirror the plan's specialisation decisions without duplicating the
        pin/streak policy: they go zero-allocation for a geometry exactly
        when the plan itself already has.
        """
        return tuple(shape) in self._arenas

    def lowering_report(self) -> List[Dict[str, object]]:
        """How each matmul in the plan was lowered.

        One entry per matmul operand: ``op`` (``dense``/``lstm-ih``/...),
        ``shape``, the winning ``variant`` (``dense``, ``ell``,
        ``block<th>x<tw>``), and — when the plan was compiled in this
        process — whether the decision was a ``cached`` autotune hit and the
        calibration ``timings``.  Plans rebuilt from a payload derive the
        variants from their kernels (``cached``/``timings`` unknown).
        """
        if self.lowering_records:
            return [dict(record) for record in self.lowering_records]
        return _derive_lowering(self.kernels)

    def __len__(self) -> int:
        return len(self.kernels)

    def append(self, kernel: Kernel) -> "InferencePlan":
        self.kernels.append(kernel)
        # Bound buffers no longer cover the full plan.
        self._arenas.clear()
        self._unpinned = None
        return self

    @property
    def nbytes(self) -> int:
        """Total weight storage held by the plan's kernels."""
        return sum(kernel.nbytes for kernel in self.kernels)

    def describe(self) -> List[str]:
        return [kernel.describe() for kernel in self.kernels]

    def __repr__(self) -> str:
        return f"InferencePlan({' -> '.join(self.describe())}, dtype={self.dtype})"

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    #: Archive key of the JSON metadata blob; mirrors the ``.npz`` weight
    #: archive geometry of ``NeuralEEGClassifier.save_weights`` (a flat dict
    #: of arrays plus one metadata entry dotted names cannot collide with).
    META_KEY = "__meta__"
    PAYLOAD_FORMAT = "repro-inference-plan-v2"

    def to_payload(self) -> Dict[str, np.ndarray]:
        """Flatten the plan into an ``np.savez``-ready mapping of arrays.

        :attr:`META_KEY` holds a JSON tree: the format, the plan dtype and
        one node per kernel, built from the constructor fields the kernel's
        class declares as ``transport``.  Every array in the tree is an
        entry of its own, named by its field path (``k0.weight``,
        ``k1.layers.0.1.blocks``).  :meth:`from_payload` rebuilds the exact
        kernels through the same constructors the compiler uses — no Module
        tree, no autograd — which is what lets a shard worker process serve
        a plan it never compiled.  Quantized plans ship their integer
        ``storage`` weights; the float ``compute`` operands are re-derived on
        load exactly as the compiler derives them.

        Raises :class:`PlanTransportError` for a kernel whose class is not in
        the transport registry (custom kernels injected through
        ``inference_spec``).
        """
        arrays: Dict[str, np.ndarray] = {}
        kernels = [
            _encode(kernel, f"k{index}", arrays)
            for index, kernel in enumerate(self.kernels)
        ]
        arrays[self.META_KEY] = np.asarray(
            json.dumps(
                {
                    "format": self.PAYLOAD_FORMAT,
                    "dtype": str(self.dtype),
                    "kernels": kernels,
                }
            )
        )
        return arrays

    @classmethod
    def from_payload(cls, payload: Mapping[str, np.ndarray]) -> "InferencePlan":
        """Rebuild a plan from a :meth:`to_payload` mapping (or open npz).

        Malformed input — missing or unparsable metadata, another format, an
        unknown type, a missing field or array entry — raises
        :class:`PlanTransportError` naming the kernel index.
        """
        where = "plan metadata"
        try:
            meta = json.loads(str(payload[cls.META_KEY]))
            if meta.get("format") != cls.PAYLOAD_FORMAT:
                raise PlanTransportError(
                    f"unsupported plan payload format {meta.get('format')!r} "
                    f"(this reader takes {cls.PAYLOAD_FORMAT!r})"
                )
            dtype = np.dtype(meta["dtype"])
            kernels = []
            for index, node in enumerate(meta["kernels"]):
                where = f"kernel {index}"
                kernels.append(_decode(node, payload, dtype))
        except PlanTransportError as exc:
            raise PlanTransportError(f"{where}: {exc}") from exc
        except _MALFORMED as exc:
            raise PlanTransportError(
                f"{where}: malformed payload ({type(exc).__name__}: {exc})"
            ) from exc
        return cls(kernels, dtype=dtype)


# ---------------------------------------------------------------------- #
# Compiler
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SparsityConfig:
    """When the compiler lowers a pruned weight to a sparse kernel.

    A matrix *qualifies* when it holds at least ``min_size`` elements (tiny
    matrices finish faster through BLAS than any gather) and its exact-zero
    fraction reaches ``threshold`` — the ~70 % point of the paper's pruning
    sweep (§III-E1).  What happens to a qualifying matrix depends on
    ``mode``:

    ``"auto"`` (default)
        The compiler times the dense GEMM against the gather-based sparse
        product *on the actual matrix* (a few matvecs, one-off at compile
        time) and keeps whichever wins by a clear margin.  Whether 90 %
        unstructured sparsity beats BLAS is a host property — it depends on
        the gather throughput vs the GEMM's cache/bandwidth budget — so the
        decision is measured, not assumed.  Note the resulting kernel
        *selection* can therefore differ across hosts (and, for borderline
        matrices, across processes); pin ``"always"``/``"never"`` where the
        plan structure itself must be reproducible.
    ``"always"``
        Qualifying matrices always lower sparse (what the equivalence and
        transport tests pin).
    ``"never"``
        Everything stays dense (what quantized plans use, and what
        benchmarks pass to time the dense counterpart of a pruned plan).
    """

    threshold: float = 0.7
    min_size: int = 16384
    mode: str = "auto"
    #: Timing repeats per candidate in ``"auto"`` mode.
    calibration_repeats: int = 5
    #: ``"auto"`` keeps the sparse kernel only when it beats dense by this
    #: factor (sparse_time < margin * dense_time): borderline matrices stay
    #: on the battle-tested BLAS path.
    calibration_margin: float = 0.9
    #: Rows of the calibration input — set it to the batch size the plan
    #: will actually serve.  Every per-row matmul (Dense layers, the LSTM
    #: recurrent matvec) calibrates at exactly this row count; there is no
    #: longer a per-call-site constant.
    calibration_rows: int = 8
    #: Timestep multiplier for whole-sequence projections: the LSTM input
    #: projection sees ``batch * steps`` rows per call, so it calibrates at
    #: ``calibration_rows * calibration_sequence``.  Default 26 = the
    #: paper's 130-sample window after temporal pooling of 5.
    calibration_sequence: int = 26
    #: Candidate block-tile menu for structured lowering; every tile that
    #: divides the matrix exactly and whose fraction of all-zero tiles
    #: reaches ``threshold`` becomes a candidate (plus a fused-gate variant
    #: for gate-concatenated operands), and the autotuner picks the winner
    #: per host.  ``"always"`` mode picks deterministically by slab size.
    block_tiles: Tuple[Tuple[int, int], ...] = ((8, 8), (16, 1), (32, 1))

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "always", "never"):
            raise ValueError(f"Unknown sparsity mode {self.mode!r}")
        if self.calibration_rows < 1 or self.calibration_sequence < 1:
            raise ValueError("calibration rows/sequence must be at least 1")

    def qualifies(self, values: np.ndarray) -> bool:
        if self.mode == "never" or values.ndim != 2 or values.size < self.min_size:
            return False
        zeros = values.size - np.count_nonzero(values)
        return zeros / values.size >= self.threshold


#: Compiler default: calibrated sparsity-aware lowering at the paper's 70 %
#: pruning point.
DEFAULT_SPARSITY = SparsityConfig()

#: Lowering disabled — what quantized plans fall back to (integer-scaled
#: execution keeps dense int8 storage), and what benchmarks pass to time a
#: *dense* plan over pruned weights.
DENSE_ONLY = SparsityConfig(mode="never")

#: Unconditional lowering for qualifying matrices — pinned by equivalence /
#: transport tests and by the sparse benchmark's kernel-level comparison.
SPARSE_ALWAYS = SparsityConfig(mode="always")


def _block_candidates(
    cast: np.ndarray, config: SparsityConfig, groups: int = 1
) -> Dict[str, BlockSparseWeight]:
    """Every qualifying block layout for this zero pattern, in menu order.

    A candidate tile must divide the matrix exactly and leave at least
    ``config.threshold`` of the elements inside entirely-zero tiles (i.e.
    the pruning was *structured* at that tile — element-wise pruning almost
    never qualifies).  For gate-concatenated operands (``groups > 1``, the
    LSTM projections) each tile additionally offers a fused-gate variant
    when the *union* of the per-gate zero patterns still clears the
    threshold: gate-coupled pruning makes the union equal each gate's own
    pattern (fusion is free), while uncoupled patterns fail here and are
    never fused blind into a padded slab.  All candidates go to the
    autotuner; ``"always"`` mode picks among them by slab size.
    """
    rows, cols = cast.shape
    candidates: Dict[str, BlockSparseWeight] = {}
    for tile in config.block_tiles:
        th, tw = int(tile[0]), int(tile[1])
        if th < 1 or tw < 1 or rows % th or cols % tw:
            continue
        tiles = cast.reshape(rows // th, th, cols // tw, tw)
        keep = np.any(tiles != 0, axis=(1, 3))
        if 1.0 - np.count_nonzero(keep) / keep.size >= config.threshold:
            operand = BlockSparseWeight.from_dense(cast, (th, tw))
            candidates[autotune.variant_name(operand)] = operand
        if groups > 1 and cols % (groups * tw) == 0:
            gates = cast.reshape(rows // th, th, groups, cols // (groups * tw), tw)
            union = np.any(gates != 0, axis=(1, 2, 4))
            if 1.0 - np.count_nonzero(union) / union.size >= config.threshold:
                operand = BlockSparseWeight.from_dense(cast, (th, tw), groups=groups)
                candidates[autotune.variant_name(operand)] = operand
    return candidates


def _pick_pinned_block(
    candidates: Dict[str, BlockSparseWeight]
) -> Optional[BlockSparseWeight]:
    """Deterministic ``"always"``-mode choice among block candidates.

    Smallest padded slab wins (the slab is the work the kernel actually
    does); ties prefer the fused layout (its gather amortises across
    gates at the same slab size), then menu order.
    """
    if not candidates:
        return None
    order = {name: index for index, name in enumerate(candidates)}
    return min(
        candidates.values(),
        key=lambda op: (op.blocks.size, -op.groups, order[autotune.variant_name(op)]),
    )


def _lower_matmul_weight(
    values: np.ndarray,
    dtype: np.dtype,
    quantizer: Optional[WeightQuantizer],
    sparsity: SparsityConfig,
    rows: int,
    op: str,
    tuner: Optional["AutotuneCache"] = None,
    log: Optional[List[Dict[str, object]]] = None,
    groups: int = 1,
) -> Union[PlanWeight, SparseOperand]:
    """Extract one matmul operand, sparse when pruning (and the host) allow.

    ``rows`` is the calibration row count (derived from the config's
    serving-batch hint by the caller), ``op`` names the product for the
    autotune cache key, ``tuner`` is the :class:`AutotuneCache` consulted
    before any timing, ``log`` collects the decision for
    :meth:`InferencePlan.lowering_report`, and ``groups`` marks
    gate-concatenated operands eligible for fused-gate block candidates.
    """
    shape = list(values.shape)

    def record(
        variant: str,
        reason: str,
        cached: Optional[bool] = None,
        timings: Optional[Dict[str, float]] = None,
        key: Optional[str] = None,
    ) -> None:
        if log is not None:
            log.append(
                {
                    "op": op,
                    "shape": shape,
                    "variant": variant,
                    "cached": cached,
                    "timings": dict(timings) if timings else {},
                    "reason": reason,
                    "rows": rows,
                    "key": key,
                }
            )

    if quantizer is not None:
        record("dense", reason="quantized")
        return _make_weight(values, dtype, quantizer)
    if not sparsity.qualifies(values):
        record("dense", reason="below-threshold")
        return _make_weight(values, dtype, quantizer)
    cast = np.asarray(values, dtype=dtype)
    candidates: Dict[str, SparseOperand] = {"ell": ColumnSparseWeight.from_dense(cast)}
    blocks = _block_candidates(cast, sparsity, groups=groups)
    candidates.update(blocks)
    if sparsity.mode == "always":
        # Pinned lowering skips calibration; the structured layout wins when
        # the zero pattern supports it (tile panels gather strictly cheaper
        # than ELL's scattered elements at the same sparsity).
        block = _pick_pinned_block(blocks)
        chosen: SparseOperand = block if block is not None else candidates["ell"]
        record(autotune.variant_name(chosen), reason="pinned-always")
        return chosen
    decision = autotune.choose_matmul_variant(
        op=op,
        dense=cast,
        candidates=candidates,
        rows=rows,
        repeats=sparsity.calibration_repeats,
        margin=sparsity.calibration_margin,
        cache=tuner,
    )
    record(
        decision.variant,
        reason="calibrated",
        cached=decision.cached,
        timings=decision.timings,
        key=decision.key,
    )
    if decision.variant == "dense":
        return _make_weight(values, dtype, quantizer)
    return candidates[decision.variant]


def _compile_dense(
    layer: Dense,
    dtype: np.dtype,
    quantizer: Optional[WeightQuantizer],
    sparsity: SparsityConfig,
    tuner: Optional[AutotuneCache],
    log: Optional[List[Dict[str, object]]],
) -> Kernel:
    bias = (
        _make_elementwise(layer.bias.data, dtype, quantizer)
        if layer.bias is not None
        else None
    )
    weight = _lower_matmul_weight(
        layer.weight.data, dtype, quantizer, sparsity,
        rows=sparsity.calibration_rows, op="dense", tuner=tuner, log=log,
    )
    if isinstance(weight, _SPARSE_OPERANDS):
        return SparseDenseKernel(weight, bias, layer.activation)
    return DenseKernel(weight, bias, layer.activation)


def _compile_encoder_block(
    layer: TransformerEncoderLayer, dtype: np.dtype, quantizer: Optional[WeightQuantizer]
) -> EncoderBlockKernel:
    attention: MultiHeadAttention = layer.attention

    def dense_pair(dense: Dense) -> Tuple[PlanWeight, Optional[np.ndarray]]:
        bias = (
            _make_elementwise(dense.bias.data, dtype, quantizer)
            if dense.bias is not None
            else None
        )
        return _make_weight(dense.weight.data, dtype, quantizer), bias

    def norm_triple(norm: LayerNorm) -> Tuple[np.ndarray, np.ndarray, float]:
        return (
            _make_elementwise(norm.gamma.data, dtype, quantizer),
            _make_elementwise(norm.beta.data, dtype, quantizer),
            norm.eps,
        )

    return EncoderBlockKernel(
        n_heads=attention.n_heads,
        d_model=attention.d_model,
        norm1=norm_triple(layer.norm1),
        qkv=[
            dense_pair(attention.query),
            dense_pair(attention.key),
            dense_pair(attention.value),
        ],
        attn_out=dense_pair(attention.output),
        norm2=norm_triple(layer.norm2),
        ff1=dense_pair(layer.ff1),
        ff2=dense_pair(layer.ff2),
    )


def _compile_lstm(
    layer: LSTM,
    dtype: np.dtype,
    quantizer: Optional[WeightQuantizer],
    sparsity: SparsityConfig,
    tuner: Optional[AutotuneCache],
    log: Optional[List[Dict[str, object]]],
) -> LSTMKernel:
    hs = layer.hidden_size
    # Reorder the cell's [i, f, g, o] gate columns to [i, f, o, g] so the
    # kernel can apply one sigmoid over a contiguous [i, f, o] slice.  A pure
    # permutation: quantization scales and rounded values are unchanged
    # (and the zero pattern moves with the columns, so sparsity lowering
    # sees exactly the pruned structure).
    perm = np.concatenate(
        [
            np.arange(0, 2 * hs),  # i, f
            np.arange(3 * hs, 4 * hs),  # o
            np.arange(2 * hs, 3 * hs),  # g
        ]
    )

    # Calibration row counts mirror how each projection is used, both
    # derived from the config's serving-batch hint: the input projection
    # runs once per call over every timestep's rows
    # (``calibration_rows * calibration_sequence``), the recurrent
    # projection is a per-step matvec over ``calibration_rows``.
    # Both projections are gate-concatenated (in, 4H) matrices, so sparsity
    # lowering may fuse the four gate panels into one block slab
    # (``groups=4``): the per-timestep recurrence then gathers its input
    # panels once for all four gates instead of once per gate.
    extracted = [
        (
            _lower_matmul_weight(
                cell.weight_ih.data[:, perm], dtype, quantizer, sparsity,
                rows=sparsity.calibration_rows * sparsity.calibration_sequence,
                op="lstm-ih", tuner=tuner, log=log, groups=4,
            ),
            _lower_matmul_weight(
                cell.weight_hh.data[:, perm], dtype, quantizer, sparsity,
                rows=sparsity.calibration_rows,
                op="lstm-hh", tuner=tuner, log=log, groups=4,
            ),
            _make_elementwise(cell.bias.data[perm], dtype, quantizer),
        )
        for cell in layer.cells
    ]
    return LSTMKernel(extracted, hs, dtype)


def _compile_leaf(
    layer: Module,
    dtype: np.dtype,
    quantizer: Optional[WeightQuantizer],
    sparsity: SparsityConfig,
    tuner: Optional[AutotuneCache],
    log: Optional[List[Dict[str, object]]],
) -> List[Kernel]:
    if isinstance(layer, Dropout):
        return []  # inference-only plan: dropout is the identity in eval mode
    if isinstance(layer, Dense):
        return [_compile_dense(layer, dtype, quantizer, sparsity, tuner, log)]
    if isinstance(layer, ReLU):
        return [ActivationKernel("relu")]
    if isinstance(layer, Tanh):
        return [ActivationKernel("tanh")]
    if isinstance(layer, Flatten):
        return [FlattenKernel()]
    if isinstance(layer, Conv2d):
        bias = (
            _make_elementwise(layer.bias.data, dtype, quantizer)
            if layer.bias is not None
            else None
        )
        return [
            Conv2dKernel(
                _make_weight(layer.weight.data, dtype, quantizer),
                bias,
                kernel_size=layer.kernel_size,
                stride=layer.stride,
                padding=layer.padding,
                out_channels=layer.out_channels,
            )
        ]
    if isinstance(layer, MaxPool2d):
        return [MaxPool2dKernel(layer.kernel_size, layer.stride)]
    if isinstance(layer, AvgPool2d):
        return [AvgPool2dKernel(layer.kernel_size, layer.stride)]
    if isinstance(layer, LayerNorm):
        return [
            LayerNormKernel(
                _make_elementwise(layer.gamma.data, dtype, quantizer),
                _make_elementwise(layer.beta.data, dtype, quantizer),
                layer.eps,
            )
        ]
    if isinstance(layer, LSTM):
        return [_compile_lstm(layer, dtype, quantizer, sparsity, tuner, log)]
    if isinstance(layer, TransformerEncoderLayer):
        return [_compile_encoder_block(layer, dtype, quantizer)]
    raise PlanCompilationError(
        f"No inference kernel for module type {type(layer).__name__}; "
        "expose an inference_spec() or extend the compiler"
    )


def _compile_item(
    item: object,
    dtype: np.dtype,
    quantizer: Optional[WeightQuantizer],
    sparsity: SparsityConfig,
    tuner: Optional[AutotuneCache],
    log: Optional[List[Dict[str, object]]],
) -> List[Kernel]:
    if isinstance(item, Kernel):
        return [item]
    spec = getattr(item, "inference_spec", None)
    if spec is not None:
        kernels: List[Kernel] = []
        for entry in spec():
            kernels.extend(
                _compile_item(entry, dtype, quantizer, sparsity, tuner, log)
            )
        return kernels
    if isinstance(item, Module):
        return _compile_leaf(item, dtype, quantizer, sparsity, tuner, log)
    raise PlanCompilationError(
        f"Inference specs may only contain Modules or Kernels, got {type(item).__name__}"
    )


def _fuse_activations(kernels: List[Kernel]) -> List[Kernel]:
    """Peephole pass: fold standalone ReLU/Tanh into the preceding matmul."""
    fused: List[Kernel] = []
    for kernel in kernels:
        if (
            isinstance(kernel, ActivationKernel)
            and fused
            and isinstance(fused[-1], (DenseKernel, SparseDenseKernel, Conv2dKernel))
            and fused[-1].activation is None
        ):
            fused[-1].activation = kernel.activation
            continue
        fused.append(kernel)
    return fused


def compile_network(
    module: Module,
    dtype: np.dtype = np.float32,
    quantizer: Optional[WeightQuantizer] = None,
    sparsity: Optional[SparsityConfig] = None,
    tuner: Optional[AutotuneCache] = None,
) -> InferencePlan:
    """Lower a fitted module tree to a flat :class:`InferencePlan`.

    The plan computes exactly what ``module.forward`` computes in eval mode
    (dropout removed), with weights copied out once in ``dtype``.  Passing a
    ``quantizer`` yields an integer-scaled plan (see
    :func:`repro.compression.quantization.compile_quantized_plan`).

    ``sparsity`` governs whether heavily pruned weight matrices lower to
    sparse kernels (see :class:`SparsityConfig`): by default a ≥70 %-pruned
    Dense/LSTM projection is *calibrated* — the compiler times dense vs ELL
    vs block-tile layouts on the actual matrix and keeps the winner — while
    :data:`SPARSE_ALWAYS` forces the lowering and :data:`DENSE_ONLY`
    suppresses it.  Calibration results persist in ``tuner`` (default: the
    process-wide :func:`repro.nn.autotune.default_cache`, backed by the
    per-host JSON file), so recompiling the same shapes performs zero
    timings; :meth:`InferencePlan.lowering_report` says what was chosen and
    whether it was a cache hit.  Quantized plans always compile dense.
    Sparse kernels match the autograd oracle to the same 1e-5 tolerance as
    dense float32 plans (the accumulation order differs from BLAS).

    Raises :class:`PlanCompilationError` when the tree contains a module the
    compiler cannot lower; callers are expected to fall back to the autograd
    path in that case.
    """
    cfg = DEFAULT_SPARSITY if sparsity is None else sparsity
    log: List[Dict[str, object]] = []
    kernels = _fuse_activations(
        _compile_item(module, np.dtype(dtype), quantizer, cfg, tuner, log)
    )
    plan = InferencePlan(kernels, dtype=np.dtype(dtype))
    plan.lowering_records = log
    return plan


# ---------------------------------------------------------------------- #
# Plan transport
# ---------------------------------------------------------------------- #
#: The library classes a payload may carry.  Each declares ``transport``: the
#: constructor parameters it is rebuilt from, each read back from the
#: attribute of the same name.
_TRANSPORTABLE: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        DenseKernel,
        SparseDenseKernel,
        ActivationKernel,
        Conv2dKernel,
        MaxPool2dKernel,
        AvgPool2dKernel,
        FlattenKernel,
        LayerNormKernel,
        LSTMKernel,
        EncoderBlockKernel,
        PositionalEncodingKernel,
        MeanOverTimeKernel,
        SoftmaxKernel,
        ColumnSparseWeight,
        BlockSparseWeight,
    )
}

#: What malformed payload bytes or metadata raise inside ``np.load``,
#: ``zipfile``, ``json`` and the decoder before they are reported as a
#: :class:`PlanTransportError`.
_MALFORMED = (
    AttributeError, EOFError, IndexError, KeyError, NotImplementedError,
    OSError, TypeError, ValueError, zipfile.BadZipFile, zlib.error,
)


def _encode(value: object, path: str, arrays: Dict[str, np.ndarray]) -> object:
    """One transport field as a JSON node; its arrays land in ``arrays``."""
    if isinstance(value, np.ndarray):
        arrays[path] = value
        return {"array": path}
    if isinstance(value, PlanWeight):
        # Quantized weights ship their integer storage, float weights their
        # values; _decode re-casts ``compute`` exactly as the compiler did.
        return {
            "storage": _encode(value.storage, path, arrays),
            "scale": value.scale,
        }
    if isinstance(value, np.dtype):
        return {"dtype": str(value)}
    if isinstance(value, (list, tuple)):
        return [_encode(item, f"{path}.{i}", arrays) for i, item in enumerate(value)]
    cls = type(value)
    if _TRANSPORTABLE.get(cls.__name__) is cls:
        return {
            "type": cls.__name__,
            "fields": {
                name: _encode(getattr(value, name), f"{path}.{name}", arrays)
                for name in cls.transport
            },
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise PlanTransportError(
        f"{cls.__name__} at {path} is not transportable; add it to the "
        "transport registry or keep the plan in-process"
    )


def _decode(
    node: object, payload: Mapping[str, np.ndarray], dtype: np.dtype
) -> object:
    """Invert :func:`_encode` through the constructors the compiler uses."""
    if isinstance(node, list):
        return tuple(_decode(item, payload, dtype) for item in node)
    if not isinstance(node, dict):
        return node
    if "array" in node:
        try:
            return np.asarray(payload[node["array"]])
        except KeyError:
            raise PlanTransportError(
                f"payload has no array entry {node['array']!r}"
            ) from None
    if "storage" in node:
        storage = _decode(node["storage"], payload, dtype)
        return _stored_weight(storage, node["scale"], dtype)
    if "dtype" in node:
        return np.dtype(node["dtype"])
    cls = _TRANSPORTABLE.get(node.get("type"))
    if cls is None:
        raise PlanTransportError(f"unknown transport type {node.get('type')!r}")
    fields = node["fields"]
    return cls(
        **{name: _decode(fields[name], payload, dtype) for name in cls.transport}
    )
