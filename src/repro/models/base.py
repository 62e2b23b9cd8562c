"""Common classifier interface and the shared neural-network training loop.

Every model family in the paper — CNN, LSTM, Transformer, Random Forest and
their ensembles — is exposed behind the same small interface so that the
evolutionary search (accuracy vs. parameter count), the compression stage
(pruning/quantization) and the real-time pipeline can drive any of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataset.windows import WindowDataset
from repro.nn.autograd import Tensor, no_grad
from repro.nn.inference import PlanCompilationError
from repro.nn.losses import cross_entropy
from repro.nn.module import Module
from repro.nn.optimizers import build_optimizer
from repro.utils.timing import median_call_time_s


def normalize_windows(
    windows: np.ndarray,
    dtype: Optional[np.dtype] = None,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Standardise each window with a single mean/std over all channels.

    The paper normalises EEG per participant (mean/std of each participant's
    readings); at inference time the pipeline sees a single window at a time,
    so per-window standardisation is the streaming-compatible equivalent and
    removes inter-session amplitude drift.  The statistics are deliberately
    *shared across channels*: the discriminative information of motor imagery
    is the relative mu/beta power between C3 and C4 (ERD lateralisation), and
    normalising each channel independently would erase exactly that
    between-channel amplitude contrast.

    The input's floating dtype is preserved (float32 windows stay float32 on
    the serving hot path — no silent upcast to a fresh float64 copy); integer
    input is promoted to float64.  Pass ``dtype`` to force the output dtype.
    Statistics are always accumulated in float64 for accuracy.

    ``out``, when given, receives the standardised windows in place of a
    fresh array.  On this path the statistics are computed by running the
    exact ufunc sequence ``ndarray.mean``/``ndarray.std`` are built from
    (``add.reduce`` + ``true_divide``, an in-place square, ``sqrt``) with
    explicit destinations, so the result is bit-for-bit the ``out=None``
    value while the only window-sized buffer — the float64 centred-square
    temporary the two-pass ``std`` needs — can be supplied via ``scratch``
    (shape of the input, float64).  With both provided, nothing larger than
    the per-window statistics rows is allocated; this is what lets the
    serving preprocessing arena
    (:class:`repro.models.preprocess.PreprocessArena`) standardise into
    plan-owned scratch without allocating.
    """
    arr = np.asarray(windows)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    if arr.ndim != 3:
        raise ValueError("windows must have shape (n_windows, n_channels, n_samples)")
    if out is None:
        mean = arr.mean(axis=(1, 2), keepdims=True, dtype=np.float64)
        std = arr.std(axis=(1, 2), keepdims=True, dtype=np.float64)
        std = np.where(std < 1e-12, 1.0, std)
        if np.issubdtype(arr.dtype, np.floating) and arr.dtype != np.float64:
            mean = mean.astype(arr.dtype)
            std = std.astype(arr.dtype)
        return (arr - mean) / std
    result_dtype = (
        arr.dtype if np.issubdtype(arr.dtype, np.floating) else np.dtype(np.float64)
    )
    if out.shape != arr.shape:
        raise ValueError(f"out has shape {out.shape}, expected {arr.shape}")
    if out.dtype != result_dtype:
        raise ValueError(f"out has dtype {out.dtype}, expected {result_dtype}")
    if scratch is None:
        scratch = np.empty(arr.shape, dtype=np.float64)
    elif scratch.shape != arr.shape or scratch.dtype != np.float64:
        raise ValueError(
            f"scratch must be {arr.shape} float64, got "
            f"{scratch.shape} {scratch.dtype}"
        )
    # Broadcasting a (n, 1, 1) statistic against the full windows makes the
    # ufunc machinery stage a window-sized internal buffer; applying the
    # statistics one window at a time as scalars runs the identical
    # elementwise arithmetic (same operand dtypes, value by value) without
    # it.  Reductions stay whole-array — their grouping is what fixes the
    # pairwise summation order.
    count = np.intp(arr.shape[1] * arr.shape[2])
    np.copyto(scratch, arr)
    mean = np.add.reduce(scratch, axis=(1, 2), keepdims=True)
    np.true_divide(mean, count, out=mean, casting="unsafe")
    for i in range(arr.shape[0]):
        np.subtract(scratch[i], mean[i, 0, 0], out=scratch[i])
    np.multiply(scratch, scratch, out=scratch)
    std = np.add.reduce(scratch, axis=(1, 2), keepdims=True)
    np.true_divide(std, count, out=std, casting="unsafe")
    np.sqrt(std, out=std)
    std = np.where(std < 1e-12, 1.0, std)
    if np.issubdtype(arr.dtype, np.floating) and arr.dtype != np.float64:
        mean = mean.astype(arr.dtype)
        std = std.astype(arr.dtype)
    for i in range(arr.shape[0]):
        np.subtract(arr[i], mean[i, 0, 0], out=out[i])
        np.true_divide(out[i], std[i, 0, 0], out=out[i])
    return out


@dataclass
class TrainingConfig:
    """Hyper-parameters of the gradient-based training loop."""

    epochs: int = 15
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    weight_decay: float = 0.0
    #: Stop early if validation accuracy has not improved for this many epochs.
    patience: int = 5
    shuffle_seed: int = 0


@dataclass
class TrainingHistory:
    """Per-epoch training curves (used for overfitting analysis, §III-D3)."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)

    @property
    def best_val_accuracy(self) -> float:
        return max(self.val_accuracy) if self.val_accuracy else 0.0

    def diverged(self, tolerance: float = 0.2) -> bool:
        """Heuristic overfitting flag: validation loss rising while train falls."""
        if len(self.val_loss) < 3:
            return False
        recent = self.val_loss[-3:]
        return recent[-1] > min(self.val_loss) * (1.0 + tolerance)


class EEGClassifier:
    """Abstract interface every EEG action classifier implements."""

    #: Human-readable family name ("cnn", "lstm", "transformer", "rf", ...).
    family: str = "base"

    def fit(
        self,
        train: WindowDataset,
        validation: Optional[WindowDataset] = None,
    ) -> TrainingHistory:
        raise NotImplementedError

    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        """Class probabilities for raw windows ``(n, channels, samples)``."""
        raise NotImplementedError

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Predicted class indices."""
        return np.argmax(self.predict_proba(windows), axis=1)

    def evaluate(self, dataset: WindowDataset) -> float:
        """Classification accuracy on a window dataset."""
        if len(dataset) == 0:
            return 0.0
        predictions = self.predict(dataset.windows)
        return float(np.mean(predictions == dataset.labels))

    def parameter_count(self) -> int:
        """Model size objective used by the evolutionary search."""
        raise NotImplementedError

    def inference_latency_s(self, windows: np.ndarray, repeats: int = 3) -> float:
        """Median wall-clock latency of one ``predict_proba`` call."""
        return median_call_time_s(lambda: self.predict_proba(windows), repeats)

    def describe(self) -> Dict[str, object]:
        """Short description used in experiment reports."""
        return {"family": self.family, "parameters": self.parameter_count()}


class NeuralEEGClassifier(EEGClassifier):
    """Shared training/inference machinery for the gradient-trained models.

    Subclasses provide :meth:`build_network` returning a :class:`Module` whose
    forward maps a prepared input tensor to logits, plus
    :meth:`prepare_array` converting raw windows into that layout as a plain
    array (the autograd path wraps it in a :class:`Tensor`, the compiled path
    feeds it to the :class:`~repro.nn.inference.InferencePlan` directly).

    Serving dispatch: ``predict_proba`` lazily compiles the fitted network
    into an inference plan (float32 fused kernels, no autograd graph) and
    uses it for every call; the autograd graph remains the training path and
    the numerical oracle, reachable via :meth:`predict_proba_autograd`.  Any
    mutation of the weights (further fitting, loading, quantization, pruning)
    must call :meth:`invalidate_compiled` — everything inside this repo does.
    """

    #: Class-level switch: set to ``False`` (per instance or globally) to
    #: force every prediction through the autograd graph.
    use_compiled_inference = True

    #: Sparsity lowering policy handed to ``compile_classifier`` (``None``
    #: means the compiler default: host-calibrated lowering of ≥70 %-pruned
    #: weights).  Set per instance to pin ``SPARSE_ALWAYS``/``DENSE_ONLY``
    #: where the plan structure must be reproducible.
    plan_sparsity = None

    def __init__(
        self,
        n_classes: int = 3,
        training: Optional[TrainingConfig] = None,
        seed: int = 0,
    ) -> None:
        if n_classes < 2:
            raise ValueError("n_classes must be at least 2")
        self.n_classes = n_classes
        self.training_config = training or TrainingConfig()
        self.seed = seed
        self.network: Optional[Module] = None
        self.history = TrainingHistory()
        self._fitted = False
        self._build_geometry: Optional[Tuple[int, int]] = None
        self._compiled = None
        self._compile_failed = False
        self._auto_specialize_streak: Optional[int] = None

    def __getstate__(self):
        """Copy/pickle without the cached plan.

        The plan is a derived artifact of the weights (plus per-batch scratch
        buffers) and recompiles lazily on first prediction; excluding it
        keeps ``deepcopy`` in the compression sweeps and pickled archives
        from duplicating every extracted kernel weight, and guarantees a
        copy can never serve a plan compiled from its source's weights.
        """
        state = self.__dict__.copy()
        state["_compiled"] = None
        state["_compile_failed"] = False
        return state

    # -- subclass hooks -------------------------------------------------- #
    def build_network(self, n_channels: int, window_size: int) -> Module:
        raise NotImplementedError

    def prepare_array(
        self, windows: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Convert normalized windows into the network's input layout.

        Must be a pure NumPy transformation that preserves floating dtypes:
        it runs on the float32 serving hot path as well as the float64
        training path.  ``out``, when given, receives the prepared layout in
        place of a fresh array (see
        :func:`repro.models.preprocess.prepare_windows`); subclasses that
        delegate there inherit the zero-allocation path for free.
        """
        raise NotImplementedError

    def prepare_input(self, windows: np.ndarray) -> Tensor:
        """Autograd-path wrapper around :meth:`prepare_array`."""
        return Tensor(self.prepare_array(windows))

    def prepare_spec(self) -> Optional[dict]:
        """JSON-able description of :meth:`prepare_array` for plan transport.

        Families whose preprocessing is expressible as a
        :func:`repro.models.preprocess.prepare_windows` spec return it here,
        which is what lets :meth:`repro.models.compiled.CompiledClassifier
        .to_payload` ship the whole serving path to a worker process.
        ``None`` (the default) marks the classifier as not transportable —
        it still serves in-process via its compiled plan.
        """
        return None

    # -- training -------------------------------------------------------- #
    def ensure_network(self, n_channels: int, window_size: int) -> Module:
        """Build the network lazily on first use."""
        if self.network is None:
            self.network = self.build_network(n_channels, window_size)
            self._build_geometry = (n_channels, window_size)
        return self.network

    def fit(
        self,
        train: WindowDataset,
        validation: Optional[WindowDataset] = None,
    ) -> TrainingHistory:
        if len(train) == 0:
            raise ValueError("Cannot fit on an empty dataset")
        cfg = self.training_config
        network = self.ensure_network(train.n_channels, train.window_size)
        optimizer = build_optimizer(
            cfg.optimizer,
            network.parameters(),
            lr=cfg.learning_rate,
            weight_decay=cfg.weight_decay,
        )
        history = TrainingHistory()
        rng = np.random.default_rng(cfg.shuffle_seed)
        best_val = -np.inf
        best_state = None
        epochs_without_improvement = 0
        windows = normalize_windows(train.windows)
        labels = train.labels
        for _ in range(cfg.epochs):
            network.train()
            order = rng.permutation(len(train))
            epoch_losses = []
            epoch_correct = 0
            for start in range(0, len(order), cfg.batch_size):
                batch_idx = order[start : start + cfg.batch_size]
                batch_x = self.prepare_input(windows[batch_idx])
                batch_y = labels[batch_idx]
                optimizer.zero_grad()
                logits = network(batch_x)
                loss = cross_entropy(logits, batch_y)
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
                epoch_correct += int(
                    (np.argmax(logits.data, axis=1) == batch_y).sum()
                )
            history.train_loss.append(float(np.mean(epoch_losses)))
            history.train_accuracy.append(epoch_correct / len(train))
            if validation is not None and len(validation) > 0:
                val_loss, val_acc = self._evaluate_loss(validation)
                history.val_loss.append(val_loss)
                history.val_accuracy.append(val_acc)
                if val_acc > best_val:
                    best_val = val_acc
                    best_state = network.state_dict()
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
                    if epochs_without_improvement >= cfg.patience:
                        break
        if best_state is not None:
            network.load_state_dict(best_state)
        self.history = history
        self._fitted = True
        self.invalidate_compiled()
        return history

    def _evaluate_loss(self, dataset: WindowDataset) -> Tuple[float, float]:
        network = self.network
        assert network is not None
        network.eval()
        windows = normalize_windows(dataset.windows)
        with no_grad():
            logits = network(self.prepare_input(windows))
            loss = cross_entropy(logits, dataset.labels)
        predictions = np.argmax(logits.data, axis=1)
        return loss.item(), float(np.mean(predictions == dataset.labels))

    # -- inference ------------------------------------------------------- #
    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        """Class probabilities, served from the compiled plan when possible.

        The first call after (re)fitting compiles the network once; later
        calls dispatch straight to the plan.  Falls back to the autograd
        graph for networks the plan compiler cannot lower.
        """
        if self.network is None:
            raise RuntimeError("Model has not been fitted or built yet")
        compiled = self.ensure_compiled()
        if compiled is not None:
            return compiled.predict_proba(windows)
        return self.predict_proba_autograd(windows)

    def predict_proba_autograd(self, windows: np.ndarray) -> np.ndarray:
        """The original float64 autograd inference path.

        Kept as the equivalence oracle for the compiled plan (and as the
        fallback for uncompilable networks): runs the full ``Module.forward``
        under ``no_grad()``.
        """
        if self.network is None:
            raise RuntimeError("Model has not been fitted or built yet")
        self.network.eval()
        arr = np.asarray(windows, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[None, ...]
        normalized = normalize_windows(arr)
        with no_grad():
            logits = self.network(self.prepare_input(normalized))
            probs = logits.softmax(axis=-1)
        return probs.data

    def ensure_compiled(self):
        """Compile (and cache) the serving plan; ``None`` when unavailable.

        Returns the cached :class:`~repro.models.compiled.CompiledClassifier`
        when the network is built, compilation is enabled and the network is
        compilable; remembers compilation failures so uncompilable networks
        pay the attempt only once.
        """
        if not self.use_compiled_inference or self.network is None:
            return None
        if type(self).prepare_array is NeuralEEGClassifier.prepare_array:
            # Legacy subclass written to the pre-plan contract: it overrides
            # prepare_input only, so the compiled path has no array-level
            # preprocessing to call.  Serve it from the autograd graph.
            return None
        if self._compiled is None and not self._compile_failed:
            from repro.models.compiled import compile_classifier

            try:
                self._compiled = compile_classifier(self, sparsity=self.plan_sparsity)
            except PlanCompilationError:
                self._compile_failed = True
            if self._compiled is not None and self._auto_specialize_streak:
                # Re-apply the serving stack's standing request: a plan
                # recompiled after a weight mutation keeps auto-binding
                # arenas for its dominant batch sizes.
                self._compiled.enable_auto_specialization(
                    self._auto_specialize_streak
                )
        return self._compiled

    def invalidate_compiled(self) -> None:
        """Drop the cached plan; call after any in-place weight mutation."""
        self._compiled = None
        self._compile_failed = False

    def specialize(self, batch_size: int) -> bool:
        """Pin a serving batch size for zero-allocation plan execution.

        Compiles the plan if needed and pre-binds its scratch arena for
        ``batch_size`` (see :meth:`repro.nn.inference.InferencePlan
        .specialize`).  Returns ``False`` when the network is uncompilable
        (predictions then keep working through the autograd path).  Other
        batch sizes run through the plan's private arena and return a copy.
        """
        compiled = self.ensure_compiled()
        if compiled is None:
            return False
        return compiled.specialize(batch_size)

    def despecialize(self, batch_size: Optional[int] = None) -> None:
        """Release pre-bound arenas (all of them when no batch size given)."""
        if self._compiled is not None:
            self._compiled.despecialize(batch_size)

    def enable_auto_specialization(self, streak: int = 2) -> None:
        """Auto-bind arenas for dominant batch sizes (serving-stack hook).

        The preference survives plan invalidation: recompiles re-enable it.
        """
        self._auto_specialize_streak = streak
        compiled = self.ensure_compiled()
        if compiled is not None:
            compiled.enable_auto_specialization(streak)

    def specialization_stats(self) -> Optional[Dict[str, float]]:
        """Arena hit/miss counters of the cached plan; ``None`` without one."""
        if self._compiled is None:
            return None
        return self._compiled.specialization_stats()

    def parameter_count(self) -> int:
        if self.network is None:
            raise RuntimeError("Model has not been built yet")
        return self.network.parameter_count()

    # -- weight serialization -------------------------------------------- #
    #: Archive key holding the JSON metadata blob alongside the state dict.
    #: Dotted parameter names can never collide with it.
    _META_KEY = "__meta__"

    @staticmethod
    def _weights_path(path):
        """Normalise to the ``.npz`` suffix ``np.savez`` appends on write."""
        text = str(path)
        return text if text.endswith(".npz") else text + ".npz"

    def save_weights(self, path) -> None:
        """Save the fitted network to an ``.npz`` archive.

        Stores the plain ``state_dict`` (the same key layout
        :func:`repro.io.storage.save_model_state` uses, so either reader can
        open either archive) plus a ``__meta__`` entry with the build
        geometry and identity, so a fresh classifier of the same family and
        configuration can serve the model without retraining in-process
        (see :meth:`load_weights`).
        """
        if self.network is None:
            raise RuntimeError("Model has not been fitted or built yet")
        if self._build_geometry is None:
            raise RuntimeError(
                "Network was attached without ensure_network(); build geometry "
                "is unknown and the archive could not be reloaded"
            )
        n_channels, window_size = self._build_geometry
        meta = {
            "family": self.family,
            "n_classes": self.n_classes,
            "n_channels": n_channels,
            "window_size": window_size,
        }
        arrays = dict(self.network.state_dict())
        arrays[self._META_KEY] = np.asarray(json.dumps(meta))
        np.savez(self._weights_path(path), **arrays)

    def load_weights(self, path) -> None:
        """Load an ``.npz`` archive saved by :meth:`save_weights`.

        Builds the network for the archived geometry if needed, then loads
        the parameters strictly (missing/unexpected/mis-shaped entries
        raise).  The classifier is marked fitted and the compiled plan is
        invalidated so the next prediction serves the loaded weights.
        """
        with np.load(self._weights_path(path), allow_pickle=False) as data:
            if self._META_KEY not in data.files:
                raise ValueError(
                    "Archive has no build metadata; it was written by "
                    "repro.io.storage.save_model_state — build the network "
                    "yourself and use load_model_state instead"
                )
            meta = json.loads(str(data[self._META_KEY]))
            state = {
                name: data[name] for name in data.files if name != self._META_KEY
            }
        if meta["family"] != self.family:
            raise ValueError(
                f"Archive holds a {meta['family']!r} model, not {self.family!r}"
            )
        if meta["n_classes"] != self.n_classes:
            raise ValueError(
                f"Archive was trained with {meta['n_classes']} classes, "
                f"this classifier expects {self.n_classes}"
            )
        geometry = (int(meta["n_channels"]), int(meta["window_size"]))
        self.ensure_network(*geometry)
        assert self.network is not None
        self.network.load_state_dict(state)
        # ensure_network is a no-op when a network already exists, so record
        # the archive's geometry explicitly: it describes the weights now
        # loaded, and a later save_weights must re-emit it, not a stale one.
        self._build_geometry = geometry
        self._fitted = True
        self.invalidate_compiled()
