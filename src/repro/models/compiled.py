"""Classifier-level compilation: from fitted model to serving plan.

:func:`compile_classifier` turns a fitted :class:`NeuralEEGClassifier` into a
:class:`CompiledClassifier` — the object the serving hot path actually calls.
It owns an :class:`~repro.nn.inference.InferencePlan` (the network lowered to
fused float32 kernels with a float64 softmax tail) and reuses the
classifier's own ``prepare_array`` so window preprocessing (envelope pooling,
axis layout) is byte-identical between the compiled and autograd paths.

``NeuralEEGClassifier.predict_proba`` compiles lazily through this module and
falls back to the autograd graph only when the network contains a layer the
plan compiler cannot lower.  Quantized (int8) plan variants are built by
:func:`repro.compression.quantization.compile_quantized_plan`, which routes
through :func:`compile_classifier` with a weight-quantizer hook.
"""

from __future__ import annotations

import io
import json
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.models.base import NeuralEEGClassifier, normalize_windows
from repro.models.preprocess import (
    PreprocessArena,
    prepare_windows,
    prepared_window_shape,
    validate_prepare_spec,
)
from repro.nn import autotune
from repro.nn.inference import (
    _MALFORMED,
    InferencePlan,
    PlanTransportError,
    SoftmaxKernel,
    SparsityConfig,
    WeightQuantizer,
    compile_network,
)


class TransportedPreprocessor:
    """Stand-in for the source classifier on the far side of a payload.

    Carries only what :class:`CompiledClassifier` actually uses on the hot
    path — the family name and the array-level ``prepare_array`` transform,
    reconstructed from the JSON prepare spec — so a worker process serves
    the plan without the Module tree, the autograd machinery or the
    training-side classifier object.
    """

    def __init__(self, family: str, spec: Dict[str, object]) -> None:
        self.family = str(family)
        self._spec = validate_prepare_spec(spec)

    def prepare_spec(self) -> Dict[str, object]:
        return dict(self._spec)

    def prepare_array(
        self, windows: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return prepare_windows(windows, out=out, **self._spec)


class CompiledClassifier:
    """A serving-ready classifier: normalization + prepared plan + softmax.

    Produces the same probabilities as the source classifier's autograd path
    (``predict_proba_autograd``) within float32 rounding, several times
    faster; probability rows are returned in float64 and sum to one at
    float64 resolution.
    """

    #: Cap on concurrently held preprocessing arenas — mirrors
    #: :attr:`repro.nn.inference.InferencePlan.MAX_ARENAS` so the
    #: preprocessing scratch tracks the plan's own LRU policy.
    MAX_PREPROCESS_ARENAS = InferencePlan.MAX_ARENAS

    def __init__(
        self,
        classifier: NeuralEEGClassifier,
        plan: InferencePlan,
        revision: int = 0,
    ) -> None:
        self.classifier = classifier
        self.plan = plan
        #: Plan revision carried through transport payloads; the serving
        #: stack uses it to correlate hot-swapped plans with telemetry
        #: (``FleetTickRecord.plan_version``).  0 = never assigned.
        self.revision = int(revision)
        spec_hook = getattr(classifier, "prepare_spec", None)
        spec = spec_hook() if spec_hook is not None else None
        #: The transportable prepare spec, when the classifier has one.
        #: Doubles as the gate for the preprocessing arena: without a spec
        #: the raw→prepared geometry cannot be predicted, so preprocessing
        #: stays on the allocating path.
        self._prepare_spec = (
            validate_prepare_spec(spec) if spec is not None else None
        )
        self._preprocess_arenas: "OrderedDict[Tuple[int, ...], PreprocessArena]" = (
            OrderedDict()
        )

    @property
    def dtype(self) -> np.dtype:
        return self.plan.dtype

    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        """Class probabilities for raw windows ``(n, channels, samples)``."""
        arr = np.asarray(windows, dtype=self.dtype)
        if arr.ndim == 2:
            arr = arr[None, ...]
        arena = self._preprocess_arena_for(arr.shape)
        if arena is not None:
            return self.plan(arena.prepare(arr))
        normalized = normalize_windows(arr)
        prepared = self.classifier.prepare_array(normalized)
        return self.plan(prepared)

    def _preprocess_arena_for(
        self, raw_shape: Tuple[int, ...]
    ) -> Optional[PreprocessArena]:
        """Preprocessing arena for a raw geometry, mirroring the plan.

        Built lazily the first time the plan already holds an execution
        arena for the matching *prepared* shape — i.e. preprocessing goes
        zero-allocation exactly when plan execution has (pin or streak
        policy, decided by the plan itself).
        """
        spec = self._prepare_spec
        if spec is None:
            return None
        arena = self._preprocess_arenas.get(raw_shape)
        if arena is not None:
            self._preprocess_arenas.move_to_end(raw_shape)
            return arena
        prepared_shape = prepared_window_shape(raw_shape, **spec)
        if not self.plan.has_arena(prepared_shape):
            return None
        arena = PreprocessArena(raw_shape, dtype=self.dtype, **spec)
        self._preprocess_arenas[raw_shape] = arena
        while len(self._preprocess_arenas) > self.MAX_PREPROCESS_ARENAS:
            self._preprocess_arenas.popitem(last=False)
        return arena

    @property
    def nbytes(self) -> int:
        """Weight storage held by the plan (int8 bytes for quantized plans)."""
        return self.plan.nbytes

    # ------------------------------------------------------------------ #
    # shape specialisation (delegates to the plan)
    # ------------------------------------------------------------------ #
    def specialize(self, batch_size: int) -> bool:
        """Pin a batch size for zero-allocation arena execution.

        Steady-state ``predict_proba`` calls at that batch size then return
        an **arena-owned row buffer** valid until the next call — callers
        that retain probabilities across calls must copy them (the serving
        stack's ``MicroBatcher.finalize`` does).
        """
        return self.plan.specialize(batch_size)

    def despecialize(self, batch_size: Optional[int] = None) -> None:
        self.plan.despecialize(batch_size)
        if batch_size is None:
            self._preprocess_arenas.clear()
        else:
            for shape in [
                s for s in self._preprocess_arenas if s[0] == batch_size
            ]:
                del self._preprocess_arenas[shape]

    def enable_auto_specialization(self, streak: int = 2) -> None:
        """Auto-bind arenas for dominant batch sizes (the serving default)."""
        self.plan.enable_auto_specialization(streak)

    def specialization_stats(self) -> Dict[str, float]:
        stats = self.plan.specialization_stats()
        stats["preprocess_arenas"] = float(len(self._preprocess_arenas))
        stats["preprocess_scratch_bytes"] = float(
            sum(a.scratch_nbytes for a in self._preprocess_arenas.values())
        )
        return stats

    def describe(self) -> Dict[str, object]:
        return {
            "family": self.classifier.family,
            "dtype": str(self.dtype),
            "kernels": self.plan.describe(),
            "weight_bytes": self.nbytes,
            "specialization": self.plan.specialization_stats(),
        }

    def __repr__(self) -> str:
        return f"CompiledClassifier({self.classifier.family}, {self.plan!r})"

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def to_payload(self) -> bytes:
        """Serialize the whole serving path to one self-contained blob.

        The bytes are an ``.npz`` archive in the same geometry as the weight
        archives ``NeuralEEGClassifier.save_weights`` writes: a flat dict of
        arrays plus a ``__meta__`` JSON entry.  It is the kernel plan's
        archive (:meth:`repro.nn.inference.InferencePlan.to_payload`: one
        JSON node per kernel, arrays named by field path) with the
        classifier's prepare spec, revision and autotune entries added next
        to the plan's ``format``/``dtype``/``kernels`` metadata, so
        :meth:`from_payload` — typically in a worker process — rebuilds an
        object whose ``predict_proba`` is numerically identical to this one,
        without autograd or the Module tree.  Raises
        :class:`~repro.nn.inference.PlanTransportError` when the source
        classifier's preprocessing has no transportable spec.
        """
        spec_hook = getattr(self.classifier, "prepare_spec", None)
        spec = spec_hook() if spec_hook is not None else None
        if spec is None:
            raise PlanTransportError(
                f"classifier family {self.classifier.family!r} exposes no "
                "prepare_spec(); its preprocessing cannot be shipped to a "
                "worker process"
            )
        arrays = self.plan.to_payload()
        meta = json.loads(str(arrays[InferencePlan.META_KEY]))
        meta["classifier"] = {
            "family": self.classifier.family,
            "prepare": validate_prepare_spec(spec),
            "revision": self.revision,
        }
        autotune_meta = self._autotune_payload()
        if autotune_meta is not None:
            meta["autotune"] = autotune_meta
        arrays[InferencePlan.META_KEY] = np.asarray(json.dumps(meta))
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        return buffer.getvalue()

    def _autotune_payload(self) -> Optional[Dict[str, object]]:
        """Calibration entries this plan's compile produced or consumed.

        Embedded in the payload so a worker process on the same host seeds
        its in-process autotune cache from the parent instead of re-running
        (or worse, racing) the calibration timings.  Entries are keyed by
        host fingerprint, so a payload replayed on different hardware simply
        never matches and the worker calibrates honestly.
        """
        keys = [
            str(record["key"])
            for record in self.plan.lowering_records
            if record.get("key")
        ]
        if not keys:
            return None
        entries = autotune.default_cache().export_entries(keys)
        if not entries:
            return None
        return {
            "fingerprint": autotune.host_fingerprint(),
            "entries": entries,
        }

    @classmethod
    def from_payload(cls, data: bytes) -> "CompiledClassifier":
        """Rebuild a serving-ready classifier from :meth:`to_payload` bytes.

        Malformed bytes raise :class:`~repro.nn.inference.PlanTransportError`.
        """
        payload, meta, revision = _read_payload(data)
        plan = InferencePlan.from_payload(payload)
        try:
            shim = TransportedPreprocessor(
                meta["classifier"]["family"], meta["classifier"]["prepare"]
            )
            calibrations = dict((meta.get("autotune") or {}).get("entries", {}))
        except _MALFORMED as exc:
            raise PlanTransportError(
                f"bad classifier metadata ({type(exc).__name__}: {exc})"
            ) from exc
        if calibrations:
            # Adopt the parent's calibration results: entries are keyed by
            # host fingerprint, so cross-host payloads merge harmlessly
            # (their keys never match a lookup here) and same-host workers
            # skip every calibration timing.  Local entries win on conflict.
            autotune.default_cache().seed(calibrations)
        return cls(shim, plan, revision=revision)


def _read_payload(
    data: bytes, arrays: bool = True
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any], int]:
    """Open :meth:`CompiledClassifier.to_payload` bytes.

    Returns ``(entries, meta, revision)``: every archive entry (only the
    metadata entry when ``arrays`` is false), the parsed ``__meta__`` and
    the plan revision.  Any malformed input raises
    :class:`~repro.nn.inference.PlanTransportError`.
    """
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            names = archive.files if arrays else [InferencePlan.META_KEY]
            entries = {name: archive[name] for name in names}
        meta = json.loads(str(entries[InferencePlan.META_KEY]))
        classifier_meta = meta.get("classifier")
        revision = None if classifier_meta is None else int(
            classifier_meta.get("revision", 0)
        )
    except _MALFORMED as exc:
        raise PlanTransportError(
            f"malformed plan payload ({type(exc).__name__}: {exc})"
        ) from exc
    if revision is None:
        raise PlanTransportError(
            "payload has no classifier metadata; was it written by "
            "InferencePlan.to_payload instead of CompiledClassifier?"
        )
    return entries, meta, revision


def payload_revision(data: bytes) -> int:
    """Plan revision embedded in ``to_payload`` bytes, without a rebuild.

    Cheap metadata peek for supervisors deciding whether a cached respawn
    payload is already at the fleet's current plan version.  Returns 0 for
    payloads written before revisions existed; malformed bytes raise
    :class:`~repro.nn.inference.PlanTransportError`.
    """
    return _read_payload(data, arrays=False)[2]


def compile_classifier(
    classifier: NeuralEEGClassifier,
    dtype: np.dtype = np.float32,
    quantizer: Optional[WeightQuantizer] = None,
    sparsity: Optional[SparsityConfig] = None,
) -> CompiledClassifier:
    """Compile a fitted (or at least built) neural classifier for serving.

    Weights are extracted once at compile time; mutating the underlying
    network afterwards (further training, pruning, quantization, loading
    weights) requires recompiling — ``NeuralEEGClassifier`` handles that by
    invalidating its cached plan at every such mutation point.  Pruned
    networks past the sparsity threshold lower to sparse kernels per
    ``sparsity`` (default: host-calibrated; see
    :class:`repro.nn.inference.SparsityConfig`).
    """
    network = classifier.network
    if network is None:
        raise RuntimeError("Classifier must be fitted or built before compiling")
    network.eval()
    plan = compile_network(network, dtype=dtype, quantizer=quantizer, sparsity=sparsity)
    plan.append(SoftmaxKernel())
    return CompiledClassifier(classifier, plan)
