"""Plan transport: payload round-trips, replicas, and a real shard worker.

The payload is the contract that lets ``ProcessShardExecutor`` workers serve
a cohort without the Module tree or autograd: these tests pin that a
``to_payload`` → ``from_payload`` round trip reproduces the in-process plan
to (well under) 1e-12 across every family and the int8 quantized variant,
and that a real worker process serves the same probabilities.
"""

import io

import numpy as np
import pytest

from repro.compression.quantization import compile_quantized_plan
from repro.models.cnn import CNNConfig, EEGCNN
from repro.models.compiled import (
    CompiledClassifier,
    TransportedPreprocessor,
    payload_revision,
)
from repro.models.lstm_model import EEGLSTM, LSTMConfig
from repro.models.transformer_model import EEGTransformer, TransformerConfig
from repro.nn.inference import InferencePlan, Kernel, PlanTransportError
from repro.serving.batcher import PreparedBatch
from repro.serving.executors import ProcessShardExecutor, SerialExecutor
from repro.utils.timing import SYSTEM_CLOCK
from tests.helpers import hard_timeout

N_CHANNELS = 4
WINDOW = 50


def _families():
    return [
        (
            "cnn",
            EEGCNN(
                CNNConfig(
                    n_conv_layers=2,
                    filters=(6, 8),
                    kernel_size=3,
                    stride=1,
                    pooling="max",
                    hidden_units=12,
                ),
                seed=1,
            ),
        ),
        ("lstm", EEGLSTM(LSTMConfig(hidden_size=24, num_layers=2), seed=2)),
        (
            "transformer",
            EEGTransformer(
                TransformerConfig(
                    num_layers=2, n_heads=2, d_model=16, dim_feedforward=32
                ),
                seed=3,
            ),
        ),
    ]


@pytest.fixture(params=_families(), ids=lambda p: p[0])
def built_classifier(request):
    _, classifier = request.param
    classifier.ensure_network(N_CHANNELS, WINDOW)
    return classifier


def _windows(seed=0, n=7):
    return np.random.default_rng(seed).standard_normal((n, N_CHANNELS, WINDOW))


class TestPayloadRoundTrip:
    def test_replica_matches_in_process_plan(self, built_classifier):
        compiled = built_classifier.ensure_compiled()
        replica = CompiledClassifier.from_payload(compiled.to_payload())
        windows = _windows()
        np.testing.assert_allclose(
            replica.predict_proba(windows),
            compiled.predict_proba(windows),
            atol=1e-12,
            rtol=0,
        )

    def test_int8_quantized_replica_matches(self, built_classifier):
        quantized = compile_quantized_plan(built_classifier, bits=8)
        replica = CompiledClassifier.from_payload(quantized.to_payload())
        windows = _windows(seed=1)
        np.testing.assert_allclose(
            replica.predict_proba(windows),
            quantized.predict_proba(windows),
            atol=1e-12,
            rtol=0,
        )
        # Quantized weights ship as integers, not dequantized floats.
        assert replica.nbytes == quantized.nbytes

    def test_replica_is_module_free(self, built_classifier):
        replica = CompiledClassifier.from_payload(
            built_classifier.ensure_compiled().to_payload()
        )
        assert isinstance(replica.classifier, TransportedPreprocessor)
        assert not hasattr(replica.classifier, "network")
        assert replica.classifier.family == built_classifier.family
        assert replica.describe()["kernels"] == (
            built_classifier.ensure_compiled().describe()["kernels"]
        )

    def test_second_round_trip_is_stable(self, built_classifier):
        first = CompiledClassifier.from_payload(
            built_classifier.ensure_compiled().to_payload()
        )
        second = CompiledClassifier.from_payload(first.to_payload())
        windows = _windows(seed=2, n=3)
        np.testing.assert_array_equal(
            first.predict_proba(windows), second.predict_proba(windows)
        )

    def test_payload_is_a_plain_npz_archive(self, built_classifier):
        data = built_classifier.ensure_compiled().to_payload()
        # Same geometry as the weight archives: flat arrays + __meta__, no
        # pickled objects anywhere (allow_pickle stays False).
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            assert InferencePlan.META_KEY in archive.files


class TestPlanRevision:
    """Hot-swap correlates plans across processes by revision number: it
    must ride the payload bytes and survive repeated round trips."""

    def test_revision_survives_the_round_trip(self, built_classifier):
        compiled = built_classifier.ensure_compiled()
        stamped = CompiledClassifier(
            compiled.classifier, compiled.plan, revision=7
        )
        data = stamped.to_payload()
        assert payload_revision(data) == 7
        replica = CompiledClassifier.from_payload(data)
        assert replica.revision == 7
        # ...and again: the replica re-emits the same revision.
        assert payload_revision(replica.to_payload()) == 7

    def test_revision_defaults_to_zero(self, built_classifier):
        compiled = built_classifier.ensure_compiled()
        assert compiled.revision == 0
        data = compiled.to_payload()
        assert payload_revision(data) == 0
        assert CompiledClassifier.from_payload(data).revision == 0

    def test_payload_revision_rejects_plan_only_payloads(self):
        model = EEGLSTM(LSTMConfig(hidden_size=8), seed=0)
        model.ensure_network(N_CHANNELS, WINDOW)
        plan_only = model.ensure_compiled().plan.to_payload()
        buffer = io.BytesIO()
        np.savez(buffer, **plan_only)
        with pytest.raises(PlanTransportError, match="classifier metadata"):
            payload_revision(buffer.getvalue())


class TestTransportErrors:
    def test_plan_payload_without_classifier_meta_rejected(self):
        model = EEGLSTM(LSTMConfig(hidden_size=8), seed=0)
        model.ensure_network(N_CHANNELS, WINDOW)
        plan_only = model.ensure_compiled().plan.to_payload()
        buffer = io.BytesIO()
        np.savez(buffer, **plan_only)
        with pytest.raises(PlanTransportError, match="classifier metadata"):
            CompiledClassifier.from_payload(buffer.getvalue())

    def test_classifier_without_prepare_spec_rejected(self):
        model = EEGLSTM(LSTMConfig(hidden_size=8), seed=0)
        model.ensure_network(N_CHANNELS, WINDOW)
        compiled = model.ensure_compiled()
        compiled.classifier.prepare_spec = lambda: None
        with pytest.raises(PlanTransportError, match="prepare_spec"):
            compiled.to_payload()

    def test_unregistered_kernel_type_rejected(self):
        class CustomKernel(Kernel):
            def __call__(self, x):
                return x

        plan = InferencePlan([CustomKernel()])
        with pytest.raises(PlanTransportError, match="CustomKernel"):
            plan.to_payload()

    def test_unknown_payload_format_rejected(self):
        with pytest.raises(PlanTransportError, match="format"):
            InferencePlan.from_payload(
                {InferencePlan.META_KEY: np.asarray('{"format": "bogus"}')}
            )


class TestShardWorkerServesTheReplica:
    def test_worker_process_matches_serial_probabilities(self):
        classifier = EEGLSTM(LSTMConfig(hidden_size=16), seed=5)
        classifier.ensure_network(N_CHANNELS, WINDOW)
        quantized = compile_quantized_plan(classifier, bits=8)
        prepared = PreparedBatch(
            session_ids=["a", "b"],
            windows=_windows(seed=3, n=2),
            chunk_size=2,
        )
        serial = SerialExecutor()
        serial.bind({"float": classifier, "int8": quantized}, SYSTEM_CLOCK)
        executor = ProcessShardExecutor()
        with hard_timeout(240, what="shard-worker transport smoke"):
            executor.bind({"float": classifier, "int8": quantized}, SYSTEM_CLOCK)
            try:
                for cohort in ("float", "int8"):
                    reference = serial.submit_flush(cohort, prepared).result()
                    execution = executor.submit_flush(cohort, prepared).result()
                    np.testing.assert_allclose(
                        execution.probabilities,
                        reference.probabilities,
                        atol=1e-7,
                        rtol=0,
                    )
            finally:
                executor.shutdown()


class TestSparsePayloads:
    def test_pruned_sparse_classifier_round_trips_exactly(self):
        from repro.compression.pruning import prune_classifier
        from repro.nn.inference import SparsityConfig

        classifier = EEGLSTM(LSTMConfig(hidden_size=24), seed=6)
        classifier.ensure_network(N_CHANNELS, WINDOW)
        pruned, _ = prune_classifier(classifier, 0.9)
        pruned.plan_sparsity = SparsityConfig(mode="always", min_size=0)
        compiled = pruned.ensure_compiled()
        assert any("sparse" in k for k in compiled.plan.describe())
        replica = CompiledClassifier.from_payload(compiled.to_payload())
        assert replica.plan.describe() == compiled.plan.describe()
        windows = _windows(seed=11, n=5)
        np.testing.assert_array_equal(
            replica.predict_proba(windows), compiled.predict_proba(windows)
        )

    def test_shard_worker_serves_a_sparse_plan(self):
        from repro.compression.pruning import prune_classifier
        from repro.nn.inference import SparsityConfig

        classifier = EEGLSTM(LSTMConfig(hidden_size=24), seed=7)
        classifier.ensure_network(N_CHANNELS, WINDOW)
        pruned, _ = prune_classifier(classifier, 0.9)
        pruned.plan_sparsity = SparsityConfig(mode="always", min_size=0)
        assert any(
            "sparse" in k for k in pruned.ensure_compiled().plan.describe()
        )
        prepared = PreparedBatch(
            session_ids=["a", "b", "c"],
            windows=_windows(seed=12, n=3),
            chunk_size=3,
        )
        serial = SerialExecutor()
        serial.bind({"sparse": pruned}, SYSTEM_CLOCK)
        reference = serial.submit_flush("sparse", prepared).result()
        executor = ProcessShardExecutor()
        with hard_timeout(240, what="sparse shard-worker smoke"):
            executor.bind({"sparse": pruned}, SYSTEM_CLOCK)
            try:
                execution = executor.submit_flush("sparse", prepared).result()
                np.testing.assert_allclose(
                    execution.probabilities,
                    reference.probabilities,
                    atol=1e-7,
                    rtol=0,
                )
            finally:
                executor.shutdown()


def _block_pruned_lstm(seed=8, hidden=32, channels=16):
    """A block-pruned LSTM classifier whose plan lowers block-sparse kernels."""
    from repro.compression.pruning import prune_classifier_inplace
    from repro.nn.inference import SparsityConfig

    classifier = EEGLSTM(LSTMConfig(hidden_size=hidden), seed=seed)
    classifier.ensure_network(channels, WINDOW)
    prune_classifier_inplace(classifier, 0.9, tile=(8, 8))
    classifier.plan_sparsity = SparsityConfig(mode="always", min_size=0)
    return classifier


class TestBlockSparsePayloads:
    def test_block_pruned_classifier_round_trips_exactly(self):
        classifier = _block_pruned_lstm()
        compiled = classifier.ensure_compiled()
        assert any("block" in k for k in compiled.plan.describe())
        replica = CompiledClassifier.from_payload(compiled.to_payload())
        assert replica.plan.describe() == compiled.plan.describe()
        windows = np.random.default_rng(13).standard_normal((5, 16, WINDOW))
        np.testing.assert_array_equal(
            replica.predict_proba(windows), compiled.predict_proba(windows)
        )

    def test_replica_block_operands_are_identical(self):
        from repro.nn.sparse import BlockSparseWeight

        compiled = _block_pruned_lstm(seed=9).ensure_compiled()
        replica = CompiledClassifier.from_payload(compiled.to_payload())
        pairs = [
            (mine, theirs)
            for kernel, copy in zip(compiled.plan.kernels, replica.plan.kernels)
            if hasattr(kernel, "layers")
            for layer, layer_copy in zip(kernel.layers, copy.layers)
            for mine, theirs in zip(layer[:2], layer_copy[:2])
            if isinstance(mine, BlockSparseWeight)
        ]
        assert pairs  # the pruned projections really did lower block-sparse
        # Gate-coupled pruning + pinned lowering: the projections ship as
        # fused-gate slabs, and the payload must carry that geometry.
        assert any(mine.groups == 4 for mine, _ in pairs)
        for mine, theirs in pairs:
            assert isinstance(theirs, BlockSparseWeight)
            assert theirs.tile == mine.tile
            assert theirs.groups == mine.groups
            assert np.array_equal(theirs.block_indices, mine.block_indices)
            assert np.array_equal(theirs.blocks, mine.blocks)

    def test_shard_worker_serves_a_block_sparse_plan(self):
        classifier = _block_pruned_lstm(seed=10)
        assert any(
            "block" in k for k in classifier.ensure_compiled().plan.describe()
        )
        prepared = PreparedBatch(
            session_ids=["a", "b", "c"],
            windows=np.random.default_rng(14).standard_normal((3, 16, WINDOW)),
            chunk_size=3,
        )
        serial = SerialExecutor()
        serial.bind({"block": classifier}, SYSTEM_CLOCK)
        reference = serial.submit_flush("block", prepared).result()
        executor = ProcessShardExecutor()
        with hard_timeout(240, what="block-sparse shard-worker smoke"):
            executor.bind({"block": classifier}, SYSTEM_CLOCK)
            try:
                execution = executor.submit_flush("block", prepared).result()
                np.testing.assert_allclose(
                    execution.probabilities,
                    reference.probabilities,
                    atol=1e-7,
                    rtol=0,
                )
            finally:
                executor.shutdown()


class TestAutotunePayloadSeeding:
    @pytest.fixture
    def isolated_cache(self, tmp_path):
        from repro.nn.autotune import AutotuneCache, set_default_cache

        cache = AutotuneCache(path=str(tmp_path / "autotune.json"))
        previous = set_default_cache(cache)
        try:
            yield cache
        finally:
            set_default_cache(previous)

    def _calibrated_compiled(self, monkeypatch):
        from repro.nn import autotune
        from repro.nn.inference import SparsityConfig

        monkeypatch.setattr(
            autotune, "median_call_time_s", lambda call, repeats=5: (call(), 1e-4)[1]
        )
        classifier = EEGLSTM(LSTMConfig(hidden_size=32), seed=11)
        classifier.ensure_network(16, WINDOW)
        from repro.compression.pruning import prune_classifier_inplace

        prune_classifier_inplace(classifier, 0.9, tile=(8, 8))
        classifier.plan_sparsity = SparsityConfig(mode="auto", min_size=0)
        return classifier.ensure_compiled()

    def test_payload_carries_the_calibration_entries(
        self, isolated_cache, monkeypatch
    ):
        import io
        import json

        from repro.nn.autotune import host_fingerprint

        compiled = self._calibrated_compiled(monkeypatch)
        keys = [
            r["key"] for r in compiled.plan.lowering_records if r.get("key")
        ]
        assert keys  # auto mode calibrated at least one matmul
        with np.load(io.BytesIO(compiled.to_payload()), allow_pickle=False) as archive:
            meta = json.loads(str(archive[InferencePlan.META_KEY]))
        autotune_meta = meta["autotune"]
        assert autotune_meta["fingerprint"] == host_fingerprint()
        assert set(autotune_meta["entries"]) == set(keys)

    def test_from_payload_seeds_the_worker_cache(self, isolated_cache, monkeypatch):
        from repro.nn.autotune import AutotuneCache, set_default_cache

        compiled = self._calibrated_compiled(monkeypatch)
        payload = compiled.to_payload()
        keys = [r["key"] for r in compiled.plan.lowering_records if r.get("key")]
        # Fresh empty cache = a newly spawned worker process.
        worker_cache = AutotuneCache(path=None)
        set_default_cache(worker_cache)
        try:
            CompiledClassifier.from_payload(payload)
            assert all(worker_cache.get(key) is not None for key in keys)
        finally:
            set_default_cache(isolated_cache)


def _archive(entries):
    buffer = io.BytesIO()
    np.savez(buffer, **entries)
    return buffer.getvalue()


def _rewritten(data, edit):
    """``data`` re-archived after ``edit(entries, meta)`` changed it in place.

    An ``edit`` that returns a string replaces the metadata text outright.
    """
    import json

    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        entries = {name: archive[name] for name in archive.files}
    meta = json.loads(str(entries[InferencePlan.META_KEY]))
    text = edit(entries, meta)
    entries[InferencePlan.META_KEY] = np.asarray(
        text if isinstance(text, str) else json.dumps(meta)
    )
    return _archive(entries)


def _malformed_corpus():
    """Bad payload bytes derived from one real 2-layer LSTM payload."""
    model = EEGLSTM(LSTMConfig(hidden_size=8, num_layers=2), seed=0)
    model.ensure_network(N_CHANNELS, WINDOW)
    data = model.ensure_compiled().to_payload()
    size = len(data)
    corpus = {
        f"truncated-at-{n}": data[:n]
        for n in (0, 1, 4, 30, size // 4, size // 2, size - 22, size - 1)
    }
    corpus["not-a-zip"] = b"this is not a plan payload " * 8
    npy = io.BytesIO()
    np.save(npy, np.arange(4.0))
    corpus["npy-not-npz"] = npy.getvalue()
    middle = bytearray(data)
    middle[size // 2 : size // 2 + 16] = bytes(16)
    corpus["zeroed-middle"] = bytes(middle)
    corpus["bad-json"] = _rewritten(data, lambda entries, meta: "{not json")
    corpus["json-not-an-object"] = _rewritten(data, lambda entries, meta: "[1, 2]")
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        arrays = [name for name in archive.files if name != InferencePlan.META_KEY]
        corpus["no-meta"] = _archive({name: archive[name] for name in arrays})
    assert len(arrays) >= 7  # 2 LSTM layers x 3 + the dense head
    for name in arrays:
        corpus[f"dropped-{name}"] = _rewritten(
            data, lambda entries, meta, name=name: entries.pop(name)
        )
    corpus["dropped-field"] = _rewritten(
        data, lambda entries, meta: meta["kernels"][0]["fields"].pop("hidden_size")
    )
    corpus["unknown-type"] = _rewritten(
        data, lambda entries, meta: meta["kernels"][0].update(type="WarpKernel")
    )
    corpus["v1-format"] = _rewritten(
        data, lambda entries, meta: meta.update(format="repro-inference-plan-v1")
    )
    corpus["no-family"] = _rewritten(
        data, lambda entries, meta: meta["classifier"].pop("family")
    )
    corpus["bad-autotune"] = _rewritten(
        data, lambda entries, meta: meta.update(autotune={"entries": [1, 2]})
    )
    corpus["bad-revision"] = _rewritten(
        data, lambda entries, meta: meta["classifier"].update(revision="seven")
    )
    return corpus


_CORPUS = _malformed_corpus()


class TestMalformedPayloadCorpus:
    """Bad input fails with :class:`PlanTransportError`, never a zip, npy,
    JSON or lookup error, and never hangs."""

    @pytest.mark.parametrize("case", sorted(_CORPUS))
    def test_from_payload_raises_plan_transport_error(self, case):
        with hard_timeout(30, what=f"malformed payload {case}"):
            with pytest.raises(PlanTransportError):
                CompiledClassifier.from_payload(_CORPUS[case])

    @pytest.mark.parametrize("case", sorted(_CORPUS))
    def test_payload_revision_reads_or_raises_plan_transport_error(self, case):
        # The revision peek reads only the metadata entry: a payload whose
        # damage lies elsewhere still reports its revision.
        with hard_timeout(30, what=f"malformed payload revision {case}"):
            try:
                assert payload_revision(_CORPUS[case]) == 0
            except PlanTransportError:
                pass

    def test_plan_from_an_open_corrupt_archive_raises(self):
        data = _CORPUS["zeroed-middle"]
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            with pytest.raises(PlanTransportError, match="kernel 0"):
                InferencePlan.from_payload(archive)

    def test_errors_name_the_kernel_or_entry(self):
        with pytest.raises(PlanTransportError, match=r"kernel 0: .*k0\.layers\.1\.2"):
            CompiledClassifier.from_payload(_CORPUS["dropped-k0.layers.1.2"])
        with pytest.raises(PlanTransportError, match="kernel 0: .*hidden_size"):
            CompiledClassifier.from_payload(_CORPUS["dropped-field"])
        with pytest.raises(PlanTransportError, match="WarpKernel"):
            CompiledClassifier.from_payload(_CORPUS["unknown-type"])
        with pytest.raises(PlanTransportError, match="repro-inference-plan-v1"):
            CompiledClassifier.from_payload(_CORPUS["v1-format"])
