"""Tests of the empirical autotuning subsystem (src/repro/tuning/).

Covers, per the PR issue: strategy determinism under a fixed seed,
TuningDB round-trip and corruption recovery (mirroring the kernel-store
tests), the measurer fallback order without a C compiler, the widened
deterministic variant space, and the service integration (tuned options
honored on a cache miss).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.applications.cases import make_case
from repro.bench.harness import check_case, measure_slingen
from repro.errors import AutotuningError, ConfigurationError, MeasurementError
from repro.lgen.tiling import CodegenVariant, candidate_variants
from repro.machine.microarch import default_machine
from repro.service.service import GenerationRequest, KernelService
from repro.service.store import DiskKernelStore, MemoryKernelStore
from repro.slingen.generator import SLinGen
from repro.slingen.options import Options
from repro.tuning import measure as measure_mod
from repro.tuning.db import (TUNING_SCHEMA_VERSION, TuningDB, TuningRecord,
                             tuning_key)
from repro.tuning.measure import (CompiledMeasurer, InterpreterMeasurer,
                                  ModelMeasurer, resolve_measurer,
                                  robust_score, synthesize_inputs)
from repro.tuning.strategies import (ExhaustiveSearch, HillClimbSearch,
                                     RandomSearch, SearchSpace, TuningPoint,
                                     TwoPhaseSearch, make_strategy)
from repro.tuning.tuner import Autotuner
from repro.tuning.__main__ import main as tuning_main


def _options(**kwargs) -> Options:
    kwargs.setdefault("annotate_code", False)
    return Options(**kwargs)


def _space(stage1=3) -> SearchSpace:
    return SearchSpace(stage1, candidate_variants())


def _scorer(space):
    """A deterministic synthetic landscape with a unique global minimum."""
    best = TuningPoint(space.stage1_count - 1, space.codegen_count - 1)

    def evaluate(point):
        return (abs(point.stage1 - best.stage1) * 10
                + abs(point.codegen - best.codegen) + 1)
    return evaluate, best


# ---------------------------------------------------------------------------
# Widened variant space
# ---------------------------------------------------------------------------


class TestCandidateVariants:
    def test_space_includes_block_size_and_scalar_replacement(self):
        variants = candidate_variants()
        assert any(v.block_size is not None for v in variants)
        assert any(not v.scalar_replacement for v in variants)

    def test_enumeration_is_deterministic(self):
        assert candidate_variants() == candidate_variants()
        assert ([v.label for v in candidate_variants()]
                == [v.label for v in candidate_variants()])

    def test_default_configuration_first(self):
        first = candidate_variants()[0]
        assert first == CodegenVariant(vector_width=4)

    def test_labels_unique_and_tagged(self):
        variants = candidate_variants()
        labels = [v.label for v in variants]
        assert len(set(labels)) == len(labels)
        assert any("-b" in label for label in labels)
        assert any("-nosr" in label for label in labels)

    def test_differing_fields_distance(self):
        base = CodegenVariant()
        assert base.differing_fields(base) == 0
        from dataclasses import replace
        assert base.differing_fields(replace(base, block_size=2)) == 1
        assert base.differing_fields(
            replace(base, block_size=2, scalar_replacement=False)) == 2


# ---------------------------------------------------------------------------
# Search strategies
# ---------------------------------------------------------------------------


class TestStrategies:
    def test_exhaustive_covers_space_within_budget(self):
        space = _space()
        evaluate, best = _scorer(space)
        outcome = ExhaustiveSearch().search(space, evaluate, budget=1000)
        assert outcome.evaluations == space.size
        assert outcome.best == best

    def test_budget_is_respected(self):
        space = _space()
        evaluate, _ = _scorer(space)
        for strategy in (ExhaustiveSearch(), RandomSearch(seed=1),
                         HillClimbSearch(seed=1), TwoPhaseSearch()):
            outcome = strategy.search(space, evaluate, budget=4)
            assert outcome.evaluations <= 4, strategy.name

    def test_default_point_always_first(self):
        space = _space()
        evaluate, _ = _scorer(space)
        for strategy in (ExhaustiveSearch(), RandomSearch(seed=9),
                         HillClimbSearch(seed=9), TwoPhaseSearch()):
            outcome = strategy.search(space, evaluate, budget=5)
            assert outcome.trials[0].point == TuningPoint(0, 0), strategy.name

    @pytest.mark.parametrize("name", ["random", "hill-climb"])
    def test_seeded_strategies_are_deterministic(self, name):
        space = _space(stage1=4)
        evaluate, _ = _scorer(space)
        runs = [make_strategy(name, seed=42).search(space, evaluate,
                                                    budget=9)
                for _ in range(2)]
        assert [t.point for t in runs[0].trials] \
            == [t.point for t in runs[1].trials]
        assert runs[0].best == runs[1].best

    def test_different_seeds_change_random_order(self):
        space = _space(stage1=4)
        evaluate, _ = _scorer(space)
        a = RandomSearch(seed=0).search(space, evaluate, budget=9)
        b = RandomSearch(seed=1).search(space, evaluate, budget=9)
        assert [t.point for t in a.trials] != [t.point for t in b.trials]

    def test_hill_climb_reaches_global_minimum_unbudgeted(self):
        space = _space(stage1=3)
        evaluate, best = _scorer(space)
        outcome = HillClimbSearch(seed=0).search(space, evaluate)
        assert outcome.best == best

    def test_two_phase_matches_legacy_shape(self):
        space = _space(stage1=3)
        evaluate, _ = _scorer(space)
        outcome = TwoPhaseSearch().search(space, evaluate, budget=100)
        # Phase 1: every stage-1 choice with codegen 0; phase 2: remaining
        # codegen variants for the best algorithm.
        expected = [TuningPoint(s, 0) for s in range(3)]
        expected += [TuningPoint(2, c)
                     for c in range(1, space.codegen_count)]
        assert [t.point for t in outcome.trials] == expected

    def test_memoized_revisits_cost_no_budget(self):
        space = _space(stage1=2)
        calls = []

        def evaluate(point):
            calls.append(point)
            return 1.0
        HillClimbSearch(seed=0).search(space, evaluate, budget=space.size)
        assert len(calls) == len(set(calls))

    def test_unknown_strategy_raises(self):
        with pytest.raises(AutotuningError):
            make_strategy("simulated-annealing")

    def test_neighbors_differ_in_one_knob(self):
        space = _space(stage1=2)
        for neighbor in space.neighbors(TuningPoint(0, 0)):
            if neighbor.stage1 == 0:
                a = space.codegen_variants[0]
                b = space.codegen_variants[neighbor.codegen]
                assert a.differing_fields(b) == 1


# ---------------------------------------------------------------------------
# Measurement backends
# ---------------------------------------------------------------------------


def _candidate_function(n=4):
    case = make_case("potrf", n)
    result = SLinGen(_options(autotune=False)).generate_result(
        case.program, nominal_flops=case.nominal_flops)
    return case, result


class TestMeasurers:
    def test_model_measurer_reuses_estimate(self):
        case, result = _candidate_function()
        measurement = ModelMeasurer().measure(
            result.function, estimate=result.performance)
        assert measurement.score == result.performance.cycles
        assert measurement.backend == "model"

    def test_interpreter_measurer_is_deterministic(self):
        case, result = _candidate_function()
        inputs = case.make_inputs(seed=17)
        a = InterpreterMeasurer().measure(result.function, inputs=inputs)
        b = InterpreterMeasurer().measure(result.function, inputs=inputs)
        assert a.score == b.score > 0
        assert a.unit == "ops"

    def test_interpreter_counts_grow_with_problem_size(self):
        _, small = _candidate_function(4)
        _, large = _candidate_function(8)
        score = {n: InterpreterMeasurer().measure(r.function).score
                 for n, r in (("small", small), ("large", large))}
        assert score["large"] > score["small"]

    def test_synthesized_inputs_run_all_kernels(self):
        for name in ("potrf", "trtri"):
            case = make_case(name, 6)
            result = SLinGen(_options(autotune=False)).generate_result(
                case.program)
            outputs = result.run(synthesize_inputs(result.function))
            for value in outputs.values():
                assert np.all(np.isfinite(value))

    def test_robust_score_rejects_outliers(self):
        score, rejected = robust_score([1.0, 1.05, 0.95, 1.02, 50.0])
        assert rejected == 1
        assert score < 2.0

    def test_robust_score_identical_samples(self):
        score, rejected = robust_score([3.0, 3.0, 3.0])
        assert score == 3.0 and rejected == 0

    def test_fallback_order_without_compiler(self, monkeypatch):
        from repro.tuning.measure import NumPyMeasurer
        monkeypatch.setattr(measure_mod, "compiler_available", lambda: False)
        measurer = resolve_measurer("auto")
        assert isinstance(measurer, NumPyMeasurer)
        with pytest.raises(MeasurementError):
            resolve_measurer("compiled")

    def test_auto_prefers_compiled_when_available(self, monkeypatch):
        monkeypatch.setattr(measure_mod, "compiler_available", lambda: True)
        assert isinstance(resolve_measurer("auto"), CompiledMeasurer)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_BACKEND", "model")
        assert isinstance(resolve_measurer(None), ModelMeasurer)

    def test_unknown_backend_raises(self):
        with pytest.raises(MeasurementError):
            resolve_measurer("oracle")

    def test_measurer_instance_passes_through(self):
        instance = InterpreterMeasurer()
        assert resolve_measurer(instance) is instance

    @pytest.mark.skipif(not measure_mod.compiler_available(),
                        reason="no C compiler")
    def test_compiled_measurer_times_real_kernel(self):
        case, result = _candidate_function()
        measurement = CompiledMeasurer(repeats=5, warmup=1, inner=8).measure(
            result.function, inputs=case.make_inputs(seed=17))
        assert measurement.score > 0
        assert measurement.unit == "seconds"
        assert len(measurement.samples) == 5


# ---------------------------------------------------------------------------
# Tuning database
# ---------------------------------------------------------------------------


def _record(key="ab" * 32, **overrides) -> TuningRecord:
    doc = dict(
        key=key, program_name="potrf_4", label="potrf:4",
        strategy="hill-climb", backend="interpreter", unit="ops",
        budget=8, seed=0, evaluations=6,
        best_label="0:blocked|avx-u8-lsa", best_score=100.0,
        baseline_score=120.0,
        options={"vectorize": True, "vector_width": 4, "block_size": 2,
                 "unroll_trip_count": 16, "unroll_body_limit": 128,
                 "use_shuffle_transpose": True, "load_store_analysis": True,
                 "scalar_replacement": False},
        stage1_variants={0: "blocked"},
        trials=[{"label": "x", "score": 120.0}])
    doc.update(overrides)
    return TuningRecord(**doc)


class TestTuningDB:
    def test_round_trip(self, tmp_path):
        db = TuningDB(root=str(tmp_path))
        record = _record()
        db.put(record.key, record)
        loaded = db.get(record.key)
        assert loaded == record
        assert loaded.stage1_variants == {0: "blocked"}
        assert list(db.keys()) == [record.key]

    def test_miss_returns_none(self, tmp_path):
        db = TuningDB(root=str(tmp_path))
        assert db.get("cd" * 32) is None
        assert db.stats()["misses"] == 1

    def test_corrupted_record_recovers_as_miss(self, tmp_path):
        record = _record()
        TuningDB(root=str(tmp_path)).put(record.key, record)
        # A fresh instance (new process) finds the on-disk corruption; the
        # writer's own hot layer is allowed to keep serving its copy.
        db = TuningDB(root=str(tmp_path))
        path = db.path(record.key)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert db.get(record.key) is None
        assert db.corrupt_dropped == 1
        assert not os.path.exists(path)
        # Re-tuning repopulates cleanly.
        db.put(record.key, record)
        assert db.get(record.key) == record

    def test_schema_drift_quarantined(self, tmp_path):
        record = _record()
        TuningDB(root=str(tmp_path)).put(record.key, record)
        db = TuningDB(root=str(tmp_path))
        path = db.path(record.key)
        doc = json.load(open(path))
        doc["schema"] = TUNING_SCHEMA_VERSION + 1
        json.dump(doc, open(path, "w"))
        assert db.get(record.key) is None
        assert db.corrupt_dropped == 1

    def test_hot_layer_serves_repeat_lookups(self, tmp_path):
        db = TuningDB(root=str(tmp_path))
        record = _record()
        db.put(record.key, record)
        assert db.get(record.key) == record
        assert db.get(record.key) == record
        assert db.hot_hits == 2           # put + both gets skipped disk
        db.delete(record.key)
        assert db.get(record.key) is None  # delete invalidates the layer

    def test_delete_purge_contains(self, tmp_path):
        db = TuningDB(root=str(tmp_path))
        a, b = _record("ab" * 32), _record("cd" * 32, label="potrf:8")
        db.put(a.key, a)
        db.put(b.key, b)
        assert a.key in db and len(db) == 2
        assert db.delete(a.key) and not db.delete(a.key)
        assert db.purge() == 1
        assert len(db) == 0

    def test_apply_pins_options(self):
        base = _options(autotune=True, max_variants=6)
        tuned = _record().apply(base)
        assert tuned.autotune is False
        assert tuned.stage1_variants == {0: "blocked"}
        assert tuned.block_size == 2
        assert tuned.unroll_trip_count == 16
        assert tuned.scalar_replacement is False
        assert tuned.annotate_code is False          # base field preserved
        tuned.validate()

    def test_apply_never_forces_disabled_capabilities(self):
        """A record tuned under a permissive base can only switch knobs
        *off* for a stricter request, never on: no AVX kernels for a
        vectorize=False caller."""
        record = _record()                       # vectorized winner, w=4
        scalar = record.apply(_options(vectorize=False))
        assert scalar.vectorize is False
        assert scalar.effective_vector_width == 1
        no_lsa = record.apply(_options(load_store_analysis=False))
        assert no_lsa.load_store_analysis is False
        sse = record.apply(_options(vector_width=2))
        assert sse.vector_width == 2             # never widened past base
        # A scalar-tuned record composes onto a vectorized base as scalar
        # (switching vectorization off is allowed).
        rec_options = dict(_record().options, vectorize=False)
        scalar_rec = _record(options=rec_options)
        assert scalar_rec.apply(_options()).vectorize is False

    def test_tuning_key_properties(self):
        p4, p8 = make_case("potrf", 4), make_case("potrf", 8)
        key = tuning_key(p4.program)
        assert key == tuning_key(p4.program)
        assert key != tuning_key(p8.program)
        # Scalar and vectorized tuning runs must not clobber each other.
        assert key != tuning_key(p4.program, vectorize=False)
        # The searched options are deliberately NOT part of the key.
        machine = default_machine()
        assert tuning_key(p4.program, machine) == key


# ---------------------------------------------------------------------------
# Options.stage1_variants plumbing
# ---------------------------------------------------------------------------


class TestPinnedStage1:
    def test_pinned_generation_builds_one_candidate(self):
        case = make_case("potrf", 8)
        result = SLinGen(_options(
            autotune=False, stage1_variants={0: "blocked"})).generate_result(
                case.program)
        assert len(result.candidates) == 1
        assert result.variant_label.startswith("0:blocked")
        assert check_case(case, result)

    def test_invalid_stage1_variants_rejected(self):
        with pytest.raises(ConfigurationError):
            _options(stage1_variants={-1: "x"}).validate()
        with pytest.raises(ConfigurationError):
            _options(stage1_variants={0: ""}).validate()

    def test_unknown_variant_falls_back_to_default(self):
        case = make_case("potrf", 8)
        result = SLinGen(_options(
            autotune=False,
            stage1_variants={0: "no-such-variant"})).generate_result(
                case.program)
        assert check_case(case, result)


# ---------------------------------------------------------------------------
# Generator strategy delegation
# ---------------------------------------------------------------------------


class TestGeneratorStrategies:
    def test_default_search_is_model_driven_two_phase(self):
        case = make_case("trtri", 8)
        result = SLinGen(_options(autotune=True, max_variants=6)) \
            .generate_result(case.program)
        assert len(result.candidates) == 6
        # Model scores equal the candidates' roofline cycles.
        for cand in result.candidates:
            if cand["score"] is not None:
                assert cand["score"] == cand["cycles"]

    @pytest.mark.parametrize("strategy", ["exhaustive", "random",
                                          "hill-climb"])
    def test_strategies_generate_correct_code(self, strategy):
        case = make_case("potrf", 8)
        result = SLinGen(_options(autotune=True, max_variants=6),
                         strategy=strategy,
                         measurer=InterpreterMeasurer()).generate_result(
            case.program, nominal_flops=case.nominal_flops)
        assert check_case(case, result)
        assert 1 <= len(result.candidates) <= 6

    def test_generator_raises_when_nothing_measures(self):
        class DeadMeasurer(InterpreterMeasurer):
            name = "dead"

            def measure(self, function, estimate=None, inputs=None):
                raise MeasurementError("no backend")

        case = make_case("potrf", 4)
        with pytest.raises(AutotuningError):
            SLinGen(_options(autotune=True, max_variants=4),
                    strategy="exhaustive",
                    measurer=DeadMeasurer()).generate_result(case.program)

    def test_empirical_generator_bypasses_content_store(self):
        """A custom strategy/measurer changes which kernel wins without
        changing the cache key, so such generators must not touch the
        content-addressed store (stored results stay pure functions of
        their key)."""
        store = MemoryKernelStore()
        case = make_case("potrf", 4)
        SLinGen(_options(), store=store, strategy="exhaustive",
                measurer=InterpreterMeasurer()).generate_result(case.program)
        assert len(store) == 0
        SLinGen(_options(), store=store).generate_result(case.program)
        assert len(store) == 1


# ---------------------------------------------------------------------------
# The autotuner
# ---------------------------------------------------------------------------


class TestAutotuner:
    def test_tune_persists_record(self, tmp_path):
        case = make_case("potrf", 4)
        db = TuningDB(root=str(tmp_path))
        tuner = Autotuner(db=db, measurer="interpreter",
                          strategy="hill-climb", budget=8, seed=0)
        record = tuner.tune_case(case, options=_options())
        assert record.key in db
        assert record.evaluations <= 8
        assert record.best_score <= record.baseline_score
        assert record.backend == "interpreter"
        assert record.label == "potrf:4"
        assert db.get(record.key) == record

    def test_tuned_record_replays_exactly(self, tmp_path):
        case = make_case("potrf", 4)
        tuner = Autotuner(db=TuningDB(root=str(tmp_path)),
                          measurer="interpreter", strategy="exhaustive",
                          budget=10, seed=0)
        record = tuner.tune_case(case, options=_options())
        tuned = record.apply(_options())
        result = SLinGen(tuned).generate_result(
            case.program, nominal_flops=case.nominal_flops)
        assert len(result.candidates) == 1
        assert result.variant_label == record.best_label
        assert check_case(case, result)

    def test_tuning_is_deterministic_under_seed(self, tmp_path):
        case = make_case("trtri", 4)
        records = []
        for run in range(2):
            tuner = Autotuner(db=None, measurer="interpreter",
                              strategy="hill-climb", budget=6, seed=7)
            records.append(tuner.tune_case(case, options=_options()))
        assert records[0].best_label == records[1].best_label
        assert records[0].best_score == records[1].best_score
        assert [t["label"] for t in records[0].trials] \
            == [t["label"] for t in records[1].trials]

    def test_tuned_options_idempotent_via_db(self, tmp_path):
        case = make_case("potrf", 4)
        db = TuningDB(root=str(tmp_path))
        tuner = Autotuner(db=db, measurer="interpreter", budget=6)
        first = tuner.tuned_options_for_case(case, _options())
        hits_before = db.hits
        second = tuner.tuned_options_for_case(case, _options())
        assert first == second
        assert db.hits > hits_before       # answered from the database

    def test_tuned_options_without_tuning(self, tmp_path):
        case = make_case("potrf", 4)
        tuner = Autotuner(db=TuningDB(root=str(tmp_path)),
                          measurer="interpreter", budget=4)
        assert tuner.tuned_options(case.program,
                                   tune_if_missing=False) is None

    def test_partial_measurement_failure_still_tunes(self, tmp_path):
        """One variant failing to measure must not abort the session; only
        all-failed runs raise."""
        class FlakyMeasurer(InterpreterMeasurer):
            name = "flaky"

            def __init__(self):
                super().__init__()
                self.calls = 0

            def measure(self, function, estimate=None, inputs=None):
                self.calls += 1
                if self.calls > 1:
                    raise MeasurementError("boom")
                return super().measure(function, estimate=estimate,
                                       inputs=inputs)

        case = make_case("potrf", 4)
        tuner = Autotuner(db=TuningDB(root=str(tmp_path)),
                          measurer=FlakyMeasurer(), strategy="exhaustive",
                          budget=4, seed=0)
        record = tuner.tune_case(case, options=_options())
        assert record.evaluations == 4
        assert record.best_score == record.baseline_score  # only survivor
        assert sum(1 for t in record.trials if "error" in t) == 3

        class DeadMeasurer(InterpreterMeasurer):
            name = "dead"

            def measure(self, function, estimate=None, inputs=None):
                raise MeasurementError("no backend")

        dead = Autotuner(db=None, measurer=DeadMeasurer(),
                         strategy="exhaustive", budget=2)
        with pytest.raises(AutotuningError):
            dead.tune_case(case, options=_options())

    @pytest.mark.skipif(not measure_mod.compiler_available(),
                        reason="no C compiler")
    def test_compiled_tuning_never_worse_than_default(self, tmp_path):
        """Acceptance: with a C compiler, the tuned kernel's measured time
        is <= the default-options kernel's on the same machine (both
        scores come from the same tuning session's measurements)."""
        case = make_case("potrf", 4)
        tuner = Autotuner(db=TuningDB(root=str(tmp_path)),
                          measurer="compiled", strategy="hill-climb",
                          budget=8, seed=0)
        record = tuner.tune_case(case, options=_options())
        assert record.unit == "seconds"
        assert record.best_score <= record.baseline_score


# ---------------------------------------------------------------------------
# Service integration
# ---------------------------------------------------------------------------


class TestServiceIntegration:
    def _tuned_setup(self, tmp_path, spec_n=4):
        case = make_case("potrf", spec_n)
        db = TuningDB(root=str(tmp_path / "tuning"))
        tuner = Autotuner(db=db, measurer="interpreter",
                          strategy="hill-climb", budget=8, seed=0)
        record = tuner.tune_case(case, options=_options())
        return case, db, record

    def test_tuned_options_honored_on_cache_miss(self, tmp_path):
        case, db, record = self._tuned_setup(tmp_path)
        service = KernelService(store=MemoryKernelStore(), tuning_db=db)
        response = service.generate(GenerationRequest(
            program=case.program, options=_options(),
            nominal_flops=case.nominal_flops))
        assert response.tuned and not response.cache_hit
        assert response.result.options.autotune is False
        assert response.result.options.stage1_variants \
            == record.stage1_variants
        assert response.result.variant_label == record.best_label
        assert check_case(case, response.result)
        assert service.stats.snapshot()["tuned"] == 1

    def test_tuned_and_untuned_keys_differ(self, tmp_path):
        case, db, _ = self._tuned_setup(tmp_path)
        request = GenerationRequest(program=case.program, options=_options())
        tuned = KernelService(store=MemoryKernelStore(), tuning_db=db)
        plain = KernelService(store=MemoryKernelStore())
        assert tuned.request_key(request) != plain.request_key(request)

    def test_second_tuned_request_is_cache_hit(self, tmp_path):
        case, db, _ = self._tuned_setup(tmp_path)
        store = DiskKernelStore(root=str(tmp_path / "kernels"))
        service = KernelService(store=store, tuning_db=db)
        request = GenerationRequest(program=case.program, options=_options())
        first = service.generate(request)
        second = service.generate(request)
        assert not first.cache_hit and second.cache_hit
        assert second.tuned
        assert second.key == first.key

    def test_generate_many_routes_tuned_options(self, tmp_path):
        case, db, record = self._tuned_setup(tmp_path)
        other = make_case("trtri", 4)          # no tuning record
        service = KernelService(store=MemoryKernelStore(), tuning_db=db)
        responses = service.generate_many(
            [GenerationRequest(program=case.program, options=_options()),
             GenerationRequest(program=other.program, options=_options())],
            parallel=False)
        assert responses[0].tuned and not responses[1].tuned
        assert responses[0].result.variant_label == record.best_label

    def test_scalar_request_ignores_vectorized_record(self, tmp_path):
        """Records are keyed by the vectorize axis: a scalar request must
        not pick up (or be forced onto) the vectorized tuning winner."""
        case, db, _ = self._tuned_setup(tmp_path)   # vectorized record
        service = KernelService(store=MemoryKernelStore(), tuning_db=db)
        response = service.generate(GenerationRequest(
            program=case.program, options=_options(vectorize=False)))
        assert not response.tuned
        assert response.result.options.vectorize is False
        assert response.result.function.vector_width == 1

    def test_scalar_and_vector_tuning_coexist(self, tmp_path):
        case = make_case("potrf", 4)
        db = TuningDB(root=str(tmp_path))
        tuner = Autotuner(db=db, measurer="interpreter", budget=4)
        vec = tuner.tune_case(case, options=_options())
        sca = tuner.tune_case(case, options=_options(vectorize=False))
        assert vec.key != sca.key
        assert len(db) == 2
        assert db.get(vec.key).options["vectorize"] is True
        assert db.get(sca.key).options["vectorize"] is False

    def test_service_without_db_is_unchanged(self, tmp_path):
        case = make_case("potrf", 4)
        service = KernelService(store=MemoryKernelStore())
        response = service.generate(GenerationRequest(
            program=case.program, options=_options()))
        assert not response.tuned
        assert response.result.options.autotune is True

    def test_harness_routes_through_tuner(self, tmp_path):
        case = make_case("potrf", 4)
        db = TuningDB(root=str(tmp_path))
        tuner = Autotuner(db=db, measurer="interpreter", budget=6)
        generated, flops_per_cycle, correct = measure_slingen(
            case, _options(), validate=True, tuner=tuner)
        assert correct
        assert generated.options.autotune is False
        assert tuning_key(case.program, tuner.machine) in db


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestTuningCLI:
    def test_tune_report_export_purge(self, tmp_path, capsys):
        db_dir = str(tmp_path / "db")
        assert tuning_main(["--db", db_dir, "report", "potrf:4"]) == 1
        capsys.readouterr()

        code = tuning_main(["--db", db_dir, "tune", "potrf:4",
                            "--backend", "interpreter", "--budget", "4",
                            "--strategy", "hill-climb"])
        assert code == 0
        assert "potrf:4" in capsys.readouterr().out

        assert tuning_main(["--db", db_dir, "report", "potrf:4"]) == 0
        assert "potrf:4" in capsys.readouterr().out

        assert tuning_main(["--db", db_dir, "export"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 1 and doc[0]["label"] == "potrf:4"

        out_file = str(tmp_path / "records.json")
        assert tuning_main(["--db", db_dir, "export",
                            "--output", out_file]) == 0
        capsys.readouterr()
        assert json.load(open(out_file))[0]["label"] == "potrf:4"

        assert tuning_main(["--db", db_dir, "purge", "--yes"]) == 0
        assert "purged 1" in capsys.readouterr().out

    def test_bad_spec_errors_cleanly(self, tmp_path, capsys):
        code = tuning_main(["--db", str(tmp_path), "tune", "nope:4",
                            "--backend", "interpreter"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_module_entry_point_smoke(self, tmp_path):
        """The CI smoke invocation: tune one small kernel with the
        interpreter backend and assert a record landed in the DB."""
        env = dict(os.environ, PYTHONPATH="src",
                   REPRO_TUNING_DB=str(tmp_path / "db"))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        run = subprocess.run(
            [sys.executable, "-m", "repro.tuning", "tune", "potrf:4",
             "--backend", "interpreter", "--budget", "4"],
            capture_output=True, text=True, cwd=root, env=env)
        assert run.returncode == 0, run.stderr
        check = subprocess.run(
            [sys.executable, "-m", "repro.tuning", "report", "potrf:4"],
            capture_output=True, text=True, cwd=root, env=env)
        assert check.returncode == 0, check.stdout + check.stderr
        assert "potrf:4" in check.stdout
