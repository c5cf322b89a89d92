"""Tests for the continuous-performance subsystem (:mod:`repro.perf`):
manifests/suites, the append-only trajectory store's corruption tolerance
and append atomicity, the seed-migration shim, the noise-aware gate, the
deterministic trend report, and the CLI — plus the acceptance check that
the committed ``BENCH_trajectory.jsonl`` gates clean."""

import json
import os
import threading

import pytest

from repro.errors import PerfError
from repro.perf import (
    GateReport,
    Manifest,
    ManifestEntry,
    TrajectoryStore,
    compatibility_issues,
    environment_fingerprint,
    gate_records,
    load_manifest,
    migrate_seed_records,
    run_manifest,
    suite,
    suite_names,
    trend_report,
    unknown_environment,
)
from repro.perf.manifest import resolve
from repro.perf.trajectory import TRAJECTORY_SCHEMA_VERSION, record_is_valid

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A plausible-but-fixed environment for synthetic records; tests that
#: need *incompatibility* perturb copies of it.
ENV = {"python": "3.11.0", "numpy": "2.0.0", "platform": "linux",
       "machine": "x86_64", "cpu_count": 8, "cc": "gcc",
       "vectorize": True, "vector_width": 4}


def make_record(entry="potrf:4/numpy/untuned", run_id="r1", median=1e-5,
                mad=0.0, env=ENV, commit="abc", ts=1.0, suite_name="smoke"):
    kernel, backend, mode = entry.split("/")
    return {
        "schema": TRAJECTORY_SCHEMA_VERSION, "run_id": run_id,
        "commit": commit, "ts": ts, "suite": suite_name, "entry": entry,
        "kernel": kernel, "size": 4, "backend": backend, "mode": mode,
        "applied": True, "repeats": 3, "median_seconds": median,
        "mad_seconds": mad, "flops": None, "correct": None,
        "env": dict(env),
    }


def make_run(run_id, medians, **kwargs):
    """One synthetic run: ``medians`` maps entry id -> median seconds."""
    return [make_record(entry=e, run_id=run_id, median=m, **kwargs)
            for e, m in sorted(medians.items())]


class TestManifest:
    def test_builtin_suites(self):
        assert set(suite_names()) == {"smoke", "figures", "full"}
        for name in suite_names():
            manifest = suite(name)
            assert manifest.entries
            assert len(set(manifest.entry_ids())) == len(manifest.entries)

    def test_smoke_suite_matches_the_seed_grid(self):
        # The smoke grid is deliberately the BENCH_seed.json grid (so
        # migrated seed records land on the same entry ids) plus the
        # warm-generation pseudo-entry.
        ids = suite("smoke").entry_ids()
        assert "potrf:4/numpy/untuned" in ids
        assert "gemm:8/compiled/untuned" in ids
        assert "potrf:8/pipeline/warm" in ids
        assert len(ids) == 2 * 2 * 3 + 1

    def test_pipeline_pseudo_entry_only_pairs_with_warm(self):
        ManifestEntry(kernel="potrf:8", backend="pipeline", mode="warm")
        with pytest.raises(PerfError, match="only combine"):
            ManifestEntry(kernel="potrf:8", backend="pipeline")
        with pytest.raises(PerfError, match="only combine"):
            ManifestEntry(kernel="potrf:8", backend="numpy", mode="warm")

    def test_entry_validation(self):
        with pytest.raises(PerfError):
            ManifestEntry(kernel="potrf:4", backend="fortran")
        with pytest.raises(PerfError):
            ManifestEntry(kernel="potrf:4", backend="numpy", mode="casual")
        with pytest.raises(PerfError):
            ManifestEntry(kernel="potrf:4", backend="numpy", repeats=0)

    def test_duplicate_entries_rejected(self):
        entry = ManifestEntry(kernel="potrf:4", backend="numpy")
        with pytest.raises(PerfError, match="duplicate"):
            Manifest(name="dup", entries=[entry, entry])

    def test_load_manifest_object_and_bare_list(self, tmp_path):
        body = [{"kernel": "potrf:4", "backend": "numpy"}]
        obj = tmp_path / "m1.json"
        obj.write_text(json.dumps({"name": "mine", "entries": body}))
        bare = tmp_path / "m2.json"
        bare.write_text(json.dumps(body))
        assert load_manifest(str(obj)).name == "mine"
        assert load_manifest(str(bare)).entry_ids() == \
            ["potrf:4/numpy/untuned"]

    def test_resolve_prefers_explicit_manifest(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"name": "custom",
             "entries": [{"kernel": "gemm:4", "backend": "interpreter"}]}))
        assert resolve("smoke", str(path)).name == "custom"
        assert resolve("figures", None).name == "figures"
        with pytest.raises(PerfError):
            resolve("no-such-suite", None)


class TestEnvironment:
    def test_fingerprint_is_complete_and_self_compatible(self):
        env = environment_fingerprint()
        for key in ("python", "numpy", "platform", "machine", "cpu_count",
                    "vectorize", "vector_width"):
            assert key in env
        assert compatibility_issues(env, env) == []

    def test_unknown_environment_is_never_comparable(self):
        env = environment_fingerprint()
        assert compatibility_issues(env, unknown_environment("seed"))
        assert compatibility_issues(unknown_environment("seed"), env)

    def test_field_mismatches_are_reported(self):
        a = dict(ENV)
        for key, value in [("cpu_count", 2), ("cc", "clang"),
                           ("vectorize", False), ("machine", "arm64"),
                           ("numpy", "1.26.0")]:
            b = dict(ENV)
            b[key] = value
            assert compatibility_issues(a, b), key


class TestTrajectoryStore:
    def test_roundtrip_and_run_grouping(self, tmp_path):
        store = TrajectoryStore(path=str(tmp_path / "t.jsonl"))
        assert store.load() == []           # missing file = empty history
        store.append(make_run("r1", {"potrf:4/numpy/untuned": 1e-5}))
        store.append(make_run("r2", {"potrf:4/numpy/untuned": 2e-5}))
        assert [run_id for run_id, _ in store.runs()] == ["r1", "r2"]
        assert store.latest_run()[0] == "r2"
        assert store.stats()["records"] == 2

    def test_append_refuses_invalid_records(self, tmp_path):
        store = TrajectoryStore(path=str(tmp_path / "t.jsonl"))
        with pytest.raises(PerfError):
            store.append([{"schema": 999}])
        assert not os.path.exists(store.path)   # nothing half-written

    def test_corruption_tolerance(self, tmp_path):
        path = tmp_path / "t.jsonl"
        store = TrajectoryStore(path=str(path))
        store.append(make_run("r1", {"potrf:4/numpy/untuned": 1e-5,
                                     "gemm:4/numpy/untuned": 2e-5}))
        blob = path.read_bytes()
        # garbage bytes in the middle + a torn (truncated) final append
        torn = json.dumps(make_record(run_id="r2")).encode()[:40]
        path.write_bytes(blob[:len(blob) // 2].rsplit(b"\n", 1)[0]
                         + b"\n\x00\xff not json\n"
                         + blob[len(blob) // 2:].split(b"\n", 1)[1]
                         + torn)
        records = store.load()
        assert store.dropped >= 1
        assert all(record_is_valid(r) for r in records)
        # a decodable but schema-foreign line is dropped and counted too
        with open(path, "ab") as handle:
            handle.write(b'{"schema": 999}\n')
        before = len(store.load())
        dropped = store.dropped
        assert dropped >= 2
        # and appending still works after corruption
        store.append(make_run("r3", {"potrf:4/numpy/untuned": 3e-5}))
        assert len(store.load()) == before + 1

    def test_concurrent_appends_interleave_whole_lines(self, tmp_path):
        store_path = str(tmp_path / "t.jsonl")
        n_threads, n_appends = 8, 25
        barrier = threading.Barrier(n_threads)

        def writer(tid):
            store = TrajectoryStore(path=store_path)
            barrier.wait()
            for i in range(n_appends):
                store.append([make_record(run_id=f"w{tid}", ts=float(i))])

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reader = TrajectoryStore(path=store_path)
        records = reader.load()
        assert reader.dropped == 0          # no torn lines
        assert len(records) == n_threads * n_appends
        per_writer = {}
        for record in records:
            per_writer.setdefault(record["run_id"], []).append(record["ts"])
        # each writer's own lines appear in its append order
        assert all(ts == sorted(ts) for ts in per_writer.values())


class TestSeedMigration:
    def test_committed_seed_file_migrates(self):
        records = migrate_seed_records(
            os.path.join(REPO_ROOT, "BENCH_seed.json"))
        assert len(records) == 12
        assert all(record_is_valid(r) for r in records)
        assert all(r["run_id"] == "seed" for r in records)
        ids = {r["entry"] for r in records}
        assert ids <= set(suite("smoke").entry_ids())
        # unknown environment: migrated history is never a gate baseline
        env = environment_fingerprint()
        assert all(compatibility_issues(env, r["env"]) for r in records)

    def test_bad_seed_rows_are_rejected(self, tmp_path):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps([{"kernel": "potrf"}]))
        with pytest.raises(PerfError):
            migrate_seed_records(str(path))
        path.write_text("{}")
        with pytest.raises(PerfError):
            migrate_seed_records(str(path))


class TestGate:
    ENTRY = "potrf:4/numpy/untuned"

    def history(self):
        return (make_run("r1", {self.ENTRY: 1.00e-5})
                + make_run("r2", {self.ENTRY: 1.02e-5})
                + make_run("r3", {self.ENTRY: 0.98e-5}))

    def test_ok_and_exit_zero(self):
        candidate = make_run("r4", {self.ENTRY: 1.05e-5})
        report = gate_records(candidate, self.history())
        assert [d.status for d in report.decisions] == ["ok"]
        assert report.exit_code() == 0

    def test_injected_regression_fails(self):
        candidate = make_run("r4", {self.ENTRY: 5.0e-5})     # 5x slower
        report = gate_records(candidate, self.history())
        assert [d.status for d in report.decisions] == ["regression"]
        assert report.exit_code() == 1
        assert report.exit_code(warn_timing=True) == 0       # downgraded
        doc = report.to_json(warn_timing=True)
        assert doc["counts"]["regression"] == 1
        assert doc["exit_code"] == 0

    def test_improvement_is_reported(self):
        candidate = make_run("r4", {self.ENTRY: 0.2e-5})
        report = gate_records(candidate, self.history())
        assert [d.status for d in report.decisions] == ["improvement"]
        assert report.exit_code() == 0

    def test_noise_widens_the_threshold(self):
        # 1.35x slower: past the 25% floor, but the candidate's own MAD
        # is 10% of the baseline median, so the threshold is 1.6.
        candidate = make_run("r4", {self.ENTRY: 1.35e-5}, mad=0.1e-5)
        report = gate_records(candidate, self.history())
        decision = report.decisions[0]
        assert decision.threshold == pytest.approx(1.6)
        assert decision.status == "ok"

    def test_incompatible_history_is_refused(self):
        other = dict(ENV, cpu_count=64)
        history = make_run("r1", {self.ENTRY: 1e-9}, env=other)
        candidate = make_run("r2", {self.ENTRY: 1e-5})       # "10000x slower"
        report = gate_records(candidate, history)
        decision = report.decisions[0]
        assert decision.status == "no-baseline"
        assert decision.baseline_runs == 0
        assert any("incompatible" in note for note in decision.notes)
        assert report.exit_code() == 0

    def test_candidates_own_run_is_excluded_from_baseline(self):
        candidate = make_run("r1", {self.ENTRY: 1e-5})
        # history *contains* the candidate and nothing else comparable
        report = gate_records(candidate, candidate)
        assert report.decisions[0].status == "no-baseline"

    def test_structural_errors_always_fail(self):
        empty = gate_records([], self.history())
        assert empty.structural_errors
        assert empty.exit_code(warn_timing=True) == 1
        mixed = gate_records(make_run("a", {self.ENTRY: 1e-5})
                             + make_run("b", {self.ENTRY: 1e-5}),
                             self.history())
        assert any("mixes" in e for e in mixed.structural_errors)
        assert mixed.exit_code(warn_timing=True) == 1
        invalid = gate_records([{"schema": 999}], self.history())
        assert invalid.structural_errors
        assert invalid.exit_code(warn_timing=True) == 1

    def test_uncovered_suite_entries_are_reported_not_run(self):
        candidate = make_run("r4", {self.ENTRY: 1e-5})
        report = gate_records(candidate, self.history(),
                              suite_entries=[self.ENTRY,
                                             "gemm:8/compiled/untuned"])
        statuses = {d.entry: d.status for d in report.decisions}
        assert statuses["gemm:8/compiled/untuned"] == "not-run"
        assert report.exit_code() == 0      # informational, not structural

    def test_report_table_renders(self):
        report = gate_records(make_run("r4", {self.ENTRY: 1e-5}),
                              self.history())
        assert isinstance(report, GateReport)
        assert self.ENTRY in report.format_table()


class TestTrendReport:
    def test_deterministic_on_a_fixed_trajectory(self):
        history = (make_run("r1", {"a/numpy/untuned": 4e-5,
                                   "b/numpy/untuned": 2e-5})
                   + make_run("r2", {"a/numpy/untuned": 2e-5}))
        doc = trend_report(history)
        assert doc == trend_report(history)     # pure function of input
        assert json.dumps(doc, sort_keys=True) == \
            json.dumps(trend_report(list(history)), sort_keys=True)
        by_entry = {e["entry"]: e for e in doc["entries"]}
        trend = by_entry["a/numpy/untuned"]
        assert trend["runs"] == 2
        assert trend["first_median"] == pytest.approx(4e-5)
        assert trend["latest_median"] == pytest.approx(2e-5)
        assert trend["latest_vs_first"] == pytest.approx(0.5)
        assert [e["entry"] for e in doc["entries"]] == \
            sorted(by_entry)                    # stable ordering


class TestRunner:
    def test_tiny_manifest_end_to_end(self, tmp_path):
        manifest = Manifest(name="tiny", entries=[
            ManifestEntry(kernel="potrf:4", backend="interpreter",
                          repeats=2)])
        store = TrajectoryStore(path=str(tmp_path / "t.jsonl"))
        run = run_manifest(manifest, validate=True)
        assert [r["entry"] for r in run.records] == \
            ["potrf:4/interpreter/untuned"]
        record = run.records[0]
        assert record_is_valid(record)
        assert record["correct"] is True
        assert record["median_seconds"] > 0
        assert record["env"] == run.env
        assert compatibility_issues(record["env"], record["env"]) == []
        store.append(run.records)
        assert store.latest_run()[0] == run.run_id

    def test_pipeline_entry_measures_warm_generation(self):
        manifest = Manifest(name="gen", entries=[
            ManifestEntry(kernel="potrf:4", backend="pipeline",
                          mode="warm", repeats=2)])
        run = run_manifest(manifest, validate=True)
        record = run.records[0]
        assert record["entry"] == "potrf:4/pipeline/warm"
        assert record_is_valid(record)
        assert record["applied"] is True     # warm passes hit every phase
        assert record["correct"] is True     # warm C == cold C
        assert record["median_seconds"] > 0

    def test_unknown_kernel_is_a_perf_error(self):
        manifest = Manifest(name="bad", entries=[
            ManifestEntry(kernel="nosuch:4", backend="interpreter")])
        with pytest.raises(PerfError):
            run_manifest(manifest)


class TestCli:
    def run_cli(self, *argv):
        from repro.perf.__main__ import main
        return main(list(argv))

    def test_full_cycle(self, tmp_path, capsys, monkeypatch):
        # Fixed timing samples: the test checks the gate's logic, not how
        # steady the host's interpreter timings happen to be.
        import repro.timing

        def fixed_samples(invoke, restore, repeats, warmup, inner):
            restore()
            invoke()
            return [1e-4] * repeats

        monkeypatch.setattr(repro.timing, "batched_time", fixed_samples)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"kernel": "potrf:4", "backend": "interpreter", "repeats": 2}]))
        trajectory = str(tmp_path / "t.jsonl")
        for _ in range(2):
            assert self.run_cli("--trajectory", trajectory, "run",
                                "--manifest", str(manifest)) == 0
        capsys.readouterr()
        assert self.run_cli("--trajectory", trajectory, "gate",
                            "--manifest", str(manifest), "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["exit_code"] == 0
        assert doc["counts"]["regression"] == 0
        assert self.run_cli("--trajectory", trajectory, "report",
                            "--json") == 0
        trends = json.loads(capsys.readouterr().out)
        assert trends["entries"][0]["runs"] == 2
        assert self.run_cli("--trajectory", trajectory, "baseline",
                            "--manifest", str(manifest), "--json") == 0
        base = json.loads(capsys.readouterr().out)
        assert base["baselines"][0]["runs"] == 2

    def test_gate_rejects_injected_regression(self, tmp_path, capsys):
        store = TrajectoryStore(path=str(tmp_path / "t.jsonl"))
        store.append(make_run("r1", {"potrf:4/numpy/untuned": 1e-5}))
        store.append(make_run("r2", {"potrf:4/numpy/untuned": 1e-5}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            make_run("r3", {"potrf:4/numpy/untuned": 9e-5})))
        assert self.run_cli("--trajectory", store.path, "gate",
                            "--candidate", str(bad)) == 1
        capsys.readouterr()
        assert self.run_cli("--trajectory", store.path, "gate",
                            "--candidate", str(bad), "--warn-timing") == 0

    def test_gate_without_runs_or_candidate_errors(self, tmp_path, capsys):
        assert self.run_cli("--trajectory", str(tmp_path / "no.jsonl"),
                            "gate") == 1
        capsys.readouterr()

    def test_migrate_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        trajectory = str(tmp_path / "t.jsonl")
        assert self.run_cli("--trajectory", trajectory,
                            "migrate-seed") == 0
        capsys.readouterr()
        store = TrajectoryStore(path=trajectory)
        assert store.stats()["records"] == 12
        # migrated history alone can never satisfy the gate's baselines
        assert self.run_cli("--trajectory", trajectory, "baseline",
                            "--json") == 0
        base = json.loads(capsys.readouterr().out)
        assert all(b["runs"] == 0 for b in base["baselines"])

    def test_errors_exit_two(self, tmp_path, capsys):
        assert self.run_cli("--trajectory", str(tmp_path / "t.jsonl"),
                            "run", "--manifest",
                            str(tmp_path / "missing.json")) == 2
        capsys.readouterr()


class TestCommittedTrajectory:
    """The acceptance criterion: the committed trajectory gates clean."""

    PATH = os.path.join(REPO_ROOT, "BENCH_trajectory.jsonl")

    def test_committed_trajectory_is_wholly_valid(self):
        store = TrajectoryStore(path=self.PATH)
        records = store.load()
        assert store.dropped == 0
        assert len(records) >= 24       # seed migration + >= 2 fresh runs
        assert len(store.runs()) >= 3

    def test_gate_passes_on_the_committed_trajectory(self, capsys):
        from repro.perf.__main__ import main
        assert main(["--trajectory", self.PATH, "gate", "--suite",
                     "smoke", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["structural_errors"] == []
        assert doc["counts"]["regression"] == 0
