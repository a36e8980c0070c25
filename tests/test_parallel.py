"""Batches on the placement service + the repro.api facade.

A batch is a list of ordinary service jobs (:meth:`repro.api.Client.map`,
:func:`repro.place_many`, ``repro batch``/``repro sweep``).  The contract:
per-job results are bit-identical to :func:`repro.place` of the same spec
at any worker count, one diverged job never kills its siblings, and
observability output merges per-job traces into one summary.  Worker
counts here stay small (1/2) so the suite runs on single-core CI boxes.
"""

import json
import os
import pickle
import threading

import numpy as np
import pytest

import repro
from repro import (
    BatchResult,
    FlowResult,
    JobResult,
    KraftwerkPlacer,
    PlacementJob,
    PlacerConfig,
    load_checkpoint,
    place,
    place_many,
)
from repro.api import Client, region_for_netlist, resolve_source
from repro.netlist import GeneratorSpec, generate_circuit, save_bookshelf, save_netlist
from repro.observability import read_trace_jsonl
from repro.observability.bench import merge_batch_record
from repro.service import RetryPolicy, ServiceConfig, resolve_mp_context


@pytest.fixture(scope="module")
def tiny_circuit():
    return generate_circuit(
        GeneratorSpec(name="tiny", seed=0, num_cells=60, num_rows=4)
    )


def tiny_jobs(seeds, **kwargs):
    kwargs.setdefault("legalize", False)
    kwargs.setdefault("max_iterations", 8)
    return [PlacementJob(source="tiny", seed=s, **kwargs) for s in seeds]


def serial_flows(seeds, **kwargs):
    """The serial baseline: one :func:`repro.place` per job spec."""
    kwargs.setdefault("legalize", False)
    kwargs.setdefault("max_iterations", 8)
    return [place("tiny", seed=s, **kwargs) for s in seeds]


# ----------------------------------------------------------------------
# PlacerConfig serialization round-trip
# ----------------------------------------------------------------------
class TestConfigSerialization:
    def test_round_trip(self):
        cfg = PlacerConfig(K=1.0, net_model="b2b", seed=7,
                           deadline_seconds=3.0, checkpoint_every=5)
        assert PlacerConfig.from_dict(cfg.to_dict()) == cfg

    def test_default_round_trip(self):
        assert PlacerConfig.from_dict(PlacerConfig().to_dict()) == PlacerConfig()
        assert PlacerConfig.from_dict(None) == PlacerConfig()
        assert PlacerConfig.from_dict({}) == PlacerConfig()

    def test_dict_is_json_safe(self):
        blob = json.dumps(PlacerConfig().to_dict())
        assert PlacerConfig.from_dict(json.loads(blob)) == PlacerConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown PlacerConfig keys"):
            PlacerConfig.from_dict({"no_such_knob": 1})

    def test_from_args(self):
        import argparse

        ns = argparse.Namespace(
            fast=True, net_model="b2b", seed=3, verbose=False,
            deadline=2.5, checkpoint="/tmp/x.npz", checkpoint_every=4,
        )
        cfg = PlacerConfig.from_args(ns)
        assert cfg.K == 1.0
        assert cfg.net_model == "b2b"
        assert cfg.seed == 3
        assert cfg.deadline_seconds == 2.5
        assert cfg.checkpoint_path == "/tmp/x.npz"
        assert cfg.checkpoint_every == 4

    def test_from_args_partial_namespace(self):
        import argparse

        cfg = PlacerConfig.from_args(argparse.Namespace())
        assert cfg == PlacerConfig()
        cfg = PlacerConfig.from_args(argparse.Namespace(), seed=9)
        assert cfg.seed == 9

    def test_checkpoint_carries_config(self, tiny_circuit, tmp_path):
        from repro.core import load_checkpoint

        ckpt = tmp_path / "c.npz"
        cfg = PlacerConfig(checkpoint_path=str(ckpt), checkpoint_every=2)
        KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region, cfg
        ).place(max_iterations=2)
        loaded = load_checkpoint(ckpt)
        assert PlacerConfig.from_dict(loaded.config) == cfg


# ----------------------------------------------------------------------
# Result objects: frozen, picklable
# ----------------------------------------------------------------------
class TestResultObjects:
    def test_placement_result_frozen_and_picklable(self, tiny_circuit):
        result = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region
        ).place(max_iterations=3)
        with pytest.raises(Exception):
            result.converged = True
        clone = pickle.loads(pickle.dumps(result))
        assert np.array_equal(clone.placement.x, result.placement.x)
        assert clone.iterations == result.iterations
        assert clone.history[0].seconds == result.history[0].seconds
        assert (
            clone.history[0].empty_square_ratio
            == result.history[0].empty_square_ratio
        )

    def test_flow_result_frozen_and_picklable(self):
        flow = place("tiny", legalize=True, seed=0, max_iterations=6)
        with pytest.raises(Exception):
            flow.hpwl_m = 0.0
        clone = pickle.loads(pickle.dumps(flow))
        assert clone.final_hpwl_m == flow.final_hpwl_m
        assert np.array_equal(clone.final.x, flow.final.x)
        assert clone.config == flow.config

    def test_flow_result_summary_json_safe(self):
        flow = place("tiny", legalize=False, seed=0, max_iterations=4)
        summary = json.loads(json.dumps(flow.summary()))
        assert summary["name"] == "tiny"
        assert summary["legal_hpwl_m"] is None
        assert summary["final_hpwl_m"] == flow.hpwl_m


# ----------------------------------------------------------------------
# The place() facade
# ----------------------------------------------------------------------
class TestPlaceFacade:
    def test_accepts_generated_circuit(self, tiny_circuit):
        flow = place(tiny_circuit, legalize=False, max_iterations=4)
        assert flow.name == "tiny"
        assert flow.hpwl_m > 0

    def test_accepts_netlist_with_derived_region(self, tiny_circuit):
        flow = place(tiny_circuit.netlist, legalize=False, max_iterations=4)
        assert flow.iterations >= 1

    def test_accepts_netlist_region_tuple(self, tiny_circuit):
        flow = place(
            (tiny_circuit.netlist, tiny_circuit.region),
            legalize=False, max_iterations=4,
        )
        assert flow.name == tiny_circuit.netlist.name

    def test_accepts_suite_name_and_bench_size(self):
        assert place("tiny", legalize=False, max_iterations=3).name == "tiny"
        flow = place("fract", scale=0.3, legalize=False, max_iterations=3)
        assert flow.name == "fract"

    def test_accepts_netlist_file(self, tiny_circuit, tmp_path):
        path = tmp_path / "tiny.netlist"
        save_netlist(tiny_circuit.netlist, path)
        flow = place(str(path), legalize=False, max_iterations=3)
        assert flow.iterations >= 1

    def test_accepts_bookshelf_aux(self, tiny_circuit, tmp_path):
        aux = save_bookshelf(
            tiny_circuit.netlist, tiny_circuit.region, tmp_path / "tiny"
        )
        flow = place(aux, legalize=False, max_iterations=3)
        assert flow.iterations >= 1

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="cannot resolve"):
            place("no-such-circuit-anywhere")
        with pytest.raises(TypeError):
            place(12345)

    def test_seed_wins_over_config(self):
        cfg = PlacerConfig(seed=99)
        flow = place("tiny", config=cfg, seed=5, legalize=False,
                     max_iterations=3)
        assert flow.seed == 5
        assert flow.config["seed"] == 5
        assert cfg.seed == 99  # caller's config untouched

    def test_matches_manual_flow_bitwise(self, tiny_circuit):
        flow = place(tiny_circuit, legalize=False, seed=0)
        manual = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region, PlacerConfig(seed=0)
        ).place()
        assert np.array_equal(flow.placement.x, manual.placement.x)
        assert np.array_equal(flow.placement.y, manual.placement.y)

    def test_legalize_produces_legal_result(self):
        flow = place("tiny", legalize=True, seed=0)
        assert flow.legalized is not None
        assert flow.legal_hpwl_m == flow.final_hpwl_m
        assert flow.final is flow.legalized

    def test_region_for_netlist(self, tiny_circuit):
        region = region_for_netlist(tiny_circuit.netlist, 0.5)
        denser = region_for_netlist(tiny_circuit.netlist, 0.9)
        assert region.width * region.height > denser.width * denser.height

    def test_resolve_source_explicit_region_wins(self, tiny_circuit):
        _, region, _ = resolve_source(
            tiny_circuit.netlist, region=tiny_circuit.region
        )
        assert region is tiny_circuit.region


# ----------------------------------------------------------------------
# Batch determinism: same seeds -> same HPWLs at any worker count
# ----------------------------------------------------------------------
class TestBatchDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return serial_flows(range(4))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_matches_serial_bitwise(self, serial, workers):
        batch = place_many(tiny_jobs(range(4)), workers=workers)
        assert batch.hpwls == tuple(f.final_hpwl_m for f in serial)
        for job, flow in zip(batch.jobs, serial):
            assert job.name == f"tiny-s{flow.seed}" and job.seed == flow.seed
            assert job.iterations == flow.iterations
            assert job.positions_hash == flow.positions_hash()
            assert np.array_equal(job.flow.placement.x, flow.placement.x)

    def test_ci_worker_count_matches_serial(self, serial):
        """CI runs this suite under REPRO_TEST_WORKERS={1,4}; locally it
        defaults to a 2-worker service."""
        workers = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
        batch = place_many(tiny_jobs(range(4)), workers=workers)
        assert batch.hpwls == tuple(f.final_hpwl_m for f in serial)

    def test_results_in_job_order(self):
        batch = place_many(tiny_jobs(range(4)), workers=2)
        assert [j.index for j in batch.jobs] == list(range(4))
        assert [j.seed for j in batch.jobs] == list(range(4))

    def test_distinct_seeds_distinct_placements(self, serial):
        batch = place_many(tiny_jobs(range(4)), workers=2)
        assert len(set(batch.hpwls)) > 1


# ----------------------------------------------------------------------
# Failure isolation
# ----------------------------------------------------------------------
class TestFailureIsolation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_diverged_job_does_not_kill_batch(self, workers):
        jobs = tiny_jobs(range(3))
        jobs[1] = PlacementJob(
            source="tiny", seed=1, legalize=False, max_iterations=8,
            inject_faults=(("corrupt_field", {"at_iteration": 1}),),
        )
        batch = place_many(jobs, workers=workers, keep_placements=False)
        oks = [j.ok for j in batch.jobs]
        assert oks == [True, False, True]
        failed = batch.jobs[1]
        assert failed.error_type == "NumericalHealthError"
        assert failed.error
        assert failed.flow is None
        assert len(batch.ok_jobs) == 2 and len(batch.failed_jobs) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_source_is_isolated(self, workers):
        jobs = tiny_jobs(range(2))
        jobs.append(PlacementJob(source="definitely-not-a-circuit"))
        batch = place_many(jobs, workers=workers, keep_placements=False)
        assert [j.ok for j in batch.jobs] == [True, True, False]
        assert batch.jobs[2].error_type == "ValueError"

    def test_unknown_fault_site_is_isolated(self):
        batch = place_many(
            [PlacementJob(source="tiny", inject_faults=(("no_site", {}),))],
            workers=1,
        )
        assert not batch.jobs[0].ok
        assert "unknown fault site" in batch.jobs[0].error

    def test_deadline_job_times_out_others_finish(self):
        jobs = tiny_jobs(range(2))
        slow_cfg = PlacerConfig(deadline_seconds=0.02).to_dict()
        jobs.append(PlacementJob(
            source="tiny", seed=2, legalize=False, config=slow_cfg,
            inject_faults=(("burn_deadline", {"seconds": 0.03}),),
        ))
        batch = place_many(jobs, workers=1)
        assert batch.jobs[0].ok and batch.jobs[1].ok
        assert batch.jobs[2].ok and batch.jobs[2].timed_out

    def test_shed_job_comes_back_failed_with_the_reason(self):
        # A draining service admits nothing; no finished job can change
        # that, so map hands the sheds back instead of waiting.
        with Client.local(service_config=ServiceConfig(workers=1)) as client:
            client.drain()
            batch = client.map(tiny_jobs(range(2)))
        assert [j.ok for j in batch.jobs] == [False, False]
        assert all(j.error_type == "shed" for j in batch.jobs)
        assert all(j.error == "draining" for j in batch.jobs)


class TestFaultInjectionAcrossStartMethods:
    """Fault hooks must reach service workers under every start method.

    ``fork`` workers inherit the parent's in-memory hook registry, but
    ``spawn``/``forkserver`` workers start from a clean interpreter — the
    pool worker must re-install faults from ``REPRO_FAULT_SPECS`` (see
    :func:`repro.testing.faults.install_env_hooks`), or chaos tests
    silently stop injecting anything the moment the start method changes.
    """

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_env_faults_reach_workers(self, method):
        import multiprocessing as mp

        from repro.core import health
        from repro.testing import env_faults

        if method not in mp.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        registry_before = dict(health._FAULT_HOOKS)
        # One worker runs both jobs in order; the process-lifetime hook's
        # call counter means it fires during job 0's iteration 1 and never
        # again.  One attempt per job, so the failure is not retried away.
        config = ServiceConfig(
            workers=1, mp_context=method,
            retry=RetryPolicy(max_attempts=1),
        )
        with env_faults([("corrupt_field", {"at_iteration": 1})]):
            with Client.local(service_config=config) as client:
                batch = client.map(tiny_jobs([0, 1]), keep_placements=False)
        assert batch.mp_context == method
        # The fault fired *in the worker*: the first job diverged there.
        assert [j.ok for j in batch.jobs] == [False, True]
        assert batch.jobs[0].error_type == "NumericalHealthError"
        # ...while the parent's own hook registry was never touched.
        assert dict(health._FAULT_HOOKS) == registry_before


# ----------------------------------------------------------------------
# Aggregates + merged observability
# ----------------------------------------------------------------------
class TestBatchAggregates:
    @pytest.fixture(scope="class")
    def batch(self, tmp_path_factory):
        trace_dir = tmp_path_factory.mktemp("traces")
        result = place_many(
            tiny_jobs(range(3)), workers=1, trace_dir=trace_dir
        )
        return result, trace_dir

    def test_best_and_median(self, batch):
        result, _ = batch
        assert result.best_hpwl_m == min(result.hpwls)
        assert result.best.final_hpwl_m == result.best_hpwl_m
        assert (min(result.hpwls) <= result.median_hpwl_m
                <= max(result.hpwls))

    def test_speedup_accounting(self, batch):
        result, _ = batch
        assert result.serial_seconds_estimate == pytest.approx(
            sum(j.seconds for j in result.jobs)
        )
        assert result.speedup_estimate > 0

    def test_per_job_traces_written_and_merged(self, batch):
        result, trace_dir = batch
        for job in result.jobs:
            assert job.trace_path is not None
            events = read_trace_jsonl(job.trace_path)
            assert events
            assert job.phases.get("place", 0.0) > 0.0
        merged = result.merged_phases()
        assert merged["place"] == pytest.approx(
            sum(j.phases["place"] for j in result.jobs), abs=1e-5
        )

    def test_summary_schema(self, batch, tmp_path):
        result, _ = batch
        summary = result.summary()
        assert summary["schema"] == "repro-batch/1"
        assert summary["n_jobs"] == 3 and summary["n_ok"] == 3
        assert summary["best_job"] == result.best.name
        out = result.write_summary(tmp_path / "batch.json")
        assert json.loads(out.read_text())["n_jobs"] == 3

    def test_batch_result_picklable(self, batch):
        result, _ = batch
        clone = pickle.loads(pickle.dumps(result))
        assert clone.hpwls == result.hpwls

    def test_merge_batch_record(self, batch, tmp_path):
        result, _ = batch
        bench = tmp_path / "BENCH.json"
        # A pre-repro-bench/2 report: top-level mirror keys (hpwl_m, …) are
        # stripped by the compat shim, real content (runs) is preserved.
        bench.write_text(json.dumps({
            "schema": "repro-bench/1", "hpwl_m": 1.0,
            "runs": [{"size": "tiny"}],
        }))
        data = merge_batch_record(bench, result.summary())
        on_disk = json.loads(bench.read_text())
        assert on_disk["schema"] == "repro-bench/2"
        assert "hpwl_m" not in on_disk  # legacy mirror stripped
        assert on_disk["runs"] == [{"size": "tiny"}]  # report preserved
        assert on_disk["batch"]["n_jobs"] == 3
        assert "jobs" not in on_disk["batch"]  # headline scalars only
        assert data == on_disk


# ----------------------------------------------------------------------
# place_many
# ----------------------------------------------------------------------
class TestPlaceMany:
    def test_multi_start_fanout(self):
        batch = place_many("tiny", seeds=range(3), workers=2,
                           legalize=False, max_iterations=8)
        assert len(batch.jobs) == 3
        assert [j.seed for j in batch.jobs] == [0, 1, 2]
        assert all(j.ok for j in batch.jobs)

    def test_source_sequence(self, tiny_circuit):
        batch = place_many(
            ["tiny", tiny_circuit], workers=1, legalize=False,
            max_iterations=4,
        )
        assert len(batch.jobs) == 2 and all(j.ok for j in batch.jobs)

    def test_prebuilt_jobs_pass_through(self):
        batch = place_many(tiny_jobs([0, 1]), workers=1)
        assert [j.seed for j in batch.jobs] == [0, 1]

    def test_seed_source_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="seeds for"):
            place_many(["tiny", "tiny", "tiny"], seeds=[0, 1], workers=1)

    def test_matches_place_bitwise(self):
        batch = place_many("tiny", seeds=[5], workers=1, legalize=False)
        single = place("tiny", seed=5, legalize=False)
        assert batch.jobs[0].final_hpwl_m == single.final_hpwl_m
        assert np.array_equal(
            batch.jobs[0].flow.placement.x, single.placement.x
        )


# ----------------------------------------------------------------------
# Batch plumbing
# ----------------------------------------------------------------------
class TestEnginePlumbing:
    def test_resolve_workers(self):
        """``None`` means the CPU count, capped at one worker per job;
        there is no in-process mode, so fewer than one worker is refused."""
        batch = place_many(tiny_jobs([0, 1]), workers=None)
        assert batch.workers == min(os.cpu_count() or 1, 2)
        assert place_many(tiny_jobs([0]), workers=8).workers == 1
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                place_many(tiny_jobs([0]), workers=workers)

    def test_resolve_mp_context(self):
        assert resolve_mp_context("auto").get_start_method() in (
            "fork", "spawn"
        )
        with pytest.raises(ValueError, match="not available"):
            resolve_mp_context("no-such-method")

    def test_progress_streams_in_completion_order(self):
        seen = []
        caller = threading.get_ident()
        place_many(
            tiny_jobs(range(3)), workers=2, keep_placements=False,
            progress=lambda r, done, total: seen.append(
                (r.name, done, total, threading.get_ident())
            ),
        )
        assert [s[1] for s in seen] == [1, 2, 3]
        assert all(s[2] == 3 for s in seen)
        assert sorted(s[0] for s in seen) == ["tiny-s0", "tiny-s1", "tiny-s2"]
        # Progress runs on the calling thread, never under the supervisor.
        assert all(s[3] == caller for s in seen)

    def test_empty_batch(self):
        batch = place_many([], workers=2)
        assert batch.jobs == () and batch.best is None
        assert batch.median_hpwl_m is None

    def test_checkpoint_dir_resume_bit_identical(self, tmp_path):
        from repro.cli import main

        full = place("tiny", seed=0, legalize=False)
        common = ["batch", "--circuit", "tiny", "--jobs", "1",
                  "--workers", "1", "--checkpoint-dir", str(tmp_path)]
        assert main(common + ["--max-iterations", "4",
                              "--checkpoint-every", "2"]) == 0
        assert (tmp_path / "tiny-s0.ckpt.npz").exists()
        out = tmp_path / "resumed.json"
        assert main(common + ["--out", str(out)]) == 0
        [job] = json.loads(out.read_text())["jobs"]
        assert job["resumed_iteration"] == 4
        assert job["final_hpwl_m"] == full.final_hpwl_m
        assert job["positions_hash"] == full.positions_hash()

    def test_checkpoint_dir_snapshot_of_another_region_is_refused(
        self, tmp_path, tiny_circuit
    ):
        """A snapshot left at the stopping iteration by a run at another
        utilization must not answer for this one: the job starts fresh
        and matches place() at its own utilization."""
        from repro.cli import main

        netlist = tmp_path / "tiny.netlist"
        save_netlist(tiny_circuit.netlist, netlist)
        common = ["batch", "--netlist", str(netlist), "--jobs", "1",
                  "--workers", "1", "--max-iterations", "4",
                  "--checkpoint-dir", str(tmp_path / "ckpt")]
        assert main(common + ["--utilization", "0.8"]) == 0
        [snapshot] = (tmp_path / "ckpt").glob("*.ckpt.npz")
        assert load_checkpoint(snapshot).iteration == 4
        out = tmp_path / "again.json"
        assert main(common + ["--utilization", "0.6", "--out", str(out)]) == 0
        [job] = json.loads(out.read_text())["jobs"]
        full = place(str(netlist), seed=0, legalize=False, utilization=0.6,
                     max_iterations=4)
        assert job["resumed_iteration"] is None
        assert job["final_hpwl_m"] == full.final_hpwl_m
        assert job["positions_hash"] == full.positions_hash()

    def test_job_config_dict_normalizes(self):
        job = PlacementJob(source="tiny", seed=4,
                           config=PlacerConfig(K=1.0))
        data = job.config_dict()
        assert data["K"] == 1.0 and data["seed"] == 4
        with pytest.raises(ValueError):
            PlacementJob(source="tiny", config={"bogus": 1}).config_dict()

    def test_display_names(self, tiny_circuit):
        assert PlacementJob(source="tiny", seed=2).display_name(0) == "tiny-s2"
        assert PlacementJob(source=tiny_circuit, seed=1).display_name(0) == (
            "tiny-s1"
        )
        assert PlacementJob(source="x", name="custom").display_name(0) == (
            "custom"
        )

    def test_map_larger_than_the_admission_limits(self):
        # Five jobs against room for two (one queued, one running): map
        # keeps its batch inside the limits instead of shedding the rest.
        seeds = [0, 1, 2, 3, 4]
        config = ServiceConfig(workers=1, max_queue_depth=1)
        with Client.local(service_config=config) as client:
            batch = client.map(tiny_jobs(seeds))
            report = client.report()
        assert all(job.ok for job in batch.jobs)
        assert report["n_shed"] == 0
        assert [j.final_hpwl_m for j in batch.jobs] == [
            f.final_hpwl_m for f in serial_flows(seeds)
        ]

    def test_map_resubmits_jobs_shed_for_capacity(self):
        # Two workers but room for one queued job: a submit that races
        # the dispatch of the previous one is shed, and map submits it
        # again once a job of the batch has finished.
        seeds = [0, 1, 2, 3, 4]
        config = ServiceConfig(workers=2, max_queue_depth=1)
        with Client.local(service_config=config) as client:
            batch = client.map(tiny_jobs(seeds))
        assert all(job.ok for job in batch.jobs)
        assert [j.positions_hash for j in batch.jobs] == [
            f.positions_hash() for f in serial_flows(seeds)
        ]

    def test_colliding_display_names_get_distinct_jobs(self):
        with Client.local(service_config=ServiceConfig(workers=1)) as client:
            batch = client.map(tiny_jobs([3, 3]))
            ids = [r["job_id"] for r in client.report()["jobs"]]
        assert [j.name for j in batch.jobs] == ["tiny-s3", "tiny-s3"]
        assert len(set(ids)) == 2
        assert batch.jobs[0].positions_hash == batch.jobs[1].positions_hash


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestBatchCLI:
    def test_batch_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "batch.json"
        code = main([
            "batch", "--circuit", "tiny", "--jobs", "3", "--workers", "2",
            "--max-iterations", "8", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["n_ok"] == 3
        assert "best / median" in capsys.readouterr().out

    def test_batch_compare_serial_identical(self, tmp_path, capsys):
        from repro.cli import main

        bench = tmp_path / "bench.json"
        code = main([
            "batch", "--circuit", "tiny", "--jobs", "2", "--workers", "2",
            "--max-iterations", "6", "--compare-serial",
            "--record-bench", str(bench),
        ])
        assert code == 0
        assert "bit-identical" in capsys.readouterr().out
        record = json.loads(bench.read_text())["batch"]
        assert record["hpwls_identical_to_serial"] is True
        assert "measured_speedup" in record

    def test_sweep_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "--circuit", "tiny", "--K", "0.2,1.0", "--seeds", "0",
            "--workers", "1", "--max-iterations", "6", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads(out.read_text())
        assert len(summary["combos"]) == 2
        assert "sweep tiny" in capsys.readouterr().out

    def test_batch_needs_design(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["batch", "--jobs", "2"])

    def test_no_in_process_mode(self, capsys):
        from repro.cli import main

        assert main(["batch", "--circuit", "tiny", "--jobs", "1",
                     "--workers", "0"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_batch_and_sweep_match_place(self, tmp_path, workers):
        """Per-job answers of both CLIs equal place() of the same spec."""
        from repro.cli import main

        out = tmp_path / "batch.json"
        assert main(["batch", "--circuit", "tiny", "--seeds", "1,2",
                     "--workers", workers, "--max-iterations", "6",
                     "--out", str(out)]) == 0
        for job in json.loads(out.read_text())["jobs"]:
            flow = place("tiny", seed=job["seed"], legalize=False,
                         max_iterations=6)
            assert job["final_hpwl_m"] == flow.final_hpwl_m
            assert job["positions_hash"] == flow.positions_hash()
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--circuit", "tiny", "--K", "1.0",
                     "--seeds", "3", "--workers", workers,
                     "--max-iterations", "6", "--out", str(out)]) == 0
        [job] = json.loads(out.read_text())["jobs"]
        flow = place("tiny", seed=3, config=PlacerConfig(K=1.0),
                     legalize=False, max_iterations=6)
        assert job["final_hpwl_m"] == flow.final_hpwl_m
        assert job["positions_hash"] == flow.positions_hash()
