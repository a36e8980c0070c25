"""Checkpoint/recovery: format round trip and bit-identical resume."""

import hashlib

import numpy as np
import pytest

from repro import (
    KraftwerkPlacer,
    PlacerCheckpoint,
    PlacerConfig,
    load_checkpoint,
    save_checkpoint,
)
from repro.core import CheckpointMismatchError, netlist_signature


def _coords_digest(placement) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(placement.x).tobytes())
    h.update(np.ascontiguousarray(placement.y).tobytes())
    return h.hexdigest()


class TestFormat:
    def test_roundtrip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(7)
        ckpt = PlacerCheckpoint(
            iteration=12,
            x=rng.standard_normal(9),
            y=rng.standard_normal(9),
            e_x=rng.standard_normal(5),
            e_y=rng.standard_normal(5),
            warm={"response_x": rng.standard_normal(5)},
            history=[{"iteration": 0, "hpwl_m": 0.25}],
            best={
                "score": 0.5,
                "hpwl_m": 0.2,
                "x": rng.standard_normal(9),
                "y": rng.standard_normal(9),
                "e_x": rng.standard_normal(5),
                "e_y": rng.standard_normal(5),
            },
            signature="sig/9c/3n/6p/5m",
            elapsed_seconds=1.5,
        )
        path = save_checkpoint(tmp_path / "state.npz", ckpt)
        loaded = load_checkpoint(path)
        assert loaded.iteration == 12
        assert loaded.signature == "sig/9c/3n/6p/5m"
        assert loaded.elapsed_seconds == 1.5
        assert loaded.history == [{"iteration": 0, "hpwl_m": 0.25}]
        np.testing.assert_array_equal(loaded.x, ckpt.x)
        np.testing.assert_array_equal(loaded.e_y, ckpt.e_y)
        np.testing.assert_array_equal(
            loaded.warm["response_x"], ckpt.warm["response_x"]
        )
        assert loaded.best is not None
        assert loaded.best["hpwl_m"] == 0.2
        np.testing.assert_array_equal(loaded.best["x"], ckpt.best["x"])

    def test_write_is_atomic(self, tmp_path):
        path = tmp_path / "state.npz"
        ckpt = PlacerCheckpoint(
            iteration=0, x=np.zeros(2), y=np.zeros(2),
            e_x=np.zeros(2), e_y=np.zeros(2),
        )
        save_checkpoint(path, ckpt)
        assert path.exists()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, x=np.zeros(3))
        with pytest.raises(ValueError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_signature_fingerprints_structure(self, tiny_circuit, small_circuit):
        assert netlist_signature(tiny_circuit.netlist) != netlist_signature(
            small_circuit.netlist
        )


class TestResume:
    def test_interrupted_run_resumes_bit_identically(
        self, tiny_circuit, tmp_path
    ):
        full = KraftwerkPlacer(tiny_circuit.netlist, tiny_circuit.region).place(
            max_iterations=8
        )

        # "Kill" the run at iteration 4 by capping max_iterations, leaving
        # only the on-disk checkpoint behind, then resume in a brand-new
        # placer instance.
        path = tmp_path / "state.npz"
        KraftwerkPlacer(
            tiny_circuit.netlist,
            tiny_circuit.region,
            PlacerConfig(checkpoint_path=str(path), checkpoint_every=4),
        ).place(max_iterations=4)
        assert path.exists()
        resumed = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region
        ).place(max_iterations=8, resume_from=str(path))

        assert _coords_digest(resumed.placement) == _coords_digest(
            full.placement
        )
        assert resumed.iterations == full.iterations
        assert resumed.hpwl_m == full.hpwl_m
        # History covers the full run, including the pre-kill iterations.
        assert [s.iteration for s in resumed.history] == [
            s.iteration for s in full.history
        ]

    def test_resume_accepts_checkpoint_instance(self, tiny_circuit, tmp_path):
        path = tmp_path / "state.npz"
        KraftwerkPlacer(
            tiny_circuit.netlist,
            tiny_circuit.region,
            PlacerConfig(checkpoint_path=str(path), checkpoint_every=2),
        ).place(max_iterations=2)
        ckpt = load_checkpoint(path)
        result = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region
        ).place(max_iterations=4, resume_from=ckpt)
        assert result.iterations == 4
        assert np.isfinite(result.hpwl_m)

    def test_resume_onto_wrong_netlist_rejected(
        self, tiny_circuit, small_circuit, tmp_path
    ):
        path = tmp_path / "state.npz"
        KraftwerkPlacer(
            tiny_circuit.netlist,
            tiny_circuit.region,
            PlacerConfig(checkpoint_path=str(path), checkpoint_every=2),
        ).place(max_iterations=2)
        with pytest.raises(ValueError, match="checkpoint was taken for"):
            KraftwerkPlacer(
                small_circuit.netlist, small_circuit.region
            ).place(max_iterations=4, resume_from=str(path))

    def test_checkpoint_written_at_final_iteration(self, tiny_circuit, tmp_path):
        # checkpoint_every=10 > max_iterations=3: the end-of-run snapshot
        # must still appear so a longer follow-up run can continue from it.
        path = tmp_path / "state.npz"
        KraftwerkPlacer(
            tiny_circuit.netlist,
            tiny_circuit.region,
            PlacerConfig(checkpoint_path=str(path), checkpoint_every=10),
        ).place(max_iterations=3)
        assert load_checkpoint(path).iteration == 3

    def test_checkpointing_does_not_perturb_results(self, tiny_circuit, tmp_path):
        plain = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region
        ).place(max_iterations=5)
        with_ckpt = KraftwerkPlacer(
            tiny_circuit.netlist,
            tiny_circuit.region,
            PlacerConfig(
                checkpoint_path=str(tmp_path / "s.npz"), checkpoint_every=1
            ),
        ).place(max_iterations=5)
        assert _coords_digest(plain.placement) == _coords_digest(
            with_ckpt.placement
        )


def _run_until_torn_write(path, once_path):
    """Child entry point: place with checkpointing, die mid-rename.

    ``corrupt_checkpoint(mode="kill_mid_write", nth_save=2)`` kills the
    process between the tmp-file write and the atomic rename of the
    second snapshot — the torn-write crash the rename protects against.
    """
    from repro import GeneratorSpec, KraftwerkPlacer, PlacerConfig, generate_circuit
    from repro.testing import corrupt_checkpoint

    circuit = generate_circuit(
        GeneratorSpec(name="tiny", num_cells=60, num_rows=4)
    )
    with corrupt_checkpoint(
        mode="kill_mid_write", nth_save=2, once_path=once_path
    ):
        KraftwerkPlacer(
            circuit.netlist,
            circuit.region,
            PlacerConfig(checkpoint_path=str(path), checkpoint_every=2),
        ).place(max_iterations=8)


class TestResumeValidity:
    """A snapshot resumes only the run that wrote it: same netlist, same
    trajectory knobs, and no further than the run's iteration limit."""

    def _snapshot(self, circuit, path, **knobs):
        KraftwerkPlacer(
            circuit.netlist,
            circuit.region,
            PlacerConfig(checkpoint_path=str(path), checkpoint_every=2,
                         **knobs),
        ).place(max_iterations=4)
        return path

    def test_resume_under_another_config_rejected(
        self, tiny_circuit, tmp_path
    ):
        path = self._snapshot(tiny_circuit, tmp_path / "s.npz",
                              K=0.2, seed=1)
        with pytest.raises(CheckpointMismatchError,
                           match="different config.*'K'.*'seed'"):
            KraftwerkPlacer(
                tiny_circuit.netlist, tiny_circuit.region,
                PlacerConfig(K=1.0, seed=7),
            ).place(max_iterations=8, resume_from=str(path))
        # A plain ValueError too, like a netlist mismatch.
        assert issubclass(CheckpointMismatchError, ValueError)

    def test_resume_onto_another_region_rejected(self, tiny_circuit, tmp_path):
        # Same netlist, same config, another utilization: only the
        # region differs, and the snapshot must still be refused.
        from repro.api import region_for_netlist

        netlist = tiny_circuit.netlist
        path = tmp_path / "s.npz"
        KraftwerkPlacer(
            netlist, region_for_netlist(netlist, 0.8),
            PlacerConfig(checkpoint_path=str(path), checkpoint_every=2),
        ).place(max_iterations=4)
        with pytest.raises(CheckpointMismatchError,
                           match="other netlist contents or another region"):
            KraftwerkPlacer(netlist, region_for_netlist(netlist, 0.6)).place(
                max_iterations=4, resume_from=str(path)
            )

    def test_snapshot_without_content_digest_rejected(
        self, tiny_circuit, tmp_path
    ):
        path = self._snapshot(tiny_circuit, tmp_path / "s.npz")
        ckpt = load_checkpoint(path)
        ckpt.digest = ""
        with pytest.raises(CheckpointMismatchError, match="digest missing"):
            KraftwerkPlacer(
                tiny_circuit.netlist, tiny_circuit.region
            ).place(max_iterations=8, resume_from=ckpt)

    def test_resume_past_the_limit_rejected(self, tiny_circuit, tmp_path):
        path = self._snapshot(tiny_circuit, tmp_path / "s.npz")
        with pytest.raises(CheckpointMismatchError,
                           match="iteration 4, past this run's limit of 3"):
            KraftwerkPlacer(
                tiny_circuit.netlist, tiny_circuit.region
            ).place(max_iterations=3, resume_from=str(path))

    def test_knobs_that_leave_the_trajectory_alone_may_change(
        self, tiny_circuit, tmp_path
    ):
        path = self._snapshot(tiny_circuit, tmp_path / "s.npz")
        full = KraftwerkPlacer(tiny_circuit.netlist, tiny_circuit.region).place(
            max_iterations=8
        )
        resumed = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region,
            PlacerConfig(checkpoint_path=str(tmp_path / "other.npz"),
                         checkpoint_every=3, deadline_seconds=600.0,
                         max_iterations=50),
        ).place(max_iterations=8, resume_from=str(path))
        assert _coords_digest(resumed.placement) == _coords_digest(
            full.placement
        )

    def test_resume_from_the_stopping_iteration_stops_there(self, tmp_path):
        """The snapshot of the iteration that met the stop rule resumes to
        the fresh run's answer, not one iteration past it."""
        from repro import make_circuit

        circuit = make_circuit("primary1", scale=0.05)
        path = tmp_path / "s.npz"
        fresh = KraftwerkPlacer(
            circuit.netlist, circuit.region,
            PlacerConfig(checkpoint_path=str(path), checkpoint_every=1),
        ).place()
        assert fresh.iterations < PlacerConfig().max_iterations
        resumed = KraftwerkPlacer(circuit.netlist, circuit.region).place(
            resume_from=str(path)
        )
        assert resumed.iterations == fresh.iterations
        assert resumed.converged == fresh.converged
        assert _coords_digest(resumed.placement) == _coords_digest(
            fresh.placement
        )


class TestTornWrite:
    def test_mid_write_kill_preserves_previous_snapshot(
        self, tiny_circuit, tmp_path
    ):
        import multiprocessing as mp

        from repro.core import try_load_checkpoint
        from repro.testing import KILL_EXIT_CODE

        path = tmp_path / "state.npz"
        process = mp.get_context("fork").Process(
            target=_run_until_torn_write,
            args=(str(path), str(tmp_path / "once")),
        )
        process.start()
        process.join(120)
        assert process.exitcode == KILL_EXIT_CODE

        # The torn write is visible (tmp file left behind), but the
        # committed snapshot is still the previous complete one.
        assert path.with_name(path.name + ".tmp").exists()
        ckpt = try_load_checkpoint(path)
        assert ckpt is not None and ckpt.iteration == 2

        # Resuming from it is bit-identical to an uninterrupted run.
        full = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region
        ).place(max_iterations=8)
        resumed = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region
        ).place(max_iterations=8, resume_from=str(path))
        assert _coords_digest(resumed.placement) == _coords_digest(
            full.placement
        )
        assert resumed.hpwl_m == full.hpwl_m
