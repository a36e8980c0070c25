"""Meta-tests on the public API surface: exports resolve, docs exist."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.api",
    "repro.service",
    "repro.core",
    "repro.netlist",
    "repro.geometry",
    "repro.evaluation",
    "repro.timing",
    "repro.legalize",
    "repro.baselines",
    "repro.congestion",
    "repro.thermal",
    "repro.eco",
    "repro.floorplan",
    "repro.viz",
    "repro.observability",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_module_docstrings(package):
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} has no module docstring"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_callables_documented(package):
    """Every exported class and function carries a docstring."""
    module = importlib.import_module(package)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, f"{package}: no docstring on {undocumented}"


def test_top_level_version():
    import repro

    assert repro.__version__


def test_no_private_leaks():
    """__all__ never exports underscore-prefixed names."""
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            assert not name.startswith("_"), f"{package} exports private {name}"


class TestFacadeStability:
    """The repro.api facade is the stable entry point: its signature is a
    compatibility contract, so a keyword rename or a positionalized flag
    must fail loudly here before it reaches downstream callers."""

    def test_place_signature(self):
        from repro.api import place

        sig = inspect.signature(place)
        params = list(sig.parameters.values())
        assert params[0].name == "source"
        assert params[0].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        keyword_only = {
            p.name: p.default for p in params[1:]
        }
        assert all(
            p.kind is inspect.Parameter.KEYWORD_ONLY for p in params[1:]
        ), "everything after source must be keyword-only"
        assert keyword_only["config"] is None
        assert keyword_only["legalize"] is True
        assert keyword_only["seed"] == 0

    def test_place_many_signature(self):
        from repro.api import place_many

        sig = inspect.signature(place_many)
        params = list(sig.parameters.values())
        assert params[0].name == "sources"
        keyword_only = {p.name: p.default for p in params[1:]}
        assert all(
            p.kind is inspect.Parameter.KEYWORD_ONLY for p in params[1:]
        )
        assert keyword_only["seeds"] is None
        assert keyword_only["workers"] is None
        assert keyword_only["mp_context"] == "auto"

    def test_facade_exported_at_top_level(self):
        import repro

        assert repro.place is importlib.import_module("repro.api").place
        for name in ("place", "place_many", "FlowResult", "PlacementJob",
                     "JobResult", "BatchResult"):
            assert name in repro.__all__

    def test_place_circuit_shim_removed(self):
        """The 1.1-era ``place_circuit`` shim is gone as of 1.3.0; the
        migration path is :func:`repro.api.place` (see docs/API.md)."""
        import repro
        import repro.core

        assert not hasattr(repro, "place_circuit")
        assert not hasattr(repro.core, "place_circuit")
        assert "place_circuit" not in repro.__all__
        assert "place_circuit" not in repro.core.__all__

    def test_batch_engine_removed(self):
        """The ``ProcessPoolExecutor`` batch engine is gone as of 1.4.0:
        batches run on the placement service.  The migrations are
        ``run_batch(jobs, workers=N)`` -> ``place_many(jobs, workers=N)``
        or ``Client.map(jobs)``, and ``place_service(...)`` ->
        ``serve_jobs(jobs)`` (see docs/API.md)."""
        import repro
        import repro.api

        for name in ("run_batch", "place_service"):
            assert not hasattr(repro, name)
            assert name not in repro.__all__
        assert not hasattr(repro.api, "place_service")
        with pytest.raises(ImportError):
            importlib.import_module("repro.parallel")
        # The job value objects kept their top-level names.
        from repro.service import jobs

        assert repro.PlacementJob is jobs.PlacementJob
        assert repro.JobResult is jobs.JobResult
        assert repro.BatchResult is jobs.BatchResult

    def test_client_submit_signature(self):
        """`Client.submit` is the one enqueue point for both transports —
        its keywords are a wire-visible contract (they become spec keys)."""
        from repro.api import Client

        sig = inspect.signature(Client.submit)
        params = list(sig.parameters.values())
        assert params[0].name == "self"
        assert params[1].name == "source"
        assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        keyword_only = {p.name: p.default for p in params[2:]}
        assert all(
            p.kind is inspect.Parameter.KEYWORD_ONLY for p in params[2:]
        ), "everything after source must be keyword-only"
        assert keyword_only["seed"] == 0
        assert keyword_only["config"] is None
        assert keyword_only["legalize"] is True
        assert keyword_only["tenant"] == "default"
        assert keyword_only["priority"] == 0
        assert keyword_only["subscribe"] is False
        assert keyword_only["job_id"] is None

    def test_client_constructors(self):
        """Both transports come from classmethod constructors, and the
        raw ``__init__`` stays out of the contract."""
        from repro.api import Client

        local = inspect.signature(Client.local)
        assert set(local.parameters) == {
            "service", "service_config", "events"
        }
        connect = inspect.signature(Client.connect)
        params = connect.parameters
        assert list(params)[:2] == ["host", "port"]
        assert params["host"].default == "127.0.0.1"
        assert params["token"].default == "default"
        assert params["token"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_job_handle_surface(self):
        from repro.api import JobHandle

        for method in ("stream", "result", "cancel"):
            assert callable(getattr(JobHandle, method))
        sig = inspect.signature(JobHandle.__init__)
        assert {"job_id", "admitted", "shed_reason", "cached"} <= set(
            sig.parameters
        )
