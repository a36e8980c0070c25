"""Test-support utilities shipped with the package.

:mod:`repro.testing.faults` is the fault-injection harness used by the
robustness suite to prove that every guardrail and recovery path in the
placement pipeline actually fires.  It is importable from production code
paths' point of view, but installs nothing unless explicitly asked to.

:mod:`repro.testing.legal` is the shared legality oracle: one vectorized
:func:`~repro.testing.legal.assert_legal` that every legalizer test calls,
so "legal" means exactly one thing across the whole suite.

:mod:`repro.testing.improver` keeps the sequential accept loop and the
per-pin move pricing that the vectorized improver replaced, as its
bit-identity oracles; :mod:`repro.testing.reductions` does the same for
the segmented per-net reductions and the scatter assembly that the padded
degree-class kernel and the slot matrix replaced.
"""

from .faults import (
    FAULT_FACTORIES,
    FAULT_SPEC_ENV,
    FaultInjection,
    KILL_EXIT_CODE,
    burn_deadline,
    corrupt_checkpoint,
    corrupt_field,
    env_faults,
    fail_cg,
    hang_worker,
    install_env_hooks,
    install_process_faults,
    kill_worker,
    resolve_fault,
    slow_start,
)
from .improver import SequentialImprover, reference_deltas, sequential_accept
from .legal import assert_legal
from .reductions import (
    reference_assemble,
    reference_exclusive_x,
    reference_extents,
    reference_star_centroids,
)

__all__ = [
    "FAULT_FACTORIES",
    "FAULT_SPEC_ENV",
    "FaultInjection",
    "KILL_EXIT_CODE",
    "SequentialImprover",
    "assert_legal",
    "burn_deadline",
    "corrupt_checkpoint",
    "corrupt_field",
    "env_faults",
    "fail_cg",
    "hang_worker",
    "install_env_hooks",
    "install_process_faults",
    "kill_worker",
    "reference_assemble",
    "reference_deltas",
    "reference_exclusive_x",
    "reference_extents",
    "reference_star_centroids",
    "resolve_fault",
    "sequential_accept",
    "slow_start",
]
