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
bit-identity oracles.
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
    "reference_deltas",
    "resolve_fault",
    "sequential_accept",
    "slow_start",
]
