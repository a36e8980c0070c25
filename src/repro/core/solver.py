"""Sparse linear solvers for the placement systems.

The paper solves ``C p + d + e = 0`` with a preconditioned conjugate-gradient
method (Section 4.1).  We implement Jacobi-preconditioned CG ourselves (the
matrix is symmetric positive definite once fixed connections or the center
anchor are present) and cross-check against scipy's CG in the tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..backend import NUMPY, Backend
from ..observability import NULL_TELEMETRY
from .health import NumericalHealthError, _FAULT_HOOKS, array_stats


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    # Recovery-ladder rungs that fired to produce this solution, in order
    # ("tighten", "cold_start", "direct", "anchored"); [] on the fast path.
    escalations: List[str] = field(default_factory=list)


class ShiftedOperator:
    """Reusable ``A + shift·I`` sharing ``A``'s CSR sparsity pattern.

    The placer needs several diagonally shifted copies of each axis matrix
    per transformation (response tether, spread pin).  Building them as
    ``A + shift * identity(n)`` runs a full structural sparse add every
    time; since the placer's matrices carry an explicitly stored diagonal,
    the shift only ever changes ``n`` existing data entries.  This wrapper
    locates the stored diagonal once, then produces each shifted matrix
    with one data copy and one scatter-add into a reused buffer.

    Each :meth:`shifted` call rewrites that shared buffer, so the matrix
    returned by the previous call is invalidated — use (or copy) one
    shifted matrix before requesting the next.
    """

    def __init__(self, A: sp.spmatrix, diag_positions: Optional[np.ndarray] = None):
        A = A.tocsr()
        self._A = A
        n = A.shape[0]
        if diag_positions is None:
            rows = np.repeat(np.arange(n), np.diff(A.indptr))
            diag_positions = np.flatnonzero(A.indices == rows)
        self._diag = diag_positions
        #: Whether every row stores a diagonal entry; without that, a shift
        #: would need structural changes and we fall back to the sparse add.
        self.has_full_diagonal = self._diag.size == n
        if self.has_full_diagonal:
            self._mat = sp.csr_matrix(
                (A.data.copy(), A.indices, A.indptr), shape=A.shape, copy=False
            )
            # The constructor may rewrap its inputs; mutate through the
            # matrix's own arrays so the shifted values are always visible.
            self._data = self._mat.data

    def shifted(self, shift: float) -> sp.csr_matrix:
        """``A + shift·I``; reuses one shared buffer on the fast path."""
        if not self.has_full_diagonal:
            n = self._A.shape[0]
            self._mat = (self._A + shift * sp.identity(n, format="csr")).tocsr()
            return self._mat
        np.copyto(self._data, self._A.data)
        if shift != 0.0:
            self._data[self._diag] += shift
        return self._mat

    def diagonal(self) -> np.ndarray:
        """Diagonal of the matrix the last :meth:`shifted` call returned,
        read from the stored diagonal entries rather than a CSR scan."""
        if not self.has_full_diagonal:
            return self._mat.diagonal()
        return self._data[self._diag]


def _cg_numpy(
    A: sp.csr_matrix,
    b: np.ndarray,
    inv_diag: np.ndarray,
    x0: Optional[np.ndarray],
    tol: float,
    max_iter: int,
):
    """The reference CG loop, tuned for small systems.

    The placer solves thousands of ~1k-variable systems per run, so the
    per-iteration Python/numpy dispatch overhead dominates the actual
    flops.  This loop keeps the classical recurrence bit-identical while
    eliminating the per-iteration allocations: the matvec writes into a
    reused buffer via the CSR kernel, the axpy updates go through one
    scratch array, and norms use the ``sqrt(dot)`` fast path (exactly what
    ``np.linalg.norm`` computes for 1-D real input).
    """
    n = A.shape[0]
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    Ap = np.zeros(n)
    tmp = np.empty(n)
    matvec = NUMPY.matvec
    r = b - matvec(A, x, out=Ap)
    target = tol * max(float(np.sqrt(np.dot(b, b))), 1e-300)
    z = inv_diag * r
    p = z.copy()
    rz = float(np.dot(r, z))
    res_norm = float(np.sqrt(np.dot(r, r)))
    iterations = 0
    while res_norm > target and iterations < max_iter:
        Ap = matvec(A, p, out=Ap)
        pAp = float(np.dot(p, Ap))
        if pAp <= 0.0:
            # Numerical breakdown; the matrix is not SPD enough to continue.
            break
        alpha = rz / pAp
        np.multiply(p, alpha, out=tmp)
        x += tmp
        np.multiply(Ap, alpha, out=tmp)
        r -= tmp
        np.multiply(inv_diag, r, out=z)
        rz_next = float(np.dot(r, z))
        beta = rz_next / rz
        rz = rz_next
        p *= beta
        p += z
        res_norm = float(np.sqrt(np.dot(r, r)))
        iterations += 1
    return x, iterations, res_norm, res_norm <= target


def _cg_device(
    backend: Backend,
    A: sp.csr_matrix,
    b: np.ndarray,
    inv_diag: np.ndarray,
    x0: Optional[np.ndarray],
    tol: float,
    max_iter: int,
):
    """Generic CG on an accelerator backend.

    The matrix is snapshotted to the device once per solve (the caller's
    :class:`ShiftedOperator` rewrites its host buffer between solves, so a
    cached device handle would go stale).  Scalar reductions synchronize;
    the loop is otherwise expressed in pure out-of-place backend ops, and
    the solution is brought back to numpy at the boundary so everything
    downstream (checkpoints, hashes, telemetry) stays host-side.
    """
    Ad = backend.csr_from_scipy(A)
    bd = backend.asarray(b)
    invd = backend.asarray(inv_diag)
    x = backend.zeros((A.shape[0],)) if x0 is None else backend.asarray(x0)
    r = bd - backend.matvec(Ad, x)
    target = tol * max(backend.norm(bd), 1e-300)
    z = invd * r
    p = z
    rz = backend.dot(r, z)
    res_norm = backend.norm(r)
    iterations = 0
    while res_norm > target and iterations < max_iter:
        Ap = backend.matvec(Ad, p)
        pAp = backend.dot(p, Ap)
        if pAp <= 0.0:
            break
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        z = invd * r
        rz_next = backend.dot(r, z)
        beta = rz_next / rz
        rz = rz_next
        p = z + beta * p
        res_norm = backend.norm(r)
        iterations += 1
    return backend.to_numpy(x), iterations, res_norm, res_norm <= target


def conjugate_gradient(
    A: sp.spmatrix,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
    telemetry=NULL_TELEMETRY,
    backend: Optional[Backend] = None,
    diag: Optional[np.ndarray] = None,
) -> SolveResult:
    """Jacobi-preconditioned CG for SPD systems.

    Terminates when ``||r|| <= tol * ||b||`` (or ``||r|| <= tol`` for a zero
    right-hand side).  ``telemetry`` accumulates ``cg_iterations`` /
    ``cg_solves`` counters onto the caller's open span.  ``backend`` routes
    the iteration to an accelerator; ``None`` (or the numpy backend) takes
    the reference path, which is bit-identical to the historical solver.
    ``diag`` is ``A``'s diagonal when the caller already holds it.
    """
    A = A.tocsr()
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix is {A.shape}, expected square")
    if b.shape != (n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({n},)")

    if diag is None:
        diag = A.diagonal()
    if np.any(diag <= 0):
        raise ValueError("matrix has non-positive diagonal entries; not SPD")
    inv_diag = 1.0 / diag

    if backend is None or backend.is_numpy:
        x, iterations, res_norm, converged = _cg_numpy(
            A, b, inv_diag, x0, tol, max_iter
        )
    else:
        x, iterations, res_norm, converged = _cg_device(
            backend, A, b, inv_diag, x0, tol, max_iter
        )
    telemetry.add("cg_solves", 1)
    telemetry.add("cg_iterations", iterations)
    result = SolveResult(
        x=x,
        iterations=iterations,
        residual_norm=res_norm,
        converged=converged,
    )
    if _FAULT_HOOKS:
        hook = _FAULT_HOOKS.get("cg")
        if hook is not None:
            result = hook(result, A, b) or result
    return result


#: Recovery-ladder rung names, in escalation order.
RECOVERY_RUNGS = ("tighten", "cold_start", "direct", "anchored")


def _healthy(result: SolveResult) -> bool:
    return result.converged and bool(np.isfinite(result.x).all())


def _try_direct(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """``spsolve`` that reports failure as NaNs instead of raising.

    A singular factorization raises ``RuntimeError`` or emits
    ``MatrixRankWarning`` (an error under warnings-as-errors test runs)
    depending on the scipy backend; the ladder wants a uniform "this rung
    produced no finite solution" signal either way.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        with np.errstate(all="ignore"):
            try:
                x = spla.spsolve(A.tocsc(), b)
            except RuntimeError:
                return np.full(A.shape[0], np.nan)
    return np.atleast_1d(np.asarray(x, dtype=np.float64))


def solve_with_recovery(
    A: sp.spmatrix,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    strict_tol: Optional[float] = None,
    max_iter: int = 1000,
    telemetry=NULL_TELEMETRY,
    iteration: Optional[int] = None,
    backend: Optional[Backend] = None,
    diag: Optional[np.ndarray] = None,
) -> SolveResult:
    """CG with an escalation ladder for non-convergent or divergent solves.

    The happy path is exactly one :func:`conjugate_gradient` call — same
    warm start, same tolerance, same result bit for bit.  When that solve
    fails to converge (stall, SPD breakdown) or produces non-finite values
    (divergence), recovery escalates one rung at a time:

    1. **tighten** — re-solve at ``strict_tol`` with a doubled iteration
       budget, warm-started from the failed iterate if it is finite (a
       loose adaptive tolerance may simply have been too optimistic);
    2. **cold_start** — discard the warm start entirely (a stale warm
       iterate from the previous transformation can park CG in a bad
       subspace) and re-solve from zero at ``strict_tol``;
    3. **direct** — sparse LU via :func:`scipy.sparse.linalg.spsolve`,
       bypassing CG altogether;
    4. **anchored** — direct solve of ``A + eps·I`` with a tiny diagonal
       anchor (``1e-6`` of the mean diagonal), for systems too
       ill-conditioned even for LU.

    ``backend`` applies to the CG rungs only; the direct rungs always run
    scipy's CPU factorization (robustness beats residency once CG has
    already failed).  ``diag`` is ``A``'s diagonal when the caller already
    holds it; every rung reuses the one copy.

    Each rung taken bumps a ``recovery_<rung>`` telemetry counter.  If the
    ladder is exhausted without a finite solution, or the right-hand side
    is already non-finite, a :class:`NumericalHealthError` (phase
    ``"solve"``) is raised.
    """
    if not np.isfinite(b).all():
        raise NumericalHealthError(
            "non-finite right-hand side; upstream forces are corrupt",
            iteration=iteration,
            phase="solve",
            stats=array_stats(b),
        )
    strict = tol if strict_tol is None else min(strict_tol, tol)
    escalations: List[str] = []
    iterations = 0

    def _escalate(rung: str) -> None:
        escalations.append(rung)
        telemetry.add(f"recovery_{rung}", 1)

    if diag is None:
        diag = A.diagonal()
    cg_usable = bool(np.isfinite(diag).all() and np.all(diag > 0))
    if cg_usable:
        result = conjugate_gradient(
            A, b, x0=x0, tol=tol, max_iter=max_iter, telemetry=telemetry,
            backend=backend, diag=diag,
        )
        if _healthy(result):
            return result
        iterations = result.iterations

        # Rung 1: tighten the tolerance, keep any finite progress made.
        _escalate("tighten")
        warm = result.x if np.isfinite(result.x).all() else x0
        if warm is not None and not np.isfinite(warm).all():
            warm = None
        result = conjugate_gradient(
            A, b, x0=warm, tol=strict, max_iter=2 * max_iter,
            telemetry=telemetry, backend=backend, diag=diag,
        )
        iterations += result.iterations
        if _healthy(result):
            return SolveResult(result.x, iterations, result.residual_norm,
                               True, escalations)

        # Rung 2: discard the warm start.
        _escalate("cold_start")
        result = conjugate_gradient(
            A, b, x0=None, tol=strict, max_iter=2 * max_iter,
            telemetry=telemetry, backend=backend, diag=diag,
        )
        iterations += result.iterations
        if _healthy(result):
            return SolveResult(result.x, iterations, result.residual_norm,
                               True, escalations)

    # Rung 3: direct sparse factorization.
    _escalate("direct")
    x = _try_direct(A, b)
    if np.isfinite(x).all():
        res = float(np.linalg.norm(b - A @ x))
        return SolveResult(np.asarray(x, dtype=np.float64), iterations,
                           res, True, escalations)

    # Rung 4: anchored re-solve (tiny diagonal regularization).
    _escalate("anchored")
    finite_diag = diag[np.isfinite(diag)]
    scale = float(np.abs(finite_diag).mean()) if finite_diag.size else 1.0
    eps = 1e-6 * max(scale, 1e-12)
    anchored = A + eps * sp.identity(A.shape[0], format="csr")
    x = _try_direct(anchored, b)
    if np.isfinite(x).all():
        res = float(np.linalg.norm(b - A @ x))
        return SolveResult(np.asarray(x, dtype=np.float64), iterations,
                           res, True, escalations)

    raise NumericalHealthError(
        "linear solve diverged and every recovery rung failed",
        iteration=iteration,
        phase="solve",
        stats={"escalations": tuple(escalations), **array_stats(x)},
    )


def solve_spd(
    A: sp.spmatrix,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
    telemetry=NULL_TELEMETRY,
    backend: Optional[Backend] = None,
) -> np.ndarray:
    """Solve an SPD system, falling back to a direct solve if CG stalls.

    ``telemetry`` is threaded through to the internal CG solve so its
    ``cg_solves`` / ``cg_iterations`` counters land on the caller's open
    span; the direct fallback additionally bumps ``direct_solves``.
    """
    result = conjugate_gradient(
        A, b, x0=x0, tol=tol, max_iter=max_iter, telemetry=telemetry,
        backend=backend,
    )
    if result.converged:
        return result.x
    telemetry.add("direct_solves", 1)
    return spla.spsolve(A.tocsc(), b)


def solve_kkt(
    C: sp.spmatrix,
    d: np.ndarray,
    A: sp.spmatrix,
    u: np.ndarray,
) -> np.ndarray:
    """Solve ``min 1/2 x^T C x + d^T x  s.t.  A x = u`` via the KKT system.

    Used by the GORDIAN baseline for its center-of-gravity constraints.
    Returns the primal solution only.
    """
    n = C.shape[0]
    m = A.shape[0]
    kkt = sp.bmat([[C, A.T], [A, None]], format="csc")
    rhs = np.concatenate([-d, u])
    solution = spla.spsolve(kkt, rhs)
    return solution[:n]
