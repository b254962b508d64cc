"""The any-size float kernels: the march and the reverse loop on float
lists, for a step system of any size, each solve through np.linalg.solve.

lcowind marches two states only, in the written-out kernels _march2 and
_reverse2.  These list loops state the same arithmetic for any size, one
operation at a time, and serve as the oracle those kernels are pinned to
bit for bit: with _solver replaced by the stated 2x2 solve
(test_kernels.factor2), _march and _reverse of two states must give
_march2's and _reverse2's every bit and every error.  A test runs whole
sweeps through them by monkeypatching primal._march2 and primal._reverse2,
which simulate, tangent_sweep and adjoint_sweep look up at call time.
Their bodies are kept as the library ran them for other sizes.
"""
import math
from operator import sub
from typing import Callable

import numpy as np

from lcowind.errors import AdjointDivergenceError, SingularStepError, StepConvergenceError
from lcowind.primal import _roundoff_floor, _vector_norm, step_coefficients


def _extended_residual(residual, u_n, t, alpha, beta_u_nm1, delta_u_nm2) -> list[float]:
    """Extended residual alpha u_n + R(u_n) + beta u_{n-1} + delta u_{n-2}
    of the float list u_n, R the bound residual called as R(*u_n, t), with
    its history terms beta u_{n-1} and delta u_{n-2} already formed as float
    lists, as they stay fixed over a physical step.  The sums run on Python
    floats, in the order of the formula."""
    return [alpha * x + r + b + d for x, r, b, d
            in zip(u_n, residual(*u_n, t), beta_u_nm1, delta_u_nm2)]


def _step_entries(jacobian, alpha, inv_dtau) -> list[float]:
    """Row-major entries of alpha I + J + inv_dtau I from J's, summed as
    the arrays alpha * np.eye(d_u) + J + inv_dtau * np.eye(d_u) sum them:
    (alpha + J_ii) + inv_dtau on the diagonal and 0.0 + J_ij off it, which
    turns a -0.0 into 0.0.  Adding inv_dtau = 0.0 leaves a sum with alpha
    > 0 unchanged, so the Newton limit needs no branch."""
    d_u = math.isqrt(len(jacobian))
    entries = [0.0 + j for j in jacobian]
    for i in range(0, d_u * d_u, d_u + 1):
        entries[i] = (alpha + jacobian[i]) + inv_dtau
    return entries



def _solver(entries, step=None) -> Callable:
    """The solve of the system with row-major entries: the returned function
    solves one right-hand side per call through np.linalg.solve, LAPACK
    dgesv, as a float list, and raises SingularStepError for step where the
    system is singular; each caller solves as soon as it has the function."""
    matrix = np.array(entries).reshape(-1, math.isqrt(len(entries)))

    def solve(rhs):
        try:
            return np.linalg.solve(matrix, rhs).tolist()
        except np.linalg.LinAlgError:
            raise SingularStepError(step) from None
    return solve



def _march(residual, jacobian, u0, dt, n_steps, inv_dtau, tol, max_inner, allow_unconverged):
    """Every physical step n = 1..n_steps of a march from the float list u0,
    at time n dt, with the bound residual and Jacobian, each called on the
    state's entries and the time: BDF1 at step 1, whose u_{-1} = u0 has no
    weight, and BDF2 after it.  Per step: the history terms beta u_{n-1}
    and delta u_{n-2} once, then from the predictor, 2.0 u_{n-1,i} -
    u_{n-2,i} from step 3 on and u_{n-1} before it, the extended residual,
    its norm and, while norm > tol and fewer than max_inner iterations ran,
    one update u - x, x the solve of the step system with _step_entries'
    matrix and the extended residual.  At a
    finite dtau the step's first update evaluates the Jacobian and forms the
    matrix, and every later update of the step solves with that matrix (a
    chord iteration); at inv_dtau = 0.0, the Newton limit, every update
    evaluates and forms it afresh.  A step that stops above tol raises
    StepConvergenceError with the roundoff floor at its last iterate unless
    allow_unconverged is set; no kernel warns.  Returns (states, iterations,
    norms): u0..u_N row-major in one flat list, and per step the iterations
    and the last norm, step 0's zeros first."""
    u_nm1 = u_nm2 = u0
    states, inner, norms = list(u0), [0], [0.0]
    bdf1, bdf2 = step_coefficients(1, dt), step_coefficients(2, dt)
    for n in range(1, n_steps + 1):
        alpha, beta, delta = bdf2 if n > 1 else bdf1
        t = n * dt
        beta_u_nm1, delta_u_nm2 = [beta * x for x in u_nm1], [delta * x for x in u_nm2]
        u = [2.0 * x - y for x, y in zip(u_nm1, u_nm2)] if n > 2 else list(u_nm1)
        extended = _extended_residual(residual, u, t, alpha, beta_u_nm1, delta_u_nm2)
        norm = _vector_norm(extended)
        its = 0
        while norm > tol and its < max_inner:
            if its == 0 or inv_dtau == 0.0:
                solve = _solver(_step_entries(jacobian(*u, t), alpha, inv_dtau), n)
            u = list(map(sub, u, solve(extended)))
            extended = _extended_residual(residual, u, t, alpha, beta_u_nm1, delta_u_nm2)
            norm = _vector_norm(extended)
            its += 1
        if not (norm <= tol or allow_unconverged):
            floor = _roundoff_floor(residual, u, t, alpha, beta, delta, u_nm1, u_nm2)
            raise StepConvergenceError(n, its, norm, floor, tol)
        u_nm1, u_nm2 = u, u_nm1
        states += u
        inner.append(its)
        norms.append(norm)
    return states, inner, norms


def _reverse(seeds, a_rows, inv_dtau, beta, delta, tol, max_inner):
    """The reverse loop of one adjoint sweep, on float lists, for steps n
    from N = len(a_rows) down to 1.  The tangent runs it too, in its Newton
    limit on the rows of A_n, steps reversed (see tangent_sweep).

    seeds holds step n's seed at row n; entry n - 1 of a_rows holds the
    row-major entries of A_n^T; inv_dtau is 1/dtau, and beta and delta are
    the BDF2 coefficients that couple step n to steps n + 1 and n + 2.  Each
    step forms M_n^T's diagonal as a_ii + inv_dtau, leaving the entries off
    it as given, and its right-hand side (s - beta lambda_{n+1}) - delta
    lambda_{n+2}, leaving out the terms of steps beyond N, and sets ubar_n:
    as rhs itself in the Newton limit, inv_dtau = 0.0, else by the
    fixed-point loop warm-started from ubar_{n+1}.  M_n - A_n = I/dtau makes
    the iteration matrix (I - M_n^{-1} A_n)^T equal to inv_dtau M_n^{-T}, so
    from lambda = M_n^{-T} ubar each iterate is ubar <- rhs + inv_dtau
    lambda, row i r_i + inv_dtau lambda_i, followed by the solve of the new
    lambda.  The loop stops when the norm of the change is at most tol,
    exceeds both 1 and ten times the previous change's norm, or max_inner
    iterates ran, and raises AdjointDivergenceError, with no contraction
    estimate, unless that norm is at most tol.  The Newton limit records
    one iteration and a zero norm.  Each step forms M_n^T once and solves
    every lambda_n = M_n^{-T} ubar_n with it through _solver's solve, which
    raises SingularStepError at the first step whose M_n is singular; the
    last lambda is kept for the two earlier steps.  The direct adjoint hands
    inv_dtau = 0.0, so the Newton limit's lambda_n solves A_n^T lambda_n = rhs.

    Returns (ubar, iterations, norms, lambdas): ubar row-major with a zero
    row 0, the iterations and norms per step with step 0's zero, and
    lambda_n row-major at row n - 1, each a flat list.
    """
    n_total, d_u = len(a_rows), len(seeds[0])
    ubar = [0.0] * (d_u * (n_total + 1))
    inner = [0] * (n_total + 1)
    norms = [0.0] * (n_total + 1)
    lambdas = [0.0] * (d_u * n_total)
    iterate = inv_dtau != 0.0
    ubar_n = [0.0] * d_u  # the warm start of the last step
    lam1 = lam2 = None  # lambda_{n+1} and lambda_{n+2}
    for n in range(n_total, 0, -1):
        if n + 2 <= n_total:
            rhs = [(s - beta * x) - delta * y for s, x, y in zip(seeds[n], lam1, lam2)]
        elif n + 1 <= n_total:
            rhs = [s - beta * x for s, x in zip(seeds[n], lam1)]
        else:
            rhs = seeds[n]
        entries = list(a_rows[n - 1])
        for i in range(0, d_u * d_u, d_u + 1):
            entries[i] += inv_dtau
        solve = _solver(entries, n)
        if not iterate:
            ubar_n = rhs
        lam = solve(ubar_n)
        if iterate:
            previous = None  # the change norm of the previous iterate
            for its in range(1, max_inner + 1):
                updated = [r + inv_dtau * x for r, x in zip(rhs, lam)]
                norm = _vector_norm(list(map(sub, updated, ubar_n)))
                ubar_n = updated
                lam = solve(ubar_n)
                if norm <= tol or norm > 1.0 and previous is not None and norm > previous * 10.0:
                    break
                previous = norm
            if not norm <= tol:
                raise AdjointDivergenceError(n, its, norm)
        else:
            its, norm = 1, 0.0
        inner[n], norms[n] = its, norm
        lam1, lam2 = lam, lam1
        ubar[n * d_u:(n + 1) * d_u] = ubar_n
        lambdas[(n - 1) * d_u:n * d_u] = lam
    return ubar, inner, norms, lambdas
