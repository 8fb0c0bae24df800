"""scipy's RK45 (Dormand-Prince 5(4)) over a stack of states.

The tableau is that of scipy's ``scipy.integrate._ivp.rk.RK45``, written as
the expressions scipy writes it, and the functions are the pieces of its
``solve_ivp`` that lockstep shooting takes its steps with: the tolerance
check, the RMS norm, ``select_initial_step``, one step try with its error
norm, the factor the step size is scaled by after it, and the dense output
of a step. Each works on a stack of rows, one numpy operation on the rows
for each operation of scipy's code on one state, so each row is bit for bit
what scipy computes for that row alone (``tests/test_engine.py``,
``tests/test_rk45.py``).
"""
from __future__ import annotations

from warnings import warn

import numpy as np

from .geometry import scalar_pow

EPS = np.finfo(float).eps
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# scipy.integrate._ivp.rk.RK45
error_estimator_order = 4
n_stages = 6
C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
              1/40])
# the dense output polynomial of a step, with scipy's choice of c_6
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])

# step size control of scipy.integrate._ivp.rk
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
_EXPONENT = -1 / (error_estimator_order + 1)


def validate_tol(rtol, atol, n):
    """scipy's tolerance check for a state of n components: rtol raised to
    ``100 * EPS`` with a warning, atol a scalar or (n,) and not negative."""
    if np.any(rtol < 100 * EPS):
        warn("At least one element of `rtol` is too small. "
             f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.",
             stacklevel=3)
        rtol = np.maximum(rtol, 100 * EPS)

    atol = np.asarray(atol)
    if atol.ndim > 0 and atol.shape != (n,):
        raise ValueError("`atol` has wrong shape.")

    if np.any(atol < 0):
        raise ValueError("`atol` must be positive.")

    return rtol, atol


def rms(x):
    """scipy's RMS ``norm`` of each row of x (m, N): a stacked dot, not
    ``np.linalg.norm``'s one-row dot, bit for bit."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]) / x.shape[1] ** 0.5


def initial_steps(rhs, y0, f0, interval, max_step, rtol, atol):
    """scipy's ``select_initial_step`` (Hairer, Nørsett and Wanner, *Solving
    ODEs I*, §II.4) for forward chunks from the states y0 (m, N), where the
    right-hand side is f0, over intervals (m,), with one stacked ``rhs``
    call: Python's min(a, x) is x where x < a, and max(a, x) is x where x > a.

    Returns the initial step sizes and the flags of the rows ``rhs`` was
    called on: on an empty interval the step is 0 and scipy calls nothing.
    """
    h = np.zeros(len(y0))
    probed = interval != 0
    y0, f0, interval = y0[probed], f0[probed], interval[probed]
    scale = atol + np.abs(y0) * rtol
    d0, d1 = rms(y0 / scale), rms(f0 / scale)
    h0 = np.full(len(y0), 1e-6)
    far = ~((d0 < 1e-5) | (d1 < 1e-5))
    h0[far] = 0.01 * d0[far] / d1[far]
    h0 = np.where(interval < h0, interval, h0)
    f1 = rhs(None, y0 + h0[:, None] * f0)
    d2 = rms((f1 - f0) / scale) / h0

    h1 = np.where(h0 * 1e-3 > 1e-6, h0 * 1e-3, 1e-6)
    curved = ~((d1 <= 1e-15) & (d2 <= 1e-15))
    d = np.where(d2 > d1, d2, d1)[curved]
    h1[curved] = scalar_pow(0.01 / d, 1 / (error_estimator_order + 1))
    step = 100 * h0
    for bound in (h1, interval, max_step):
        step = np.where(bound < step, bound, step)
    h[probed] = step
    return h, probed


def try_step(rhs, y, f, h, rtol, atol):
    """``rk_step`` and the error norm of ``RK45._step_impl`` for states y (m, N)
    with derivatives f over steps h (m,): each ``np.dot`` of one state is a
    stacked ``matmul``, the RMS norm ``rms``.

    Returns the new states, the stages K (m, 7, N) and the error norms. The
    geodesic equation is autonomous, so ``rhs`` gets no stage times.
    """
    K = np.empty((len(y), n_stages + 1, y.shape[1]))
    K[:, 0] = f
    for s in range(1, n_stages):
        dy = np.matmul(K[:, :s].swapaxes(1, 2), A[s, :s]) * h[:, None]
        K[:, s] = rhs(None, y + dy)
    y_new = y + h[:, None] * np.matmul(K[:, :-1].swapaxes(1, 2), B)
    K[:, -1] = rhs(None, y_new)
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    error_norm = rms(np.matmul(K.swapaxes(1, 2), E) * h[:, None] / scale)
    return y_new, K, error_norm


def step_factor(error_norm, rejected):
    """Factor ``RK45._step_impl`` scales each step size by after a try: Python's
    min(a, x) is x where x < a, and max(a, x) is x where x > a."""
    zero = error_norm == 0
    grow = np.full(len(error_norm), np.nan)
    grow[~zero] = SAFETY * scalar_pow(error_norm[~zero], _EXPONENT)
    accepted = np.where(zero, MAX_FACTOR, np.where(grow < MAX_FACTOR, grow, MAX_FACTOR))
    accepted = np.where(rejected & ~(accepted < 1), 1, accepted)
    return np.where(error_norm < 1, accepted, np.where(grow > MIN_FACTOR, grow, MIN_FACTOR))


def dense_states(Q, y_old, t_old, h, t):
    """Row i: the ``RkDenseOutput`` (Q[i], y_old[i], t_old[i], h[i]) at t[i], with
    its arithmetic (``np.dot`` of one row becomes a stacked ``matmul``)."""
    x = (t - t_old) / h
    p = np.cumprod(np.repeat(x[:, None], Q.shape[-1], axis=1), axis=1)
    y = h[:, None] * np.matmul(Q, p[:, :, None])[:, :, 0]
    y += y_old
    return y
