"""zollab.rk45 against scipy's RK45: its tableau, step-size constants and
tolerance check, bit for bit. The stacked steps themselves are checked
against ``solve_ivp`` in ``tests/test_engine.py``."""
import warnings

import numpy as np
import pytest
from scipy.integrate._ivp import common, rk

from zollab import rk45


@pytest.mark.parametrize("owner,name", [
    (rk.RK45, "A"), (rk.RK45, "B"), (rk.RK45, "C"), (rk.RK45, "E"), (rk.RK45, "P"),
    (rk.RK45, "n_stages"), (rk.RK45, "error_estimator_order"), (rk.RK45, "TOO_SMALL_STEP"),
    (rk, "SAFETY"), (rk, "MIN_FACTOR"), (rk, "MAX_FACTOR"), (common, "EPS")])
def test_constant_is_scipys(owner, name):
    ours, theirs = getattr(rk45, name), getattr(owner, name)
    assert type(ours) is type(theirs)
    if isinstance(theirs, np.ndarray):
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
        assert ours.tobytes() == theirs.tobytes()
    else:
        assert ours == theirs


def _outcome(validate, rtol, atol, n):
    """What ``validate`` gives: its result or the error it raises, and the
    warnings it issues, as (category, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = [(type(v), np.asarray(v).dtype, np.asarray(v).tobytes())
                      for v in validate(rtol, atol, n)]
        except ValueError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("rtol,atol", [
    (1e-10, 1e-12),
    (1e-20, 1e-12),                              # rtol raised, with a warning
    (100 * common.EPS, 0.0),
    (np.array([1e-3, 1e-18, 1e-10]), np.array([1e-12, 1e-9, 0.0])),
    (1e-10, np.array([1e-12, 1e-9])),            # atol of the wrong shape
    (1e-10, -1e-12),                             # negative atol
    (1e-30, np.array([1e-12, -1.0, 0.0])),
])
def test_validate_tol_is_scipys(rtol, atol):
    assert _outcome(rk45.validate_tol, rtol, atol, 3) == _outcome(common.validate_tol,
                                                                  rtol, atol, 3)
