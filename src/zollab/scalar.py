"""scipy's scalar root finder and bounded minimiser over a stack of rows.

``brentq`` is scipy's C ``brentq`` (``scipy/optimize/Zeros/brentq.c``) and
``minimize_bounded`` scipy's ``_minimize_scalar_bounded``, transliterated so
that every row keeps its own bracket or interval, its own steps and its own
convergence, while each iteration evaluates f once, on the stack of rows still
running. f takes the trial points x (k,) and the indices ``rows`` (k,) of the
rows they belong to, and gives each row the value it gives that row alone.

The arithmetic of a row is the scalar arithmetic of scipy's, one numpy
operation on the rows for each operation of the scalar code, so each row is
bit for bit the scipy call made on that row alone (``tests/test_scalar.py``).
"""
from __future__ import annotations

from math import sqrt

import numpy as np

EPS = np.finfo(float).eps
BRENTQ_XTOL = 2e-12          # scipy.optimize.brentq's defaults
BRENTQ_RTOL = 4 * EPS
BRENTQ_MAXITER = 100

# brentq's outcome of a row, with the codes of scipy's C solver
CONVERGED, SIGNERR, CONVERR, NANERR = 0, -1, -2, -3


def _evaluate(f, x, rows, flag):
    """f at x on ``rows``; a row whose value is NaN stops (scipy raises there)."""
    fx = np.asarray(f(x, rows), dtype=float)
    flag[rows[np.isnan(fx)]] = NANERR
    return fx


def brentq(f, a, b, xtol=BRENTQ_XTOL, rtol=BRENTQ_RTOL, maxiter=BRENTQ_MAXITER):
    """Roots of f in the brackets [a[i], b[i]], one per row.

    Returns the roots and one flag per row: ``CONVERGED``, or where scipy's
    ``brentq`` raises, ``SIGNERR`` (f has the same sign at both ends,
    ``ValueError``), ``CONVERR`` (no convergence in ``maxiter`` iterations,
    ``RuntimeError``; the root is the last iterate, as with ``disp=False``) or
    ``NANERR`` (f is NaN, ``ValueError``). ``require`` raises scipy's error.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    m = a.size
    xpre, xcur = a.ravel().copy(), b.ravel().copy()
    xtol = np.broadcast_to(np.asarray(xtol, dtype=float), (m,))
    root = np.zeros(m)
    flag = np.full(m, CONVERGED)
    if not m:
        return root, flag
    every = np.arange(m)
    f_ends = _evaluate(f, np.concatenate([xpre, xcur]), np.concatenate([every, every]), flag)
    fpre, fcur = f_ends[:m], f_ends[m:]
    xblk, fblk, spre, scur = (np.zeros(m) for _ in range(4))

    # an end where f vanishes is the root; scipy tries a before b
    at_a, at_b = fpre == 0, (fpre != 0) & (fcur == 0)
    root[at_a], root[at_b] = xpre[at_a], xcur[at_b]
    same = ~at_a & ~at_b & (np.signbit(fpre) == np.signbit(fcur)) & (flag == CONVERGED)
    flag[same] = SIGNERR
    run = np.flatnonzero(~at_a & ~at_b & (flag == CONVERGED))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(maxiter):
            if not run.size:
                break
            xp, xc, fp, fc = xpre[run], xcur[run], fpre[run], fcur[run]
            xb, fb, sp, sc = xblk[run], fblk[run], spre[run], scur[run]
            bracket = (fp != 0) & (fc != 0) & (np.signbit(fp) != np.signbit(fc))
            xb = np.where(bracket, xp, xb)
            fb = np.where(bracket, fp, fb)
            sp, sc = np.where(bracket, xc - xp, sp), np.where(bracket, xc - xp, sc)
            swap = np.abs(fb) < np.abs(fc)
            xp, xc, xb = np.where(swap, xc, xp), np.where(swap, xb, xc), np.where(swap, xc, xb)
            fp, fc, fb = np.where(swap, fc, fp), np.where(swap, fb, fc), np.where(swap, fc, fb)

            delta = (xtol[run] + rtol * np.abs(xc)) / 2
            sbis = (xb - xc) / 2
            done = (fc == 0) | (np.abs(sbis) < delta)
            root[run[done]] = xc[done]

            # interpolate where the last two points and the block point are
            # distinct, else extrapolate; take the step if it is short enough
            dpre = (fp - fc) / (xp - xc)
            dblk = (fb - fc) / (xb - xc)
            stry = np.where(xp == xb, -fc * (xc - xp) / (fc - fp),
                            -fc * (fb * dblk - fp * dpre) / (dblk * dpre * (fb - fp)))
            limit = 3 * np.abs(sbis) - delta
            short = ((np.abs(sp) > delta) & (np.abs(fc) < np.abs(fp))
                     & (2 * np.abs(stry) < np.where(np.abs(sp) < limit, np.abs(sp), limit)))
            sp, sc = np.where(short, sc, sbis), np.where(short, stry, sbis)
            xp, fp = xc, fc
            xc = np.where(np.abs(sc) > delta, xc + sc, xc + np.where(sbis > 0, delta, -delta))

            keep = ~done
            run = run[keep]
            xpre[run], xcur[run], fpre[run] = xp[keep], xc[keep], fp[keep]
            xblk[run], fblk[run], spre[run], scur[run] = xb[keep], fb[keep], sp[keep], sc[keep]
            if run.size:
                fcur[run] = _evaluate(f, xcur[run], run, flag)
                run = run[flag[run] == CONVERGED]
    # rows still running have used every iteration
    root[run] = xcur[run]
    flag[run] = CONVERR
    return root.reshape(a.shape), flag.reshape(a.shape)


def require(root, flag):
    """The roots of ``brentq``, or the error scipy's ``brentq`` raises for the
    first row that failed."""
    failed = np.flatnonzero(np.ravel(flag) != CONVERGED)
    if failed.size:
        first = failed[0]
        code = np.ravel(flag)[first]
        if code == CONVERR:
            raise RuntimeError(f"brentq failed to converge; last iterate {np.ravel(root)[first]}")
        raise ValueError("f(a) and f(b) must have different signs" if code == SIGNERR
                         else "the function value is NaN; solver cannot continue.")
    return root


def minimize_bounded(f, lo, hi, xatol=1e-5, maxiter=500):
    """Minima of f on the intervals [lo[i], hi[i]], one per row: the ``x`` and
    ``fun`` of ``minimize_scalar(method="bounded", bounds=(lo[i], hi[i]),
    options={"xatol": xatol[i], "maxiter": maxiter})``."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    shape = lo.shape
    a, b = lo.ravel().copy(), hi.ravel().copy()
    m = a.size
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("Optimization bounds must be finite scalars.")
    if np.any(a > b):
        raise ValueError("The lower bound exceeds the upper bound.")
    xatol = np.broadcast_to(np.asarray(xatol, dtype=float), (m,))
    sqrt_eps = sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - sqrt(5.0))

    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc.copy(), fulc.copy()
    rat, e = np.zeros(m), np.zeros(m)
    every = np.arange(m)
    fx = np.asarray(f(xf.copy(), every), dtype=float).copy()
    ffulc, fnfc = fx.copy(), fx.copy()
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    num = 1
    run = np.flatnonzero(np.abs(xf - xm) > (tol2 - 0.5 * (b - a)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while run.size:
            A, B, XF, FX = a[run], b[run], xf[run], fx[run]
            NFC, FNFC, FULC, FFULC = nfc[run], fnfc[run], fulc[run], ffulc[run]
            T1, T2, XM, E, RAT = tol1[run], tol2[run], xm[run], e[run], rat[run]

            # a parabolic step where the step before last was long enough
            para = np.abs(E) > T1
            r = (XF - NFC) * (FX - FFULC)
            q = (XF - FULC) * (FX - FNFC)
            p = (XF - FULC) * q - (XF - NFC) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            fits = (para & (np.abs(p) < np.abs(0.5 * q * E)) & (p > q * (A - XF))
                    & (p < q * (B - XF)))
            step = (p + 0.0) / q
            x = XF + step
            near_end = ((x - A) < T2) | ((B - x) < T2)
            si = np.sign(XM - XF) + ((XM - XF) == 0)
            parabolic = np.where(near_end, T1 * si, step)
            # else a golden-section step into the larger part
            E = np.where(fits, RAT, np.where(XF >= XM, A - XF, B - XF))
            RAT = np.where(fits, parabolic, golden_mean * E)

            si = np.sign(RAT) + (RAT == 0)
            x = XF + si * np.maximum(np.abs(RAT), T1)
            fu = np.asarray(f(x, run), dtype=float)
            num += 1

            better = fu <= FX
            a[run] = np.where(better, np.where(x >= XF, XF, A), np.where(x < XF, x, A))
            b[run] = np.where(better, np.where(x >= XF, B, XF), np.where(x < XF, B, x))
            second = ~better & ((fu <= FNFC) | (NFC == XF))
            third = ~better & ~second & ((fu <= FFULC) | (FULC == XF) | (FULC == NFC))
            fulc[run] = np.where(better | second, NFC, np.where(third, x, FULC))
            ffulc[run] = np.where(better | second, FNFC, np.where(third, fu, FFULC))
            nfc[run] = np.where(better, XF, np.where(second, x, NFC))
            fnfc[run] = np.where(better, FX, np.where(second, fu, FNFC))
            xf[run] = np.where(better, x, XF)
            fx[run] = np.where(better, fu, FX)
            e[run], rat[run] = E, RAT

            xm[run] = 0.5 * (a[run] + b[run])
            tol1[run] = sqrt_eps * np.abs(xf[run]) + xatol[run] / 3.0
            tol2[run] = 2.0 * tol1[run]
            if num >= maxiter:
                break
            run = run[np.abs(xf[run] - xm[run]) > (tol2[run] - 0.5 * (b[run] - a[run]))]
    return xf.reshape(shape), fx.reshape(shape)
