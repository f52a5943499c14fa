"""Radial band systems that are periodic and constant-coefficient in z.

An operator of this kind becomes, after an rfft along z (the last axis,
which the callers take with numpy), one radial system per z-mode k.  Both users in the package have the
same structure: a radial band matrix shared by every mode plus a
diagonal that depends on the mode (and on the velocity component).  The
pressure projection factors the pentadiagonal radial block of D D*, the
implicit viscous solve the tridiagonal I - c L.

`factor` LU-factors all of those systems at once without pivoting: one
Python loop over the rows, each row a vector over the trailing (batch)
axes of the diagonal.  Skipping the pivot search is safe for the
matrices the package factors, which are diagonally dominant or similar
to symmetric positive definite ones (Golub & Van Loan, Matrix
Computations, 4th ed., secs. 4.1-4.3).
"""

from __future__ import annotations

import numpy as np


def factor(a, diag):
    """Factor a + diag(d) for every batch index of diag, without pivoting.

    a is a dense (n, n) band matrix whose bandwidth p is read from its
    nonzero entries; diag, of shape (n, *batch), is added to its main
    diagonal.  Returns read-only (lower, upper, dinv) of shapes
    (p, n, *batch), (p, n, *batch) and (n, *batch): lower[j - 1, i] =
    L[i, i - j] of the unit lower factor, upper[j - 1, i] = U[i, i + j]
    for j = 1..p, and dinv[i] = 1 / U[i, i].
    """
    n = a.shape[0]
    rows, cols = np.nonzero(a)
    p = int(np.max(np.abs(rows - cols), initial=0))
    batch = diag.shape[1:]
    lower = np.zeros((p, n, *batch))
    upper = np.zeros((p, n, *batch))
    piv = np.diagonal(a).reshape((n,) + (1,) * len(batch)) + diag
    for i in range(n):
        for j in range(min(p, i), 0, -1):  # L[i, i - j], left to right
            s = a[i, i - j]
            for m in range(j + 1, min(p, i) + 1):
                s = s - lower[m - 1, i] * upper[m - j - 1, i - m]
            lower[j - 1, i] = s / piv[i - j]
        for m in range(1, min(p, i) + 1):
            piv[i] = piv[i] - lower[m - 1, i] * upper[m - 1, i - m]
        for j in range(1, min(p, n - 1 - i) + 1):  # U[i, i + j]
            s = a[i, i + j]
            for m in range(1, min(p - j, i) + 1):
                s = s - lower[m - 1, i] * upper[m + j - 1, i - m]
            upper[j - 1, i] = s
    lu = (lower, upper, 1.0 / piv)
    for f in lu:
        f.setflags(write=False)
    return lu


def solve(lu, y):
    """Overwrite y, shape (n, *batch) and real or complex, with the solution
    of the factored systems; forward then back substitution over the
    rows.  Returns y."""
    lower, upper, dinv = lu
    p, n = lower.shape[0], dinv.shape[0]
    for i in range(1, n):
        for j in range(1, min(p, i) + 1):
            y[i] -= lower[j - 1, i] * y[i - j]
    for i in range(n - 1, -1, -1):
        for j in range(1, min(p, n - 1 - i) + 1):
            y[i] -= upper[j - 1, i] * y[i + j]
        y[i] *= dinv[i]
    return y
