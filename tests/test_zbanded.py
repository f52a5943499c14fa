"""The shared z-Fourier / band LU module."""

import numpy as np
from hypothesis import given, strategies as st

from axiswirl import zbanded


@given(st.integers(1, 12), st.sampled_from([1, 2]), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_band_lu_matches_dense_solve(n, p, batch, seed):
    rng = np.random.default_rng(seed)
    rows, cols = np.indices((n, n))
    a = np.where(np.abs(rows - cols) <= p, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    # strict diagonal dominance, under which elimination without pivoting
    # is stable
    diag = 2.0 * p + 1.0 + rng.random((n, batch))
    b = rng.standard_normal((n, batch)) + 1j * rng.standard_normal((n, batch))
    x = zbanded.solve(zbanded.factor(a, diag), b.copy())
    for k in range(batch):
        ref = np.linalg.solve(a + np.diag(diag[:, k]), b[:, k])
        assert np.max(np.abs(x[:, k] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_factors_are_read_only():
    lower, upper, dinv = zbanded.factor(np.eye(3) + np.eye(3, k=1), np.ones((3, 2)))
    assert lower.shape == upper.shape == (1, 3, 2) and dinv.shape == (3, 2)
    assert not any(f.flags.writeable for f in (lower, upper, dinv))

