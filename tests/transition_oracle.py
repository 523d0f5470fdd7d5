"""Independent references for the unit IWP(q) transition pair (A(h), Q(h)).

The library builds only ``A``, the factor ``Q_sqrt`` and ``Q(h)_11``.
Tests that check those, or that need ``Q`` as a reference for predict,
update or smoothing, take it from here and never from the factor under
test.  ``loop_a`` and ``loop_q`` evaluate the closed forms entry by entry;
``matrix_fraction`` derives both from the SDE itself.
"""

from math import factorial

import numpy as np
from scipy.linalg import expm


def loop_a(q, h):
    """Entry-by-entry closed form A(h)_ij = h^(j-i) / (j-i)!."""
    A = np.zeros((q + 1, q + 1))
    for i in range(q + 1):
        for j in range(i, q + 1):
            A[i, j] = h ** (j - i) / factorial(j - i)
    return A


def loop_q(q, h):
    """Entry-by-entry closed form of the unit-diffusion Q(h)."""
    Q = np.zeros((q + 1, q + 1))
    for i in range(q + 1):
        for j in range(q + 1):
            p = 2 * q + 1 - i - j
            Q[i, j] = h**p / (p * factorial(q - i) * factorial(q - j))
    return Q


def matrix_fraction(q, h):
    """(A(h), Q(h)) by the matrix-fraction decomposition.

    With the upper shift ``F`` as drift and ``L = e_q`` as dispersion,
    ``expm([[F, L L^T], [0, -F^T]] h)`` holds ``A`` in its upper-left block
    and ``Q A^-T`` in its upper-right block.
    """
    n = q + 1
    F = np.eye(n, k=1)
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = F
    blk[q, n + q] = 1.0
    blk[n:, n:] = -F.T
    Phi = expm(blk * h)
    A = Phi[:n, :n]
    Q = Phi[:n, n:] @ A.T
    return A, 0.5 * (Q + Q.T)
