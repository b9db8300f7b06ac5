"""Shared random-instance generators and stand-ins for the test suite.

Everything takes an explicit rng so tests stay reproducible; eigenvalue
moduli are kept inside [0.3, 1.5] and away from 0 so no route has to deal
with near-singular scaling unless a test asks for it.
"""

import numpy as np

from projspec import commute, linegeom


def random_unitary(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_diag_vals(rng, n, lo=0.5, hi=1.2):
    return rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def separated_vals(rng, n, lo=0.5, hi=1.5, sep=0.15):
    while True:
        vals = rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        d = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() > sep:
            return vals


def random_normal(rng, n, vals=None):
    if vals is None:
        vals = random_diag_vals(rng, n)
    u = random_unitary(rng, n)
    return (u * vals) @ u.conj().T


def commuting_pair(rng, n):
    u = random_unitary(rng, n)
    a = (u * random_diag_vals(rng, n)) @ u.conj().T
    b = (u * random_diag_vals(rng, n)) @ u.conj().T
    return a, b


def noncommuting_pair(rng, n, threshold=0.1):
    while True:
        u1 = random_unitary(rng, n)
        u2 = random_unitary(rng, n)
        a = (u1 * random_diag_vals(rng, n)) @ u1.conj().T
        b = (u2 * random_diag_vals(rng, n)) @ u2.conj().T
        c = a @ b - b @ a
        if np.linalg.norm(c) > threshold:
            return a, b


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def inconsistent_report(a, b, **kwargs):
    """Stand-in for commute.equivalence_check: a commuting pair certified notlines."""
    verdict = linegeom.LineVerdict(False, None, (0.5 + 0j, 0.25 + 0j), 0.0)
    return commute.EquivalenceReport(True, 0.0, verdict, False)


def off_curve_witnesses(lams, mus, rays, tol):
    """Stand-in for linegeom._ray_witnesses: one candidate witness, off
    every candidate line and off every curve det(I + zA + wB) = 0 that the
    tests pass it, e.g. 1 - z^2 - w^2 for (PAULI_Z, PAULI_X)."""
    return [(0.5 + 0j, 0.25 + 0j)]


def fail_batched_eigvals(monkeypatch, after=0):
    """Make np.linalg.eigvals raise LinAlgError on stacks of matrices (the
    batched eigensolves of detpoly's grid and of linegeom.pencil_verdict)
    once `after` stacks have been solved, and behave normally on single
    matrices."""
    real = np.linalg.eigvals
    solved = [0]

    def failing(x):
        if np.ndim(x) == 3:
            if solved[0] >= after:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            solved[0] += 1
        return real(x)

    monkeypatch.setattr(np.linalg, "eigvals", failing)
