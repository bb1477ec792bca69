"""Orthonormal modal polynomial bases on the reference triangle and segment.

The bases are built by Cholesky-orthonormalizing the monomial basis against
the exact Gram matrix (monomial moments are known in closed form on both
reference domains).  Orthonormality on the reference element makes element
mass matrices exactly ``area_scale * I`` under affine maps, which keeps
local solves well conditioned and makes L2 projection trivial.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

__all__ = ["TriangleBasis", "SegmentBasis", "tri_space_dim", "REF_VERTICES"]
REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def tri_space_dim(p: int) -> int:
    """Dimension of P_p on a triangle."""
    return (p + 1) * (p + 2) // 2


class TriangleBasis:
    """Orthonormal basis of P_p on the triangle {x, y >= 0, x + y <= 1}.

    Attributes
    ----------
    p : int
        Polynomial degree.
    dim : int
        Number of basis functions, (p+1)(p+2)/2.
    exponents : ndarray (dim, 2)
        Monomial exponents in graded order; basis function i is a linear
        combination of monomials 0..i.
    """

    def __init__(self, p: int):
        if p < 0:
            raise ValueError("degree must be non-negative")
        self.p = p
        exps = [(a, b) for tot in range(p + 1) for a in range(tot, -1, -1) for b in (tot - a,)]
        self.exponents = np.asarray(exps, dtype=int)
        self.dim = len(exps)
        # exact monomial Gram: integral of x^a y^b over the triangle
        gram = np.empty((self.dim, self.dim))
        for i, (a1, b1) in enumerate(exps):
            for j, (a2, b2) in enumerate(exps):
                a, b = a1 + a2, b1 + b2
                gram[i, j] = factorial(a) * factorial(b) / factorial(a + b + 2)
        chol = np.linalg.cholesky(gram)
        # rows of C express orthonormal functions in monomials
        self._coeff = np.linalg.inv(chol)

    def _vandermonde(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        a = self.exponents[:, 0]
        b = self.exponents[:, 1]
        return pts[:, 0:1] ** a[None, :] * pts[:, 1:2] ** b[None, :]

    def eval(self, points):
        """Basis values; shape (npoints, dim)."""
        return self._vandermonde(points) @ self._coeff.T

    def grad(self, points):
        """Reference-coordinate gradients; shape (npoints, dim, 2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        a = self.exponents[:, 0].astype(float)
        b = self.exponents[:, 1].astype(float)
        am1 = np.maximum(self.exponents[:, 0] - 1, 0)
        bm1 = np.maximum(self.exponents[:, 1] - 1, 0)
        vx = a[None, :] * pts[:, 0:1] ** am1[None, :] * pts[:, 1:2] ** self.exponents[None, :, 1]
        vy = b[None, :] * pts[:, 0:1] ** self.exponents[None, :, 0] * pts[:, 1:2] ** bm1[None, :]
        out = np.empty((pts.shape[0], self.dim, 2))
        out[:, :, 0] = vx @ self._coeff.T
        out[:, :, 1] = vy @ self._coeff.T
        return out


class SegmentBasis:
    """Orthonormal basis of P_p on [0, 1] (shifted Legendre, normalized)."""

    def __init__(self, p: int):
        if p < 0:
            raise ValueError("degree must be non-negative")
        self.p = p
        self.dim = p + 1
        gram = np.empty((self.dim, self.dim))
        for i in range(self.dim):
            for j in range(self.dim):
                gram[i, j] = 1.0 / (i + j + 1)
        self._coeff = np.linalg.inv(np.linalg.cholesky(gram))

    def eval(self, points):
        """Basis values; shape (npoints, dim)."""
        s = np.atleast_1d(np.asarray(points, dtype=float))
        van = s[:, None] ** np.arange(self.dim)[None, :]
        return van @ self._coeff.T


@lru_cache(maxsize=None)
def triangle_basis(p: int) -> TriangleBasis:
    return TriangleBasis(p)


@lru_cache(maxsize=None)
def segment_basis(p: int) -> SegmentBasis:
    return SegmentBasis(p)
