"""Numerical toolkit for convex bodies, parallel sets and mixed p-Laplacian
eigenvalues in hyperbolic space."""

__version__ = "0.1.0"
