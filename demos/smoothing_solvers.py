#!/usr/bin/env python3
"""Three routes to the same smoothing solve.

The smoothing operator A = I - sigma * L (L the periodic second difference,
so A has 1 + 2 sigma on the diagonal) is circulant, so A x = y can be solved
by Fourier diagonalization, by tridiagonal elimination with a rank-one
corner fix, or by dense Gaussian elimination.  This script solves one system all three ways, confirms the
answers agree, and shows how the smoothed solution flattens the input.
"""

import numpy as np

from smoothgd import CirculantSmoother

rng = np.random.default_rng(7)
n, sigma = 12, 4.0
op = CirculantSmoother(n, sigma)

# a spiky right-hand side: one bump plus noise
y = np.zeros(n)
y[3] = 1.0
y += 0.05 * rng.standard_normal(n)

x_dft = op.solve_dft(y)
x_thomas = op.solve_thomas(y)
x_dense = np.linalg.solve(op.dense(), y)

print(f"n = {n}, sigma = {sigma}")
print(f"dft    vs thomas : {np.max(np.abs(x_dft - x_thomas)):.3e}")
print(f"dft    vs dense  : {np.max(np.abs(x_dft - x_dense)):.3e}")
print(f"A x - y residual : {np.max(np.abs(op.apply(x_dft) - y)):.3e}")

print("\nindex   input      smoothed")
for i in range(n):
    bar = "#" * max(0, int(40 * x_dft[i] / x_dft.max()))
    print(f"{i:5d}  {y[i]:+8.4f}  {x_dft[i]:+8.4f}  {bar}")

# smoothing preserves the mean exactly: the constant vector is the
# eigenvector of eigenvalue 1
print(f"\nmean(y) = {y.mean():.10f}")
print(f"mean(x) = {x_dft.mean():.10f}")

# the spectrum interpolates 1 (constant mode) up to 1 + 4 sigma
spec = op.spectrum()
print(f"spectrum range [{spec.min():.4f}, {spec.max():.4f}]"
      f"  (1 to 1 + 4 sigma = {1 + 4 * sigma:.0f})")
