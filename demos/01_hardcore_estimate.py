#!/usr/bin/env python3
"""Estimate the occupancy activity of a hardcore model from one sample.

Draws a single configuration of the two-color exclusion model on a large
cycle, then recovers the activity parameter two ways: the closed-form
count ratio, and damped Newton ascent on the log pseudo-likelihood. The two
agree to many digits, and both sit close to the truth.
"""
import math

import numpy as np

from hcolor import Model, generate, mpl_fit, mpl_hardcore, preset, sample

truth = 0.4
graph = generate("cycle", {"n": 2048})
hard = preset("hardcore")
model = Model(graph, hard, [truth])

cfg = sample(model, seed=7)
occupied = int(cfg.sum())
print(f"one sample on a {graph.n}-cycle: {occupied} occupied vertices")

closed = mpl_hardcore(cfg, graph)
fitted = mpl_fit(cfg, graph, hard, tol=1e-10)
print(f"closed form : beta_hat = {closed.beta_hat[0]:+.6f}")
print(f"Newton fit  : beta_hat = {fitted.beta_hat[0]:+.6f} ({fitted.iterations} iterations)")
print(f"truth       : beta     = {truth:+.6f}")
print(f"scaled error: sqrt(n)*|err| = {math.sqrt(graph.n) * abs(closed.beta_hat[0] - truth):.3f}")
print(f"curvature at fit: {closed.min_eigenvalue_neg_hessian_at_fit:.4f}")

# the estimate is the log-ratio of occupied vertices to recolorable holes
c = occupied
u = sum(1 for v in range(graph.n) if cfg[v] == 0 and all(cfg[w] == 0 for w in graph.adjacency[v]))
print(f"log({c}/{u}) = {np.log(c / u):+.6f}  (same number, by hand)")
