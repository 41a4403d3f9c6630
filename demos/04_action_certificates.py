#!/usr/bin/env python3
"""Space-time action minimization and integrated-inequality margins.

The minimizer runs dynamic programming over snapshot layers, with grid
distances taken at the mid-step metric, and returns an upper bound of
the continuum infimum.  On the constant shrinking sphere the optimal
path between equal endpoints is constant and the action has the closed
form ln((r0^2 - 2 t1)/(r0^2 - 2 t2)); random pairs then certify

    ln f(x2, t2) + 2 ln(t2/t1) + gamma/2 - ln f(x1, t1) >= 0.
"""

import numpy as np

import harnackflow as hf

R0, F0, N = 1.0, 0.5, 96

geom = hf.SphereGeometry(N, np.full(N, hf.SphereGeometry.round_phi(R0)))
traj = hf.run(hf.FlowState(0.0, geom, np.full(N, F0)), 0.25, 2.5e-5, 0.01, c=-1.0)

t1, t2 = 0.05, 0.2
node = N // 2
gamma, path = hf.min_action(traj, (node, t1), (node, t2))
exact = np.log((R0**2 - 2 * t1) / (R0**2 - 2 * t2))
print(f"gamma (DP)     {gamma:.6f}")
print(f"gamma (exact)  {exact:.6f}   rel err {abs(gamma - exact) / exact:.2e}")
print(f"path nodes     {path.nodes[:5]}... (constant by symmetry)")

print("\nwindow refinement (non-increasing; stabilizes once the window admits")
print("the evenly split path):")
for w in (3, 4, 5, 8):
    g, _ = hf.min_action(traj, (10, 0.15), (25, 0.2), window=w)
    print(f"  window {w}: gamma = {g:.6f}")

rng = np.random.default_rng(0)
rows = []
for p1, p2 in hf.random_pairs(traj, 10, rng, t_min=0.02):
    m, g = hf.check_integrated_harnack(traj, p1, p2)
    rows.append((p1[0], p1[1], p2[0], p2[1], g, m))
print(f"\n{'x1':>4} {'t1':>6} {'x2':>4} {'t2':>6} {'gamma':>10} {'margin':>10}")
for x1, tt1, x2, tt2, g, m in rows:
    print(f"{x1:4d} {tt1:6.2f} {x2:4d} {tt2:6.2f} {g:10.4f} {m:10.4f}")
print("\nworst margin:", min(r[5] for r in rows), "(certified nonnegative up to 1e-2)")
