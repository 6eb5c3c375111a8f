#!/usr/bin/env python3
"""Hoelder functions on a box: the cusp, its extension, and its mollification.

|x|^(1/2) has Hoelder-1/2 quotient exactly 1 through the origin at every
scale, so its distance to the little Hoelder space is 1 -- no smooth function
gets closer.  The smoother extends the data off the box by projection onto
the box (the extension keeps the Hoelder constant exactly), convolves with a
heavy-tailed kernel of unit discrete mass, and restricts back.  Member norms
never exceed the input's; the sup-distance to the input decays like sqrt(t).
"""

import numpy as np

from oscillometer import SpaceDescriptor, build_family, distance_estimate, seminorm_sup
from oscillometer.approx import lip_smooth_with_info
from oscillometer.builtins import box_builtin
from oscillometer.funcrep import BoxDomain

dom = BoxDomain([-1.0], [1.0], 1e-4)
desc = SpaceDescriptor("lip", alpha=0.5, lip_domain=dom)
grid = build_family(desc)
f = box_builtin("holder_cusp", dom, 0.5)

print(f"pair family: {len(grid)} node pairs on a {dom.shape[0]}-node grid")
print(f"cusp Hoelder-1/2 norm:     {seminorm_sup(grid, f).value:.6f}")
est, unc, _ = distance_estimate(desc, f, grid=grid)
print(f"distance to little space:  {est:.6f} +- {unc:.4f}")

print("\nmollified members (scale, sup distance to f, member norm, tail):")
for t in (0.1, 0.01, 0.001):
    g, truncated = lip_smooth_with_info(f, t)
    sup_dist = float(np.max(np.abs(g.values - f.values)))
    norm = seminorm_sup(grid, g).value
    gest, _, _ = distance_estimate(desc, g, grid=grid)
    print(f"  t = {t:<6}: |f - g|_sup = {sup_dist:.4f}, norm = {norm:.4f}, "
          f"tail = {gest:.4f}, kernel mass outside window = {truncated:.1e}")
