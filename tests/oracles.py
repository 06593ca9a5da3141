"""Independent brute-force oracles used to check the solver.

The row-by-row sweep is the Mixing-method ascent exactly as first written: one
vector at a time, in index order.  The library's block sweep must reproduce
its iterates.

The rank-2 oracle maximizes the correlation expression over unit vectors
confined to a plane: Alice's first vector is pinned at angle 0 (global
rotations cancel), the remaining Alice angles are scanned on a grid, and
Bob's optimum is closed form (each y_t aligns with its column field, so the
value is the sum of the column-field norms).  A local refinement pass
sharpens the best grid point.  Nothing here touches the coordinate-ascent
solver.
"""

import numpy as np


def bob_best_value(c, alice):
    """max over Bob's unit vectors of sum_{s,t} c[s][t] x_s . y_t.

    alice: (nA, 2) array of unit vectors.  Equals sum_t ||sum_s c[s,t] x_s||.
    """
    fields = c.T @ alice  # (nB, 2)
    return float(np.linalg.norm(fields, axis=1).sum())


def _value_grid_1(c, thetas):
    # Alice = [(1,0), (cos t, sin t)]
    c0, c1 = c[0], c[1]
    cos = np.cos(thetas)
    vals = np.zeros_like(thetas)
    for t in range(c.shape[1]):
        sq = c0[t] ** 2 + c1[t] ** 2 + 2 * c0[t] * c1[t] * cos
        vals += np.sqrt(np.maximum(sq, 0.0))
    return vals


def rank2_max(c, step=1e-3):
    """Grid + refine maximum of the expression over planar unit vectors."""
    c = np.asarray(c, dtype=float)
    na = c.shape[0]
    if na == 1:
        return float(np.abs(c[0]).sum())
    if na == 2:
        thetas = np.arange(0.0, 2 * np.pi, step)
        vals = _value_grid_1(c, thetas)
        best = thetas[np.argmax(vals)]
        fine = best + np.linspace(-2 * step, 2 * step, 40001)
        fvals = _value_grid_1(c, fine)
        return float(fvals.max())
    if na == 3:
        return _rank2_max_3(c, step)
    raise ValueError("oracle supports up to 3 Alice settings")


def _value_grid_2(c, t1, t2):
    # t1 scalar or column, t2 row; broadcasting gives a grid of values
    c0, c1, c2 = c[0], c[1], c[2]
    vals = 0.0
    for t in range(c.shape[1]):
        sq = (
            c0[t] ** 2
            + c1[t] ** 2
            + c2[t] ** 2
            + 2 * c0[t] * c1[t] * np.cos(t1)
            + 2 * c0[t] * c2[t] * np.cos(t2)
            + 2 * c1[t] * c2[t] * np.cos(t1 - t2)
        )
        vals = vals + np.sqrt(np.maximum(sq, 0.0))
    return vals


def _rank2_max_3(c, step):
    thetas = np.arange(0.0, 2 * np.pi, step)
    best_val = -np.inf
    best = (0.0, 0.0)
    chunk = 64
    for lo in range(0, thetas.size, chunk):
        t1 = thetas[lo : lo + chunk][:, None]
        vals = _value_grid_2(c, t1, thetas[None, :])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[i, j] > best_val:
            best_val = float(vals[i, j])
            best = (float(t1[i, 0]), float(thetas[j]))
    fine = np.linspace(-2 * step, 2 * step, 801)
    t1 = (best[0] + fine)[:, None]
    t2 = (best[1] + fine)[None, :]
    vals = _value_grid_2(c, t1, t2)
    return float(vals.max())


def rowwise_sweeps(w, v, max_iter, tol):
    """One-vector-at-a-time ascent from the unit rows v (updated in place).

    Each sweep sets v_i to the normalized field g_i = sum_j W[i][j] v_j in
    index order, leaving v_i untouched when ||g_i|| < 1e-14.  Returns
    (sweeps, residual, converged), where the residual is the largest
    displacement in the last sweep.
    """
    w = np.asarray(w, dtype=float)
    residual = np.inf
    for sweep in range(1, max_iter + 1):
        residual = 0.0
        for i in range(w.shape[0]):
            g = w[i] @ v
            ng = np.linalg.norm(g)
            if ng < 1e-14:
                continue
            new = g / ng
            disp = np.linalg.norm(new - v[i])
            if disp > residual:
                residual = disp
            v[i] = new
        if residual < tol:
            return sweep, residual, True
    return max_iter, residual, False
