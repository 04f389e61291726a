"""Reference optimal solver, written from the model definition alone.

It shares no code with ``clearq.solver``.  A state (i, k, l) holds i jobs in
queue, k at Station 1 and l at Station 2.  From state s the chain stays an
exponential time with mean 1/total(s), accruing h0*i + h1*k + h2*l per unit
time, then moves:

* a Station 1 completion (rate k*mu1) frees a flexible server;
* a Station 2 completion (rate min(l, C2)*mu2) frees a flexible server and a
  dedicated one.

With i > 0 the freed flexible server takes the next queued job and either
serves it alone (it joins Station 1) or pairs it (it joins Station 2); the
optimal value takes the cheaper of the two.  With i = 0 nothing is decided.
"""
from __future__ import annotations

# Sign convention of the threshold definitions: |x| <= BAND * (1 + |x|) is zero.
BAND = 1e-9


def solve(C1, C2, mu1, mu2, h0, h1, h2, depth):
    """Optimal values as ``levels[i][k]`` for i >= 1 and ``boundary[(k, l)]``.

    Level i >= 1 holds the states with all C1 flexible servers busy, so
    l = C1 - k there.
    """
    boundary = {(0, 0): 0.0}
    for busy in range(1, C1 + 1):
        for k in range(busy + 1):
            l = busy - k
            r1, r2 = k * mu1, min(l, C2) * mu2
            total = r1 + r2
            value = (h1 * k + h2 * l) / total
            if r1:
                value += r1 / total * boundary[(k - 1, l)]
            if r2:
                value += r2 / total * boundary[(k, l - 1)]
            boundary[(k, l)] = value
    below = [boundary[(k, C1 - k)] for k in range(C1 + 1)]
    levels = [below]
    for i in range(1, depth + 1):
        row = []
        for k in range(C1 + 1):
            l = C1 - k
            r1, r2 = k * mu1, min(l, C2) * mu2
            total = r1 + r2
            value = (h0 * i + h1 * k + h2 * l) / total
            if r1:
                # Station 1 frees a server: alone -> (k, l), paired -> (k-1, l+1).
                value += r1 / total * min(below[k], below[k - 1])
            if r2:
                # Station 2 frees a server: alone -> (k+1, l-1), paired -> (k, l).
                value += r2 / total * min(below[k + 1], below[k])
            row.append(value)
        levels.append(row)
        below = row
    return levels


def differences(levels):
    """``D[i][k] = v(i, k, C1-k) - v(i, k-1, C1-k+1)`` for k >= 1 (D[i][0] unused)."""
    return [[0.0] + [row[k] - row[k - 1] for k in range(1, len(row))] for row in levels]


def band_sign(x):
    tol = BAND * (1.0 + abs(x))
    return 1 if x > tol else -1 if x < -tol else 0


def first_crossings(D, collaborative):
    """First level at which each index's difference crosses, or None.

    Collaborative orientation: index k, first level with D < 0.
    Independent orientation: index l = C1 - k, first level with D >= 0.
    """
    c1 = len(D[0]) - 1
    out = {}
    for k in range(1, c1 + 1):
        index = k if collaborative else c1 - k
        out[index] = next(
            (i for i, row in enumerate(D)
             if (band_sign(row[k]) < 0 if collaborative else band_sign(row[k]) >= 0)),
            None,
        )
    return out


def is_collaborative(h1, mu1, h2, mu2):
    """Orientation from the per-job service costs h1/mu1 vs h2/mu2; ties collaborate."""
    return band_sign(h1 * mu2 - h2 * mu1) >= 0
