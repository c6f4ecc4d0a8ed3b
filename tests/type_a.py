"""Presentations of the higher Auslander algebras A_s^(d) of type A.

Following Iyama ("Cluster tilting for higher Auslander algebras", 2011):
the vertices are the non-decreasing d-tuples over {1..s}, and there is an
arrow t -> t + e_i whenever t + e_i is non-decreasing.  For i < j the two
paths t -> t + e_i + e_j commute when both exist; when only one exists,
it is zero.  Every path has length at most d(s - 1), so the nilpotency
bound is d(s - 1) + 1.  (s, d) = (2, 2) is the flagship KA_3/rad^2 and
d = 1 gives KA_s.  KA_n/rad^2 and the cyclic Nakayama algebras are here
too.  Nothing here imports dctkit.
"""

from itertools import combinations_with_replacement
from math import comb


def _label(t):
    return "-".join(map(str, t))


def _step(t, i, s):
    """t + e_i, or None when it is not a non-decreasing tuple over {1..s}."""
    u = t[:i] + (t[i] + 1,) + t[i + 1:]
    if u[i] > s or (i + 1 < len(u) and u[i] > u[i + 1]):
        return None
    return u


def higher_auslander(s, d):
    """(vertices, arrows, relations, bound) of A_s^(d), ready for build_algebra."""
    vertices = list(combinations_with_replacement(range(1, s + 1), d))
    arrows, name = [], {}
    for t in vertices:
        for i in range(d):
            u = _step(t, i, s)
            if u is not None:
                name[t, i] = f"a{len(arrows)}"
                arrows.append((name[t, i], _label(t), _label(u)))
    relations = []
    for t in vertices:
        for i in range(d):
            for j in range(i + 1, d):
                ti, tj = _step(t, i, s), _step(t, j, s)
                words = []
                if ti is not None and _step(ti, j, s) is not None:
                    words.append([name[t, i], name[ti, j]])
                if tj is not None and _step(tj, i, s) is not None:
                    words.append([name[t, j], name[tj, i]])
                relations.append([(sign, w) for sign, w in zip((1, -1), words)])
    relations = [rel for rel in relations if rel]
    return [_label(t) for t in vertices], arrows, relations, d * (s - 1) + 1


def ka_rad2(n):
    """(vertices, arrows, relations, bound) of KA_n/rad^2: the line 1 -> ... -> n, composites zero."""
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    relations = [[(1, [f"a{i}", f"a{i + 1}"])] for i in range(1, n - 1)]
    return [str(i) for i in range(1, n + 1)], arrows, relations, 2


def nakayama(n, l):
    """(vertices, arrows, relations, bound) of the cyclic quiver on n vertices, paths of length l zero.

    The arrow a{i} runs from i to i + 1 (mod n), and there is one relation
    per vertex: the path of length l starting there.  The dimension is n * l.
    """
    arrows = [(f"a{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)]
    relations = [
        [(1, [f"a{(i + k - 1) % n + 1}" for k in range(l)])] for i in range(1, n + 1)
    ]
    return [str(i) for i in range(1, n + 1)], arrows, relations, l


def higher_auslander_dim(s, d):
    """dim A_s^(d) = C(s + 2d - 1, 2d), the number of non-decreasing 2d-tuples over {1..s}."""
    return comb(s + 2 * d - 1, 2 * d)
