"""Workspace documents for the family KA_n/rad^2 and their closed-form answers.

KA_n/rad^2 is the path algebra of the linear quiver 1 -> 2 -> ... -> n
modulo all paths of length two.  Its indecomposables are the simples S_i
and the projectives P_i = (e_i + e_{i+1}) for i < n (P_n = S_n), and
proj + inj = {P_1, ..., P_{n-1}, S_n, S_1} is (n-1)-cluster-tilting.  The
flagship fixture ``tests/data/ka3rad2.json`` is n = 3 and ``ka2.json`` is
n = 2.

Every document is an isomorphic copy drawn from a seeded generator: the
vertex and arrow orders are permuted, the generators of the category are
shuffled, every arrow scalar, relation coefficient and morphism entry is
a random sign, and the direct sum ``Xsum`` of the generators gets a random
integer change of basis with integer inverse at each vertex.  The expected answers below follow from the
structure of the algebra alone; nothing here imports dctkit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

ARROW_NAMES = "abcdefghijklmnopqrstuvwxy"
SUM_NAME = "Xsum"


def unit_vector(n: int, *vertices: int) -> Tuple[int, ...]:
    """Dimension vector over vertices 1..n with a 1 at each given vertex."""
    return tuple(1 if v in vertices else 0 for v in range(1, n + 1))


def generator_names(n: int) -> List[str]:
    """proj + inj of KA_n/rad^2: P_1..P_{n-1}, S_n (= P_n) and S_1 (= I_1)."""
    return [f"P{i}" for i in range(1, n)] + [f"S{n}", "S1"]


def generator_dims(n: int) -> Dict[str, Tuple[int, ...]]:
    dims = {f"P{i}": unit_vector(n, i, i + 1) for i in range(1, n)}
    dims[f"S{n}"] = unit_vector(n, n)
    dims["S1"] = unit_vector(n, 1)
    return dims


def dass_dims(n: int) -> List[Tuple[int, ...]]:
    """Terms of the (n-1)-almost-split sequence ending at S_1.

    e_n, e_{n-1}+e_n, ..., e_1+e_2, e_1.
    """
    return [unit_vector(n, n)] + [unit_vector(n, i, i + 1) for i in range(n - 1, 0, -1)] + [
        unit_vector(n, 1)
    ]


def dass_labels(n: int) -> List[str]:
    """Workspace names of the terms of ``dass_dims`` (first name in sorted order)."""
    return [f"S{n}"] + [f"P{i}" for i in range(n - 1, 0, -1)] + ["S1"]


def universe_dims(n: int) -> List[Tuple[int, ...]]:
    """All 2n-1 indecomposables, each of total dimension at most 2."""
    return [unit_vector(n, i) for i in range(1, n + 1)] + [
        unit_vector(n, i, i + 1) for i in range(1, n)
    ]


# -- integer change of basis, independent of the library under test ---------


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _random_unimodular(rng: random.Random, k: int):
    """A random integer T with integer inverse: a signed permutation times
    elementary row operations.  It stays invertible modulo every prime."""
    perm = list(range(k))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(k)]
    t = [[signs[i] if j == perm[i] else 0 for j in range(k)] for i in range(k)]
    t_inv = [[t[j][i] for j in range(k)] for i in range(k)]
    for _ in range(2 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((1, -1))
        t[i] = [x + c * y for x, y in zip(t[i], t[j])]
        for row in t_inv:
            row[j] -= c * row[i]
    return t, t_inv


def _unit(rng: random.Random) -> int:
    return rng.choice((1, -1))


# -- documents --------------------------------------------------------------


@dataclass
class Instance:
    """One generated workspace document with the facts needed to check answers."""

    n: int
    p: int
    doc: dict
    text: str

    @property
    def vertices(self) -> List[str]:
        """Vertex labels in the document's quiver order."""
        return self.doc["quiver"]["vertices"]

    def by_label(self, dims) -> Tuple[int, ...]:
        """Reorder a dimension vector given in quiver order into vertex 1..n order."""
        table = dict(zip(self.vertices, dims))
        return tuple(int(table[str(v)]) for v in range(1, self.n + 1))

    def in_quiver_order(self, dims: Tuple[int, ...]) -> List[int]:
        return [dims[int(label) - 1] for label in self.vertices]


def ka_document(n: int, p: int, rng: random.Random) -> Instance:
    """A seeded isomorphic copy of the KA_n/rad^2 workspace over F_p.

    Every entry is an integer whose presentation is valid over every prime
    field, so the document also survives ``dct --field q``.
    """
    if not 2 <= n <= len(ARROW_NAMES) + 1:
        raise ValueError(f"n = {n} is outside 2..{len(ARROW_NAMES) + 1}")
    labels = [str(v) for v in range(1, n + 1)]
    vertex_order = labels[:]
    rng.shuffle(vertex_order)
    arrows = [
        {"name": ARROW_NAMES[i - 1], "source": str(i), "target": str(i + 1)}
        for i in range(1, n)
    ]
    rng.shuffle(arrows)
    relations = [
        [[_unit(rng), [ARROW_NAMES[i - 1], ARROW_NAMES[i]]]] for i in range(1, n - 1)
    ]
    rng.shuffle(relations)

    modules: Dict[str, dict] = {}
    for i in range(1, n + 1):
        modules[f"S{i}"] = {"dims": {str(i): 1}}
    for i in range(1, n):
        modules[f"P{i}"] = {
            "dims": {str(i): 1, str(i + 1): 1},
            "maps": {ARROW_NAMES[i - 1]: [[_unit(rng)]]},
        }
    gens = generator_names(n)
    rng.shuffle(gens)
    modules[SUM_NAME] = _rebased_sum(n, [modules[g] for g in gens], rng)
    morphisms = {
        f"cover{i}": {
            "from": f"P{i}",
            "to": f"S{i}",
            "comps": {str(i): [[_unit(rng)]]},
        }
        for i in range(1, n)
    }
    doc = {
        "field": p,
        "bound": 2,
        "d": n - 1,
        "quiver": {"vertices": vertex_order, "arrows": arrows},
        "relations": relations,
        "modules": modules,
        "morphisms": morphisms,
        "categories": {"M": {"generators": gens}},
    }
    return Instance(n, p, doc, json.dumps(doc, sort_keys=True))


def _rebased_sum(n: int, parts: List[dict], rng: random.Random) -> dict:
    """Block-diagonal sum of the parts, then T_t A T_s^-1 on every arrow."""
    dims = {str(v): 0 for v in range(1, n + 1)}
    offsets = {str(v): [] for v in range(1, n + 1)}
    for m in parts:
        for v in dims:
            offsets[v].append(dims[v])
            dims[v] += m["dims"].get(v, 0)
    change = {v: _random_unimodular(rng, k) for v, k in dims.items() if k}
    maps = {}
    for i in range(1, n):
        s, t, name = str(i), str(i + 1), ARROW_NAMES[i - 1]
        if not dims[s] or not dims[t]:
            continue
        block = [[0] * dims[s] for _ in range(dims[t])]
        for j, m in enumerate(parts):
            if name in m.get("maps", {}):
                block[offsets[t][j]][offsets[s][j]] = m["maps"][name][0][0]
        t_t, _ = change[t]
        _, t_s_inv = change[s]
        maps[name] = _matmul(_matmul(t_t, block), t_s_inv)
    return {"dims": {v: k for v, k in dims.items() if k}, "maps": maps}


class DistinctDocuments:
    """Draws documents whose text never repeats within one run."""

    def __init__(self, seed: int, max_tries: int = 1000):
        self.rng = random.Random(seed)
        self.seen = set()
        self.max_tries = max_tries

    def draw(self, n: int, p: int) -> Instance:
        for _ in range(self.max_tries):
            inst = ka_document(n, p, self.rng)
            if inst.text not in self.seen:
                self.seen.add(inst.text)
                return inst
        raise RuntimeError(f"no fresh document for n={n}, p={p} after {self.max_tries} draws")
