"""Bound quiver algebras kQ/I over a prime field.

A presentation is a quiver, a list of parallel-path relations, and a
nilpotency bound N asserting rad^N = 0 in the quotient.  The algebra is
realized linearly by one reduction of the relation ideal, over the paths of
length up to D = N + (longest relation term).  A multiple u*r*w of a
relation combines paths from the source of u to the target of w, so the
multiples are filed under those (source, target) blocks and each block is
row-reduced on its own.  The reduced rows give everything at once.  Every
path of length exactly N must be a pivot whose row is itself: that is
bounded-degree ideal membership, and a failure reports a witness.  The
non-pivot paths of length below N form the canonical basis.  The pivot rows,
restricted to the basis and negated, are the normal forms, stored sparse as
(basis index, coefficient) pairs.  Paths of length N or more vanish in the
quotient, and a multiple with a term shorter than N has no term longer than
D, so these are the normal forms of kQ/I.  They are kept as one table, basis
path times arrow, which every product, projective and opposite reads.

Paths are written in traversal order: the word (a, b) means "walk a, then
b", so it composes when target(a) = source(b).  Products in the algebra
concatenate words the same way, which makes the projective right module at
a vertex v the span of residue paths starting at v.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple
from weakref import WeakValueDictionary

from . import config
from .errors import CapExceeded, DimensionMismatch, NotAdmissible
from .exactlin import PrimeField


class Arrow(NamedTuple):
    name: str
    source: int
    target: int


class Quiver:
    """A finite quiver with string vertex labels and named arrows."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[Tuple[str, str, str]]):
        vertices = [str(v) for v in vertices]
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
        if not vertices:
            raise ValueError("a quiver needs at least one vertex")
        self.vertices: Tuple[str, ...] = tuple(vertices)
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        arr = []
        names = set()
        for name, src, tgt in arrows:
            name = str(name)
            if name in names:
                raise ValueError(f"duplicate arrow name {name!r}")
            if str(src) not in self._vindex or str(tgt) not in self._vindex:
                raise ValueError(f"arrow {name!r} references an unknown vertex")
            names.add(name)
            arr.append(Arrow(name, self._vindex[str(src)], self._vindex[str(tgt)]))
        self.arrows: Tuple[Arrow, ...] = tuple(arr)
        self._aindex = {a.name: i for i, a in enumerate(self.arrows)}
        # per vertex, the indices of the arrows ending and starting there
        self.arrows_into: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(i for i, a in enumerate(arr) if a.target == v) for v in range(len(vertices)))
        self.arrows_out: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(i for i, a in enumerate(arr) if a.source == v) for v in range(len(vertices)))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def vertex_index(self, label: str) -> int:
        try:
            return self._vindex[str(label)]
        except KeyError:
            raise ValueError(f"unknown vertex {label!r}") from None

    def arrow_index(self, name: str) -> int:
        try:
            return self._aindex[str(name)]
        except KeyError:
            raise ValueError(f"unknown arrow {name!r}") from None

    def reversed(self) -> "Quiver":
        return Quiver(
            self.vertices,
            [
                (a.name, self.vertices[a.target], self.vertices[a.source])
                for a in self.arrows
            ],
        )

    def __repr__(self):
        arrows = ", ".join(
            f"{a.name}:{self.vertices[a.source]}->{self.vertices[a.target]}"
            for a in self.arrows
        )
        return f"Quiver({list(self.vertices)}; {arrows})"


class Path(NamedTuple):
    """A directed path, stored as arrow indices in traversal order.

    The source vertex is carried explicitly so that length-zero paths
    (the vertex idempotents) are representable.
    """

    source: int
    arrows: Tuple[int, ...]

    def target(self, quiver: Quiver) -> int:
        return quiver.arrows[self.arrows[-1]].target if self.arrows else self.source

    def __len__(self):
        # The path's length, not the record's field count.
        return len(self.arrows)


class RelationElement(NamedTuple):
    """A linear combination of parallel paths of length at least two."""

    terms: Tuple[Tuple[int, Path], ...]
    source: int
    target: int


def _enumerate_paths(quiver: Quiver, max_len: int) -> List[Path]:
    """All paths of length <= max_len, sorted length-lexicographically by arrow name."""
    out = [Path(v, ()) for v in range(quiver.n_vertices)]
    frontier = [(path, path.source) for path in out]  # each path with its target
    for _ in range(max_len):
        new = [(Path(path.source, path.arrows + (i,)), quiver.arrows[i].target)
               for path, t in frontier for i in quiver.arrows_out[t]]
        out.extend(path for path, _ in new)
        if len(out) > config.PATH_CAP:
            raise CapExceeded.over(
                f"path enumeration to length {max_len}", None,
                f"{len(out)}+ paths", config.PATH_CAP, "config.PATH_CAP",
            )
        frontier = new
        if not frontier:
            break
    names = [a.name for a in quiver.arrows]
    out.sort(key=lambda p: (len(p.arrows), [names[i] for i in p.arrows], p.source))
    return out


def _parse_relations(quiver: Quiver, relations, field: PrimeField) -> List[RelationElement]:
    parsed = []
    for rel in relations:
        terms = []
        src = tgt = None
        for coeff, word in rel:
            arrows = tuple(quiver.arrow_index(a) for a in word)
            if len(arrows) < 2:
                raise ValueError("relation paths must have length at least 2")
            for x, y in zip(arrows, arrows[1:]):
                if quiver.arrows[x].target != quiver.arrows[y].source:
                    raise ValueError(f"relation word {list(word)} is not a path")
            path = Path(quiver.arrows[arrows[0]].source, arrows)
            psrc, ptgt = path.source, path.target(quiver)
            if src is None:
                src, tgt = psrc, ptgt
            elif (psrc, ptgt) != (src, tgt):
                raise ValueError("relation terms are not parallel paths")
            c = coeff % field.p
            if c:
                terms.append((c, path))
        if terms:
            parsed.append(RelationElement(tuple(terms), src, tgt))
    return parsed


class BoundQuiverAlgebra:
    """A finite-dimensional quotient of a path algebra by an admissible ideal.

    Attributes:
        quiver: the underlying quiver.
        relations: parsed relation elements.
        bound: the nilpotency witness N (rad^N = 0).
        field: scalars.
        path_basis: residue paths forming the canonical basis.
        _times: (basis index, arrow index) -> normal form of the product; absent is zero.
    """

    def __init__(self, quiver, relations, bound, field, _internal=None):
        self.quiver = quiver
        self.relations = relations
        self.bound = bound
        self.field = field
        self._opposite: Optional["BoundQuiverAlgebra"] = None
        self._cache: Dict[object, object] = {}  # facts kept by repcat._kept, such as projectives
        self._modules = WeakValueDictionary()  # one live module per content, kept by repcat.Module
        self.path_basis, self._times = _internal or self._build_basis()
        between = {}  # basis indices, in path-basis order
        for i, path in enumerate(self.path_basis):
            between.setdefault((path.source, path.target(quiver)), []).append(i)
        self._between = {key: tuple(idx) for key, idx in between.items()}

    # -- construction -------------------------------------------------

    def _build_basis(self):
        quiver, n, p = self.quiver, self.bound, self.field.p
        degree = n + max((len(t) for r in self.relations for _, t in r.terms), default=0)
        paths = _enumerate_paths(quiver, degree)
        blocks, reduced = self._reduce_ideal(paths, degree)
        # with fully reduced rows, a path lies in the span exactly when its row is itself
        for path in paths:
            if len(path) == n and len(reduced.get(path, ())) != 1:
                names = tuple(quiver.arrows[i].name for i in path.arrows)
                raise NotAdmissible(
                    f"path {'*'.join(names)} of length {n} does not lie in the "
                    "relation ideal; the nilpotency bound is not witnessed",
                    witness=names,
                )
        basis = [path for path in paths if len(path) < n and path not in reduced]
        position = {path: i for i, path in enumerate(basis)}
        # the table: the nonzero (basis index, coefficient) pairs of each short u*a
        times = {}
        for i, u in enumerate(basis):
            for a in quiver.arrows_out[u.target(quiver)] if len(u) + 1 < n else ():
                path = Path(u.source, u.arrows + (a,))
                if path in position:
                    times[i, a] = ((position[path], 1),)
                else:
                    block = blocks[path.source, path.target(quiver)]
                    times[i, a] = tuple((position[block[c]], -x % p) for c, x
                                        in sorted(reduced[path].items()) if block[c] in position)
        return tuple(basis), times

    def _reduce_ideal(self, paths, max_len):
        """Fully reduced rows spanning the relation ideal, one (source, target) block at a time.

        `paths` are all paths of length <= max_len, shortest first, and a
        multiple u*r*w is used when all its terms have length <= max_len.
        It lies in the block of paths from u.source to w.target, and blocks
        share no columns, so the pivots are those of one reduction over all
        paths.  Each multiple is reduced against the fully reduced pivot
        rows found so far; as the reduced echelon form is unique, they end
        as one reduction of the block would leave them.  Returns the paths
        of each block and, for each pivot path, its reduced row over its
        block as a {column: entry} dict.
        """
        quiver, p = self.quiver, self.field.p
        blocks, column, ending, starting = {}, {}, {}, {}
        for path in paths:
            key = (path.source, path.target(quiver))
            column[path] = len(blocks.setdefault(key, []))
            blocks[key].append(path)
            ending.setdefault(key[1], []).append(path)
            starting.setdefault(key[0], []).append(path)
        pivots = {key: {} for key in blocks}
        for rel in self.relations:
            room = max_len - max(len(t) for _, t in rel.terms)
            for u in ending.get(rel.source, ()):
                for w in starting.get(rel.target, ()):
                    if len(u) + len(w) > room:
                        break
                    rows = pivots[u.source, w.target(quiver)]
                    row = {}
                    for coeff, t in rel.terms:
                        c = column[Path(u.source, u.arrows + t.arrows + w.arrows)]
                        row[c] = row.get(c, 0) + coeff
                    # pivot rows vanish at every other pivot column, so one pass clears them
                    for c, x in [(c, x) for c, x in row.items() if c in rows]:
                        for k, y in rows[c].items():
                            row[k] = row.get(k, 0) - x * y
                    row = {k: x % p for k, x in row.items() if x % p}
                    if row:
                        lead = min(row)
                        inv = pow(row[lead], p - 2, p)
                        row = {k: x * inv % p for k, x in row.items()}
                        for other in rows.values():
                            x = other.get(lead)
                            if x:
                                for k, y in row.items():
                                    other[k] = (other.get(k, 0) - x * y) % p
                                for k in [k for k, y in other.items() if not y]:
                                    del other[k]
                        rows[lead] = row
        reduced = {}
        for key, block in blocks.items():
            reduced.update((block[c], row) for c, row in pivots[key].items())
        return blocks, reduced

    # -- basic structure ----------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.path_basis)

    def basis_target(self, i: int) -> int:
        return self.path_basis[i].target(self.quiver)

    def basis_indices_from(self, v: int) -> Tuple[int, ...]:
        return tuple(i for i, path in enumerate(self.path_basis) if path.source == v)

    def basis_indices_between(self, u: int, v: int) -> Tuple[int, ...]:
        """Basis paths from u to v, in path-basis order (as projective() lays them out)."""
        return self._between.get((u, v), ())

    def _walk(self, i: int, arrows) -> Tuple[Tuple[int, int], ...]:
        """The normal form of basis path i followed by `arrows`, read off the table."""
        p, vec = self.field.p, {i: 1}
        for a in arrows:
            out: Dict[int, int] = {}
            for k, x in vec.items():
                for j, c in self._times.get((k, a), ()):
                    out[j] = (out.get(j, 0) + x * c) % p
            vec = {j: x for j, x in out.items() if x}
        return tuple(sorted(vec.items()))

    def multiply(self, x: Sequence[int], y: Sequence[int]) -> List[int]:
        """Product of two coordinate vectors over the path basis."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("coordinate vectors of wrong length")
        p, basis, out = self.field.p, self.path_basis, [0] * self.dim
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                if a % p and b % p and basis[i].target(self.quiver) == basis[j].source:
                    for k, c in self._walk(i, basis[j].arrows):
                        out[k] += a * b * c
        return [s % p for s in out]

    # -- the opposite algebra -----------------------------------------

    def opposite(self) -> "BoundQuiverAlgebra":
        """The opposite algebra, built by reversing every stored path.

        Reversal is an anti-isomorphism, so the reversed path basis is a
        valid basis of the opposite algebra and normal forms carry over
        coordinate for coordinate: the opposite product of basis path q by
        an arrow a is a*q here, the arrow a walked along q in the table.
        The operation is strictly involutive: opposite() of the result is
        this very object again.
        """
        if self._opposite is not None:
            return self._opposite
        quiver_op = self.quiver.reversed()

        def rev(path: Path) -> Path:
            return Path(path.target(self.quiver), tuple(reversed(path.arrows)))

        relations_op = [
            RelationElement(
                tuple((c, rev(t)) for c, t in rel.terms), rel.target, rel.source
            )
            for rel in self.relations
        ]
        basis_op = tuple(rev(p) for p in self.path_basis)
        arrow_at = {path.arrows[0]: i for i, path in enumerate(self.path_basis) if len(path) == 1}
        times_op = {(i, a): self._walk(arrow_at[a], q.arrows) for i, q in enumerate(self.path_basis)
                    for a in self.quiver.arrows_into[q.source] if a in arrow_at}
        opp = BoundQuiverAlgebra(
            quiver_op,
            relations_op,
            self.bound,
            self.field,
            _internal=(basis_op, times_op),
        )
        opp._opposite = self
        self._opposite = opp
        return opp

    def __repr__(self):
        return (
            f"BoundQuiverAlgebra(dim={self.dim}, vertices={len(self.quiver.vertices)}, "
            f"arrows={len(self.quiver.arrows)}, p={self.field.p}, N={self.bound})"
        )


def build_algebra(
    quiver: Quiver,
    relations,
    bound: int,
    field: PrimeField,
) -> BoundQuiverAlgebra:
    """Build kQ/I from a presentation.

    Args:
        quiver: the quiver Q.
        relations: iterable of relations, each a list of (coefficient, word)
            terms where a word is a sequence of arrow names in traversal
            order.
        bound: nilpotency witness N >= 1; rad^N = 0 must hold in kQ/I.
        field: the prime field of scalars.

    Raises:
        NotAdmissible: when some path of length N is not certified to lie
            in the relation ideal.
        ValueError: malformed presentation.
    """
    if bound < 1:
        raise ValueError("nilpotency bound must be at least 1")
    parsed = _parse_relations(quiver, relations, field)
    return BoundQuiverAlgebra(quiver, parsed, bound, field)
