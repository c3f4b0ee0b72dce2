"""Independent reference computations for checking quivsheaf's outputs.

Nothing here imports quivsheaf.  A quiver is a ``Q`` (vertex names in file
order, edges as ``(id, src, dst)`` triples); a presheaf is a pair
``(dims, maps)`` with ``maps[e]`` a list of ``Fraction`` rows for the map
F(dst e) -> F(src e).  A path is a tuple of edge ids in traversal order,
so ``("a", "e")`` walks ``a`` first and ends at ``dst(e)``; the empty tuple
is the identity.  Labels follow the CLI's report format: ``id:v`` for an
identity and ``a.e`` otherwise.

The sheaf rule used throughout: in a free path category the members of a
sieve S on v with no proper suffix in S (its generators) determine every
compatible family, so a presheaf F is a sheaf for S exactly when the
stacked map F(v) -> sum of F(src r) over the generators r is square and
invertible.
"""

from __future__ import annotations

from fractions import Fraction


class Q:
    """An acyclic quiver with the path and sieve structure the checks need."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple(tuple(e) for e in edges)
        self.src = {e: s for e, s, _ in self.edges}
        self.dst = {e: d for e, _, d in self.edges}
        self.into = {v: [e for e, _, d in self.edges if d == v] for v in self.vertices}
        self._paths = {}
        self._sieves = {}

    @classmethod
    def from_json(cls, data) -> "Q":
        return cls(data["vertices"], [(e["id"], e["src"], e["dst"]) for e in data["edges"]])

    def source(self, v, path) -> str:
        return self.src[path[0]] if path else v

    def paths_into(self, v) -> tuple:
        """Every path ending at v, the identity first."""
        if v not in self._paths:
            out = [()]
            for e in self.into[v]:
                out.extend(p + (e,) for p in self.paths_into(self.src[e]))
            self._paths[v] = tuple(out)
        return self._paths[v]

    def sieves(self, v) -> tuple:
        """Every sieve on v, as frozensets of paths.

        The paths into v form a tree under one-edge extension at the source
        end, and a sieve is a union of whole subtrees of it.
        """
        if v not in self._sieves:

            def closed_subsets(path):
                subtree = frozenset(p for p in self.paths_into(self.source(v, path)))
                whole = frozenset(p + path for p in subtree)
                out = [whole]
                partial = [frozenset()]
                for e in self.into[self.source(v, path)]:
                    child = closed_subsets((e,) + path)
                    partial = [a | b for a in partial for b in child]
                out.extend(partial)
                return out

            self._sieves[v] = tuple(closed_subsets(()))
        return self._sieves[v]

    def max_in_degree(self) -> int:
        return max((len(es) for es in self.into.values()), default=0)

    def has_path_of_length_two(self) -> bool:
        return any(self.into[self.src[e]] for e, _, _ in self.edges)


def label(v, path) -> str:
    return ".".join(path) if path else f"id:{v}"


def parse_label(q: Q, v, text) -> tuple:
    if text == f"id:{v}":
        return ()
    path = tuple(text.split("."))
    if not all(e in q.src for e in path):
        raise ValueError(f"unknown edge in path {text!r}")
    for a, b in zip(path, path[1:]):
        if q.dst[a] != q.src[b]:
            raise ValueError(f"path {text!r} is not composable")
    if q.dst[path[-1]] != v:
        raise ValueError(f"path {text!r} does not end at {v!r}")
    return path


def parse_sieve(q: Q, data) -> tuple:
    """(codomain, frozenset of paths) from a report's sieve object."""
    v = data["codomain"]
    return v, frozenset(parse_label(q, v, m) for m in data["members"])


def is_sieve(q: Q, v, members) -> bool:
    return all(
        g + f in members for f in members for g in q.paths_into(q.source(v, f))
    )


def pullback(q: Q, v, f, members) -> frozenset:
    """f*(S) = the paths g into dom(f) with g then f in S."""
    return frozenset(g for g in q.paths_into(q.source(v, f)) if g + f in members)


def generators(members) -> list:
    """The members of a sieve with no proper suffix in it."""
    return [p for p in members if not any(p[k:] in members for k in range(1, len(p) + 1))]


def covers(q: Q, topology: str, v, members) -> bool:
    everything = q.paths_into(v)
    if topology == "coarse":
        return len(members) == len(everything)
    if topology == "discrete":
        return bool(members)
    if topology == "discrete+empty":
        return True
    if topology == "edge":
        if q.into[v]:
            return any(len(p) == 1 for p in members)
        return len(members) == len(everything)
    if topology.startswith("graded:"):
        n = int(topology.split(":", 1)[1])
        return all(p in members for p in everything if len(p) <= n)
    raise ValueError(f"unknown topology {topology!r}")


def expected_axioms(q: Q, topology: str) -> dict:
    """Which of GT1, GT2, GT3 hold, from closed-form rules.

    coarse, discrete+empty and graded:n always hold: a covering sieve for
    graded:n holds every path of length <= n, and every longer path extends
    one of length n, so the only covering sieve is the maximal one.  For
    discrete and edge a sieve generated by one edge into v pulls back to the
    empty sieve along another edge into v, so GT2 holds exactly when no
    vertex has two incoming edges.  discrete keeps GT3 because only the
    empty sieve fails to cover; edge loses GT3 exactly when some path has
    length two (take R = the paths of length >= 2 into its end).
    """
    if topology in ("coarse", "discrete+empty") or topology.startswith("graded:"):
        return {"gt1": True, "gt2": True, "gt3": True}
    gt2 = q.max_in_degree() <= 1
    if topology == "discrete":
        return {"gt1": True, "gt2": gt2, "gt3": True}
    if topology == "edge":
        return {"gt1": True, "gt2": gt2, "gt3": not q.has_path_of_length_two()}
    raise ValueError(f"unknown topology {topology!r}")


def check_counterexample(q: Q, topology: str, axiom: str, cx: dict) -> None:
    """Re-verify one reported counterexample; raise ValueError if it is wrong."""
    v = cx["vertex"]
    if v not in q.into:
        raise ValueError(f"unknown vertex {v!r}")
    if axiom == "gt1":
        w, s = parse_sieve(q, cx["sieve"])
        if w != v or len(s) != len(q.paths_into(v)) or covers(q, topology, v, s):
            raise ValueError("GT1 witness is not an uncovered maximal sieve")
        return
    if axiom == "gt2":
        w, s = parse_sieve(q, cx["sieve"])
        f = parse_label(q, v, cx["morphism"])
        u, pulled = parse_sieve(q, cx["pullback"])
        if w != v or not is_sieve(q, v, s) or not covers(q, topology, v, s):
            raise ValueError("GT2 witness sieve is not a covering sieve")
        if u != q.source(v, f) or pulled != pullback(q, v, f, s):
            raise ValueError("GT2 witness pullback is wrong")
        if covers(q, topology, u, pulled):
            raise ValueError("GT2 witness pullback covers")
        return
    if axiom == "gt3":
        w, s = parse_sieve(q, cx["covering"])
        u, r = parse_sieve(q, cx["candidate"])
        if w != v or u != v or not is_sieve(q, v, s) or not is_sieve(q, v, r):
            raise ValueError("GT3 witness sieves are malformed")
        if not covers(q, topology, v, s) or covers(q, topology, v, r):
            raise ValueError("GT3 witness has the wrong covering pattern")
        for f in s:
            if not covers(q, topology, q.source(v, f), pullback(q, v, f, r)):
                raise ValueError("GT3 witness hypothesis fails")
        return
    raise ValueError(axiom)


# -- exact linear algebra -----------------------------------------------------


def rank(rows, ncols) -> int:
    """Rank of a Fraction matrix by Gaussian elimination."""
    m = [list(r) for r in rows]
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                factor = m[i][c] / top[c]
                m[i] = [a - factor * b for a, b in zip(m[i], top)]
        r += 1
        if r == len(m):
            break
    return r


def matmul(a, b, bcols):
    return [
        [sum((row[k] * b[k][j] for k in range(len(row))), Fraction(0)) for j in range(bcols)]
        for row in a
    ]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(rows, ncols):
    return [[r[j] for r in rows] for j in range(ncols)]


def is_invertible(rows, nrows, ncols) -> bool:
    return nrows == ncols and rank(rows, ncols) == ncols


class Presheaf:
    """F(e): F(dst e) -> F(src e) with restriction maps along paths memoized."""

    def __init__(self, q: Q, dims, maps):
        self.q = q
        self.dims = dims
        self.maps = maps
        self._along = {}

    def along(self, v, path):
        """F(path): F(v) -> F(src path); the path ends at v."""
        key = (v, path)
        if key not in self._along:
            if not path:
                value = identity(self.dims[v])
            else:
                head = self.maps[path[0]]
                rest = self.along(v, path[1:])
                value = matmul(head, rest, self.dims[v])
            self._along[key] = value
        return self._along[key]

    def section_rows(self, v, paths) -> list:
        rows = []
        for p in paths:
            rows.extend(self.along(v, p))
        return rows

    def sheaf_for(self, v, members) -> tuple:
        """(holds, injective) for the sieve by the generator rule."""
        gens = generators(members)
        rows = self.section_rows(v, gens)
        r = rank(rows, self.dims[v])
        return len(rows) == self.dims[v] == r, r == self.dims[v]

    def is_compatible(self, v, family) -> bool:
        """family: path -> vector; F(g)(x_f) = x_(g then f) for every g."""
        for f, x in family.items():
            u = self.q.source(v, f)
            for g in self.q.paths_into(u):
                image = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in self.along(u, g)]
                if family.get(g + f) != image:
                    return False
        return True

    def in_section_image(self, v, family) -> bool:
        paths = sorted(family)
        rows = self.section_rows(v, paths)
        target = [x for p in paths for x in family[p]]
        augmented = [row + [t] for row, t in zip(rows, target)]
        return rank(rows, self.dims[v]) == rank(augmented, self.dims[v] + 1)


def colimit_dim(F: Presheaf, component) -> int:
    """dim of the colimit of F over one connected component: the direct sum
    of the F(v) modulo x_dst ~ F(e) x_dst in F(src)."""
    q = F.q
    offset = {}
    total = 0
    for v in component:
        offset[v] = total
        total += F.dims[v]
    relations = []
    for e, s, d in q.edges:
        if s not in offset:
            continue
        m = F.maps[e]
        for j in range(F.dims[d]):
            rel = [Fraction(0)] * total
            rel[offset[d] + j] += 1
            for i in range(F.dims[s]):
                rel[offset[s] + i] -= m[i][j]
            relations.append(rel)
    return total - rank(relations, total)


def components(q: Q) -> list:
    parent = {v: v for v in q.vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for _, s, d in q.edges:
        parent[find(d)] = find(s)
    groups = {}
    for v in q.vertices:
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def rational(text) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"matrix entry {text!r} is not a string")
    return Fraction(text)

