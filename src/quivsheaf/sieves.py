"""Sieves on path categories, the four covering-sieve policies, and a
mechanized auditor for the Grothendieck axioms with counterexample
extraction.

The morphisms into a vertex form a tree (see quiver.py) and a sieve is a
union of subtrees, held as a bitmask over the canonical morphism list and
enumerated as such unions.  A covering policy becomes one mask test per
morphism, which decides the pullback and transitivity axioms without
pulling sieves back.  The audit is exhaustive, never sampled; a vertex with
more morphisms than the limit raises TooManyMorphismsError before any path
is listed.  The tables are held by the quiver and go with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .quiver import (
    PathMorphism,
    Quiver,
    _paths_into,
    compose,
    morphisms_into,
    path_counts,
)

DEFAULT_SIEVE_LIMIT = 14


class SieveError(Exception):
    pass


class WrongCodomainError(SieveError):
    pass


class CodomainMismatchError(SieveError):
    pass


class TooManyMorphismsError(SieveError):
    def __init__(self, vertex: str, count: int, limit: int):
        self.vertex = vertex
        self.count = count
        self.limit = limit
        super().__init__(
            f"{count} morphisms into {vertex!r} exceeds the sieve enumeration limit {limit}"
        )


class InvalidTopologyError(SieveError):
    pass


class NotASieveError(SieveError):
    """A set of morphisms that is not closed under precomposition."""


@dataclass(frozen=True)
class Sieve:
    """A precomposition-closed set of morphisms sharing a codomain."""

    codomain: str
    members: frozenset

    @property
    def size(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list:
        return sorted(self.members, key=PathMorphism.key)

    def labels(self) -> list:
        return [m.label() for m in self.sorted_members()]

    def canonical_key(self) -> tuple:
        return (self.size, tuple(m.key() for m in self.sorted_members()))

    def contains(self, f: PathMorphism) -> bool:
        return f in self.members


def is_closed(q: Quiver, s: Sieve) -> bool:
    """Re-checkable closure validator: f in s and g into dom(f) imply f o g in s."""
    for f in s.members:
        if f.target != s.codomain:
            return False
        for g in morphisms_into(q, f.source):
            if compose(g, f) not in s.members:
                return False
    return True


def maximal_sieve(q: Quiver, v: str) -> Sieve:
    return Sieve(v, frozenset(morphisms_into(q, v)))


def generate_sieve(q: Quiver, v: str, generators: Iterable[PathMorphism]) -> Sieve:
    """Smallest precomposition-closed superset of the generators."""
    members = set()
    for f in generators:
        if f.target != v:
            raise WrongCodomainError(
                f"generator {f.label()} targets {f.target!r}, not {v!r}"
            )
        for g in morphisms_into(q, f.source):
            members.add(compose(g, f))
    return Sieve(v, frozenset(members))


def pullback_sieve(q: Quiver, f: PathMorphism, s: Sieve) -> Sieve:
    """f*(s) = all g with target dom(f) such that f o g lies in s."""
    if s.codomain != f.target:
        raise CodomainMismatchError(
            f"sieve on {s.codomain!r} cannot be pulled back along a morphism into {f.target!r}"
        )
    members = frozenset(
        g for g in morphisms_into(q, f.source) if compose(g, f) in s.members
    )
    return Sieve(f.source, members)


@dataclass(frozen=True)
class TopologySpec:
    """One of the four covering-sieve policies.

    kind is "coarse", "discrete", "edge" or "graded"; include_empty applies
    to the discrete kind only; grade applies to the graded kind only.
    """

    kind: str
    include_empty: bool = False
    grade: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("coarse", "discrete", "edge", "graded"):
            raise InvalidTopologyError(f"unknown topology kind {self.kind!r}")
        if self.kind == "graded":
            if self.grade is None or self.grade < 0:
                raise InvalidTopologyError("graded topology needs a grade n >= 0")

    @classmethod
    def coarse(cls) -> "TopologySpec":
        return cls("coarse")

    @classmethod
    def discrete(cls, include_empty: bool = False) -> "TopologySpec":
        return cls("discrete", include_empty=include_empty)

    @classmethod
    def edge_generated(cls) -> "TopologySpec":
        return cls("edge")

    @classmethod
    def length_graded(cls, n: int) -> "TopologySpec":
        return cls("graded", grade=n)

    @classmethod
    def parse(cls, text: str) -> "TopologySpec":
        text = text.strip()
        if text == "coarse":
            return cls.coarse()
        if text == "discrete":
            return cls.discrete(include_empty=False)
        if text == "discrete+empty":
            return cls.discrete(include_empty=True)
        if text == "edge":
            return cls.edge_generated()
        if text.startswith("graded:"):
            try:
                n = int(text.split(":", 1)[1])
            except ValueError:
                raise InvalidTopologyError(f"bad grade in {text!r}") from None
            return cls.length_graded(n)
        raise InvalidTopologyError(f"unknown topology {text!r}")

    def describe(self) -> str:
        if self.kind == "discrete":
            return "discrete+empty" if self.include_empty else "discrete"
        if self.kind == "graded":
            return f"graded:{self.grade}"
        return self.kind


class _VertexTable:
    """The morphisms into one vertex as a tree, indexed in canonical order:
    the identity is the root 0 and a child (one more edge in front) comes
    after its parent, parent[i] (the root is its own parent).  A sieve is a
    bitmask and a union of subtrees."""

    def __init__(self, q: Quiver, v: str):
        self.vertex = v
        self.morphisms = _paths_into(q, v)
        self.index = {m: i for i, m in enumerate(self.morphisms)}
        n = len(self.morphisms)
        self.maximal_mask = (1 << n) - 1
        position = {m.edges: i for i, m in enumerate(self.morphisms)}
        self.parent = [0] + [position[m.edges[1:]] for m in self.morphisms[1:]]
        self.children = [[] for _ in range(n)]
        self.subtree = [1 << i for i in range(n)]
        for i in range(n - 1, 0, -1):
            self.children[self.parent[i]].append(i)
            self.subtree[self.parent[i]] |= self.subtree[i]
        self._sieve_masks = None
        self._probes = {}

    def mask_of(self, s: Sieve) -> int:
        try:
            return sum(1 << self.index[m] for m in s.members)
        except KeyError as missing:
            raise NotASieveError(f"{missing.args[0].label()} is not a morphism into {self.vertex!r}") from None

    def generators(self, mask: int) -> list:
        """The members of the sieve `mask` whose parent is not a member: each
        member is one of them followed by a path, in exactly one way."""
        if mask & 1:
            return [0]
        return [i for i, p in enumerate(self.parent) if mask >> i & 1 and not mask >> p & 1]

    def sieve_of(self, mask: int) -> Sieve:
        return Sieve(
            self.vertex,
            frozenset(m for i, m in enumerate(self.morphisms) if mask >> i & 1),
        )

    def sieve_masks(self, limit: int) -> list:
        """Every sieve, in the order of Sieve.canonical_key: size, then the
        member indices ascending, as members are indexed canonically."""
        n = len(self.morphisms)
        if n > limit:
            raise TooManyMorphismsError(self.vertex, n, limit)
        if self._sieve_masks is None:
            # the sieves under node i: its whole subtree, or one sieve under
            # each child, combined
            under = [None] * n
            for i in range(n - 1, -1, -1):
                unions = [0]
                for c in self.children[i]:
                    unions = [u | s for u in unions for s in under[c]]
                unions.append(self.subtree[i])
                under[i] = unions
            # among sieves of one size the member lists compare as the masks
            # read from bit 0 down, reversed: the first member that differs
            # is the highest bit that differs
            self._sieve_masks = sorted(
                under[0],
                key=lambda mask: (mask.bit_count(), -int(f"{mask:0{n}b}"[::-1], 2)),
            )
        return self._sieve_masks

    def probes(self, t: TopologySpec) -> tuple:
        """(need_all, probes) of t: a sieve S pulls back along morphism i to a
        covering sieve exactly when S & probes[i] is all of probes[i] (need_all)
        or not empty; probes[i] is dom(i)'s test carried into i's subtree."""
        if t not in self._probes:
            if t.kind == "edge":
                # a vertex without incoming edges is covered only by its
                # maximal sieve, the identity alone, keeping GT1
                tests = (False, [sum(1 << c for c in cs) or 1 << i for i, cs in enumerate(self.children)])
            elif t.include_empty:
                tests = (True, [0] * len(self.subtree))
            else:
                # coarse needs all of the subtree, discrete any of it; graded
                # asks for the paths of length <= n, which contain the
                # identity, and a sieve with the identity is maximal
                tests = (t.kind != "discrete", self.subtree)
            self._probes[t] = tests
        return self._probes[t]

    def covered_along(self, t: TopologySpec, masks: list) -> list:
        """For each sieve in `masks`, the bits of the morphisms along which it
        pulls back to a covering sieve; bit 0, the identity, says whether it
        covers."""
        need_all, probes = self.probes(t)
        return [
            sum(1 << i for i, p in enumerate(probes) if (mask & p == p if need_all else mask & p))
            for mask in masks
        ]

    def covers(self, t: TopologySpec, mask: int) -> bool:
        need_all, probes = self.probes(t)
        return mask & probes[0] == probes[0] if need_all else bool(mask & probes[0])

    def covering_masks(self, t: TopologySpec, limit: int) -> list:
        """The covering sieves of t, canonical order.  The only covering
        sieve of coarse, and of graded:n (its probe, the paths of length
        <= n, holds the identity), is the maximal one, so neither lists the
        sieves.  Coarse needs no limit; graded keeps the one its listing had."""
        if t.kind == "graded" and len(self.morphisms) > limit:
            raise TooManyMorphismsError(self.vertex, len(self.morphisms), limit)
        if t.kind in ("coarse", "graded"):
            return [self.maximal_mask]
        need_all, probes = self.probes(t)
        root = probes[0]
        return [mask for mask in self.sieve_masks(limit) if (mask & root == root if need_all else mask & root)]


def _vertex_table(q: Quiver, v: str) -> _VertexTable:
    table = q._sieve_tables.get(v)
    if table is None:
        table = q._sieve_tables[v] = _VertexTable(q, v)
    return table


def check_sieve(q: Quiver, s: Sieve) -> int:
    """Raise NotASieveError unless s is closed under precomposition;
    return its mask in the table of s.codomain."""
    table = _vertex_table(q, s.codomain)
    mask = table.mask_of(s)
    if any(mask >> i & 1 and mask & sub != sub for i, sub in enumerate(table.subtree)):
        raise NotASieveError(f"{{{', '.join(s.labels())}}} is not closed under precomposition")
    return mask


def is_covering(t: TopologySpec, s: Sieve, q: Quiver) -> bool:
    """Whether s covers under t; raises NotASieveError unless s is closed."""
    return _vertex_table(q, s.codomain).covers(t, check_sieve(q, s))


def enumerate_sieves(q: Quiver, v: str, limit: int = DEFAULT_SIEVE_LIMIT) -> list:
    """All precomposition-closed subsets of morphisms into v, canonical order."""
    table = _vertex_table(q, v)
    return [table.sieve_of(mask) for mask in table.sieve_masks(limit)]


def covering_sieves(
    q: Quiver, t: TopologySpec, v: str, limit: int = DEFAULT_SIEVE_LIMIT
) -> list:
    """All covering sieves of t at v, canonical order."""
    table = _vertex_table(q, v)
    return [table.sieve_of(mask) for mask in table.covering_masks(t, limit)]


@dataclass(frozen=True)
class Gt1Counterexample:
    vertex: str
    sieve: Sieve


@dataclass(frozen=True)
class Gt2Counterexample:
    vertex: str
    sieve: Sieve
    morphism: PathMorphism
    pullback: Sieve


@dataclass(frozen=True)
class Gt3Counterexample:
    vertex: str
    covering: Sieve
    candidate: Sieve


@dataclass(frozen=True)
class AxiomResult:
    passed: bool
    counterexample: object = None


@dataclass(frozen=True)
class AxiomReport:
    topology: TopologySpec
    gt1: AxiomResult
    gt2: AxiomResult
    gt3: AxiomResult

    @property
    def passed(self) -> bool:
        return self.gt1.passed and self.gt2.passed and self.gt3.passed


def audit_axioms(
    t: TopologySpec, q: Quiver, limit: int = DEFAULT_SIEVE_LIMIT
) -> AxiomReport:
    """Exhaustively check GT1 (maximal covers), GT2 (pullback stability) and
    GT3 (transitivity); a failing axiom carries the first counterexample in
    canonical (vertex, sieve) order.  Every vertex's morphism count is
    checked against the limit before any path is listed."""
    counts = path_counts(q)  # refuses an invalid quiver
    for v in q.vertices:
        if counts[v] > limit:
            raise TooManyMorphismsError(v, counts[v], limit)
    tables = [_vertex_table(q, v) for v in q.vertices]

    gt1 = AxiomResult(True)
    for table in tables:
        if not table.covers(t, table.maximal_mask):
            gt1 = AxiomResult(False, Gt1Counterexample(table.vertex, table.sieve_of(table.maximal_mask)))
            break

    gt2 = gt3 = AxiomResult(True)
    for table in tables:
        if not (gt2.passed or gt3.passed):
            break
        masks = table.sieve_masks(limit)
        along = table.covered_along(t, masks)
        covering = [(mask, a) for mask, a in zip(masks, along) if a & 1]

        # GT2: a covering sieve pulls back to a covering sieve along every f;
        # f is the first morphism whose bit is clear
        for s_mask, a in covering if gt2.passed else ():
            if a != table.maximal_mask:
                f = table.morphisms[(~a & (a + 1)).bit_length() - 1]
                s = table.sieve_of(s_mask)
                gt2 = AxiomResult(False, Gt2Counterexample(table.vertex, s, f, pullback_sieve(q, f, s)))
                break

        # GT3: R covers if it pulls back to a cover along every member of a
        # covering S; of the R sharing a pull-back pattern, the first decides
        candidates = {}
        for r_mask, a in zip(masks, along):
            if not a & 1:
                candidates.setdefault(a, r_mask)
        for s_mask, _ in covering if gt3.passed else ():
            r_mask = next((r for a, r in candidates.items() if s_mask & ~a == 0), None)
            if r_mask is not None:
                gt3 = AxiomResult(
                    False, Gt3Counterexample(table.vertex, table.sieve_of(s_mask), table.sieve_of(r_mask))
                )
                break

    return AxiomReport(t, gt1, gt2, gt3)
