"""Self-tests of the benchmark's reference computations (``oracle``).

    python3 perfbench/selftest.py

Hand cases from the paper, plus sweeps that check the closed-form rules
the benchmark relies on against definitions computed by brute force.
Needs nothing but the standard library; exits 1 on the first failure.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

import oracle

AXIOM_TOPOLOGIES = ("coarse", "discrete", "discrete+empty", "edge", "graded:1", "graded:2")


def dag_family(max_vertices=4, max_edges=4):
    """Every acyclic quiver with <= max_vertices vertices and <= max_edges
    edges up to relabelling: edges drawn with repetition from pairs i < j."""
    for n in range(1, max_vertices + 1):
        vertices = [f"v{i}" for i in range(1, n + 1)]
        pairs = [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1 :]]
        for count in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, count):
                yield oracle.Q(vertices, [(f"e{k + 1}", s, d) for k, (s, d) in enumerate(combo)])


def audit_by_definition(q, topology):
    """GT1-GT3 by exhaustive search over the oracle's own sieves."""
    gt1 = gt2 = gt3 = True
    for v in q.vertices:
        everything = frozenset(q.paths_into(v))
        gt1 = gt1 and oracle.covers(q, topology, v, everything)
        sieves = q.sieves(v)
        covering = [s for s in sieves if oracle.covers(q, topology, v, s)]
        for s in covering:
            for f in everything:
                u = q.source(v, f)
                if not oracle.covers(q, topology, u, oracle.pullback(q, v, f, s)):
                    gt2 = False
            for r in sieves:
                if oracle.covers(q, topology, v, r):
                    continue
                if all(
                    oracle.covers(q, topology, q.source(v, f), oracle.pullback(q, v, f, r))
                    for f in s
                ):
                    gt3 = False
    return {"gt1": gt1, "gt2": gt2, "gt3": gt3}


def sheaf_by_definition(F, v, members):
    """The equalizer condition: the section map onto the compatible
    families over every member is injective with image all of them."""
    q = F.q
    paths = sorted(members)
    offset, total = {}, 0
    for f in paths:
        offset[f] = total
        total += F.dims[q.source(v, f)]
    rows = []
    for f in paths:
        u = q.source(v, f)
        for g in q.paths_into(u):
            m = F.along(u, g)
            for i in range(len(m)):
                row = [Fraction(0)] * total
                for j in range(F.dims[u]):
                    row[offset[f] + j] += m[i][j]
                row[offset[g + f] + i] -= 1
                rows.append(row)
    compatible = total - oracle.rank(rows, total)
    eps = oracle.rank(F.section_rows(v, paths), F.dims[v])
    return eps == F.dims[v] == compatible


def binary_presheaves(q, max_dim=1):
    for dims_tuple in itertools.product(range(max_dim + 1), repeat=len(q.vertices)):
        dims = dict(zip(q.vertices, dims_tuple))
        choices = []
        for e, s, d in q.edges:
            rows, cols = dims[s], dims[d]
            choices.append(
                [
                    [[Fraction(flat[r * cols + c]) for c in range(cols)] for r in range(rows)]
                    for flat in itertools.product((0, 1), repeat=rows * cols)
                ]
            )
        for maps in itertools.product(*choices):
            yield oracle.Presheaf(q, dims, {e: m for (e, _, _), m in zip(q.edges, maps)})


def failing_sieves(F, topology):
    q = F.q
    return sorted(
        (v, sorted(oracle.label(v, p) for p in s))
        for v in q.vertices
        for s in q.sieves(v)
        if oracle.covers(q, topology, v, s) and not F.sheaf_for(v, s)[0]
    )


def check(name, cond, detail=""):
    if not cond:
        print(f"FAIL {name} {detail}")
        sys.exit(1)
    print(f"PASS {name} {detail}")


def main():
    one = [[Fraction(1)]]
    parallel = oracle.Q(["a", "b"], [("e", "a", "b"), ("f", "a", "b")])
    constant = oracle.Presheaf(parallel, {"a": 1, "b": 1}, {"e": one, "f": one})
    check(
        "constant presheaf on a=>b fails discrete at {e, f}",
        failing_sieves(constant, "discrete") == [("b", ["e", "f"])],
    )

    arrow = oracle.Q(["a", "b"], [("e", "a", "b")])
    projection = oracle.Presheaf(arrow, {"a": 1, "b": 2}, {"e": [[Fraction(1), Fraction(0)]]})
    check(
        "projection presheaf on a->b fails discrete at {e}",
        failing_sieves(projection, "discrete") == [("b", ["e"])],
    )

    family = list(dag_family())
    in_degree = sum(q.max_in_degree() <= 1 for q in family)
    check("in-degree rule on the dag family", (len(family), in_degree) == (251, 33), f"{in_degree} of {len(family)}")

    for topology in AXIOM_TOPOLOGIES:
        wrong = [q.edges for q in family if oracle.expected_axioms(q, topology) != audit_by_definition(q, topology)]
        check(f"closed-form axiom rules match the definition under {topology}", not wrong, str(wrong[:1]) if wrong else "")

    pairs = 0
    for q in dag_family(3, 3):
        for F in binary_presheaves(q):
            for v in q.vertices:
                for s in q.sieves(v):
                    pairs += 1
                    if F.sheaf_for(v, s)[0] != sheaf_by_definition(F, v, s):
                        check("generator rule matches the equalizer", False, f"{q.edges} {v} {sorted(s)}")
    check("generator rule matches the equalizer", True, f"on {pairs} (presheaf, sieve) pairs")

    gt2 = {"vertex": "b", "sieve": {"codomain": "b", "members": ["e"]}, "morphism": "f",
           "pullback": {"codomain": "a", "members": []}}
    oracle.check_counterexample(parallel, "discrete", "gt2", gt2)
    bad = dict(gt2, pullback={"codomain": "a", "members": ["id:a"]})
    try:
        oracle.check_counterexample(parallel, "discrete", "gt2", bad)
        rejected = False
    except ValueError:
        rejected = True
    check("GT2 counterexample on a=>b is re-verified, a forged one rejected", rejected)

    twist = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    ident = oracle.identity(2)
    untwisted = oracle.Presheaf(parallel, {"a": 2, "b": 2}, {"e": ident, "f": ident})
    twisted = oracle.Presheaf(parallel, {"a": 2, "b": 2}, {"e": ident, "f": twist})
    comp = oracle.components(parallel)
    check(
        "colimit keeps dim 2 untwisted and drops to 1 under a shear twist",
        (oracle.colimit_dim(untwisted, comp[0]), oracle.colimit_dim(twisted, comp[0])) == (2, 1),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
