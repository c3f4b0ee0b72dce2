"""Seeded command batches for the three workloads, with their output checks.

A workload hands out rounds.  A round is a fixed recipe of commands on
freshly generated inputs, so every round attempts the same number of each
command kind, whatever the seed.  Every command carries a check that
compares the CLI's exit code and JSON report with ``oracle``, which never
calls quivsheaf.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracle

# Every quiver keeps each vertex at <= 14 incoming paths, the default sieve
# enumeration limit, so no command is refused.
PATH_LIMIT = 14

AUDIT_TOPOLOGIES = ("coarse", "discrete", "discrete+empty", "edge", "graded:1", "graded:2")
SHEAF_TOPOLOGIES = ("coarse", "discrete", "edge", "graded:1")

# Sieve counts summed over the vertices, one quiver per band in every audit
# round.  Audit cost follows this sum closely (and grows faster than it), so
# narrow bands keep the cost of a round, and the slowest commands of a run,
# alike across seeds.
AUDIT_SIEVE_BANDS = ((50, 70), (130, 170), (300, 400), (700, 800))

# A chain this long overflows the recursive cycle search in validate.
LONG_CHAIN = 1500


class Mismatch(Exception):
    """A command's output disagrees with the reference computation."""


@dataclass
class Command:
    argv: list
    check: Callable  # check(exit_code, stdout) raises Mismatch
    bytes_in: int
    # run ahead of the command in the traced run to isolate a layer's cost
    prime: Optional[Callable] = None
    kind: str = ""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


# -- generators ---------------------------------------------------------------


def path_counts(n, edges):
    """Paths into each vertex; vertices 0..n-1 are in topological order."""
    counts = [1] * n
    for j in range(n):
        counts[j] = 1 + sum(counts[s] for s, d in edges if d == j)
    return counts


def sieve_counts(n, edges):
    """Sieves on each vertex: c(v) = 1 + product of c(src e) over edges e into v."""
    counts = [2] * n
    for j in range(n):
        prod = 1
        for s, d in edges:
            if d == j:
                prod *= counts[s]
        counts[j] = 1 + prod
    return counts


def random_dag(rng, n, accept, max_paths=PATH_LIMIT, parallel=False):
    """Grow random forward edges on n vertices until ``accept(edges)``.

    Returns the edge list, or None when growth exceeds ``max_paths`` first.
    With ``parallel`` the first edge is doubled, so the quiver has a cycle
    in its underlying graph.
    """
    edges = []
    if parallel:
        s, d = sorted(rng.sample(range(n), 2))
        edges = [(s, d), (s, d)]
    for _ in range(4 * n * n):
        if accept(edges):
            return edges
        s, d = sorted(rng.sample(range(n), 2))
        grown = edges + [(s, d)]
        if max(path_counts(n, grown)) > max_paths:
            return None
        edges = grown
    return None


def quiver_json(rng, n, edges, shuffle_vertices=True):
    """Random names and edge order, so canonical orders differ per quiver.

    Vertices keep topological order unless ``shuffle_vertices``.
    """
    names = [f"v{i}" for i in rng.sample(range(100), n)]
    order = list(range(n))
    if shuffle_vertices:
        rng.shuffle(order)
    ids = [f"e{i}" for i in rng.sample(range(100), len(edges))]
    listed = list(zip(ids, edges))
    rng.shuffle(listed)
    return {
        "vertices": [names[i] for i in order],
        "edges": [{"id": e, "src": names[s], "dst": names[d]} for e, (s, d) in listed],
    }


def audit_quiver(rng, lo, hi):
    """A quiver whose busiest vertex has 8-14 morphisms, with lo..hi sieves
    in all."""
    while True:
        n = rng.randint(4, 8)

        def accept(edges):
            paths = max(path_counts(n, edges))
            return paths >= 8 and lo <= sum(sieve_counts(n, edges)) <= hi

        edges = random_dag(rng, n, accept)
        if edges is not None:
            # Audits stop at the first counterexample in file order; listing
            # sources first keeps that search short and its cost predictable.
            return quiver_json(rng, n, edges, shuffle_vertices=False)


def chain_json(n):
    return {
        "vertices": [f"c{i}" for i in range(n)],
        "edges": [{"id": f"k{i}", "src": f"c{i}", "dst": f"c{i + 1}"} for i in range(n - 1)],
    }


def small_dag(rng, n, max_paths):
    """A quiver on n vertices with n to n+2 edges, a parallel pair among
    them, and at most ``max_paths`` paths into each vertex."""
    while True:
        m = rng.randint(n, n + 2)
        edges = random_dag(rng, n, lambda es: len(es) >= m, max_paths, parallel=True)
        if edges is not None:
            return quiver_json(rng, n, edges)


def dense(rng, rows, cols):
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]


def sparse(rng, rows, cols):
    return [
        [Fraction(rng.choice((-2, -1, 1, 2))) if rng.random() < 0.3 else Fraction(0) for _ in range(cols)]
        for _ in range(rows)
    ]


def unimodular(rng, d, steps=None):
    """A random integer matrix of determinant +-1 with its inverse."""
    p, p_inv = oracle.identity(d), oracle.identity(d)
    for _ in range(steps if steps is not None else 2 * d):
        if d == 1:
            p, p_inv = [[-p[0][0]]], [[-p_inv[0][0]]]
            continue
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        # rows: p <- (I + c E_ji) p ; columns: p_inv <- p_inv (I - c E_ji)
        p[j] = [a + c * b for a, b in zip(p[j], p[i])]
        for row in p_inv:
            row[i] -= c * row[j]
    return p, p_inv


def twist(rng, d):
    """An invertible d x d matrix other than the identity."""
    if d == 1:
        return [[Fraction(rng.choice((-1, 2, 3)))]]
    while True:
        m, _ = unimodular(rng, d, steps=rng.randint(1, 3))
        if m != oracle.identity(d):
            return m


def conjugated_constant(rng, q, d, twisted_edge=None, m=None):
    """Locally constant presheaf: F(e) = P_src (M) P_dst^-1 for invertible P_v."""
    frames = {v: unimodular(rng, d) for v in q["vertices"]}
    maps = {}
    for e in q["edges"]:
        p_src, _ = frames[e["src"]]
        _, p_dst_inv = frames[e["dst"]]
        left = oracle.matmul(p_src, m, d) if e["id"] == twisted_edge else p_src
        maps[e["id"]] = oracle.matmul(left, p_dst_inv, d)
    return {v: d for v in q["vertices"]}, maps


def random_functor(rng, q, dims, entries, contravariant=True):
    maps = {}
    for e in q["edges"]:
        if contravariant:
            rows, cols = dims[e["src"]], dims[e["dst"]]
        else:
            rows, cols = dims[e["dst"]], dims[e["src"]]
        maps[e["id"]] = entries(rng, rows, cols)
    return maps


def functor_json(kind, q, dims, maps):
    return {
        "kind": kind,
        "dims": {v: dims[v] for v in q["vertices"]},
        "maps": {e: [[_rational(x) for x in row] for row in m] for e, m in maps.items()},
    }


def _rational(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- workloads ----------------------------------------------------------------


class Workload:
    """Writes each round's inputs under ``workdir`` and builds its commands.

    Files of one round overwrite those of the previous round.
    """

    def __init__(self, workdir, qs=None):
        self.workdir = workdir
        self.qs = qs  # the quivsheaf package, used only to prime the traced run

    def write(self, name, data) -> tuple:
        path = os.path.join(self.workdir, name)
        text = json.dumps(data)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path, len(text.encode())


class Audit(Workload):
    """Six audits per fresh quiver, one quiver per sieve band, and one
    validate on a long chain per round."""

    def __init__(self, workdir, qs=None):
        super().__init__(workdir, qs)
        self.chain = self.write("chain.json", chain_json(LONG_CHAIN))

    def round(self, rng) -> list:
        commands = []
        for slot, (lo, hi) in enumerate(AUDIT_SIEVE_BANDS):
            data = audit_quiver(rng, lo, hi)
            path, size = self.write(f"q{slot}.json", data)
            q = oracle.Q.from_json(data)
            for i, t in enumerate(AUDIT_TOPOLOGIES):
                commands.append(
                    Command(
                        ["audit", "--quiver", path, "--topology", t, "--format", "json"],
                        _audit_check(q, t),
                        size,
                        self._prime(data) if i == 0 else None,
                        "audit",
                    )
                )
        path, size = self.chain
        commands.append(
            Command(["validate", "--quiver", path, "--format", "json"], _valid_check, size, kind="validate")
        )
        return commands

    def _prime(self, data):
        """Enumerate every vertex's sieves through the sieves layer, which
        fills the cache the audits read."""
        qs = self.qs
        if qs is None:
            return None

        def prime():
            q = qs.Quiver.build(data["vertices"], [(e["id"], e["src"], e["dst"]) for e in data["edges"]])
            for v in q.vertices:
                qs.sieves.enumerate_sieves(q, v)

        return prime


def _valid_check(code, out):
    expect(code == 0, f"validate exit {code}")
    expect(json.loads(out) == {"valid": True, "problems": []}, "validate report")


def _audit_check(q, topology):
    def check(code, out):
        report = json.loads(out)
        expect(report["topology"] == topology, "topology echoed")
        want = oracle.expected_axioms(q, topology)
        for axiom, holds in want.items():
            entry = report[axiom]
            expect(entry["passed"] == holds, f"{topology} {axiom} passed={entry['passed']}")
            if not holds:
                try:
                    oracle.check_counterexample(q, topology, axiom, entry["counterexample"])
                except (ValueError, KeyError) as exc:
                    raise Mismatch(f"{topology} {axiom}: {exc}") from None
        passed = all(want.values())
        expect(report["passed"] == passed, "overall verdict")
        expect(code == (0 if passed else 1), f"audit exit {code}")

    return check


class Sheaf(Workload):
    """Per quiver: one dualize, then check-sheaf under four topologies with
    three presheaves each (a dualized representation with dense rational
    entries, a sparse small-integer presheaf, a locally constant one)."""

    # vertex counts of the round's quivers
    SIZES = (3, 4, 5)

    def round(self, rng) -> list:
        dualizes, checks = [], []
        for slot, size in enumerate(self.SIZES):
            qdata = small_dag(rng, size, max_paths=7)
            q = oracle.Q.from_json(qdata)
            qpath, qsize = self.write(f"q{slot}.json", qdata)

            dims = {v: rng.randint(0, 3) for v in q.vertices}
            rep = random_functor(rng, qdata, dims, dense, contravariant=False)
            vpath, vsize = self.write(f"v{slot}.json", functor_json("representation", qdata, dims, rep))
            dual = {e: oracle.transpose(m, dims[q.src[e]]) for e, m in rep.items()}
            dualizes.append(
                Command(
                    ["dualize", "--quiver", qpath, "--representation", vpath, "--output", "-"],
                    _dualize_check(dims, dual),
                    qsize + vsize,
                    kind="dualize",
                )
            )

            sparse_dims = {v: rng.randint(0, 3) for v in q.vertices}
            d = rng.randint(1, 2)
            presheaves = [
                (dims, dual),
                (sparse_dims, random_functor(rng, qdata, sparse_dims, sparse)),
                conjugated_constant(rng, qdata, d),
            ]
            paths, size = [], qsize
            for k, (pdims, pmaps) in enumerate(presheaves):
                p, s = self.write(f"p{slot}_{k}.json", functor_json("presheaf", qdata, pdims, pmaps))
                paths.append(p)
                size += s
            refs = [oracle.Presheaf(q, pdims, pmaps) for pdims, pmaps in presheaves]
            for t in SHEAF_TOPOLOGIES:
                argv = ["check-sheaf", "--quiver", qpath, "--topology", t, "--format", "json"]
                for p in paths:
                    argv += ["--presheaf", p]
                checks.append(Command(argv, _sheaf_check(q, t, paths, refs), size, kind="check-sheaf"))
        return dualizes + checks


def _dualize_check(dims, dual):
    def check(code, out):
        expect(code == 0, f"dualize exit {code}")
        report = json.loads(out)
        expect(report["kind"] == "presheaf" and report["dims"] == dims, "dualize dims")
        got = {e: [[oracle.rational(x) for x in row] for row in m] for e, m in report["maps"].items()}
        expect(got == dual, "dualize output is not the transpose")

    return check


def _sheaf_check(q, topology, paths, refs):
    def check(code, out):
        report = json.loads(out)
        expect(report["topology"] == topology, "topology echoed")
        results = report["results"]
        expect([r["presheaf"] for r in results] == paths, "presheaf order")
        all_hold = True
        for result, F in zip(results, refs):
            verdict = result["verdict"]
            _check_verdict(q, topology, F, verdict)
            all_hold = all_hold and verdict["holds"]
        expect(report["holds"] == all_hold, "overall verdict")
        expect(code == (0 if all_hold else 1), f"check-sheaf exit {code}")

    return check


def _check_verdict(q, topology, F, verdict):
    if verdict["holds"]:
        for v in q.vertices:
            for s in q.sieves(v):
                if oracle.covers(q, topology, v, s):
                    expect(F.sheaf_for(v, s)[0], f"{topology}: sieve on {v} fails, verdict holds")
        return
    try:
        v, s = oracle.parse_sieve(q, verdict["failing_sieve"])
    except (ValueError, KeyError) as exc:
        raise Mismatch(f"failing sieve: {exc}") from None
    expect(verdict["vertex"] == v, "failing vertex")
    expect(oracle.is_sieve(q, v, s) and oracle.covers(q, topology, v, s), "failing sieve does not cover")
    holds, injective = F.sheaf_for(v, s)
    expect(not holds, f"{topology}: reported failing sieve satisfies the rule")
    want = "compatible_family_not_glued" if injective else "epsilon_not_injective"
    expect(verdict["diagnosis"] == want, f"diagnosis {verdict['diagnosis']}")
    if "witness" in verdict:
        w = verdict["witness"]
        try:
            family = {
                oracle.parse_label(q, v, label): [oracle.rational(x) for x in vec]
                for label, vec in w["sections"].items()
            }
        except (ValueError, KeyError) as exc:
            raise Mismatch(f"witness: {exc}") from None
        expect(set(family) == s, "witness covers the sieve")
        expect(F.is_compatible(v, family), "witness is not compatible")
        expect(not F.in_section_image(v, family), "witness glues")
    else:
        expect(not injective, "gluing failure without a witness")


class Functors(Workload):
    """functors F G with G a conjugated constant; F random (half the
    slots), locally constant untwisted, or twisted by M != I on one edge of
    a parallel pair."""

    # (kind of F, vertex count) per command of a round
    SLOTS = (
        ("random", 4), ("random", 5), ("untwisted", 3), ("twisted", 5),
        ("random", 5), ("random", 4), ("untwisted", 5), ("twisted", 3),
    )

    def round(self, rng) -> list:
        commands = []
        for slot, (kind, size) in enumerate(self.SLOTS):
            qdata = small_dag(rng, size, max_paths=6)
            q = oracle.Q.from_json(qdata)
            qpath, qsize = self.write(f"q{slot}.json", qdata)
            if kind == "random":
                fdims = {v: rng.randint(1, 2) for v in q.vertices}
                fmaps = random_functor(rng, qdata, fdims, dense)
            else:
                d = rng.randint(1, 2)
                twisted = None
                m = None
                if kind == "twisted":
                    # the doubled first edge sits on a cycle, so the twist
                    # survives any choice of spanning tree
                    twisted = qdata_parallel_edge(qdata)
                    m = twist(rng, d)
                fdims, fmaps = conjugated_constant(rng, qdata, d, twisted, m)
            n = rng.randint(1, 2)
            gdims, gmaps = conjugated_constant(rng, qdata, n)
            fpath, fsize = self.write(f"f{slot}.json", functor_json("presheaf", qdata, fdims, fmaps))
            gpath, gsize = self.write(f"g{slot}.json", functor_json("presheaf", qdata, gdims, gmaps))
            F = oracle.Presheaf(q, fdims, fmaps)
            commands.append(
                Command(
                    ["functors", "--quiver", qpath, "--presheaf", fpath, "--presheaf", gpath, "--format", "json"],
                    _functors_check(q, F, n, kind),
                    qsize + fsize + gsize,
                    kind="functors",
                )
            )
        return commands


def qdata_parallel_edge(qdata):
    """An edge id with a parallel partner earlier in the file."""
    seen = set()
    for e in qdata["edges"]:
        key = (e["src"], e["dst"])
        if key in seen:
            return e["id"]
        seen.add(key)
    raise ValueError("quiver has no parallel pair")


def _functors_check(q, F, n, kind):
    def check(code, out):
        report = json.loads(out)
        comps = oracle.components(q)
        colim = [oracle.colimit_dim(F, c) for c in comps]
        adj = report["adjunction"]
        want = n * sum(colim)
        expect(adj["left_dim"] == adj["right_dim"] == want, f"hom dims {adj['left_dim']}/{adj['right_dim']} != {want}")
        expect(adj["match"] is True and adj["unit_spans"] is True, "adjunction match")
        ext = report["pointwise_extension"]
        expect([e["vertex"] for e in ext] == list(q.vertices), "pointwise extension vertices")
        for e in ext:
            expect(e["dim"] == F.dims[e["vertex"]] and e["comparison_is_iso"] is True, "pointwise extension")
        local = all(
            oracle.is_invertible(F.maps[e], F.dims[s], F.dims[d]) for e, s, d in q.edges
        )
        mono = report["monodromy"]
        expect((mono is not None) == local, "monodromy runs exactly for invertible edge maps")
        if local:
            # a local system has trivial monodromy exactly when its colimit
            # keeps the full fibre dimension on every component
            trivial = all(c == F.dims[comp[0]] for c, comp in zip(colim, comps))
            expect(mono["all_identity"] == trivial, "monodromy all_identity")
            if kind in ("untwisted", "twisted"):
                expect(trivial == (kind == "untwisted"), f"{kind} presheaf monodromy")
        expect(code == 0, f"functors exit {code}")

    return check


WORKLOADS = {"audit": Audit, "sheaf": Sheaf, "functors": Functors}
