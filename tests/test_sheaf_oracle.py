"""The generator rule of is_sheaf_for_sieve against the whole equalizer
in sheaf_oracle: verdict reports, witnesses included, must agree byte for
byte, and is_sheaf must visit the same sieves in the same order.  The
package's builders (section map from the path-map table, compatibility
equations from edges) are compared with the oracle's path-by-path ones."""

import random
from fractions import Fraction

import pytest

import quivsheaf.sheaf
from quivsheaf import (
    LinearMap,
    Presheaf,
    TopologySpec,
    dualize,
    enumerate_sieves,
    is_sheaf,
    is_sheaf_for_sieve,
    kernel_basis,
    section_map,
)
from quivsheaf.io import dumps_canonical, verdict_to_json
from quivsheaf.sheaf import _compatibility_matrix

import sheaf_oracle
from helpers import all_binary_presheaves, dag_family, random_representation

TOPOLOGIES = ["coarse", "discrete", "discrete+empty", "edge", "graded:0", "graded:1", "graded:2", "graded:3"]


def report(verdict) -> str:
    return dumps_canonical(verdict_to_json(verdict))


def assert_every_sieve_agrees(F) -> int:
    q = F.quiver
    sieves = [s for v in q.vertices for s in enumerate_sieves(q, v)]
    for s in sieves:
        assert report(is_sheaf_for_sieve(F, s)) == report(sheaf_oracle.is_sheaf_for_sieve(F, s)), (F, s)
    return len(sieves)


def visits(F, t):
    log = []
    verdict = is_sheaf(F, t, recorder=lambda G, s, v: log.append((s, report(v))))
    return report(verdict), log


def random_presheaf(rng, q):
    """Dims 0-3; an edge map is zero, the identity (when square), binary
    or rational, so that every verdict occurs."""
    dims = {v: rng.randint(0, 3) for v in q.vertices}
    maps = {}
    for e in q.edges:
        rows, cols = dims[e.src], dims[e.dst]
        style = rng.choice(("zero", "identity", "binary", "rational", "rational"))
        if style == "identity" and rows == cols:
            maps[e.id] = LinearMap.identity(rows)
            continue

        def entry():
            if style == "zero":
                return Fraction(0)
            if style == "binary":
                return Fraction(rng.randint(0, 1))
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

        maps[e.id] = LinearMap.from_rows([[entry() for _ in range(cols)] for _ in range(rows)], cols)
    return Presheaf(q, dims, maps)


def test_generator_rule_matches_equalizer_on_binary_presheaves():
    pairs = sum(assert_every_sieve_agrees(F) for q in dag_family(3, 3) for F in all_binary_presheaves(q, 1))
    assert pairs == 3669


@pytest.mark.parametrize("seed", range(3))
def test_generator_rule_matches_equalizer_on_random_presheaves(seed, monkeypatch):
    rng = random.Random(seed)
    presheaves = [random_presheaf(rng, q) for q in dag_family(3, 3) for _ in range(2)]
    for F in presheaves:
        assert_every_sieve_agrees(F)
    runs = [[visits(F, TopologySpec.parse(t)) for t in TOPOLOGIES] for F in presheaves]
    # the same is_sheaf loop with the equalizer in place of the generator rule
    monkeypatch.setattr(quivsheaf.sheaf, "is_sheaf_for_sieve", sheaf_oracle.is_sheaf_for_sieve)
    for F, got in zip(presheaves, runs):
        assert got == [visits(F, TopologySpec.parse(t)) for t in TOPOLOGIES], F
    failures = {verdict for run in runs for verdict, _ in run if '"holds": false' in verdict}
    assert any("compatible_family_not_glued" in v for v in failures)
    assert any("epsilon_not_injective" in v for v in failures)


def test_edge_equations_cut_out_the_compatible_families():
    # the edge-only system has the same row space as the all-paths one, so
    # its kernel basis (read off the reduced row echelon form) is the same
    rng = random.Random(11)
    presheaves = [F for q in dag_family(3, 3) for F in all_binary_presheaves(q, 1)]
    presheaves += [dualize(random_representation(rng)) for _ in range(150)]
    pairs = 0
    for F in presheaves:
        q = F.quiver
        for s in (s for v in q.vertices for s in enumerate_sieves(q, v)):
            assert section_map(F, s) == sheaf_oracle.section_map(F, s), (F, s)
            edges, paths = _compatibility_matrix(F, s), sheaf_oracle.compatibility_matrix(F, s)
            assert edges.cols == paths.cols and edges.rows <= paths.rows
            assert kernel_basis(edges) == kernel_basis(paths), (F, s)
            pairs += 1
    assert pairs == 4653
