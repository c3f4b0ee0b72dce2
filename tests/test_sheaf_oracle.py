"""The generator rule of is_sheaf_for_sieve against the whole equalizer
in sheaf_oracle.  Verdicts (holds, vertex, failing sieve, diagnosis) must
agree byte for byte, and is_sheaf must visit the same sieves in the same
order.  Compatible families are built from the sieve's generators in the
package and cut out by all-paths equations in the oracle, so a witness is
checked, not compared: it covers exactly the sieve, lies in the kernel of
the oracle's compatibility matrix, and the oracle's section map cannot
solve it.  compatibility_space must span that kernel, and glue must agree
with the oracle's section map on it.  is_sheaf, which decides enumerated
masks by the shape of their generators, must match the definitional loop
over the covering sieves byte for byte, witness and morphism limit
included."""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivsheaf import (
    LinearMap,
    Presheaf,
    SectionFamily,
    TopologySpec,
    compatibility_space,
    dualize,
    enumerate_sieves,
    glue,
    is_sheaf,
    is_sheaf_for_sieve,
    kernel_basis,
    rank,
    section_map,
    solve,
)
from quivsheaf.io import dumps_canonical, verdict_to_json
from quivsheaf.linalg import Matrix
from quivsheaf.sieves import TooManyMorphismsError

import sheaf_oracle
from helpers import all_binary_presheaves, dag_family, random_representation

TOPOLOGIES = ["coarse", "discrete", "discrete+empty", "edge", "graded:0", "graded:1", "graded:2", "graded:3"]
QUIVERS = dag_family(3, 3)


def report(verdict) -> str:
    """The verdict's JSON without its witness, which is checked on its own."""
    out = verdict_to_json(verdict)
    out.pop("witness", None)
    return dumps_canonical(out)


def assert_witness_does_not_glue(F, s, witness):
    assert witness.sieve == s
    assert set(witness.sections) == set(s.members)
    for f in s.members:
        assert len(witness.sections[f]) == F.dim(f.source)
    vec = witness.to_vector()
    assert not any(sheaf_oracle.compatibility_matrix(F, s).apply(vec)), "witness is not compatible"
    assert solve(sheaf_oracle.section_map(F, s).matrix, vec) is None, "witness glues"


def assert_sieve_agrees(F, s):
    got, want = is_sheaf_for_sieve(F, s), sheaf_oracle.is_sheaf_for_sieve(F, s)
    assert got == sheaf_oracle.generator_rule(F, s), (F, s)
    assert report(got) == report(want), (F, s)
    assert (got.witness is None) == (want.witness is None), (F, s)
    if got.witness is not None:
        assert_witness_does_not_glue(F, s, got.witness)


def assert_every_sieve_agrees(F) -> int:
    q = F.quiver
    sieves = [s for v in q.vertices for s in enumerate_sieves(q, v)]
    for s in sieves:
        assert_sieve_agrees(F, s)
    return len(sieves)


def assert_families_agree(F, s):
    """compatibility_space spans the oracle's kernel, and glue matches the
    oracle's section map on each kernel vector and rejects the rest."""
    compat = sheaf_oracle.compatibility_matrix(F, s)
    eps = sheaf_oracle.section_map(F, s).matrix
    kernel = kernel_basis(compat)
    dim, families = compatibility_space(F, s)
    assert dim == len(families) == len(kernel), (F, s)
    vectors = [fam.to_vector() for fam in families]
    for vec in vectors:
        assert not any(compat.apply(vec)), (F, s)
    assert rank(Matrix.from_rows(vectors, compat.cols)) == dim, (F, s)
    for vec in kernel:
        x = glue(F, SectionFamily.from_vector(F, s, vec))
        if x is None:
            assert solve(eps, vec) is None, (F, s)
        else:
            assert eps.apply(x) == vec, (F, s)
    for j in range(compat.cols):
        unit = tuple(Fraction(int(i == j)) for i in range(compat.cols))
        if any(compat.apply(unit)):
            assert glue(F, SectionFamily.from_vector(F, s, unit)) is None, (F, s)


def visits(F, t, decide=is_sheaf):
    log = []
    verdict = decide(F, t, recorder=lambda G, s, v: log.append((s, report(v), v.witness)))
    for s, _, witness in log:
        if witness is not None:
            assert_witness_does_not_glue(F, s, witness)
    return report(verdict), [(s, r) for s, r, _ in log]


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
    pairs = sum(assert_every_sieve_agrees(F) for q in QUIVERS for F in all_binary_presheaves(q, 1))
    assert pairs == 3669


@pytest.mark.parametrize("seed", range(3))
def test_generator_rule_matches_equalizer_on_random_presheaves(seed):
    rng = random.Random(seed)
    presheaves = [random_presheaf(rng, q) for q in QUIVERS for _ in range(2)]
    for F in presheaves:
        assert_every_sieve_agrees(F)
    runs = [[visits(F, TopologySpec.parse(t)) for t in TOPOLOGIES] for F in presheaves]
    # the definitional loop with the equalizer in place of the generator rule
    for F, got in zip(presheaves, runs):
        assert got == [visits(F, TopologySpec.parse(t), sheaf_oracle.is_sheaf) for t in TOPOLOGIES], F
    failures = {verdict for run in runs for verdict, _ in run if '"holds": false' in verdict}
    assert any("compatible_family_not_glued" in v for v in failures)
    assert any("epsilon_not_injective" in v for v in failures)


def test_compatibility_space_spans_the_equalizer_kernel():
    rng = random.Random(11)
    presheaves = [F for q in QUIVERS for F in all_binary_presheaves(q, 1)]
    presheaves += [dualize(random_representation(rng)) for _ in range(150)]
    pairs = 0
    for F in presheaves:
        q = F.quiver
        for s in (s for v in q.vertices for s in enumerate_sieves(q, v)):
            assert section_map(F, s) == sheaf_oracle.section_map(F, s), (F, s)
            assert_families_agree(F, s)
            pairs += 1
    assert pairs == 4653


@st.composite
def rational_presheaves(draw, quivers=QUIVERS):
    q = draw(st.sampled_from(quivers))
    dims = {v: draw(st.integers(0, 3)) for v in q.vertices}
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    maps = {}
    for e in q.edges:
        rows, cols = dims[e.src], dims[e.dst]
        grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        maps[e.id] = LinearMap.from_rows(grid, cols)
    return Presheaf(q, dims, maps)


@settings(max_examples=60, deadline=None)
@given(rational_presheaves())
def test_generator_rule_matches_equalizer_on_hypothesis_presheaves(F):
    q = F.quiver
    for s in (s for v in q.vertices for s in enumerate_sieves(q, v)):
        assert_sieve_agrees(F, s)
        assert_families_agree(F, s)


def outcome(decide, F, t, limit):
    """The verdict, its JSON and the sieves visited, or the vertex at which
    the morphism limit stopped the run."""
    log = []
    try:
        verdict = decide(F, t, limit=limit, recorder=lambda G, s, v: log.append((s, v)))
    except TooManyMorphismsError as exc:
        return ("limit", exc.vertex, log)
    return verdict, dumps_canonical(verdict_to_json(verdict)), log


@settings(max_examples=80, deadline=None)
@given(rational_presheaves(dag_family(4, 4)), st.sampled_from(TOPOLOGIES), st.integers(1, 14))
def test_is_sheaf_matches_definitional_loop_on_hypothesis_presheaves(F, t, limit):
    # byte for byte, witness included: is_sheaf decides the enumerated
    # masks by shape first, the loop runs the unshortened generator rule,
    # and is_sheaf_for_sieve, on every covering sieve
    t = TopologySpec.parse(t)
    want = outcome(partial(sheaf_oracle.is_sheaf, check=sheaf_oracle.generator_rule), F, t, limit)
    assert outcome(is_sheaf, F, t, limit) == want
    assert outcome(partial(sheaf_oracle.is_sheaf, check=is_sheaf_for_sieve), F, t, limit) == want
