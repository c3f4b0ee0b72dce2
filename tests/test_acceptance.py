"""Acceptance gate: twelve checks covering the axiom audits, the duality
theorem, gluing, cross-validation of the discrete checkers, the adjoint
comparisons, monodromy and CLI determinism.

The checks share one exhaustive sweep (all binary presheaves on linear
quivers with at most four vertices) and one quiver family (all acyclic
quivers with at most four vertices and four edges).  Every sheaf check run
by checks 4 through 9 funnels through a recorder that independently
re-verifies the equalizer containment and the glue round trip; check 10
asserts over the accumulated ledger.  Each check ends with one printed
PASS line carrying its headline numbers.
"""

import json
import random
from fractions import Fraction

import pytest

from quivsheaf import (
    LinearMap,
    Presheaf,
    Representation,
    compatibility_space,
    SectionFamily,
    TopologySpec,
    audit_axioms,
    check_adjunction,
    constant_presheaf,
    covering_sieves,
    cross_validate_discrete,
    dualize,
    edge_morphism,
    generate_sieve,
    glue,
    identity_morphism,
    is_discrete_sheaf_criterion,
    is_sheaf,
    is_sheaf_for_sieve,
    left_adjoint_literal,
    maximal_sieve,
    monodromy_report,
    section_map,
)
from quivsheaf.cli import main as cli_main

import functor_oracle
import sheaf_oracle
from helpers import (
    abc_quiver,
    dag_family,
    linear_sweep,
    parallel_quiver,
    random_representation,
    single_edge_quiver,
)

COARSE = TopologySpec.coarse()
DISCRETE = TopologySpec.discrete()
DISCRETE_EMPTY = TopologySpec.discrete(include_empty=True)


class EqualizerLedger:
    """Collects every (presheaf, sieve) pair routed through the sheaf
    checker and re-verifies the equalizer sanity facts on the spot."""

    def __init__(self):
        self.pairs = 0
        self.containment_failures = 0
        self.round_trip_failures = 0

    def __call__(self, F, sieve, verdict):
        self.pairs += 1
        eps = section_map(F, sieve)
        compat = sheaf_oracle.compatibility_matrix(F, sieve)
        for j in range(F.dim(sieve.codomain)):
            if any(x != 0 for x in compat.apply(eps.matrix.col(j))):
                self.containment_failures += 1
                return
        if verdict.holds:
            for j in range(F.dim(sieve.codomain)):
                basis_vec = tuple(
                    Fraction(int(i == j)) for i in range(F.dim(sieve.codomain))
                )
                family = SectionFamily.from_vector(
                    F, sieve, eps.apply(basis_vec)
                )
                if glue(F, family) != basis_vec:
                    self.round_trip_failures += 1
                    return


LEDGER = EqualizerLedger()


@pytest.fixture(scope="module")
def family():
    return dag_family(4, 4)


@pytest.fixture(scope="module")
def sweep():
    return list(linear_sweep(4, 2))


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_01_coarse_audit_passes_on_family(family):
    q = abc_quiver()
    assert audit_axioms(COARSE, q).passed
    failures = [
        quiver for quiver in family if not audit_axioms(COARSE, quiver).passed
    ]
    assert failures == []
    report(f"check 1 PASS: coarse audit green on a->b->c and {len(family)} quivers")


def test_criterion_02_discrete_audit_and_snapshot(family):
    failures = [
        quiver
        for quiver in family
        if not audit_axioms(DISCRETE_EMPTY, quiver).passed
    ]
    assert failures == []
    # regression snapshot for the nonempty-sieve variant: GT1 and GT3 hold
    # everywhere, GT2 breaks exactly where some pullback is empty
    gt1 = gt2 = gt3 = 0
    for quiver in family:
        rep = audit_axioms(DISCRETE, quiver)
        gt1 += rep.gt1.passed
        gt2 += rep.gt2.passed
        gt3 += rep.gt3.passed
    assert gt1 == len(family) and gt3 == len(family)
    assert gt2 == 33  # snapshot: quivers where no covering pullback is empty
    report(
        f"check 2 PASS: discrete+empty green on {len(family)} quivers; "
        f"snapshot without empty: gt2 holds on {gt2}"
    )


def test_criterion_03_coarse_refines_discrete(family):
    checked = 0
    for quiver in family:
        for v in quiver.vertices:
            discrete = set(
                s.canonical_key() for s in covering_sieves(quiver, DISCRETE, v)
            )
            for s in covering_sieves(quiver, COARSE, v):
                assert s.canonical_key() in discrete
                checked += 1
    report(f"check 3 PASS: {checked} coarse covering sieves all cover discretely")


def test_criterion_04_dualized_representations_are_coarse_sheaves():
    rng = random.Random(20260823)
    for _ in range(200):
        V = random_representation(rng)
        verdict = is_sheaf(dualize(V), COARSE, recorder=LEDGER)
        assert verdict.holds
    report("check 4 PASS: 200 random dualized representations are coarse sheaves")


def test_criterion_05_concrete_gluing_example():
    # single edge e: a -> b with V(e) = id; the maximal sieve on b carries
    # families (s_id, s_e) with the restriction equation forcing s_id = s_e
    q = single_edge_quiver()
    V_dual = dualize(
        Representation(q, {"a": 1, "b": 1}, {"e": LinearMap.identity(1)})
    )
    sieve = maximal_sieve(q, "b")
    assert is_sheaf_for_sieve(V_dual, sieve, recorder=LEDGER).holds
    id_b = identity_morphism("b")
    e = edge_morphism(q.edge("e"))
    dim, families = compatibility_space(V_dual, sieve)
    assert dim == 1
    for fam in families:
        assert fam.sections[id_b] == fam.sections[e]
    chosen = SectionFamily(sieve, {id_b: (Fraction(4),), e: (Fraction(4),)})
    assert glue(V_dual, chosen) == chosen.sections[id_b]
    report("check 5 PASS: gluing forces s_id = s_e and returns s_id exactly")


def test_criterion_06_discrete_criterion_examples():
    q = single_edge_quiver()
    const = constant_presheaf(q, 2)
    assert is_discrete_sheaf_criterion(const)
    assert is_sheaf(const, DISCRETE, recorder=LEDGER).holds
    projection = Presheaf(
        q, {"a": 1, "b": 2}, {"e": LinearMap.from_rows([[1, 0]])}
    )
    assert not is_discrete_sheaf_criterion(projection)
    verdict = is_sheaf(projection, DISCRETE, recorder=LEDGER)
    assert not verdict.holds
    assert verdict.failing_sieve.labels() == ["e"]
    report("check 6 PASS: constant accepted, projection rejected at sieve {e}")


def test_criterion_07_cross_validation_boundary(sweep):
    disagreements = 0
    for q, F in sweep:
        criterion = is_discrete_sheaf_criterion(F)
        definitional = is_sheaf(F, DISCRETE, recorder=LEDGER)
        if criterion != definitional.holds:
            disagreements += 1
    assert disagreements == 0
    # the documented boundary case: parallel edges break the agreement
    pq = parallel_quiver()
    boundary = cross_validate_discrete(constant_presheaf(pq, 1), pq)
    assert boundary.criterion_holds
    assert not boundary.definitional.holds
    assert not boundary.agree
    assert boundary.separating_sieve.labels() == ["e", "f"]
    report(
        f"check 7 PASS: checkers agree on {len(sweep)} linear presheaves; "
        "parallel pair separated by sieve {e, f}"
    )


def test_criterion_08_literal_adjoint_comparison_is_iso(sweep):
    count = 0
    for q, F in sweep:
        for v in q.vertices:
            result = left_adjoint_literal(F, v)
            reference = functor_oracle.left_adjoint_literal(F, v)
            assert (result.dim, result.comparison_is_iso) == (reference.dim, reference.comparison_is_iso)
            assert result.comparison_is_iso
            assert result.dim == F.dim(v)
            count += 1
    report(f"check 8 PASS: comparison map is an isomorphism, as the slice limit says, in {count} cases")


def test_criterion_09_adjunction_dimensions_match(sweep):
    count = 0
    for q, F in sweep:
        for g_dim in (0, 1, 2):
            G = constant_presheaf(q, g_dim)
            # check_adjunction solves the two hom systems independently and
            # compares; match also requires the unit composites to span
            rep = check_adjunction(F, G)
            assert rep.match
            count += 1
    report(f"check 9 PASS: hom dimensions agree in {count} adjunction checks")


def test_criterion_10_equalizer_sanity_over_recorded_pairs():
    # the recorder verified containment and round trips during checks 4-7
    assert LEDGER.pairs > 0
    assert LEDGER.containment_failures == 0
    assert LEDGER.round_trip_failures == 0
    report(
        f"check 10 PASS: {LEDGER.pairs} (presheaf, sieve) pairs verified; "
        "image inside compatibility space, glue round trips clean"
    )


def test_criterion_11_monodromy_examples():
    q = parallel_quiver()
    F = Presheaf(
        q,
        {"a": 1, "b": 1},
        {"e": LinearMap.identity(1), "f": LinearMap.from_rows([[2]])},
    )
    rep = monodromy_report(F)
    cycles = [c for comp in rep.components for c in comp.cycles]
    assert len(cycles) == 1
    assert cycles[0].map.matrix.entries == (Fraction(1, 2),)
    const_rep = monodromy_report(constant_presheaf(q, 1))
    assert const_rep.all_identity
    report("check 11 PASS: one cycle with monodromy 1/2, constant is identity")


def test_criterion_12_cli_json_determinism(tmp_path, capsys):
    from quivsheaf.io import dumps_canonical, presheaf_to_json, quiver_to_json

    q = abc_quiver()
    quiver_path = tmp_path / "q.json"
    quiver_path.write_text(dumps_canonical(quiver_to_json(q)))
    presheaf_path = tmp_path / "f.json"
    presheaf_path.write_text(dumps_canonical(presheaf_to_json(constant_presheaf(q, 2))))

    def run(args):
        rc = cli_main(args)
        assert rc in (0, 1)
        return capsys.readouterr().out

    commands = [
        ["validate", "--quiver", str(quiver_path), "--format", "json"],
        ["audit", "--quiver", str(quiver_path), "--topology", "discrete+empty", "--format", "json"],
        ["check-sheaf", "--quiver", str(quiver_path), "--presheaf", str(presheaf_path), "--topology", "discrete", "--format", "json"],
        ["functors", "--quiver", str(quiver_path), "--presheaf", str(presheaf_path), "--presheaf", str(presheaf_path), "--format", "json"],
    ]
    for args in commands:
        first, second = run(args), run(args)
        assert first == second
        json.loads(first)  # stays machine-readable
    report(f"check 12 PASS: {len(commands)} CLI reports byte-identical across runs")
