"""Definitional references for the sieve layer: sieves as closed subsets
found by trying every subset, covering read off the README's definitions,
pullbacks and the axioms taken literally."""

import itertools

from quivsheaf import Sieve, maximal_sieve, morphisms_into, pullback_sieve
from quivsheaf.sieves import (
    AxiomReport,
    AxiomResult,
    Gt1Counterexample,
    Gt2Counterexample,
    Gt3Counterexample,
    is_closed,
)


def all_sieves(q, v):
    """Every subset of the morphisms into v that is_closed accepts, sorted
    by Sieve.canonical_key."""
    ms = morphisms_into(q, v)
    subsets = (
        Sieve(v, frozenset(c))
        for r in range(len(ms) + 1)
        for c in itertools.combinations(ms, r)
    )
    return sorted((s for s in subsets if is_closed(q, s)), key=Sieve.canonical_key)


def covers(t, q, s):
    every = frozenset(morphisms_into(q, s.codomain))
    if t.kind == "coarse":
        return s.members == every
    if t.kind == "discrete":
        return bool(s.members) or t.include_empty
    if t.kind == "edge":
        edges = {m for m in every if m.length == 1}
        return bool(edges & s.members) if edges else s.members == every
    return {m for m in every if m.length <= t.grade} <= s.members


def audit(t, q):
    """GT1-GT3 checked pair by pair, first counterexample in (vertex, sieve)
    order, as audit_axioms reports it."""
    gt1 = gt2 = gt3 = AxiomResult(True)
    for v in q.vertices:
        if not covers(t, q, maximal_sieve(q, v)):
            gt1 = AxiomResult(False, Gt1Counterexample(v, maximal_sieve(q, v)))
            break
    for v in q.vertices:
        sieves = all_sieves(q, v)
        covering = [s for s in sieves if covers(t, q, s)]
        for s in covering if gt2.passed else ():
            bad = [
                (f, pullback_sieve(q, f, s))
                for f in morphisms_into(q, v)
                if not covers(t, q, pullback_sieve(q, f, s))
            ]
            if bad:
                gt2 = AxiomResult(False, Gt2Counterexample(v, s, *bad[0]))
                break
        for s in covering if gt3.passed else ():
            for r in sieves:
                if not covers(t, q, r) and all(
                    covers(t, q, pullback_sieve(q, f, r)) for f in s.members
                ):
                    gt3 = AxiomResult(False, Gt3Counterexample(v, s, r))
                    break
            if not gt3.passed:
                break
    return AxiomReport(t, gt1, gt2, gt3)
