"""Definitional reference for the sheaf condition on one sieve: the whole
equalizer.  The section map stacks every member's restriction map, the
compatibility space is cut out by every precomposition equation, and the
condition holds when the section map is injective and its rank is the
dimension of the compatibility space.  This is the check that the
generator rule in quivsheaf.sheaf replaced, kept as it was; only the
functoriality test spells out the deleted Matrix.is_zero."""

from typing import Callable, Optional

from quivsheaf import Presheaf, Sieve
from quivsheaf.linalg import kernel_basis, rank, solve
from quivsheaf.sheaf import (
    EPSILON_NOT_INJECTIVE,
    FAMILY_NOT_GLUED,
    SectionFamily,
    SheafVerdict,
    _compatibility_matrix,
    section_map,
)


def is_sheaf_for_sieve(
    F: Presheaf,
    s: Sieve,
    recorder: Optional[Callable] = None,
) -> SheafVerdict:
    """Equalizer check by rank arithmetic.

    Holds iff the section map is injective and its rank equals the
    dimension of the compatibility space.  The containment image(epsilon)
    inside the compatibility space is asserted on every call; it holds by
    functoriality and a violation means a broken presheaf.
    """
    compat = _compatibility_matrix(F, s)
    eps = section_map(F, s)
    if not all(x == 0 for x in (compat @ eps.matrix).entries):
        raise AssertionError(
            "section-map image escapes the compatibility space; "
            "presheaf data is not functorial"
        )
    d = F.dim(s.codomain)
    eps_rank = rank(eps.matrix)
    compat_dim = eps.matrix.rows - rank(compat) if eps.matrix.rows else 0
    # compat matrix has eps.matrix.rows columns (the product dimension)
    if eps_rank != d:
        verdict = SheafVerdict(False, s.codomain, s, EPSILON_NOT_INJECTIVE)
    elif compat_dim != eps_rank:
        witness = None
        for vec in kernel_basis(compat):
            if solve(eps.matrix, vec) is None:
                witness = SectionFamily.from_vector(F, s, vec)
                break
        verdict = SheafVerdict(False, s.codomain, s, FAMILY_NOT_GLUED, witness)
    else:
        verdict = SheafVerdict(True, s.codomain)
    if recorder is not None:
        recorder(F, s, verdict)
    return verdict
