"""The derived invariant dJ/dI of the one-function family, which no verb
reads: the tests hold it to the group actions and the theorems."""

from weylrec.invariants import PsiJet, SingularStratumError, _off_stratum, _psi_pair, _vanishes
from weylrec.jets import JetPoly


def derived_invariant(jet: PsiJet) -> object:
    """dJ/dI along the jet: D_t(J) / D_t(I) through order-6 entries.

    Singular when D_t(I) vanishes (constant first invariant, cohomogeneity <= 1).
    """
    p = _off_stratum(jet, 6)
    lifted = [
        JetPoly(1, 1, (jet.base,), {(0,): p[k], (1,): p[k + 1]}) for k in range(jet.order)
    ]
    first, second, _ = _psi_pair(lifted)
    dI = first.coefficient((1,))
    dJ = second.coefficient((1,))
    if _vanishes(dI, first.value, second.value, floor=1.0):
        raise SingularStratumError("first invariant is constant along the jet (cohomogeneity <= 1 stratum)")
    return dJ / dI
