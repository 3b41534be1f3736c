"""The five extra symmetry fields of the dim >= 4 coordinate form, which no
verb reads: the tests hold them to the bracket closure and the symmetry
systems."""

from typing import List

from weylrec.catalog import FieldSpec, _comps, _xnames


def extra_fields(n: int) -> List[FieldSpec]:
    """The five additional coordinate-form-preserving fields of the dim n+2 family."""
    xs = _xnames(n)
    z1 = ("Z1", _comps(n, t="1"))
    z2 = ("Z2", _comps(n, t="2*t", v="6*v", **{xi: f"3*{xi}" for xi in xs}))
    z3 = ("Z3", _comps(n, u="1"))
    z4 = ("Z4", _comps(n, u="2*u", **{xi: xi for xi in xs}))
    half_sq = "+".join(f"{xi}^2" for xi in xs)
    z5 = ("Z5", _comps(n, u="u^2", v=f"0-({half_sq})/2", **{xi: f"u*{xi}" for xi in xs}))
    return [z1, z2, z3, z4, z5]
