"""The curvature jets of a connection as a dense d^4 nested list, for the
tests that read them in that layout: ``R[d][c][a][b]`` is the jet of the
live slot (d, c, a, b), ``R[d][c][b][a]`` its negation, and every other
entry an empty jet of the same order.

``tensor._curvature_jets`` keeps only the live slots, with a < b.  The
digests in ``goldens/geometry_jets.json`` and the dense reference loop in
``test_tensor.py`` are written over the full d^4 list, so those tests read
the slots through this layout.
"""

from weylrec.jets import JetPoly


def dense_curvature_jets(conn) -> list:
    d = conn.dim
    template = conn.gamma[0][0][0]
    empty = JetPoly(template.nvars, conn.depth - 1, template.base)
    R = [[[[empty] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
    for (i, c, a, b), jet in conn.curvature_jets.items():
        R[i][c][a][b] = jet
        R[i][c][b][a] = -jet
    return R
