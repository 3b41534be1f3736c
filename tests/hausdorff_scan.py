"""The Hausdorff distance that ``invariants._hausdorff`` computed before it
broke its scans early, kept as the oracle of the early break.

``hausdorff_scan`` is that function's body, unchanged: for every point of
one set it takes the distance to every point of the other, so the early
break must give its float, to the bit.
"""

import math
from typing import Sequence, Tuple


def hausdorff_scan(A: Sequence[Tuple[float, ...]], B: Sequence[Tuple[float, ...]]) -> float:
    def one_sided(P, Q):
        worst = 0.0
        for p in P:
            best = min(math.dist(p, q) for q in Q)
            worst = max(worst, best)
        return worst

    return max(one_sided(A, B), one_sided(B, A))
