"""Golden contract for the jet layers under every geometry check: the
Christoffel jets and the curvature jets of a Weyl ``Connection`` built from
metric jets of order k (depth k - 1), every coefficient's ``repr`` in the key
order of its jet, hashed with SHA-256.

The cases are 3 sample points of each catalog entry at jet orders 3 and 5,
plus one point of the dimension-10 ``exp(t)`` structure at order 3.  These
layers are pure Python (no LAPACK), so the hashes do not depend on the
machine.  A change to the jet kernel that reorders a float sum or a dict's
keys changes a hash here before it changes a CLI digit.

The goldens in ``goldens/geometry_jets.json`` were recorded from the source
that defined the contract; an optimisation of the jet kernel must reproduce
them exactly.  To record them again (only when the jets are meant to
change), run from the repository root::

    PYTHONPATH=src python tests/test_geometry_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from weylrec.catalog import make_dim_ge4, standard_catalog
from weylrec.tensor import _flatten, weyl_connection

from dense_curvature import dense_curvature_jets

GOLDEN_PATH = Path(__file__).resolve().parent / "goldens" / "geometry_jets.json"
ORDERS = (3, 5)


def _structures():
    """label -> structure for the 16 catalog entries and the dimension-10 exp(t) form."""
    out = {key: entry.structure for key, entry in standard_catalog().items()}
    out["dim10-psi-exp"] = make_dim_ge4("exp(t)", 8).structure
    return out


def _cases():
    """(label, structure key, point, order) for every golden case."""
    catalog = standard_catalog()
    cases = []
    for key, entry in catalog.items():
        for i, point in enumerate(entry.sample_points(3, 0)):
            cases += [(f"{key} point {i} --order {order}", key, point, order) for order in ORDERS]
    (point,) = make_dim_ge4("exp(t)", 8).sample_points(1, 0)
    cases.append(("dim10-psi-exp point 0 --order 3", "dim10-psi-exp", point, 3))
    return cases


CASES = _cases()


def jets_digest(jets) -> str:
    """SHA-256 of a nested list of jets: each jet's (multi-index, coefficient repr) in key order."""
    _, leaves = _flatten(jets)
    text = "\n".join(repr([(alpha, repr(c)) for alpha, c in jet.coeffs.items()]) for jet in leaves)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def geometry_digests(structure, point, order) -> dict:
    conn = weyl_connection(structure, point, order - 1)
    return {"christoffel": jets_digest(conn.gamma), "curvature": jets_digest(dense_curvature_jets(conn))}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def structures():
    return _structures()


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens) == sorted(label for label, *_ in CASES)


@pytest.mark.parametrize("label,key,point,order", CASES, ids=[label for label, *_ in CASES])
def test_geometry_jets_match_golden(goldens, structures, label, key, point, order):
    golden = goldens[label]
    assert tuple(golden["point"]) == tuple(point)
    assert geometry_digests(structures[key], point, order) == {k: golden[k] for k in ("christoffel", "curvature")}


if __name__ == "__main__":
    structures = _structures()
    recorded = {
        label: {"point": list(point), **geometry_digests(structures[key], point, order)}
        for label, key, point, order in CASES
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
