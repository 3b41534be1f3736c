"""Contract of the catalog constructors: what each entry holds, the exact
message of every rejected input, and one domain test shared by sampling and
by the geometry layer.

The entry snapshots in ``goldens/catalog_entries.json`` record, for every
``standard_catalog()`` entry, the fields a structure file does not carry
(box, expected data, sampling settings, symmetry fields, description) and the
sources of its metric, 1-form, constraints and preferred representative.
They were recorded from the source that defined the contract.  To record
them again (only when an entry is meant to change), run from the repository
root::

    PYTHONPATH=src python tests/test_catalog_contract.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from weylrec import exprlang, tensor
from weylrec.catalog import (
    CatalogError,
    make_3d_case1,
    make_3d_case2,
    make_dim_ge4,
    make_homogeneous_model,
    make_mainth_form,
    sample_box,
    standard_catalog,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "goldens" / "catalog_entries.json"


def _sources(structure) -> dict:
    """Metric (upper triangle, chart order), 1-form and constraint sources; None is a zero slot."""
    src = lambda e: None if e is None else exprlang.to_source(e)  # noqa: E731
    d = structure.dim
    return {
        "names": list(structure.chart.names),
        "metric": [[src(structure.metric[i][j]) for j in range(i, d)] for i in range(d)],
        "one_form": [src(e) for e in structure.one_form],
        "constraints": [src(c) for c in structure.chart.constraints],
    }


def entry_record(entry) -> dict:
    return {
        "key": entry.key,
        "family": entry.family,
        "box": {name: list(bounds) for name, bounds in entry.box.items()},
        "expected": entry.expected,
        "params": {name: v if isinstance(v, int) else exprlang.to_source(v) for name, v in entry.params.items()},
        "seed": entry.seed,
        "n_points": entry.n_points,
        "symmetry_fields": [[label, list(comps)] for label, comps in entry.symmetry_fields],
        "description": entry.description,
        "structure": _sources(entry.structure),
        "preferred": None if entry.preferred is None else _sources(entry.preferred),
    }


def _record_all() -> dict:
    # a JSON round trip, so tuples compare as the lists the golden file holds
    return json.loads(json.dumps({key: entry_record(e) for key, e in standard_catalog().items()}))


@pytest.fixture(scope="module")
def recorded():
    return _record_all()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_the_catalog(recorded, golden):
    assert list(recorded) == list(golden)
    assert len(golden) == 16


@pytest.mark.parametrize("key", sorted(standard_catalog()))
def test_entry_matches_golden(key, recorded, golden):
    assert recorded[key] == golden[key]


def test_caller_box_overrides_the_family_default():
    entry = make_dim_ge4("t", 2, box={"u": (0.3, 0.9)})
    assert entry.box == {"t": (0.6, 1.8), "v": (-1.0, 1.0), "x1": (-1.0, 1.0), "u": (0.3, 0.9)}


# ----------------------------------------------------------------------
# exact messages of every rejected input
# ----------------------------------------------------------------------

X8 = 0.2 + 0.8 * 8.5 / 9  # the last x mid-point of the default 3D case-1 box

REJECTED = [
    ("branch value", lambda: make_dim_ge4("t", 2, branch=0), "branch must be +1 or -1"),
    ("dim_ge4 n < 2", lambda: make_dim_ge4("t", 1), "dim_ge4 family needs n >= 2 (dimension >= 4)"),
    ("mainth n < 2", lambda: make_mainth_form("0", "0", 1), "the normal form needs n >= 2 (dimension >= 4)"),
    ("homogeneous n < 2", lambda: make_homogeneous_model(1), "homogeneous model needs n >= 2"),
    ("mainth F", lambda: make_mainth_form("x1*u", "0", 2), "F must depend only on (x2, u)"),
    ("mainth a", lambda: make_mainth_form("ln(u+x2)", "x1", 2), "a must depend only on u"),
    ("3d case 1 F", lambda: make_3d_case1("v*u"), "F must depend only on (x, u)"),
    ("3d case 2 a", lambda: make_3d_case2("x", "0"), "a must depend only on u"),
    ("3d case 2 c", lambda: make_3d_case2("1", "v"), "c must depend only on u"),
    (
        "psi'",
        lambda: make_dim_ge4("0-t", 2),
        "psi'(t) must be positive on the domain; value -1 at {'t': 0.6666666666666666}",
    ),
    (
        "branch sign",
        lambda: make_dim_ge4("t", 2, branch=-1, box={"u": (-1.0, 0.5)}),
        "the branch sign of u + psi(t) must be positive on the domain; "
        "value -0.08333333333333337 at {'t': 0.6666666666666666, 'u': -0.5833333333333333}",
    ),
    (
        "d_xn dF/du",
        lambda: make_mainth_form("ln(x2)", "0", 2),
        "d_x2 dF/du must be non-vanishing on the domain; value 0 at {'x2': 0.4555555555555556, 'u': 0.25555555555555554}",
    ),
    (
        "d_x dF/du",
        lambda: make_3d_case1("u"),
        "d_x dF/du must be non-vanishing on the domain; value 0 at {'x': 0.24444444444444446, 'u': 1.4555555555555555}",
    ),
    (
        "d_x dF/du on the last probe column",
        lambda: make_3d_case1(f"(x-{X8!r})^2*u/2"),
        f"d_x dF/du must be non-vanishing on the domain; value 0.0 at {{'x': {X8!r}, 'u': 1.4555555555555555}}",
    ),
    ("a(u)", lambda: make_3d_case2("u-1", "0"), "a(u) must be non-vanishing on the domain; value 0.0 at {'u': 1.0}"),
    (
        "3d case 1 empty probe set",
        lambda: make_3d_case1("x*u", constraints=("x-u",)),
        "no probe point satisfies the constraints",
    ),
    (
        "box coordinate not in the chart",
        lambda: make_3d_case1("x*u", box={"zz": (0.0, 1.0)}),
        "box names 'zz', not a coordinate of the chart ('v', 'x', 'u')",
    ),
    (
        "box coordinates not in the chart, sorted",
        lambda: make_dim_ge4("t", 2, box={"x9": (0.0, 1.0), "u": (0.3, 0.9), "w": (0.0, 1.0)}),
        "box names 'w', 'x9', not a coordinate of the chart ('t', 'v', 'x1', 'u')",
    ),
]


@pytest.mark.parametrize("build, message", [case[1:] for case in REJECTED], ids=[case[0] for case in REJECTED])
def test_exact_message(build, message):
    with pytest.raises(CatalogError) as info:
        build()
    assert str(info.value) == message


def test_case1_probes_skip_points_the_chart_forbids():
    """The probe column that fails above lies outside x < 0.9, so with that
    constraint the same profile is accepted."""
    entry = make_3d_case1(f"(x-{X8!r})^2*u/2", constraints=("0.9-x",))
    assert entry.expected["holonomy_dim"] == 1


def test_dim_ge4_probes_are_not_filtered_by_its_constraints():
    """dim_ge4's probes are its chart constraints: a box that crosses u + psi = 0 is rejected."""
    with pytest.raises(CatalogError, match="branch sign"):
        make_dim_ge4("t", 2, box={"u": (-1.0, 0.5)})


# ----------------------------------------------------------------------
# one domain test: sampling and the geometry layer agree
# ----------------------------------------------------------------------


def _probe_points(entry, count_in=4, count_out=8, widen=6.0):
    """Seeded points: ``count_in`` in the entry's box, ``count_out`` in the box widened about its centre."""
    rng = random.Random(entry.key)
    out = []
    for k in range(count_in + count_out):
        scale = 1.0 if k < count_in else widen
        point = []
        for name in entry.structure.chart.names:
            lo, hi = entry.box[name]
            point.append((lo + hi) / 2 + (hi - lo) * scale * (rng.random() - 0.5))
        out.append(tuple(point))
    return out


def _check_domain_outcome(structure, point) -> str:
    try:
        tensor.check_domain(structure, point)
    except tensor.DomainViolation:
        return "rejected"
    except Exception as exc:  # an undefined constraint value, the same for both paths
        return type(exc).__name__
    return "accepted"


def _sample_box_outcome(chart, point) -> str:
    """A one-point box: sample_box returns the point itself, or gives up on it."""
    try:
        (got,) = sample_box(chart, {name: (x, x) for name, x in zip(chart.names, point)}, 1)
    except CatalogError as exc:
        assert str(exc) == "sampling box is incompatible with the chart constraints"
        return "rejected"
    except Exception as exc:
        return type(exc).__name__
    assert got == point
    return "accepted"


@pytest.mark.parametrize("key", sorted(standard_catalog()))
def test_sample_box_accepts_exactly_what_check_domain_accepts(key):
    entry = standard_catalog()[key]
    for point in _probe_points(entry):
        assert _sample_box_outcome(entry.structure.chart, point) == _check_domain_outcome(entry.structure, point), point


def test_the_domain_test_sees_rejections():
    outcomes = [
        _check_domain_outcome(entry.structure, point)
        for entry in standard_catalog().values()
        for point in _probe_points(entry)
    ]
    assert outcomes.count("rejected") >= 10
    assert outcomes.count("accepted") >= 100


def test_domain_violation_text():
    entry = standard_catalog()["dim4-psi-linear"]
    with pytest.raises(tensor.DomainViolation) as info:
        tensor.check_domain(entry.structure, (-1.0, 0.0, 0.0, 0.5))
    assert str(info.value) == "constraint (u+t) > 0 violated at (-1.0, 0.0, 0.0, 0.5) (value -0.5)"
    entry = standard_catalog()["3d2-inv-u"]
    with pytest.raises(tensor.DomainViolation) as info:
        tensor.check_domain(entry.structure, [0.5, 0.5, -0.25])
    assert str(info.value) == "constraint u > 0 violated at (0.5, 0.5, -0.25) (value -0.25)"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_record_all(), indent=1) + "\n", encoding="utf-8")
