"""Per-layer tracing of weylrec by wrapping its functions from outside.

Nothing under ``src/`` is edited.  While a :class:`Tracer` is installed, each
traced function is replaced by a wrapper in every ``weylrec`` module (and in
the ``JetPoly`` class) that holds the same function object, so names that one
module imported from another by name are covered too: ``cli`` imports
``recurrence_theta`` and friends, ``einsteinweyl`` imports ``weyl_connection``
and ``_curvature_jets``, ``tensor`` and the package import ``eval_jet``, and
``JetPoly.__rmul__`` is an alias of ``__mul__``.

A wrapper is a span.  Its self time is its duration minus the full time of
the traced calls made inside it (their bookkeeping included), so the self
times of all layers add up to the traced work without double counting.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# metric stem -> functions ("module:qualname") whose calls make up that layer
LAYERS: Dict[str, Tuple[str, ...]] = {
    "cli.io": ("cli:load_structure_file", "cli:_digest", "cli:_emit_json"),
    "catalog.build": (
        "catalog:make_dim_ge4",
        "catalog:make_mainth_form",
        "catalog:make_3d_case1",
        "catalog:make_3d_case2",
        "catalog:make_homogeneous_model",
    ),
    "catalog.sample": ("catalog:sample_box",),
    "exprlang.eval_jet": ("exprlang:eval_jet",),
    "jets.mul": ("jets:JetPoly.__mul__",),
    "jets.divide": ("jets:_divide",),
    "jets.compose": ("jets:_compose",),
    "tensor.connection_build": ("tensor:weyl_connection",),
    "tensor.metric_jets": ("tensor:metric_jets",),
    "tensor.invert": ("tensor:_invert_jet_matrix",),
    "tensor.christoffel": ("tensor:_christoffel_from",),
    "tensor.curvature": ("tensor:_curvature_jets",),
    "tensor.nabla_R": ("tensor:_nabla_R_from",),
    "tensor.recurrence_fit": ("tensor:recurrence_theta",),
    "tensor.holonomy": ("tensor:holonomy_span_dim",),
    "tensor.conformal_weyl": ("tensor:conformal_weyl_tensor",),
    "tensor.compat": ("tensor:weyl_compatibility_residual",),
    "einsteinweyl.ew": ("einsteinweyl:ew_residual", "einsteinweyl:ricci_sym", "einsteinweyl:dkp_residual"),
    "invariants.jet_from_expr": (
        "invariants:psi_jet_from_expr",
        "invariants:pair_jet_from_exprs",
        "invariants:f_jet_from_expr",
    ),
    "invariants.invariants": (
        "invariants:psi_invariants",
        "invariants:pair_invariants",
        "invariants:surface_invariants",
        "invariants:surface_derived_pair",
        "invariants:psi_signature_curve",
        "invariants:pair_signature_curve",
        "invariants:surface_signature_curve",
    ),
    "invariants.equivalence": ("invariants:equivalence_test",),
    "symmetry.kernel": ("symmetry:psi_symmetry_kernel", "symmetry:kernel_3d2"),
    "symmetry.classify": ("symmetry:classify_psi", "symmetry:classify_3d2"),
}


def _resolve(spec: str):
    module_name, qualname = spec.split(":")
    obj = sys.modules[f"weylrec.{module_name}"]
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _namespaces() -> List[object]:
    """Every weylrec module namespace plus the JetPoly class dict owner."""
    from weylrec.jets import JetPoly

    mods = [m for name, m in sys.modules.items() if name == "weylrec" or name.startswith("weylrec.")]
    return mods + [JetPoly]


class Tracer:
    """Counts calls and self time per layer; also counts coefficient pairs of
    jet-by-jet products.  Use as a context manager: the wrappers are in place
    only inside the ``with`` block."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.mul_pairs = 0
        self.mul_useful_pairs = 0
        self._stack: List[float] = [0.0]
        self._patched: List[Tuple[object, str, object]] = []

    def _count_mul(self, args) -> None:
        left, right = args[0], args[1]
        if type(right) is not type(left):
            return  # scalar product: no coefficient pairs
        order = left.order
        h1: Dict[int, int] = defaultdict(int)
        h2: Dict[int, int] = defaultdict(int)
        for alpha in left.coeffs:
            h1[sum(alpha)] += 1
        for alpha in right.coeffs:
            h2[sum(alpha)] += 1
        self.mul_pairs += len(left.coeffs) * len(right.coeffs)
        self.mul_useful_pairs += sum(n1 * n2 for d1, n1 in h1.items() for d2, n2 in h2.items() if d1 + d2 <= order)

    def _wrap(self, name: str, fn: Callable, on_call=None) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            enter = clock()
            if on_call is not None:
                on_call(args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self_s[name] += (end - start) - stack.pop()
                calls[name] += 1
                stack[-1] += clock() - enter

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def __enter__(self) -> "Tracer":
        spaces = _namespaces()
        for stem, specs in LAYERS.items():
            for spec in specs:
                original = _resolve(spec)
                on_call = self._count_mul if stem == "jets.mul" else None
                wrapper = self._wrap(stem, original, on_call)
                for space in spaces:
                    for attr, value in list(vars(space).items()):
                        if value is original:
                            self._patched.append((space, attr, original))
                            setattr(space, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for space, attr, original in reversed(self._patched):
            setattr(space, attr, original)
        self._patched.clear()
