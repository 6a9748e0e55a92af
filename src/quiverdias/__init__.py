"""Support calculus, exact module oracle and Grothendieck-group checks for
the diassociative cooperad carried by type-A quiver module categories."""

__version__ = "0.1.0"

import importlib

from .supports import (
    OP,
    PLAIN,
    PREDECESSOR,
    SUCCESSOR,
    Axis,
    ClosureError,
    Point,
    Shape,
    Support,
    SquareViolation,
    closure_check,
    contract,
    fiber,
    fiber_reversal,
    make_support,
    permute_axes,
    validate_standard,
)
from .families import (
    interval_support,
    n_support,
    reference_associativity_set,
    reference_commutativity_set,
    regular_support,
    s_support,
    s_support_alt,
    verify_associativity,
    verify_border,
    verify_commutativity,
    verify_inner,
)
from .k0 import (
    K0Map,
    dias_compose,
    dias_operad_axiom_check,
    dias_tau,
    duality_check,
    flip_k0,
    k0_class,
    nabla_k0,
    nu_k0,
    tau_k0,
    verify_border_k0,
    verify_inner_k0,
)
from .fields import FieldConfig
from .reports import Report, Witness
from .sweeps import SweepConfig, run_sweep

# served on first use (PEP 562): importing the package, as the command line
# does, loads neither the oracle with its linear algebra nor the support codec
_LAZY = {
    "oracle": ("QuiverModule", "check_relations", "iso_to_standard", "standard_module", "tensor_over"),
    "serialize": ("dumps_support", "loads_support"),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # supports
    "OP",
    "PLAIN",
    "PREDECESSOR",
    "SUCCESSOR",
    "Axis",
    "ClosureError",
    "Point",
    "Shape",
    "Support",
    "SquareViolation",
    "closure_check",
    "contract",
    "fiber",
    "fiber_reversal",
    "make_support",
    "permute_axes",
    "validate_standard",
    # families
    "interval_support",
    "n_support",
    "reference_associativity_set",
    "reference_commutativity_set",
    "regular_support",
    "s_support",
    "s_support_alt",
    "verify_associativity",
    "verify_border",
    "verify_commutativity",
    "verify_inner",
    # classes
    "K0Map",
    "dias_compose",
    "dias_operad_axiom_check",
    "dias_tau",
    "duality_check",
    "flip_k0",
    "k0_class",
    "nabla_k0",
    "nu_k0",
    "tau_k0",
    "verify_border_k0",
    "verify_inner_k0",
    # oracle
    "FieldConfig",
    "QuiverModule",
    "check_relations",
    "iso_to_standard",
    "standard_module",
    "tensor_over",
    # reports and sweeps
    "Report",
    "Witness",
    "SweepConfig",
    "run_sweep",
    "dumps_support",
    "loads_support",
]
