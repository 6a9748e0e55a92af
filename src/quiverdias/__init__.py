"""Support calculus, exact module oracle and Grothendieck-group checks for
the diassociative cooperad carried by type-A quiver module categories."""

__version__ = "0.1.0"

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
from .oracle import (
    FieldConfig,
    QuiverModule,
    check_relations,
    iso_to_standard,
    standard_module,
    tensor_over,
)
from .reports import Report, Witness
from .serialize import dumps_support, loads_support
from .sweeps import SweepConfig, run_sweep

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
