"""The kill matrix: each seeded kernel defect, run through a whole sweep.

Every row is a mutant of one kernel, made by monkeypatching (nothing in
src/ knows of it), and the exact number of failed reports per verifier
that it causes on `verify --suite all --max 3`.  Together the rows fail
every verifier of the sweep, so each verifier is shown to catch some
defect, and a row failed by several layers pins their cross-checks.
"""

import collections

import numpy as np
import pytest

from quiverdias import families, k0, oracle, supports, sweeps
from quiverdias.families import n_support
from quiverdias.supports import Support
from quiverdias.sweeps import SweepConfig, run_sweep


def patch_everywhere(mp, name, seeded):
    """Rebind a supports kernel in every module that imports it by name."""
    for module in (supports, families, k0, oracle):
        if hasattr(module, name):
            mp.setattr(module, name, seeded)


def last_point_dropped(kernel):
    """kernel with the last point (row-major) of its result left out."""

    def seeded(*args):
        result = kernel(*args)
        mask = result.mask.copy()
        flat = mask.reshape(-1)
        points = np.flatnonzero(flat)
        if points.size:
            flat[points[-1]] = False
        return Support(result.shape, mask)

    return seeded


def contract_drops_its_last_point(mp):
    patch_everywhere(mp, "contract", last_point_dropped(supports.contract))


def fiber_reversal_drops_its_last_point(mp):
    patch_everywhere(mp, "fiber_reversal", last_point_dropped(supports.fiber_reversal))


def permute_axes_swaps_equal_trailing_axes(mp):
    permute_axes = supports.permute_axes

    def seeded(support, perm):
        result = permute_axes(support, perm)
        axes = result.shape.axes
        if len(axes) >= 2 and axes[-1] == axes[-2]:
            return Support(result.shape, result.mask.swapaxes(-1, -2))
        return result

    patch_everywhere(mp, "permute_axes", seeded)


def slot_stack_drops_a_fiber_top(mp):
    # the op fiber [1, top] at mu = i, nu = n loses top where top >= 2, so
    # every fiber stays closed; k0 imports _slot_stack by name
    slot_stack = families._slot_stack

    def seeded(m, slots, n):
        result = slot_stack(m, slots, n)
        mask = result.mask.copy()
        for k, i in enumerate(np.ravel(slots).tolist()):
            top = int(np.count_nonzero(mask[k, :, i - 1, n - 1]))
            if top >= 2:
                mask[k, top - 1, i - 1, n - 1] = False
        return Support(result.shape, mask)

    mp.setattr(families, "_slot_stack", seeded)
    mp.setattr(k0, "_slot_stack", seeded)


def nu_adds_one_to_row_0(mp):
    # from size 3 on; the tau actions read nu's
    nu_left = k0._nu_left

    def seeded(stack, axis):
        result = nu_left(stack, axis)
        if stack.shape[axis] >= 3:
            np.moveaxis(result, axis, 0)[0] += 1
        return result

    mp.setattr(k0, "_nu_left", seeded)


def compose_off_at_one_entry(mp):
    # e_3 at slot 2 with e_1 of a 2-operation goes to e_1, not e_4
    compose = k0._compose

    def seeded(i, n, j, k):
        hit = (i == 2) & (n == 2) & (j == 3) & (k == 1)
        return np.where(hit, 1, compose(i, n, j, k))

    mp.setattr(k0, "_compose", seeded)


def unit_bimodule_is_the_nakayama_triangle(mp):
    # the unit check compares s with itself, so the bimodule is seeded
    mp.setattr(oracle, "regular_support", n_support)


# mutant -> failed reports per verifier on `all --max 3`
KILLS = {
    contract_drops_its_last_point: {
        "commutativity": 18,
        "associativity": 27,
        "duality": 18,
        "border_k0": 8,
        "inner_k0": 6,
        "oracle_commutativity": 72,
        "oracle_associativity": 216,
    },
    fiber_reversal_drops_its_last_point: {
        "border": 9,
        "inner": 6,
        "oracle_nakayama_gamma": 36,
        "oracle_nakayama_mu": 18,
    },
    permute_axes_swaps_equal_trailing_axes: {
        "commutativity": 8,
        "associativity": 30,
        "border": 2,
        "oracle_nakayama_mu": 6,
    },
    slot_stack_drops_a_fiber_top: {
        "commutativity": 36,
        "associativity": 105,
        "duality": 15,
        "border": 8,
        "inner": 9,
        "border_k0": 8,
        "inner_k0": 2,
    },
    nu_adds_one_to_row_0: {"border_k0": 5, "inner_k0": 6, "tau_order": 3},
    compose_off_at_one_entry: {"duality": 1, "dias_axioms": 15},
    unit_bimodule_is_the_nakayama_triangle: {"oracle_unit": 34},
}


def failed_counts():
    # the oracle keeps slot supports and certificates per process: a row
    # must neither read entries made without its mutant nor leave its own
    oracle._TABLES = None
    try:
        reports = run_sweep(SweepConfig(suite="all", max_m=3))
        return collections.Counter(r.verifier for r in reports if not r.passed)
    finally:
        oracle._TABLES = None


@pytest.mark.parametrize("mutant", list(KILLS), ids=lambda mutant: mutant.__name__)
def test_mutant_fails_exactly_its_row(mutant):
    with pytest.MonkeyPatch.context() as mp:
        mutant(mp)
        assert failed_counts() == KILLS[mutant]


def test_every_verifier_is_killed():
    assert set().union(*KILLS.values()) == set(sweeps._VERIFIERS)


def test_unmutated_sweep_fails_nothing():
    assert failed_counts() == {}


def test_slot_stack_defect_fails_the_displayed_reversal():
    # the inner-reversal threshold shares no formula with _slot_stack, so a
    # slot-support defect shows against the displayed set, not only as a
    # disagreement of the two sides
    with pytest.MonkeyPatch.context() as mp:
        slot_stack_drops_a_fiber_top(mp)
        reports = run_sweep(SweepConfig(suite="anticyclic", max_m=3))
        checks = {w.check for r in reports if r.verifier == "inner" for w in r.witnesses}
    assert "left_vs_displayed" in checks
