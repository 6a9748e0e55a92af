"""Support families and the four identity verifiers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quiverdias.families as families
from quiverdias.families import (
    associativity_clauses,
    border_intermediate_reference,
    border_reversal_reference,
    commutativity_clauses,
    interval_support,
    n_support,
    quad_shape,
    reference_associativity_set,
    reference_commutativity_set,
    regular_support,
    s_support,
    s_support_alt,
    s_support_alt_clauses,
    triple_shape,
    verify_associativity,
    verify_border,
    verify_commutativity,
    verify_inner,
)
from quiverdias.reports import Report, Witness, compare_supports
from quiverdias.sweeps import group_tasks, run_group, slot_domain, slot_pairs
from quiverdias.supports import (
    OP,
    PREDECESSOR,
    SUCCESSOR,
    Axis,
    Support,
    closure_check,
    fiber_reversal,
    permute_axes,
)


# --- s_support --------------------------------------------------------------


def test_slot_support_counts_and_membership():
    s = s_support(6, 3, 4)
    assert s.size == 126  # 12 + 18 + 96 over the three clause regions
    assert (4, 3, 2) in s
    assert (4, 3, 1) not in s
    assert s.shape.axes == (Axis(9, OP), Axis(6), Axis(4))


def test_slot_support_singleton():
    assert s_support(1, 1, 1).points == ((1, 1, 1),)


def test_slot_support_trivial_slot_is_regular_pattern():
    for m in range(1, 6):
        for i in range(1, m + 1):
            expected = tuple(
                sorted((g, mu, 1) for g in range(1, m + 1) for mu in range(1, m + 1) if g <= mu)
            )
            assert s_support(m, i, 1).points == expected


def test_slot_support_bounds():
    with pytest.raises(ValueError):
        s_support(2, 3, 1)
    with pytest.raises(ValueError):
        s_support(2, 0, 1)
    with pytest.raises(ValueError):
        s_support(2, 1, 0)
    # a stack holding slot 0 or slot m + 1 is refused, named by that slot
    for m, slots, bad in ((3, [1, 0, 2], 0), (3, [2, 3, 4], 4), (1, [2], 2)):
        refused = rf"^slot i={bad} is not a slot \(1 <= i <= m\) for m={m}, n=2$"
        with pytest.raises(ValueError, match=refused):
            families._slot_stack(m, slots, 2)


def test_slot_support_downset_property():
    # single covering steps suffice: g down, mu up, nu up stay inside
    for m in range(1, 7):
        for n in range(1, 7):
            for i in range(1, m + 1):
                s = s_support(m, i, n)
                for (g, mu, nu) in s.points:
                    if g > 1:
                        assert (g - 1, mu, nu) in s
                    if mu < m:
                        assert (g, mu + 1, nu) in s
                    if nu < n:
                        assert (g, mu, nu + 1) in s


def test_slot_support_gamma_fibers_nonempty():
    for m in range(1, 7):
        for n in range(1, 7):
            for i in range(1, m + 1):
                s = s_support(m, i, n)
                for mu in range(1, m + 1):
                    for nu in range(1, n + 1):
                        assert (1, mu, nu) in s


# --- alternative description ------------------------------------------------


def test_alt_description_matches_exhaustively():
    # one support at a time, and as members of the stack of every slot
    for m in range(1, 9):
        for n in range(1, 9):
            stack = families._slot_stack(m, range(1, m + 1), n)
            assert stack.shape.axes[1:] == triple_shape(m, n).axes
            for i in range(1, m + 1):
                assert s_support_alt(m, i, n) == s_support(m, i, n)
                assert Support(triple_shape(m, n), stack.mask[i - 1]) == s_support_alt(m, i, n)


def test_alt_clause_two_admits_example_point():
    clauses = s_support_alt_clauses(6, 3, 4)
    assert clauses[1](4, 3, 2)
    assert not clauses[0](4, 3, 2)


def test_alt_small_instance():
    s = s_support_alt(2, 1, 2)
    assert s == s_support(2, 1, 2)
    assert s.size == 9


# --- n_support, interval_support, regular_support ----------------------------


def test_nakayama_triangle():
    assert n_support(6).size == 21
    assert n_support(1).points == ((1, 1),)
    s = n_support(4)
    assert closure_check(s, 0, "injective")
    assert closure_check(s, 1, "injective")


def test_interval_supports():
    assert interval_support(5, "projective", 2).points == ((2,), (3,), (4,), (5,))
    assert interval_support(5, "injective", 2).points == ((1,), (2,))
    assert interval_support(5, "simple", 5) == interval_support(5, "projective", 5)
    with pytest.raises(ValueError):
        interval_support(5, "projective", 6)
    with pytest.raises(ValueError):
        interval_support(5, "flat", 1)


def test_regular_support():
    s = regular_support(3)
    assert set(s.points) == {(g, mu) for g in range(1, 4) for mu in range(1, 4) if g <= mu}


# --- reference sets ----------------------------------------------------------


def test_reference_commutativity_count():
    assert reference_commutativity_set(2, 2, 2, 1, 2).size == 20


def test_reference_associativity_count():
    assert reference_associativity_set(2, 2, 2, 1, 1).size == 25


def test_commutativity_clauses_mu_disjoint():
    for (m, n, p, i, j) in [(2, 2, 2, 1, 2), (5, 3, 2, 2, 4), (4, 1, 3, 1, 3)]:
        clauses = commutativity_clauses(m, n, p, i, j)
        shape = reference_commutativity_set(m, n, p, i, j).shape
        for pt in shape.iter_points():
            assert sum(bool(c(*pt)) for c in clauses) <= 1


def test_associativity_clauses_partition():
    clauses = associativity_clauses(3, 3, 2, 2, 1)
    shape = reference_associativity_set(3, 3, 2, 2, 1).shape
    for pt in shape.iter_points():
        assert sum(bool(c(*pt)) for c in clauses) <= 1


def test_reference_bounds():
    with pytest.raises(ValueError):
        reference_commutativity_set(2, 2, 2, 2, 2)  # needs i < j
    with pytest.raises(ValueError):
        reference_associativity_set(2, 2, 2, 1, 3)  # needs j <= n


# --- verify_commutativity ----------------------------------------------------


def test_commutativity_small_instance():
    r = verify_commutativity(2, 2, 2, 1, 2)
    assert r.passed
    assert r.left_size == r.right_size == 20
    assert r.witnesses == []


def test_commutativity_sweep_member():
    assert verify_commutativity(5, 3, 2, 2, 4).passed


def test_commutativity_requires_parallel_slots():
    with pytest.raises(ValueError, match="i < j"):
        verify_commutativity(3, 2, 2, 2, 2)


# --- verify_associativity ----------------------------------------------------


def test_associativity_small_instance():
    r = verify_associativity(2, 2, 2, 1, 1)
    assert r.passed
    assert r.left_size == 25


def test_associativity_unit_cases():
    for n in range(1, 4):
        for p in range(1, 4):
            for j in range(1, n + 1):
                assert verify_associativity(1, n, p, 1, j).passed


def test_associativity_sweep_member():
    assert verify_associativity(4, 3, 2, 2, 3).passed


# --- verify_border -----------------------------------------------------------


def test_border_small_instance():
    r = verify_border(2, 2)
    assert r.passed
    assert r.left_size == 7


def test_border_singleton():
    r = verify_border(1, 1)
    assert r.passed
    assert r.left_size == 1


def test_border_figure_parameters():
    assert verify_border(4, 6).passed
    assert verify_border(6, 4).passed


def test_border_displayed_sets_have_no_empty_fiber_points():
    # the displayed intermediate confirms that empty fibers stay empty
    mid = border_intermediate_reference(2, 2)
    assert all(not (a <= 1 and g > a) for (g, a, b) in mid.points)


def test_border_axis_order_harmless_when_square():
    # when m = n the two plain axes may be reversed in either order
    for k in range(1, 5):
        lhs = fiber_reversal(s_support(k, 1, k), 0, SUCCESSOR)
        other = fiber_reversal(s_support(k, k, k), 1, PREDECESSOR)
        rhs = permute_axes(fiber_reversal(other, 2, PREDECESSOR), (0, 2, 1))
        assert rhs == lhs


def test_border_reference_builders_match_reversals():
    for m in range(1, 5):
        for n in range(1, 5):
            assert fiber_reversal(s_support(m, 1, n), 0, SUCCESSOR) == border_reversal_reference(m, n)
            assert (
                fiber_reversal(s_support(n, n, m), 2, PREDECESSOR)
                == border_intermediate_reference(m, n)
            )


# --- verify_inner ------------------------------------------------------------


def test_inner_figure_instance():
    assert verify_inner(8, 7, 4).passed


def test_inner_degenerate_slot_width():
    assert verify_inner(2, 1, 2).passed


def test_inner_rejects_first_slot():
    with pytest.raises(ValueError, match="2 <= i"):
        verify_inner(3, 2, 1)


def test_report_invariant_pass_iff_no_witnesses():
    for r in [verify_commutativity(3, 2, 2, 1, 3), verify_border(3, 3), verify_inner(3, 2, 2)]:
        assert r.passed == (not r.witnesses)


def test_shape_helper():
    assert triple_shape(2, 3).lengths == (4, 2, 3)


# --- seeded defects -------------------------------------------------------------


@st.composite
def parallel_params(draw):
    m = draw(st.integers(2, 4))
    i = draw(st.integers(1, m - 1))
    return (m, draw(st.integers(1, 3)), draw(st.integers(1, 3)), i, draw(st.integers(i + 1, m)))


@st.composite
def nested_params(draw):
    m, n, p = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return (m, n, p, draw(st.integers(1, m)), draw(st.integers(1, n)))


@st.composite
def inner_params(draw):
    m = draw(st.integers(2, 4))
    return (m, draw(st.integers(1, 4)), draw(st.integers(2, m)))


# verifier, its parameters, how many of them are slots, and per reference
# clause set (called with the verifier's parameters) the checks that compare
# against it as right-hand side
SEEDED = {
    "commutativity": (
        verify_commutativity,
        parallel_params(),
        2,
        {"reference_commutativity_set": ("left_vs_reference", "right_vs_reference")},
    ),
    "associativity": (
        verify_associativity,
        nested_params(),
        2,
        {"reference_associativity_set": ("left_vs_reference", "right_vs_reference")},
    ),
    "border": (
        verify_border,
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        0,
        {
            "border_reversal_reference": ("left_vs_displayed",),
            "border_intermediate_reference": ("intermediate_vs_displayed",),
        },
    ),
    "inner": (
        verify_inner,
        inner_params(),
        1,
        {
            "inner_reversal_reference": ("left_vs_displayed",),
            "inner_shift_reference": ("right_vs_displayed",),
        },
    ),
}


def seeding(real, point, slots=()):
    """real with point flipped in its set for slots, a slot pair (i, j), one
    slot (i,) or none, when its last len(slots) arguments are those ints.
    Called with index arrays there instead (the group path), real stacks one
    set per slot or pair along a leading axis, and the member for slots, if
    the arrays hold it, is seeded."""
    def seeded(*args):
        support = real(*args)
        given = args[len(args) - len(slots) :]
        index = tuple(c - 1 for c in point)
        if support.shape.arity > len(point):
            members = list(zip(*(np.ravel(a).tolist() for a in given)))
            if tuple(slots) not in members:
                return support
            index = (members.index(tuple(slots)),) + index
        elif tuple(given) != tuple(slots):
            return support
        mask = support.mask.copy()
        mask[index] = not mask[index]
        return Support(support.shape, mask)

    return seeded


@pytest.mark.parametrize("verifier_name", sorted(SEEDED))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_seeded_defect_is_named(verifier_name, data):
    # flip one point of one reference clause set: the verifier must fail and
    # name exactly that point, "left only" when the flip dropped it from the
    # reference and "right only" when it added it
    verifier, params, slot_count, references = SEEDED[verifier_name]
    args = data.draw(params)
    name = data.draw(st.sampled_from(sorted(references)))
    reference = getattr(families, name)(*args)
    point = data.draw(st.sampled_from(list(reference.shape.iter_points())))
    slots = args[len(args) - slot_count :]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, name, seeding(getattr(families, name), point, slots))
        report = verifier(*args)
    detail = "left only" if point in reference else "right only"
    assert not report.passed
    assert report.witnesses == [Witness(check, point, detail) for check in references[name]]


# the cooperad verifiers, the slot-pair rule of their sweep groups, and the
# reference that the group path reads
GROUPED = {
    "commutativity": (families.parallel, "reference_commutativity_set"),
    "associativity": (families.nested, "reference_associativity_set"),
}


@st.composite
def sweep_groups(draw):
    """The tasks of one sweep group with at least two slot pairs."""
    name = draw(st.sampled_from(sorted(GROUPED)))
    rule, reference = GROUPED[name]
    groups = [g for g in group_tasks([(name, d) for d in slot_pairs(4, 4, 4, rule)]) if len(g) >= 2]
    return name, reference, draw(st.sampled_from(groups))


def run_seeded_group(group, reference, seeds, check=None):
    """The sweep's reports for the group with each (slots, point) of seeds
    flipped in the reference set of those slots, and check's reports of the
    group under the same seeds."""
    with pytest.MonkeyPatch.context() as mp:
        for slots, point in seeds:
            mp.setattr(families, reference, seeding(getattr(families, reference), point, slots))
        return run_group(group), [check(**d) for _, d in group] if check else None


@settings(max_examples=60, deadline=None)
@given(sweep_groups(), st.data())
def test_seeded_defect_fails_only_its_pair_in_a_group(drawn, data):
    # one flipped point in the reference of one slot pair of a group: the
    # sweep's group path fails exactly that pair's report, naming that point
    # under the same checks, and passes every other pair of the group
    name, reference, group = drawn
    params = group[0][1]
    pairs = [(d["i"], d["j"]) for _, d in group]
    target = data.draw(st.integers(0, len(pairs) - 1))
    unseeded = getattr(families, reference)(params["m"], params["n"], params["p"], *pairs[target])
    point = data.draw(st.sampled_from(list(unseeded.shape.iter_points())))
    reports, _ = run_seeded_group(group, reference, [(pairs[target], point)])
    assert [r.verifier for r in reports] == [name] * len(group)
    assert [r.params for r in reports] == [d for _, d in group]
    detail = "left only" if point in unseeded else "right only"
    assert reports[target].witnesses == [
        Witness(check, point, detail) for check in ("left_vs_reference", "right_vs_reference")
    ]
    assert [k for k, r in enumerate(reports) if not r.passed] == [target]


@settings(max_examples=30, deadline=None)
@given(sweep_groups(), st.data())
def test_seeded_defect_in_every_pair_fails_every_report(drawn, data):
    # a group reports each of its pairs, not just the first that differs
    name, reference, group = drawn
    point = data.draw(st.sampled_from(list(quad_shape(*(group[0][1][k] for k in "mnp")).iter_points())))
    pairs = [(d["i"], d["j"]) for _, d in group]
    reports, _ = run_seeded_group(group, reference, [(pair, point) for pair in pairs])
    assert all(len(r.witnesses) == 2 and r.witnesses[0].where == point for r in reports)


def per_slot_inner(m, n, i):
    """The inner check of one slot on its own supports, as verify_inner ran
    before its group stacked the slots: the reference for families.inner_group.
    It reads the references through the module, so seeded ones reach it."""
    left = fiber_reversal(s_support(m, i, n), 0, SUCCESSOR)
    right = fiber_reversal(s_support(m, i - 1, n), 1, PREDECESSOR)
    witnesses = (
        compare_supports("left_vs_displayed", left, families.inner_reversal_reference(m, n, i))
        + compare_supports("right_vs_displayed", right, families.inner_shift_reference(m, n, i))
        + compare_supports("right_vs_left", right, left)
    )
    return Report("inner", {"m": m, "n": n, "i": i}, left.size, right.size, witnesses)


def inner_groups(bound):
    return list(group_tasks(("inner", d) for d in slot_domain(bound, bound, families.inner_slot)))


def test_stacked_inner_equals_the_per_slot_check():
    for group in inner_groups(6):
        assert run_group(group) == [per_slot_inner(**d) for _, d in group]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([g for g in inner_groups(5) if len(g) >= 2]), st.data())
def test_seeded_inner_defect_fails_only_its_slot_in_a_group(group, data):
    # one flipped point in one slot's displayed set: the stacked group fails
    # exactly that slot's report, naming that point, as the per-slot check
    # does, whether the group runs in one chunk or one slot a chunk
    *_, references = SEEDED["inner"]
    name = data.draw(st.sampled_from(sorted(references)))
    m, n = group[0][1]["m"], group[0][1]["n"]
    slots = [d["i"] for _, d in group]
    target = data.draw(st.integers(0, len(slots) - 1))
    unseeded = getattr(families, name)(m, n, slots[target])
    point = data.draw(st.sampled_from(list(unseeded.shape.iter_points())))
    seeds = [((slots[target],), point)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, "STACK_BYTES", data.draw(st.sampled_from([families.STACK_BYTES, 1])))
        reports, per_slot = run_seeded_group(group, name, seeds, per_slot_inner)
    assert reports == per_slot
    detail = "left only" if point in unseeded else "right only"
    expected = [Witness(check, point, detail) for check in references[name]]
    assert reports[target].witnesses == expected
    assert [k for k, r in enumerate(reports) if not r.passed] == [target]
