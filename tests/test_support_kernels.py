"""The array kernels of the support calculus against a plain point-set reference.

The reference functions below work on Python sets of 1-based point tuples,
one fiber at a time, with no numpy: they are the set algorithms the array
kernels replaced.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quiverdias.families as families
from quiverdias.families import (
    associativity_group,
    commutativity_group,
    interval_support,
    reference_associativity_set,
    reference_commutativity_set,
    regular_support,
    s_support,
    verify_associativity,
    verify_commutativity,
)
from quiverdias.reports import Report, Witness, compare_supports
from quiverdias.supports import (
    DOWNWARD,
    INJECTIVE,
    OP,
    PLAIN,
    PREDECESSOR,
    PROJECTIVE,
    SUCCESSOR,
    UPWARD,
    Axis,
    ClosureError,
    Shape,
    Support,
    closure_check,
    contract,
    fiber_reversal,
    make_support,
    permute_axes,
    validate_standard,
)
from quiverdias.families import nested, parallel
from quiverdias.sweeps import slot_pairs

# --- point-set reference ------------------------------------------------------


def box(shape):
    return itertools.product(*(range(1, ax.length + 1) for ax in shape.axes))


def ref_fibers(points, axis):
    fibers = {}
    for p in sorted(points):
        fibers.setdefault(p[:axis] + p[axis + 1 :], set()).add(p[axis])
    return fibers


def ref_closed(vals, top, sense):
    lo, hi = (min(vals), top) if sense == UPWARD else (1, max(vals))
    return vals == set(range(lo, hi + 1))


def ref_first_unclosed(points, axis, top, sense):
    """Smallest rest whose fiber is not closed, with the fiber, or None."""
    bad = [(r, v) for r, v in ref_fibers(points, axis).items() if not ref_closed(v, top, sense)]
    return min(bad) if bad else None


def ref_sense(ax, sense):
    if sense == PROJECTIVE:
        return UPWARD if ax.polarity == PLAIN else DOWNWARD
    if sense == INJECTIVE:
        return DOWNWARD if ax.polarity == PLAIN else UPWARD
    return sense


def ref_contract(p1, a1, p2, a2):
    f1, f2 = ref_fibers(p1, a1), ref_fibers(p2, a2)
    return {r1 + r2 for r1, g1 in f1.items() for r2, g2 in f2.items() if g1 & g2}


def ref_reversal(points, axis, top, mode):
    out = set()
    for rest, vals in ref_fibers(points, axis).items():
        rng = range(1, min(vals) + 1) if mode == PREDECESSOR else range(max(vals), top + 1)
        out |= {rest[:axis] + (v,) + rest[axis:] for v in rng}
    return out


def ref_violations(support):
    pts = set(support.points)
    steps = [1 if ax.polarity == PLAIN else -1 for ax in support.shape.axes]

    def bump(t, i, d):
        return t[:i] + (t[i] + d,) + t[i + 1 :]

    k = support.shape.arity
    out = []
    for x in sorted(pts):
        for a in range(k):
            xa = bump(x, a, steps[a])
            for b in range(a + 1, k):
                xab = bump(xa, b, steps[b])
                if xab in pts and (xa in pts) != (bump(x, b, steps[b]) in pts):
                    out.append((x, a, b))
    return out


# --- strategies ---------------------------------------------------------------

lengths = st.integers(1, 4)
polarities = st.sampled_from([PLAIN, OP])


@st.composite
def shapes(draw, min_axes=1, max_axes=4):
    arity = draw(st.integers(min_axes, max_axes))
    return Shape(tuple(Axis(draw(lengths), draw(polarities)) for _ in range(arity)))


@st.composite
def supports(draw, shape=None):
    shape = shape or draw(shapes())
    return make_support(shape, draw(st.sets(st.sampled_from(list(box(shape))))))


@st.composite
def closed_supports(draw, shape, axis, sense):
    """Every fiber along the axis is [t, L] (upward) or [1, t] (downward),
    possibly empty, with t drawn per fiber."""
    top = shape.axes[axis].length
    rests = list(box(Shape(shape.axes[:axis] + shape.axes[axis + 1 :]))) if shape.arity > 1 else [()]
    pts = []
    for rest in rests:
        if sense == UPWARD:
            vals = range(draw(st.integers(1, top + 1)), top + 1)
        else:
            vals = range(1, draw(st.integers(0, top)) + 1)
        pts += [rest[:axis] + (v,) + rest[axis:] for v in vals]
    return make_support(shape, pts)


@st.composite
def contract_inputs(draw):
    """(s1, a1, s2, a2) with a plain a1 and an op a2 of one length, closed
    as contract requires, and at least one axis left over."""
    top = draw(lengths)
    left = draw(shapes(max_axes=3))
    right = draw(shapes(min_axes=1 if left.arity > 1 else 2, max_axes=3))
    a1 = draw(st.integers(0, left.arity - 1))
    a2 = draw(st.integers(0, right.arity - 1))
    left = Shape(left.axes[:a1] + (Axis(top, PLAIN),) + left.axes[a1 + 1 :])
    right = Shape(right.axes[:a2] + (Axis(top, OP),) + right.axes[a2 + 1 :])
    s1 = draw(closed_supports(left, a1, UPWARD))
    s2 = draw(closed_supports(right, a2, DOWNWARD))
    return s1, a1, s2, a2


# --- properties ---------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(supports())
def test_points_are_the_sorted_mask(s):
    assert s.points == tuple(sorted(s.point_set))
    assert s.size == len(s.points)
    assert all(s.mask[tuple(c - 1 for c in p)] for p in s.points)
    assert not s.mask.flags.writeable
    same = make_support(s.shape, reversed(s.points))
    assert same == s and hash(same) == hash(s)


@settings(max_examples=100, deadline=None)
@given(contract_inputs())
def test_contract_matches_point_sets(inputs):
    s1, a1, s2, a2 = inputs
    got = contract(s1, a1, s2, a2)
    assert got.shape.axes == (
        s1.shape.axes[:a1] + s1.shape.axes[a1 + 1 :] + s2.shape.axes[:a2] + s2.shape.axes[a2 + 1 :]
    )
    assert got.points == tuple(sorted(ref_contract(s1.points, a1, s2.points, a2)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_reversal_matches_point_sets(data):
    shape = data.draw(shapes())
    axis = data.draw(st.integers(0, shape.arity - 1))
    mode = data.draw(st.sampled_from([PREDECESSOR, SUCCESSOR]))
    s = data.draw(closed_supports(shape, axis, UPWARD if mode == PREDECESSOR else DOWNWARD))
    got = fiber_reversal(s, axis, mode)
    top = shape.axes[axis].length
    assert got.shape == s.shape
    assert got.points == tuple(sorted(ref_reversal(s.points, axis, top, mode)))


@settings(max_examples=100, deadline=None)
@given(supports(), st.data())
def test_closure_and_its_errors_match_point_sets(s, data):
    axis = data.draw(st.integers(0, s.shape.arity - 1))
    ax = s.shape.axes[axis]
    for sense in (UPWARD, DOWNWARD, PROJECTIVE, INJECTIVE):
        bad = ref_first_unclosed(s.points, axis, ax.length, ref_sense(ax, sense))
        assert closure_check(s, axis, sense) == (bad is None)
    for mode, sense in ((PREDECESSOR, UPWARD), (SUCCESSOR, DOWNWARD)):
        bad = ref_first_unclosed(s.points, axis, ax.length, sense)
        if bad is None:
            fiber_reversal(s, axis, mode)
            continue
        rest, vals = bad
        message = f"axis {axis}: fiber at {rest} is not {sense}-closed: {sorted(vals)}"
        with pytest.raises(ClosureError) as err:
            fiber_reversal(s, axis, mode)
        assert str(err.value) == message


@settings(max_examples=100, deadline=None)
@given(supports(), st.data())
def test_permute_axes_matches_point_sets(s, data):
    perm = data.draw(st.permutations(range(s.shape.arity)))
    got = permute_axes(s, perm)
    assert got.shape.axes == tuple(s.shape.axes[q] for q in perm)
    assert got.points == tuple(sorted(tuple(p[q] for q in perm) for p in s.points))


@settings(max_examples=150, deadline=None)
@given(supports())
def test_validate_standard_matches_point_sets(s):
    got = [(v.base, v.axis_a, v.axis_b) for v in validate_standard(s)]
    assert got == ref_violations(s)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compare_supports_matches_point_sets(data):
    shape = data.draw(shapes())
    left, right = data.draw(supports(shape)), data.draw(supports(shape))
    expected = sorted(
        [Witness("c", p, "left only") for p in left.point_set - right.point_set]
        + [Witness("c", p, "right only") for p in right.point_set - left.point_set],
        key=lambda w: w.where,
    )
    assert compare_supports("c", left, right) == expected


# --- fixed cases --------------------------------------------------------------


def test_contract_does_not_wrap_at_length_256():
    # every result point has up to 256 shared levels; an 8-bit count wraps to 0
    got = contract(interval_support(256, "projective", 1), 0, regular_support(256), 0)
    assert got.points == tuple((v,) for v in range(1, 257))


def test_closure_error_names_the_smallest_unclosed_fiber():
    # along axis 0 of [4, 2] both fibers have a gap; the points list the fiber
    # at rest (2,) first, the message names the smaller rest (1,)
    s = make_support(Shape((Axis(4), Axis(2))), [(1, 2), (3, 2), (2, 1), (4, 1)])
    right = make_support(Shape((Axis(4, OP), Axis(1))), [(1, 1)])
    with pytest.raises(ClosureError) as err:
        contract(s, 0, right, 0)
    assert str(err.value) == "left support, axis 0: fiber at (1,) is not upward-closed: [2, 4]"
    with pytest.raises(ClosureError) as err:
        fiber_reversal(s, 0, SUCCESSOR)
    assert str(err.value) == "axis 0: fiber at (1,) is not downward-closed: [2, 4]"


def test_support_mask_must_fit_the_box():
    with pytest.raises(ValueError, match=r"mask of shape \(2,\) does not fit the box \(3,\)"):
        Support(Shape((Axis(3),)), [True, False])


def test_support_copies_a_writable_mask():
    mask = np.array([True, False, True])
    s = Support(Shape((Axis(3),)), mask)
    mask[1] = True
    assert s.points == ((1,), (3,))


# --- stacks along a leading plain axis ---------------------------------------


def stack(members):
    return Support(Shape((Axis(len(members)),) + members[0].shape.axes), np.stack([s.mask for s in members]))


@st.composite
def stacked_contract_inputs(draw):
    """Members of one shape on either side, closed as contract requires,
    except that one member of one side may be any support."""
    s1, a1, s2, a2 = draw(contract_inputs())
    left = [s1] + [draw(closed_supports(s1.shape, a1, UPWARD)) for _ in range(draw(st.integers(0, 2)))]
    right = [s2] + [draw(closed_supports(s2.shape, a2, DOWNWARD)) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        side = draw(st.sampled_from([left, right]))
        side[draw(st.integers(0, len(side) - 1))] = draw(supports(side[0].shape))
    return left, a1, right, a2


@settings(max_examples=150, deadline=None)
@given(stacked_contract_inputs())
def test_contract_of_stacks_is_the_stack_of_contracts(inputs):
    # the group verifiers' kernel: contracting two stacks along their leading
    # plain axes gives every member contraction, the left member's index at
    # axis 0 and the right member's after the left member's remaining axes;
    # an unclosed member raises, naming its fiber with its index in front
    left, a1, right, a2 = inputs
    errors = [(side, a, k, ref_first_unclosed(s.points, a, s.shape.axes[a].length, sense))
              for side, a, members, sense in (("left", a1, left, UPWARD), ("right", a2, right, DOWNWARD))
              for k, s in enumerate(members)]
    errors = [e for e in errors if e[3] is not None]
    if errors:
        side, a, k, (rest, vals) = errors[0]
        message = f"{side} support, axis {a + 1}: fiber at {(k + 1,) + rest} is not "
        with pytest.raises(ClosureError) as err:
            contract(stack(left), a1 + 1, stack(right), a2 + 1)
        assert str(err.value) == message + f"{UPWARD if side == 'left' else DOWNWARD}-closed: {sorted(vals)}"
        return
    got = contract(stack(left), a1 + 1, stack(right), a2 + 1)
    at = left[0].shape.arity
    for k, s1 in enumerate(left):
        for q, s2 in enumerate(right):
            one = contract(s1, a1, s2, a2)
            member = got.mask[k][(slice(None),) * (at - 1) + (q,)]
            assert np.array_equal(member, one.mask)
    assert got.shape.axes[0] == Axis(len(left)) and got.shape.axes[at] == Axis(len(right))


def per_pair_report(verifier, m, n, p, i, j):
    """The cooperad verifiers as single-pair kernel calls, one contract per
    side per pair: the reference the group path is compared with."""
    if verifier == "commutativity":
        left = permute_axes(contract(s_support(m + p - 1, i, n), 1, s_support(m, j, p), 0), (0, 2, 1, 3))
        reference = reference_commutativity_set(m, n, p, i, j)
    else:
        left = contract(s_support(m, i, n + p - 1), 2, s_support(n, j, p), 0)
        reference = reference_associativity_set(m, n, p, i, j)
    top = j + n - 1 if verifier == "commutativity" else i + j - 1
    right = permute_axes(contract(s_support(m + n - 1, top, p), 1, s_support(m, i, n), 0), (0, 2, 3, 1))
    witnesses = (
        compare_supports("left_vs_right", left, right)
        + compare_supports("left_vs_reference", left, reference)
        + compare_supports("right_vs_reference", right, reference)
    )
    params = {"m": m, "n": n, "p": p, "i": i, "j": j}
    return Report(verifier, params, left.size, right.size, witnesses)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_group_body_matches_one_pair_calls(data):
    verifier = data.draw(st.sampled_from(["commutativity", "associativity"]))
    m, n, p = (data.draw(st.integers(1, 4)) for _ in range(3))
    rule = parallel if verifier == "commutativity" else nested
    pairs = [(d["i"], d["j"]) for d in slot_pairs(m, n, p, rule) if (d["m"], d["n"], d["p"]) == (m, n, p)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    group, one = {
        "commutativity": (commutativity_group, verify_commutativity),
        "associativity": (associativity_group, verify_associativity),
    }[verifier]
    reports = group([{"m": m, "n": n, "p": p, "i": i, "j": j} for i, j in chosen])
    assert reports == [one(m, n, p, i, j) for i, j in chosen]
    assert reports == [per_pair_report(verifier, m, n, p, i, j) for i, j in chosen]
    assert all(r.passed for r in reports)
    assert group([]) == []


def test_group_body_runs_large_groups_in_chunks(monkeypatch):
    # a chunk bound far below one group's stacks splits it into many chunks
    # without changing a report
    params = [d for d in slot_pairs(5, 4, 3, nested) if (d["m"], d["n"], d["p"]) == (5, 4, 3)]
    whole = associativity_group(params)
    monkeypatch.setattr(families, "STACK_BYTES", 3 * 10 * 5 * 4 * 3)
    assert associativity_group(params) == whole
    assert whole == [per_pair_report("associativity", 5, 4, 3, d["i"], d["j"]) for d in params]
