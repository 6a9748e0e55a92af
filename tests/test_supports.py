"""Support calculus: construction, validation, closure, contraction, reversal."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quiverdias.families import (
    interval_support,
    n_support,
    regular_support,
    s_support,
)
from quiverdias.supports import (
    OP,
    PLAIN,
    PREDECESSOR,
    SUCCESSOR,
    Axis,
    ClosureError,
    Shape,
    closure_check,
    contract,
    fiber,
    fiber_reversal,
    make_support,
    permute_axes,
    validate_standard,
)


def shape_of(*spec):
    axes = []
    for item in spec:
        if isinstance(item, tuple):
            axes.append(Axis(item[0], item[1]))
        else:
            axes.append(Axis(item))
    return Shape(tuple(axes))


# --- make_support -----------------------------------------------------------


def test_triangle_has_triangular_count():
    shape = shape_of((6, OP), 6)
    pts = [(a, b) for a in range(1, 7) for b in range(1, 7) if a >= b]
    s = make_support(shape, pts)
    assert s.size == 21  # 6*7/2


def test_canonicalization_dedups_and_sorts():
    s = make_support(shape_of(3), [(1,), (1,), (2,)])
    assert s.points == ((1,), (2,))


def test_support_hash_is_computed_once(monkeypatch):
    # equal supports built apart hash equal, and each computes its hash once,
    # however often it is hashed as a dict key
    shape = shape_of((3, OP), 2)
    pts = [(1, 1), (2, 1), (2, 2), (3, 2)]
    a, b = make_support(shape, pts), make_support(shape, reversed(pts))
    assert a is not b and a == b and hash(a) == hash(b)
    shape_hash, calls = Shape.__hash__, []

    def counting(self):
        calls.append(self)
        return shape_hash(self)

    monkeypatch.setattr(Shape, "__hash__", counting)
    c = make_support(shape, pts)
    calls.clear()
    assert hash(c) == hash(c) == hash(a) and {c: 1}[a] == 1
    assert len(calls) == 1


def test_pickled_support_hashes_in_the_receiving_process():
    # a hash depends on the process's hash seed, so a pickled support must not
    # carry one computed before it was sent to a process with another seed
    s = make_support(shape_of((3, OP), 2), [(1, 1), (2, 1), (2, 2)])
    hash(s)
    seed = os.environ.get("PYTHONHASHSEED", "random")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": str(int(seed) + 1) if seed.isdigit() else "0",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import pickle, sys; from quiverdias.supports import make_support; "
            "s = pickle.load(sys.stdin.buffer); t = make_support(s.shape, s.points); "
            "print(s == t and hash(s) == hash(t) and {t: 1}[s])")
    proc = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(s),
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"1"]


def test_out_of_bounds_point_reports_coordinate():
    with pytest.raises(ValueError, match=r"coordinate 1 = 3 is outside \[1, 2\]"):
        make_support(shape_of(2), [(3,)])


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError, match="arity"):
        make_support(shape_of(2, 2), [(1,)])


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis(0)
    with pytest.raises(ValueError):
        Axis(3, "sideways")
    with pytest.raises(ValueError):
        Shape(())


# --- validate_standard ------------------------------------------------------


def test_broken_square_is_reported():
    s = make_support(shape_of(2, 2), [(1, 1), (2, 1), (2, 2)])
    violations = validate_standard(s)
    assert len(violations) == 1
    assert violations[0].base == (1, 1)
    assert (violations[0].axis_a, violations[0].axis_b) == (0, 1)


def test_diagonal_pair_is_standard():
    s = make_support(shape_of(2, 2), [(1, 1), (2, 2)])
    assert validate_standard(s) == []


def test_nakayama_triangle_is_standard():
    assert validate_standard(n_support(6)) == []


def test_op_axis_uses_arrow_direction():
    # on [2-op, 2] the square source is (2, 1); this set breaks it
    s = make_support(shape_of((2, OP), 2), [(1, 2), (2, 1), (2, 2)])
    violations = validate_standard(s)
    assert len(violations) == 1
    assert violations[0].base == (2, 1)


# --- closure_check ----------------------------------------------------------


def test_slot_support_projective_over_op_axis():
    s = s_support(6, 3, 4)
    assert closure_check(s, 0, "downward")
    assert closure_check(s, 0, "projective")  # op axis: projective = downward
    assert closure_check(s, 1, "projective")
    assert closure_check(s, 2, "projective")


def test_nakayama_injective_both_sides():
    s = n_support(6)
    assert closure_check(s, 0, "upward")
    assert closure_check(s, 0, "injective")  # op axis: injective = upward
    assert closure_check(s, 1, "downward")
    assert closure_check(s, 1, "injective")


def test_interval_closure():
    p2 = interval_support(5, "projective", 2)
    assert closure_check(p2, 0, "upward")
    assert not closure_check(p2, 0, "downward")


def test_closure_bad_axis_and_sense():
    s = n_support(2)
    with pytest.raises(ValueError, match="axis index"):
        closure_check(s, 5, "upward")
    with pytest.raises(ValueError, match="sense"):
        closure_check(s, 0, "leftward")


def test_slot_family_projective_in_all_directions():
    for m in range(1, 7):
        for n in range(1, 7):
            for i in range(1, m + 1):
                s = s_support(m, i, n)
                assert all(closure_check(s, axis, "projective") for axis in range(3))


# --- fiber ------------------------------------------------------------------


def test_fiber_of_triangle():
    assert fiber(n_support(6), 1, (4,)) == {1, 2, 3, 4}


def test_fiber_of_slot_support():
    assert fiber(s_support(6, 3, 4), 0, (3, 2)) == {1, 2, 3, 4}


def test_empty_fiber():
    assert fiber(s_support(2, 2, 2), 0, (1, 1)) == {1}
    assert fiber(make_support(shape_of(2, 2), [(1, 1)]), 0, (2,)) == set()


def test_fiber_rest_bounds():
    with pytest.raises(ValueError, match="outside"):
        fiber(n_support(3), 0, (9,))
    with pytest.raises(ValueError, match="arity"):
        fiber(n_support(3), 0, (1, 1))


# --- contract ---------------------------------------------------------------


def test_contract_unit_law():
    for m, i, n in [(2, 1, 2), (3, 2, 2), (4, 1, 3), (5, 5, 1)]:
        s = s_support(m, i, n)
        assert contract(regular_support(m + n - 1), 1, s, 0) == s


def test_contract_projective_slice():
    got = contract(interval_support(3, "projective", 3), 0, s_support(2, 1, 2), 0)
    assert got.points == ((2, 1), (2, 2))


def test_contract_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        contract(interval_support(2, "projective", 1), 0, s_support(2, 1, 2), 0)


def test_contract_polarity_checks():
    with pytest.raises(ValueError, match="plain"):
        contract(n_support(3), 0, s_support(2, 1, 2), 0)
    with pytest.raises(ValueError, match="op"):
        contract(interval_support(2, "projective", 1), 0, interval_support(2, "projective", 1), 0)


def test_contract_closure_violation_names_side():
    inj = interval_support(3, "injective", 2)  # downward-closed: bad left input
    with pytest.raises(ClosureError, match="left"):
        contract(inj, 0, s_support(2, 1, 2), 0)
    bad_right = make_support(shape_of((2, OP), 2), [(2, 1), (2, 2)])
    with pytest.raises(ClosureError, match="right"):
        contract(interval_support(2, "projective", 1), 0, bad_right, 0)


def test_contract_output_is_standard():
    for m in range(2, 4):
        for n in range(1, 4):
            for p in range(1, 4):
                for i in range(1, m):
                    for j in range(i + 1, m + 1):
                        out = contract(s_support(m + p - 1, i, n), 1, s_support(m, j, p), 0)
                        assert validate_standard(out) == []


def test_contract_matches_threshold_overlap():
    # independent route: fibers are intervals, so membership is overlap of
    # [min, L] on the left with [1, max] on the right
    for m in range(1, 6):
        for n in range(1, 6):
            for i in range(1, m + 1):
                for j in range(1, m + n):
                    left = interval_support(m + n - 1, "projective", j)
                    right = s_support(m, i, n)
                    got = contract(left, 0, right, 0)
                    thresholds = {}
                    for mu in range(1, m + 1):
                        for nu in range(1, n + 1):
                            f = fiber(right, 0, (mu, nu))
                            if f:
                                thresholds[(mu, nu)] = max(f)
                    expected = {
                        pt for pt, t in thresholds.items() if j <= t
                    }
                    assert set(got.points) == expected


# --- fiber_reversal ---------------------------------------------------------


def test_reversal_successor_example():
    got = fiber_reversal(s_support(2, 1, 2), 0, SUCCESSOR)
    expected = {
        (g, mu, nu)
        for g in range(1, 4)
        for mu in range(1, 3)
        for nu in range(1, 3)
        if (mu == 1 and g >= nu) or g >= mu + 1
    }
    assert got.size == 7
    assert set(got.points) == expected


def test_reversal_full_cube_predecessor():
    shape = shape_of(3, 3)
    cube = make_support(shape, list(shape.iter_points()))
    got = fiber_reversal(cube, 0, PREDECESSOR)
    assert set(got.points) == {(1, b) for b in range(1, 4)}


def test_reversal_empty_fiber_stays_empty():
    s = s_support(2, 2, 2)  # template axes (g, a, b)
    assert fiber(s, 2, (2, 1)) == set()  # empty along the length-2 third axis
    rev = fiber_reversal(s, 2, PREDECESSOR)
    assert fiber(rev, 2, (2, 1)) == set()


def test_reversal_matches_literal_definition():
    # the defining set-builder, evaluated per nonempty fiber
    def literal(s, axis, mode):
        top = s.shape.axes[axis].length
        pts = []
        nonempty = {p[:axis] + p[axis + 1 :] for p in s.points}
        for rest in nonempty:
            vals = fiber(s, axis, rest)
            for v in range(1, top + 1):
                neighbor = v - 1 if mode == PREDECESSOR else v + 1
                if neighbor not in vals:
                    pts.append(rest[:axis] + (v,) + rest[axis:])
        return sorted(pts)

    for m in range(1, 5):
        for n in range(1, 5):
            for i in range(1, m + 1):
                s = s_support(m, i, n)
                assert list(fiber_reversal(s, 0, SUCCESSOR).points) == literal(s, 0, SUCCESSOR)
                assert list(fiber_reversal(s, 1, PREDECESSOR).points) == literal(s, 1, PREDECESSOR)


def test_reversal_meets_original_on_nonempty_fibers():
    s = s_support(3, 2, 4)
    rev = fiber_reversal(s, 0, SUCCESSOR)
    for mu in range(1, 4):
        for nu in range(1, 5):
            f = fiber(s, 0, (mu, nu))
            if f:
                assert f & fiber(rev, 0, (mu, nu))


def test_reversal_involution_on_nonempty_fibers():
    for m in range(1, 6):
        for n in range(1, 6):
            for i in range(1, m + 1):
                s = s_support(m, i, n)
                assert fiber_reversal(fiber_reversal(s, 0, SUCCESSOR), 0, PREDECESSOR) == s
                assert fiber_reversal(fiber_reversal(s, 1, PREDECESSOR), 1, SUCCESSOR) == s


def test_gap_fiber_breaks_every_closure_check():
    # {1, 3} on a length-3 axis is neither [t, 3] nor [1, t]
    gap = make_support(shape_of(3), [(1,), (3,)])
    gap_op = make_support(shape_of((3, OP), 1), [(1, 1), (3, 1)])
    assert not closure_check(gap, 0, "upward")
    assert not closure_check(gap, 0, "downward")
    good_left = interval_support(3, "projective", 1)
    good_right = make_support(shape_of((3, OP), 1), [(1, 1), (2, 1)])
    assert contract(good_left, 0, good_right, 0).size == 1
    with pytest.raises(ClosureError, match="left"):
        contract(gap, 0, good_right, 0)
    with pytest.raises(ClosureError, match="right"):
        contract(good_left, 0, gap_op, 0)
    for mode in (PREDECESSOR, SUCCESSOR):
        with pytest.raises(ClosureError, match="not .*-closed"):
            fiber_reversal(gap, 0, mode)


def test_reversal_precondition_errors():
    s = interval_support(3, "projective", 2)  # upward-closed only
    with pytest.raises(ClosureError):
        fiber_reversal(s, 0, SUCCESSOR)
    with pytest.raises(ValueError, match="mode"):
        fiber_reversal(s, 0, "sideways")


# --- permute_axes -----------------------------------------------------------


def test_transpose_triangle():
    got = permute_axes(n_support(6), (1, 0))
    assert got.shape.axes == (Axis(6, PLAIN), Axis(6, OP))
    assert set(got.points) == {(b, a) for a in range(1, 7) for b in range(1, 7) if a >= b}


def test_identity_permutation():
    s = s_support(3, 2, 2)
    assert permute_axes(s, (0, 1, 2)) == s


def test_permutation_inverse_roundtrip():
    s = s_support(3, 2, 2)
    assert permute_axes(permute_axes(s, (2, 0, 1)), (1, 2, 0)) == s


def test_invalid_permutation():
    with pytest.raises(ValueError, match="permutation"):
        permute_axes(n_support(2), (0, 0))


def test_contract_refuses_to_leave_no_axis():
    left = interval_support(3, "projective", 1)
    right = make_support(Shape((Axis(3, OP),)), [(1,), (2,)])
    with pytest.raises(ValueError, match="contracting axis 0 against axis 0 leaves no axis"):
        contract(left, 0, right, 0)


# --- property tests ---------------------------------------------------------


@st.composite
def supports(draw):
    arity = draw(st.integers(1, 3))
    axes = tuple(
        Axis(draw(st.integers(1, 4)), draw(st.sampled_from([PLAIN, OP]))) for _ in range(arity)
    )
    shape = Shape(axes)
    box = list(shape.iter_points())
    pts = draw(st.lists(st.sampled_from(box), max_size=len(box)))
    return make_support(shape, pts)


@settings(max_examples=150, deadline=None)
@given(supports(), st.randoms())
def test_make_support_canonical_under_shuffle(s, rng):
    shuffled = list(s.points) * 2
    rng.shuffle(shuffled)
    assert make_support(s.shape, shuffled) == s


@settings(max_examples=150, deadline=None)
@given(supports(), st.data())
def test_permutation_roundtrip_property(s, data):
    k = s.shape.arity
    perm = data.draw(st.permutations(range(k)))
    inverse = [0] * k
    for pos, src in enumerate(perm):
        inverse[src] = pos
    assert permute_axes(permute_axes(s, perm), inverse) == s


@settings(max_examples=150, deadline=None)
@given(supports(), st.data())
def test_reversal_roundtrip_on_upward_closures(s, data):
    axis = data.draw(st.integers(0, s.shape.arity - 1))
    top = s.shape.axes[axis].length
    closed_pts = []
    for p in s.points:
        closed_pts.extend(p[:axis] + (v,) + p[axis + 1 :] for v in range(p[axis], top + 1))
    closed = make_support(s.shape, closed_pts)
    assert fiber_reversal(fiber_reversal(closed, axis, PREDECESSOR), axis, SUCCESSOR) == closed
