"""Class-level layer: insertion matrices, composition duality, translations."""

import gc
import tracemalloc

import numpy as np
import pytest

from quiverdias import families, k0
from quiverdias.families import inner_slot, interval_support, s_support
from quiverdias.k0 import (
    K0Map,
    dias_compose,
    dias_compose_matrix,
    dias_operad_axiom_check,
    dias_tau,
    duality_check,
    flip_k0,
    k0_class,
    matrix_order,
    nabla_k0,
    nu_k0,
    tau_k0,
    tau_order_check,
    verify_border_k0,
    verify_inner_k0,
)
from quiverdias.reports import Witness
from quiverdias.supports import OP, Axis, Shape, Support, contract, make_support
from quiverdias.sweeps import SweepConfig, group_tasks, run_group, run_sweep, slot_domain


def identity(desc):
    """The identity K0Map on a basis: the reference factor of Kronecker forms."""
    return K0Map(desc, desc, np.eye(int(np.prod(desc)), dtype=np.int64))


def unit(m, n, a, b):
    v = np.zeros(m * n, dtype=np.int64)
    v[(a - 1) * n + (b - 1)] = 1
    return v


# --- k0_class -----------------------------------------------------------------


def test_class_of_simple_is_unit_vector():
    v = k0_class(interval_support(4, "simple", 3))
    assert v.dtype == np.int64
    assert np.array_equal(v, [0, 0, 1, 0])


def test_class_of_projective_interval():
    assert np.array_equal(k0_class(interval_support(3, "projective", 2)), [0, 1, 1])


def test_class_rejects_op_axis():
    s = make_support(Shape((Axis(2, OP),)), [(1,)])
    with pytest.raises(ValueError, match="op axis"):
        k0_class(s)


def test_class_of_first_projective_image_is_full_square():
    # image of the first projective under the (2,1,2) insertion: the full
    # 2 x 2 projective at vertex (1, 1), so the all-ones indicator
    got = k0_class(contract(interval_support(3, "projective", 1), 0, s_support(2, 1, 2), 0))
    assert np.array_equal(got, [1, 1, 1, 1])


# --- nabla_k0 -----------------------------------------------------------------


def test_nabla_small_columns():
    nab = nabla_k0(2, 1, 2)
    assert nab.source == (3,) and nab.target == (2, 2)
    assert np.array_equal(nab.matrix[:, 0], unit(2, 2, 1, 1))
    assert np.array_equal(nab.matrix[:, 1], unit(2, 2, 1, 2))
    assert np.array_equal(nab.matrix[:, 2], unit(2, 2, 2, 1) + unit(2, 2, 2, 2))


def test_nabla_trivial_slot_is_identity():
    for m in range(1, 6):
        for i in range(1, m + 1):
            assert nabla_k0(m, i, 1) == K0Map((m,), (m, 1), np.eye(m, dtype=np.int64))


def simple_image_formula(m, i, n, j):
    """The displayed three-case image of the j-th simple class."""
    if j <= i - 1:
        return sum(unit(m, n, j, k) for k in range(1, n + 1))
    if j <= i + n - 1:
        return unit(m, n, i, j - i + 1)
    return sum(unit(m, n, j - n + 1, k) for k in range(1, n + 1))


def projective_image_formula(m, i, n, j):
    """The displayed inclusion-exclusion image of the j-th projective class."""
    def proj(a, b):
        v = np.zeros(m * n, dtype=np.int64)
        for x in range(a, m + 1):
            for y in range(b, n + 1):
                v[(x - 1) * n + (y - 1)] = 1
        return v

    if j <= i:
        return proj(j, 1)
    if j <= i + n - 1:
        return proj(i + 1, 1) + proj(i, j - i + 1) - proj(i + 1, j - i + 1)
    return proj(j - n + 1, 1)


def test_nabla_matches_simple_display():
    for m in range(1, 7):
        for n in range(1, 7):
            for i in range(1, m + 1):
                nab = nabla_k0(m, i, n)
                for j in range(1, m + n):
                    assert np.array_equal(
                        nab.matrix[:, j - 1], simple_image_formula(m, i, n, j)
                    ), (m, i, n, j)


def test_projective_images_match_inclusion_exclusion():
    for m in range(1, 7):
        for n in range(1, 7):
            for i in range(1, m + 1):
                s = s_support(m, i, n)
                for j in range(1, m + n):
                    got = k0_class(
                        contract(interval_support(m + n - 1, "projective", j), 0, s, 0)
                    )
                    assert np.array_equal(got, projective_image_formula(m, i, n, j))


def test_nabla_column_shape_invariants():
    for m in range(1, 6):
        for n in range(1, 6):
            for i in range(1, m + 1):
                nab = nabla_k0(m, i, n)
                for j in range(1, m + n):
                    col = nab.matrix[:, j - 1]
                    assert (col >= 0).all()
                    if j < i or j >= i + n:
                        assert col.sum() <= n and set(col) <= {0, 1}
                    else:
                        assert col.sum() == 1


def per_projective_nabla(m, i, n):
    """nabla_k0 one projective at a time: the image of each [j, m+n-1] by its
    own contraction, and column j the difference P_j - P_{j+1}."""
    big = m + n - 1
    proj = [
        k0_class(contract(interval_support(big, "projective", j), 0, s_support(m, i, n), 0))
        for j in range(1, big + 1)
    ] + [np.zeros(m * n, dtype=np.int64)]
    return K0Map((big,), (m, n), np.column_stack([proj[j] - proj[j + 1] for j in range(big)]))


def test_nabla_matches_per_projective_reference():
    for m in range(1, 7):
        for n in range(1, 7):
            for i in range(1, m + 1):
                assert nabla_k0(m, i, n) == per_projective_nabla(m, i, n)


@pytest.mark.parametrize(
    "build, args", [(nabla_k0, (3, 2, 3)), (nabla_k0, (1, 1, 1)), (nu_k0, (4,)), (tau_k0, (4,))]
)
def test_class_maps_are_shared_and_read_only(build, args):
    mp = build(*args)
    with pytest.raises(ValueError, match="read-only"):
        mp.matrix[0, 0] = 7
    with pytest.raises(ValueError, match="read-only"):
        mp.matrix += 1


def drop_fiber_top(support, mu, nu):
    """The support with the top point of its op-axis fiber [1, t] at (mu, nu)
    removed, which leaves the fiber downward-closed; returns it and t."""
    mask = support.mask.copy()
    t = int(mask[:, mu - 1, nu - 1].sum())
    mask[t - 1, mu - 1, nu - 1] = False
    return Support(support.shape, mask), t


def seeded_duality(monkeypatch, m, i, n, mu, nu):
    seeded, t = drop_fiber_top(s_support(m, i, n), mu, nu)

    def seeded_stack(mm, slots, nn):
        # the slot-i member of the stack that _nablas reads is the seeded support
        stack = families._slot_stack(mm, slots, nn)
        if (mm, nn) != (m, n):
            return stack
        mask = stack.mask.copy()
        mask[np.equal(slots, i)] = seeded.mask
        return Support(stack.shape, mask)

    with monkeypatch.context() as mp:
        mp.setattr(k0, "_slot_stack", seeded_stack)
        report = duality_check(m, i, n)
    return report, t


def test_seeded_class_defect_is_named(monkeypatch):
    # P_t loses (mu, nu), so the simple columns t - 1 and t change at row r
    # (0-based columns t - 2 and t - 1); for t = 1 only column 1 does
    for m in range(1, 4):
        for n in range(1, 4):
            for i in range(1, m + 1):
                for mu in range(1, m + 1):
                    for nu in range(1, n + 1):
                        report, t = seeded_duality(monkeypatch, m, i, n, mu, nu)
                        r = (mu - 1) * n + nu - 1
                        expected = [Witness("transpose_vs_compose", (0, r), "0 vs 1")]
                        if t > 1:
                            expected = [
                                Witness("transpose_vs_compose", (t - 2, r), "1 vs 0"),
                                Witness("transpose_vs_compose", (t - 1, r), "0 vs 1"),
                            ]
                        assert not report.passed
                        assert report.witnesses == expected, (m, i, n, mu, nu)
    report, _ = seeded_duality(monkeypatch, 3, 2, 3, 2, 2)
    assert [w.where for w in report.witnesses] == [(1, 4), (2, 4)]
    assert duality_check(3, 2, 3).passed


# --- dias_compose and duality ---------------------------------------------------


def test_compose_three_cases():
    assert dias_compose(2, 1, 2, 1, 1) == 1  # same slot
    assert dias_compose(3, 2, 2, 1, 1) == 1  # slot above the basis index
    assert dias_compose(3, 2, 2, 1, 2) == 1
    assert dias_compose(2, 1, 2, 2, 1) == 3  # slot below the basis index


def test_compose_bounds():
    with pytest.raises(ValueError, match="slot i=3 is not a slot"):
        dias_compose(2, 3, 2, 1, 1)
    with pytest.raises(ValueError):
        dias_compose(2, 1, 2, 1, 3)


def test_compose_elements_bilinear():
    # the composition map on integer combinations, applied to x (x) y
    x = np.array([1, -2])
    y = np.array([3, 1])
    out = dias_compose_matrix(2, 1, 2).matrix @ np.kron(x, y)
    # e1 o_1 e1 -> e1, e1 o_1 e2 -> e2, e2 o_1 e_k -> e3
    assert np.array_equal(out, [3, 1, -8])


@pytest.mark.parametrize(
    "args, named", [((0, 1, 2), "m"), ((1, 1, 0), "n"), ((2, 0, 2), "i"), ((2, 3, 2), "i")]
)
def test_compose_matrix_rejects_degenerate_sizes(args, named):
    with pytest.raises(ValueError, match=f"(need .*|slot ){named}"):
        dias_compose_matrix(*args)


@pytest.mark.parametrize("args, message", [((1, 1, 0), "need n >= 1"), ((0, 1, 1), "1 <= i <= m")])
@pytest.mark.parametrize("check", [nabla_k0, duality_check])
def test_insertion_map_refuses_bad_sizes_by_name(check, args, message):
    # the slot support refuses the arguments before any axis is built
    with pytest.raises(ValueError, match=message):
        check(*args)


def test_compose_matrix_is_transpose_of_nabla():
    assert duality_check(2, 1, 2).passed
    assert duality_check(4, 2, 1).passed
    assert dias_compose_matrix(2, 1, 2) == nabla_k0(2, 1, 2).transposed()


def seed_compose(monkeypatch, seed):
    """k0._compose with its value at seed = (i, n, j, k) sent to basis element
    1, or to 2 where it is 1; an arity that reaches seed has n >= 2 elements."""
    compose = k0._compose
    si, sn, sj, sk = seed

    def seeded(i, n, j, k):
        value = compose(i, n, j, k)
        hit = (i == si) & (n == sn) & (j == sj) & (k == sk)
        return np.where(hit, np.where(value == 1, 2, 1), value)

    monkeypatch.setattr(k0, "_compose", seeded)


def test_seeded_composition_defect_fails_duality_at_its_instance(monkeypatch):
    # e_3 o_2 e_1 is e_{3+2-1} at every m >= 3; seeded to e_1, which
    # dias_compose, the composition matrix and duality all read
    seed_compose(monkeypatch, (2, 2, 3, 1))
    assert dias_compose(3, 2, 2, 3, 1) == 1 and dias_compose(4, 2, 2, 3, 1) == 1
    assert dias_compose(3, 2, 2, 3, 2) == 4
    reports = [
        duality_check(m, i, n) for m in range(1, 5) for n in range(1, 5) for i in range(1, m + 1)
    ]
    column = (3 - 1) * 2 + (1 - 1)
    expected = [
        Witness("transpose_vs_compose", (0, column), "0 vs 1"),
        Witness("transpose_vs_compose", (3, column), "1 vs 0"),
    ]
    assert {tuple(r.params.values()): r.witnesses for r in reports if not r.passed} == {
        (3, 2, 2): expected,
        (4, 2, 2): expected,
    }


def test_duality_sweep():
    assert all(
        duality_check(m, i, n).passed
        for m in range(1, 7)
        for n in range(1, 7)
        for i in range(1, m + 1)
    )


# --- nu, tau, flip ----------------------------------------------------------------


def test_nu_rank_one():
    assert nu_k0(1) == K0Map((1,), (1,), [[1]])
    assert tau_k0(1) == K0Map((1,), (1,), [[-1]])


def test_nu_rank_two_columns():
    nu = nu_k0(2)
    assert np.array_equal(nu.matrix[:, 0], [0, -1])  # first simple -> minus second
    assert np.array_equal(nu.matrix[:, 1], [1, 1])


def test_nu_defining_property():
    # up to 39, the largest rank an anticyclic sweep at --max 20 translates by
    for n in range(1, 40):
        nu = nu_k0(n)
        for j in range(1, n + 1):
            pj = k0_class(interval_support(n, "projective", j))
            ij = k0_class(interval_support(n, "injective", j))
            assert np.array_equal(nu.matrix @ pj, ij)


def test_flip_involution_and_indexing():
    f = flip_k0(2, 3)
    g = flip_k0(3, 2)
    assert (g @ f).is_identity()
    assert flip_k0(1, 1) == K0Map((1, 1), (1, 1), [[1]])
    # basis (1,2) of the 2x3 square goes to basis (2,1) of the 3x2 square
    src = np.zeros(6, dtype=np.int64)
    src[1] = 1
    out = f.matrix @ src
    expect = np.zeros(6, dtype=np.int64)
    expect[2] = 1  # index of (2,1) in row-major 3x2
    assert np.array_equal(out, expect)


def test_translation_orders():
    for n in range(1, 9):
        assert matrix_order(tau_k0(n), n + 2) == n + 1
        assert matrix_order(dias_tau(n), n + 2) == n + 1
        assert tau_order_check(n).passed


def test_dias_tau_closed_form():
    dt = dias_tau(2)
    assert np.array_equal(dt.matrix[:, 0], [0, -1])  # f1 -> -f2
    assert np.array_equal(dt.matrix[:, 1], [1, -1])  # f2 -> f1 - f2
    assert dias_tau(1) == K0Map((1,), (1,), [[-1]])
    for n in range(1, 7):
        assert dias_tau(n) == tau_k0(n).transposed()


def test_dias_tau_general_closed_form():
    for n in range(2, 8):
        dt = dias_tau(n).matrix
        for k in range(1, n + 1):
            expect = np.zeros(n, dtype=np.int64)
            if k >= 2:
                expect[k - 2] = 1
            expect[n - 1] -= 1
            assert np.array_equal(dt[:, k - 1], expect)


# --- anticyclic identities at class level -------------------------------------------


def test_border_k0_tiny():
    r = verify_border_k0(1, 1)
    assert r.passed


def test_border_k0_instances():
    assert verify_border_k0(2, 2).passed
    assert verify_border_k0(3, 2).passed


def test_inner_k0_instances():
    assert verify_inner_k0(2, 2, 2).passed
    assert verify_inner_k0(4, 3, 2).passed


def test_inner_k0_rejects_first_slot():
    with pytest.raises(ValueError, match="2 <= i"):
        verify_inner_k0(2, 2, 1)


def kron_inner_forms(m, n, i):
    """The inner identity's (left, right) nu and tau forms, translated by
    Kronecker products: the reference for the factor-wise translation."""
    ident = identity((n,))
    left, right = k0.nabla_k0(m, i, n), k0.nabla_k0(m, i - 1, n)
    big = m + n - 1
    return (
        (left @ nu_k0(big), nu_k0(m).kron(ident) @ right),
        (left @ tau_k0(big), tau_k0(m).kron(ident) @ right),
    )


def kron_border_forms(m, n):
    """The border identity's forms, translated by flip . (t x t)."""
    left, right = k0.nabla_k0(m, 1, n), k0.nabla_k0(n, n, m)
    flip, big = flip_k0(n, m), m + n - 1
    return (
        (left @ nu_k0(big), flip @ nu_k0(n).kron(nu_k0(m)) @ right),
        (left @ tau_k0(big), (flip @ tau_k0(n).kron(tau_k0(m)) @ right).scaled(-1)),
    )


def kron_report_fields(nu_form, tau_form):
    """(left_size, right_size, witnesses) of a report on the given forms."""
    witnesses = k0._matrix_witnesses("nu_form", *nu_form)
    witnesses += k0._matrix_witnesses("tau_form", *tau_form)
    left, right = nu_form
    return np.count_nonzero(left.matrix), np.count_nonzero(right.matrix), witnesses


def test_factor_translation_matches_kronecker_reference():
    # the left actions on the factor axes of a stack of every slot's map,
    # as _translation_reports applies them: on factor a alone, and on both
    # factors with the factors exchanged
    for m in range(1, 7):
        for n in range(1, 7):
            ident = identity((n,))
            nabs = [nabla_k0(m, i, n) for i in range(1, m + 1)]
            stack = np.stack([nab.matrix for nab in nabs]).reshape(m, m, n, m + n - 1)
            for act, tr in ((k0._nu_left, nu_k0), (k0._tau_left, tau_k0)):
                one = [(tr(m).kron(ident) @ nab).matrix for nab in nabs]
                assert np.array_equal(act(stack, 1).reshape(m, m * n, -1), one), (m, n)
                both = [(flip_k0(m, n) @ tr(m).kron(tr(n)) @ nab).matrix for nab in nabs]
                got = act(act(stack, 1), 2).swapaxes(1, 2).reshape(m, m * n, -1)
                assert np.array_equal(got, both), (m, n)


@pytest.mark.parametrize("name", ["nu", "tau"])
def test_translation_actions_match_their_matrices(name):
    # each closed-form action against the matrix it stands for, on random
    # int64 stacks: on the left along each axis of a 3-axis stack, and on the
    # right along the last; the matrix is the action on the identity
    matrix = {"nu": nu_k0, "tau": tau_k0}[name]
    left, right = getattr(k0, f"_{name}_left"), getattr(k0, f"_{name}_right")
    rng = np.random.default_rng(5)
    for n in range(1, 31):
        mat, eye = matrix(n).matrix, np.eye(n, dtype=np.int64)
        assert np.array_equal(left(eye, 0), mat) and np.array_equal(right(eye), mat), n
        for axis in range(3):
            shape = [2, 3, 4]
            shape[axis] = n
            y = rng.integers(-9, 10, size=shape)
            expected = np.moveaxis(np.tensordot(mat, y, axes=(1, axis)), 0, axis)
            assert np.array_equal(left(y, axis), expected), (n, axis)
        x = rng.integers(-9, 10, size=(2, 3, n))
        assert np.array_equal(right(x), x @ mat), n


def test_class_stacks_match_kronecker_references():
    # the closed-form actions against the Kronecker references: every slot
    # of every inner_k0 group and every border_k0 report, sizes and witnesses
    for m in range(1, 9):
        for n in range(1, 9):
            report = verify_border_k0(m, n)
            expected = kron_report_fields(*kron_border_forms(m, n))
            assert (report.left_size, report.right_size, report.witnesses) == expected, (m, n)
            reports = k0.inner_k0_group([{"m": m, "n": n, "i": i} for i in range(2, m + 1)])
            for i, report in enumerate(reports, start=2):
                expected = kron_report_fields(*kron_inner_forms(m, n, i))
                assert (report.left_size, report.right_size, report.witnesses) == expected, (m, n, i)


# one entry of nabla_k0(m, i, n) raised by one, at (row, column)
SEEDED_NABLAS = [((2, 1, 2), (0, 0)), ((2, 2, 3), (3, 2)), ((3, 3, 2), (5, 1)), ((3, 1, 3), (2, 4))]


def seed_nablas(monkeypatch, seed, entry):
    """k0._nablas, which every insertion map is read from, with the map of
    seed = (m, i, n) raised by one at entry."""
    nablas = k0._nablas

    def seeded(m, slots, n):
        maps = nablas(m, slots, n)
        for k, i in enumerate(slots):
            if (m, i, n) == seed:
                mat = maps[k].matrix.copy()
                mat[entry] += 1
                maps[k] = K0Map(maps[k].source, maps[k].target, mat)
        return maps

    monkeypatch.setattr(k0, "_nablas", seeded)


@pytest.mark.parametrize("seed, entry", SEEDED_NABLAS)
def test_seeded_nabla_witnesses_match_kronecker_reference(monkeypatch, seed, entry):
    seed_nablas(monkeypatch, seed, entry)
    failed = 0
    for m in range(1, 5):
        for n in range(1, 5):
            report = verify_border_k0(m, n)
            expected = kron_report_fields(*kron_border_forms(m, n))
            assert (report.left_size, report.right_size, report.witnesses) == expected, (m, n)
            failed += not report.passed
            for i in range(2, m + 1):
                report = verify_inner_k0(m, n, i)
                expected = kron_report_fields(*kron_inner_forms(m, n, i))
                assert (report.left_size, report.right_size, report.witnesses) == expected
                failed += not report.passed
    assert failed > 0


@pytest.mark.parametrize("seed, entry", SEEDED_NABLAS + [((4, 2, 3), (5, 3)), ((4, 3, 2), (6, 4))])
def test_seeded_slot_fails_only_the_group_reports_that_read_it(monkeypatch, seed, entry):
    # the sweep's inner_k0 group of (m, n) builds every slot's map in one
    # stack; a defect in slot s fails exactly the reports at i = s (left
    # side) and i = s + 1 (right side), each with its one-slot witnesses
    m, s, n = seed
    group = [("inner_k0", d) for d in slot_domain(m, n, inner_slot) if (d["m"], d["n"]) == (m, n)]
    seed_nablas(monkeypatch, seed, entry)
    reports = run_group(group)
    assert [r.params for r in reports] == [d for _, d in group]
    assert [r.params["i"] for r in reports if not r.passed] == [i for i in (s, s + 1) if 2 <= i <= m]
    for report, (_, d) in zip(reports, group):
        assert report == verify_inner_k0(m, n, d["i"])
        expected = kron_report_fields(*kron_inner_forms(m, n, d["i"]))
        assert (report.left_size, report.right_size, report.witnesses) == expected


def test_anticyclic_sweep_builds_no_kronecker_or_flip_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("a check built a Kronecker or flip matrix")

    monkeypatch.setattr(K0Map, "kron", refuse)
    monkeypatch.setattr(k0, "flip_k0", refuse)
    reports = list(run_sweep(SweepConfig(suite="anticyclic", max_m=4)))
    assert len(reports) == 87
    assert all(r.passed for r in reports)


def test_anticyclic_sweep_leaves_no_class_maps_behind():
    # a sweep shares its insertion maps and slot supports inside a group
    # only: under 1 MiB of what it allocated stays alive
    list(run_sweep(SweepConfig(suite="anticyclic", max_m=2)))
    tracemalloc.start()
    try:
        assert all(r.passed for r in run_sweep(SweepConfig(suite="anticyclic", max_m=12)))
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def raised(mp):
    """The size-3 map mp with entry [0, 2] raised by one; others as they are."""
    if mp.source != (3,):
        return mp
    mat = mp.matrix.copy()
    mat[0, 2] += 1
    return K0Map(mp.source, mp.target, mat)


def seed_translation(monkeypatch, name):
    """Seed the size-3 translation name ("nu" or "tau") with entry [0, 2]
    raised by one, E below, in its actions and in its matrix: its left
    action adds E @ y and its right action x @ E.  nu_k0 is nu's left action
    on the identity, and tau_k0 and the tau actions read nu's, so a nu
    defect reaches all of them, negated in tau's.  A tau defect is also
    seeded into tau_k0, in the class layer and in the Kronecker references
    of this module."""
    left, right = getattr(k0, f"_{name}_left"), getattr(k0, f"_{name}_right")

    def seeded_left(stack, axis):
        out = left(stack, axis)
        if stack.shape[axis] == 3:
            np.moveaxis(out, axis, 0)[0] += np.moveaxis(stack, axis, 0)[2]
        return out

    def seeded_right(x):
        out = right(x)
        if x.shape[-1] == 3:
            out[..., 2] += x[..., 0]
        return out

    monkeypatch.setattr(k0, f"_{name}_left", seeded_left)
    monkeypatch.setattr(k0, f"_{name}_right", seeded_right)
    if name == "tau":
        tau = tau_k0
        monkeypatch.setattr(k0, "tau_k0", lambda n: raised(tau(n)))
        monkeypatch.setitem(globals(), "tau_k0", k0.tau_k0)


@pytest.fixture
def seeded_nu(monkeypatch):
    """nu with entry [0, 2] of nu_k0(3) raised by one; tau_k0(3) carries the
    same defect negated."""
    seed_translation(monkeypatch, "nu")
    assert nu_k0(3).matrix[0, 2] == 2  # the matrix reads the seeded action


def test_seeded_nu_defect_in_border_k0(seeded_nu):
    # nu(3) is the left translation of border(2, 2): its wrong entry meets
    # the one nonzero entry of row 0 of nabla(2, 1, 2)
    assert verify_border_k0(2, 2).witnesses == [
        Witness("nu_form", (0, 2), "2 vs 1"),
        Witness("tau_form", (0, 2), "-2 vs -1"),
    ]
    # at m = 1 the defect cancels: nu(3) sits on both sides of border(1, 3)
    assert verify_border_k0(1, 3).passed


def test_seeded_nu_defect_in_inner_k0(seeded_nu):
    assert verify_inner_k0(2, 2, 2).witnesses == [
        Witness("nu_form", (0, 2), "2 vs 1"),
        Witness("nu_form", (1, 2), "2 vs 1"),
        Witness("tau_form", (0, 2), "-2 vs -1"),
        Witness("tau_form", (1, 2), "-2 vs -1"),
    ]


def test_seeded_nu_defect_in_tau_order(seeded_nu):
    assert tau_order_check(3).witnesses == [
        Witness("tau", (3,), "power 4 is not the identity"),
        Witness("dias_tau", (3,), "power 4 is not the identity"),
    ]
    assert tau_order_check(2).passed


def test_seeded_tau_defect_fails_the_tau_form_only(monkeypatch):
    # the tau form reads tau's own actions, so only its witnesses name the defect
    seed_translation(monkeypatch, "tau")
    reports = [
        (verify_border_k0(m, n), kron_border_forms(m, n)) for m, n in ((2, 2), (3, 3))
    ] + [(verify_inner_k0(m, n, 2), kron_inner_forms(m, n, 2)) for m, n in ((2, 2), (3, 2))]
    for report, forms in reports:
        assert not report.passed
        assert {w.check for w in report.witnesses} == {"tau_form"}
        assert (report.left_size, report.right_size, report.witnesses) == kron_report_fields(*forms)


@pytest.mark.parametrize("m, n", [(4, 3), (5, 1), (3, 6)])
def test_class_checks_build_no_translation_matrix(monkeypatch, m, n):
    # the translations act in closed form: an inner_k0 group of one slot or
    # of every slot of (m, n), and border_k0, build neither nu nor tau
    def refuse(size):
        raise AssertionError(f"a check built a translation matrix of size {size}")

    for name in ("nu_k0", "tau_k0"):
        monkeypatch.setattr(k0, name, refuse)
    for slots in ([2], range(2, m + 1)):
        reports = k0.inner_k0_group([{"m": m, "n": n, "i": i} for i in slots])
        assert len(reports) == len(slots) and all(r.passed for r in reports)
    assert verify_border_k0(m, n).passed


@pytest.mark.parametrize("seeded", [False, True])
@pytest.mark.parametrize("m, n", [(2, 2), (4, 3), (6, 6)])
def test_anticyclic_chunk_boundaries_leave_every_report(monkeypatch, m, n, seeded):
    # byte bounds of one slot of (m, n): its groups run one slot a chunk,
    # smaller groups several and larger ones one; no report changes, and a
    # seeded tau of size 3 fails the same class reports, with tau_form witnesses
    if seeded:
        seed_translation(monkeypatch, "tau")
    config = SweepConfig(suite="anticyclic", max_m=6)
    whole = list(run_sweep(config))
    monkeypatch.setattr(families, "STACK_BYTES", (m + n - 1) * m * n)
    monkeypatch.setattr(k0, "STACK_BYTES", 16 * (m + n - 1) * m * n)
    assert list(run_sweep(config)) == whole
    failed = [r for r in whole if not r.passed and r.verifier in ("border_k0", "inner_k0")]
    assert bool(failed) == seeded
    assert all({w.check for w in r.witnesses} == {"tau_form"} for r in failed)


# --- operad axioms -------------------------------------------------------------------


def test_dias_axiom_check_passes():
    assert dias_operad_axiom_check(3, 2, 2, 1, 2).passed
    assert dias_operad_axiom_check(2, 3, 2, 2, 1).passed


def test_dias_axiom_unit_cases():
    assert dias_operad_axiom_check(1, 1, 1, 1, 1).passed
    assert dias_operad_axiom_check(1, 3, 2, 1, 2).passed


def test_dias_axiom_rejects_illegal_slots():
    with pytest.raises(ValueError, match="neither"):
        dias_operad_axiom_check(2, 1, 1, 2, 2)


def test_dias_axioms_match_matrix_composites():
    # the brute-forced axioms are the transposes of the class-level identities
    for (m, n, p, i, j) in [(2, 2, 2, 1, 2), (3, 2, 2, 1, 3), (3, 3, 2, 2, 3)]:
        left = identity((m,)).kron(flip_k0(p, n)) @ nabla_k0(m, j, p).kron(
            identity((n,))
        ) @ nabla_k0(m + p - 1, i, n)
        right = nabla_k0(m, i, n).kron(identity((p,))) @ nabla_k0(m + n - 1, j + n - 1, p)
        assert left == right
        # columns of the transpose are the brute-force compositions
        for a in range(1, m + 1):
            for b in range(1, n + 1):
                for c in range(1, p + 1):
                    row = (a - 1) * n * p + (b - 1) * p + (c - 1)
                    expect = dias_compose(
                        m + n - 1, j + n - 1, p, dias_compose(m, i, n, a, b), c
                    )
                    col = left.matrix[row, :]
                    assert col.sum() == 1 and col[expect - 1] == 1
    for (m, n, p, i, j) in [(2, 2, 2, 1, 1), (3, 2, 2, 2, 1), (2, 3, 2, 1, 2)]:
        left = identity((m,)).kron(nabla_k0(n, j, p)) @ nabla_k0(m, i, n + p - 1)
        right = nabla_k0(m, i, n).kron(identity((p,))) @ nabla_k0(m + n - 1, j + i - 1, p)
        assert left == right


def test_dias_axiom_sweep():
    for m in range(1, 6):
        for n in range(1, 6):
            for p in range(1, 6):
                for i in range(1, m + 1):
                    for j in range(1, max(m, n) + 1):
                        if i < j <= m or j <= n:
                            assert dias_operad_axiom_check(m, n, p, i, j).passed


def looped_axiom_witnesses(m, n, p, i, j):
    """The axioms triple by triple with a call of k0.dias_compose per
    composition, parallel before nested at each (a, b, c)."""
    compose = k0.dias_compose
    parallel, nested = i < j <= m, i <= m and 1 <= j <= n
    witnesses = []
    for a in range(1, m + 1):
        for b in range(1, n + 1):
            for c in range(1, p + 1):
                if parallel:
                    lhs = compose(m + p - 1, i, n, compose(m, j, p, a, c), b)
                    rhs = compose(m + n - 1, j + n - 1, p, compose(m, i, n, a, b), c)
                    if lhs != rhs:
                        witnesses.append(Witness("parallel", (a, b, c), f"{lhs} vs {rhs}"))
                if nested:
                    lhs = compose(m, i, n + p - 1, a, compose(n, j, p, b, c))
                    rhs = compose(m + n - 1, i + j - 1, p, compose(m, i, n, a, b), c)
                    if lhs != rhs:
                        witnesses.append(Witness("nested", (a, b, c), f"{lhs} vs {rhs}"))
    return witnesses


def axiom_slots(bound):
    return [
        (m, n, p, i, j)
        for m in range(1, bound + 1)
        for n in range(1, bound + 1)
        for p in range(1, bound + 1)
        for i in range(1, m + 1)
        for j in range(1, max(m, n) + 1)
        if i < j <= m or j <= n
    ]


def test_dias_axiom_counts():
    for m, n, p, i, j in axiom_slots(3):
        report = dias_operad_axiom_check(m, n, p, i, j)
        assert report.left_size == (m * n * p if i < j <= m else 0)
        assert report.right_size == (m * n * p if j <= n else 0)


def test_empty_groups_give_no_reports():
    assert k0.inner_k0_group([]) == []
    assert k0.dias_axioms_group([]) == []


def test_dias_axioms_refuse_degenerate_sizes_by_name():
    with pytest.raises(ValueError, match="need m, n, p >= 1, got m=0, n=1, p=1"):
        dias_operad_axiom_check(0, 1, 1, 1, 1)


def test_dias_axioms_group_runs_large_groups_in_chunks(monkeypatch):
    # a byte bound far below one group's grid splits it into many chunks
    # without changing a report, witnesses included
    group = [d for d in (dict(zip("mnpij", slots)) for slots in axiom_slots(5)) if d["m"] == 5]
    group = [d for d in group if (d["n"], d["p"]) == (4, 3)]
    seed_compose(monkeypatch, (2, 4, 3, 1))
    whole = k0.dias_axioms_group(group)
    monkeypatch.setattr(k0, "STACK_BYTES", 3 * 8 * 5 * 4 * 3)
    assert k0.dias_axioms_group(group) == whole
    assert [r.witnesses for r in whole] == [looped_axiom_witnesses(*d.values()) for d in group]
    assert sum(not r.passed for r in whole) > 0


# one composition (i, n, j, k) of k0._compose sent to another basis element
SEEDED_COMPOSITIONS = [(1, 2, 1, 1), (1, 2, 2, 2), (2, 2, 2, 1), (2, 3, 1, 3)]


@pytest.mark.parametrize("seed", SEEDED_COMPOSITIONS)
def test_seeded_composition_defect_keeps_witness_order(monkeypatch, seed):
    # the sweep's groups and the one-pair check both read the seeded formula,
    # and name the same witnesses as the triple loop over dias_compose
    seed_compose(monkeypatch, seed)
    failed = 0
    for group in group_tasks([("dias_axioms", dict(zip("mnpij", slots))) for slots in axiom_slots(3)]):
        reports = run_group(group)
        assert [r.params for r in reports] == [d for _, d in group]
        for report, (_, d) in zip(reports, group):
            slots = tuple(d.values())
            assert report.witnesses == looped_axiom_witnesses(*slots), slots
            assert report == dias_operad_axiom_check(*slots)
            failed += not report.passed
    assert failed > 0


# --- basis bookkeeping ----------------------------------------------------------------


def test_k0map_composition_checks_bases():
    with pytest.raises(ValueError, match="compose"):
        nu_k0(2) @ nu_k0(3)
    with pytest.raises(ValueError, match="does not fit"):
        K0Map((2,), (2,), [[1, 2, 3]])
