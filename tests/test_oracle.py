"""Module oracle: explicit modules, relations, exact tensor products."""

import itertools
from fractions import Fraction

import pytest

from quiverdias import oracle
from quiverdias.families import interval_support, n_support, regular_support, s_support
from quiverdias.oracle import (
    FieldConfig,
    check_relations,
    indicator_module,
    is_prime,
    iso_to_standard,
    oracle_associativity_check,
    oracle_commutativity_check,
    oracle_nakayama_gamma_check,
    oracle_nakayama_mu_check,
    oracle_unit_check,
    standard_module,
    tensor_over,
)
from quiverdias.supports import (
    OP,
    SUCCESSOR,
    Axis,
    Shape,
    Support,
    contract,
    fiber_reversal,
    make_support,
    validate_standard,
)
from quiverdias.reports import Witness

PRIME_CFG = FieldConfig()
RAT_CFG = FieldConfig("rational")


@pytest.fixture(autouse=True)
def fresh_certificates():
    # certified tensor sides are kept per process; a test that patches the
    # oracle must not see, or leave behind, sides certified without its patch
    oracle._certify_tensor.cache_clear()
    yield
    oracle._certify_tensor.cache_clear()


# --- field configuration -----------------------------------------------------


def test_default_modulus_is_prime():
    assert is_prime(32003)
    assert FieldConfig().q == 32003


def test_composite_modulus_rejected():
    with pytest.raises(ValueError, match="not prime"):
        FieldConfig("prime", 32004)


def test_modulus_bound():
    assert FieldConfig("prime", 2**31 - 1).q == 2**31 - 1  # largest prime below the bound
    with pytest.raises(ValueError, match=r"2\*\*31"):
        FieldConfig("prime", 2**31)


def test_bad_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        FieldConfig("complex")


# --- standard_module ---------------------------------------------------------


def test_standard_module_of_triangle():
    mod = standard_module(n_support(2), PRIME_CFG)
    assert [mod.dim(p) for p in mod.shape.iter_points()] == [1, 0, 1, 1]
    # exactly the two arrows inside the support, both identity
    assert sorted(mod.maps) == [((1, 1), 0), ((2, 1), 1)]
    assert all(mat == [[1]] for mat in mod.maps.values())


def test_standard_module_of_simple():
    mod = standard_module(interval_support(4, "simple", 2), PRIME_CFG)
    assert mod.total_dim() == 1
    assert mod.maps == {}


def test_standard_module_rejects_broken_square():
    bad = make_support(Shape((Axis(2), Axis(2))), [(1, 1), (2, 1), (2, 2)])
    with pytest.raises(ValueError, match="not standard"):
        standard_module(bad, PRIME_CFG)


# --- check_relations ----------------------------------------------------------


def test_standard_modules_satisfy_relations():
    for s in [n_support(3), s_support(3, 2, 2), regular_support(4)]:
        assert check_relations(standard_module(s, PRIME_CFG)) == []


def test_scaled_square_violates_relations():
    full = make_support(Shape((Axis(2), Axis(2))), list(itertools.product((1, 2), (1, 2))))
    mod = indicator_module(full, PRIME_CFG)
    mod.maps[((1, 1), 0)] = [[2]]
    violations = check_relations(mod)
    assert len(violations) == 1
    assert violations[0].base == (1, 1)


@pytest.mark.parametrize(
    "polarities",
    [pols for k in (2, 3) for pols in itertools.product(("plain", OP), repeat=k)],
    ids=lambda pols: "-".join(pols),
)
def test_scaled_arrow_breaks_exactly_its_squares(polarities):
    shape = Shape(tuple(Axis(2, pol) for pol in polarities))
    full = make_support(shape, shape.iter_points())
    k = shape.arity
    for base, axis in indicator_module(full, PRIME_CFG).maps:
        mod = indicator_module(full, PRIME_CFG)
        mod.maps[(base, axis)] = [[2]]
        # in a box of side 2 the arrow lies in one square per other axis b,
        # whose lowest corner is the arrow's base with coordinate b set to 1
        expected = sorted(
            (base[:b] + (1,) + base[b + 1 :], min(axis, b), max(axis, b))
            for b in range(k)
            if b != axis
        )
        got = [(v.base, v.axis_a, v.axis_b) for v in check_relations(mod)]
        assert got == expected, (base, axis)
        # an unreduced scalar equal to one breaks nothing
        mod.maps[(base, axis)] = [[1 + PRIME_CFG.q]]
        assert check_relations(mod) == []


def test_validate_standard_agrees_with_relations_exhaustively():
    # every subset of every small box, over every polarity combination
    shapes = [
        Shape((Axis(2), Axis(2))),
        Shape((Axis(2, OP), Axis(2))),
        Shape((Axis(2), Axis(2, OP))),
        Shape((Axis(2, OP), Axis(2, OP))),
        Shape((Axis(3, OP), Axis(2))),
        Shape((Axis(2), Axis(2), Axis(2))),
        Shape((Axis(2, OP), Axis(2), Axis(2))),
    ]
    for shape in shapes:
        box = list(shape.iter_points())
        for r in range(len(box) + 1):
            for sub in itertools.combinations(box, r):
                s = make_support(shape, sub)
                combinatorial = not validate_standard(s)
                linear = not check_relations(indicator_module(s, PRIME_CFG))
                assert combinatorial == linear, (shape, sub)


# --- tensor_over ---------------------------------------------------------------


def test_tensor_unit_law():
    s = s_support(2, 1, 2)
    tens = tensor_over(
        standard_module(regular_support(3), PRIME_CFG), 1, standard_module(s, PRIME_CFG), 0
    )
    assert tens.dims == standard_module(s, PRIME_CFG).dims
    assert iso_to_standard(tens, s)
    assert check_relations(tens) == []


def test_tensor_projectives_match_contract():
    s = s_support(2, 1, 2)
    mod_s = standard_module(s, PRIME_CFG)
    for j in (1, 2, 3):
        pj = interval_support(3, "projective", j)
        tens = tensor_over(standard_module(pj, PRIME_CFG), 0, mod_s, 0)
        predicted = contract(pj, 0, s, 0)
        assert iso_to_standard(tens, predicted)
        assert check_relations(tens) == []


def test_tensor_with_nakayama_triangle_is_reversal():
    s = s_support(2, 1, 2)
    tens = tensor_over(
        standard_module(n_support(3), PRIME_CFG), 1, standard_module(s, PRIME_CFG), 0
    )
    predicted = fiber_reversal(s, 0, SUCCESSOR)
    assert iso_to_standard(tens, predicted)
    assert predicted.size == 7


def test_tensor_with_interior_contraction_axes():
    # the op axis of the right factor sits in the middle, not in front
    from quiverdias.supports import permute_axes

    right = permute_axes(s_support(2, 1, 2), (1, 0, 2))  # shape [2, 3-op, 2]
    for j in (1, 2, 3):
        pj = interval_support(3, "projective", j)
        tens = tensor_over(
            standard_module(pj, PRIME_CFG), 0, standard_module(right, PRIME_CFG), 1
        )
        predicted = contract(pj, 0, right, 1)
        assert iso_to_standard(tens, predicted)
        assert check_relations(tens) == []


def test_tensor_of_rescaled_rational_module():
    # arrow scalars 3/7 and 2 instead of ones: isomorphic to the standard module
    pj = interval_support(3, "projective", 1)
    left = standard_module(pj, RAT_CFG)
    left.maps[((1,), 0)] = [[Fraction(3, 7)]]
    left.maps[((2,), 0)] = [[2]]
    s = s_support(2, 1, 2)
    tens = tensor_over(left, 0, standard_module(s, RAT_CFG), 0)
    assert check_relations(tens) == []
    assert iso_to_standard(tens, contract(pj, 0, s, 0))
    entries = [v for mat in tens.maps.values() for row in mat for v in row]
    assert any(type(v) is Fraction for v in entries)
    # rational entries are ints while integral
    assert all(type(v) is int or v.denominator != 1 for v in entries)


def test_tensor_refuses_to_leave_no_axis():
    left = standard_module(interval_support(3, "projective", 1), PRIME_CFG)
    right = standard_module(make_support(Shape((Axis(3, OP),)), [(1,), (2,)]), PRIME_CFG)
    with pytest.raises(ValueError, match="contracting axis 0 against axis 0 leaves no axis"):
        tensor_over(left, 0, right, 0)


def test_tensor_refuses_axis_past_the_end():
    left = standard_module(regular_support(3), PRIME_CFG)
    right = standard_module(s_support(2, 1, 2), PRIME_CFG)
    with pytest.raises(ValueError, match="left axis index 2 out of range for 2 axes"):
        tensor_over(left, 2, right, 0)
    with pytest.raises(ValueError, match="right axis index 3 out of range for 3 axes"):
        tensor_over(left, 1, right, 3)


def test_tensor_refuses_negative_axis():
    # -1 used to select the last axis and return a 5-axis module
    left = standard_module(regular_support(3), PRIME_CFG)
    right = standard_module(s_support(2, 1, 2), PRIME_CFG)
    with pytest.raises(ValueError, match="left axis index -1 out of range for 2 axes"):
        tensor_over(left, -1, right, 0)
    with pytest.raises(ValueError, match="right axis index -3 out of range for 3 axes"):
        tensor_over(left, 1, right, -3)


def test_tensor_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        tensor_over(
            standard_module(regular_support(2), PRIME_CFG),
            1,
            standard_module(s_support(2, 1, 2), PRIME_CFG),
            0,
        )


def test_tensor_field_mismatch():
    with pytest.raises(ValueError, match="field"):
        tensor_over(
            standard_module(regular_support(3), PRIME_CFG),
            1,
            standard_module(s_support(2, 1, 2), RAT_CFG),
            0,
        )


def test_tensor_polarity_checks():
    with pytest.raises(ValueError, match="plain"):
        tensor_over(
            standard_module(n_support(3), PRIME_CFG),
            0,
            standard_module(s_support(2, 1, 2), PRIME_CFG),
            0,
        )


# --- iso_to_standard -------------------------------------------------------------


def test_iso_accepts_standard_module():
    s = s_support(2, 1, 2)
    assert iso_to_standard(standard_module(s, PRIME_CFG), s)


def test_iso_rejects_zeroed_arrow():
    s = interval_support(3, "projective", 1)
    mod = standard_module(s, PRIME_CFG)
    del mod.maps[((2,), 0)]
    assert not iso_to_standard(mod, s)


def test_iso_accepts_rescalable_scalars():
    s = interval_support(3, "projective", 1)
    mod = standard_module(s, RAT_CFG)
    mod.maps[((1,), 0)] = [[Fraction(2)]]
    mod.maps[((2,), 0)] = [[Fraction(3, 7)]]
    assert iso_to_standard(mod, s)


def test_iso_rejects_inconsistent_square():
    full = make_support(Shape((Axis(2), Axis(2))), list(itertools.product((1, 2), (1, 2))))
    mod = indicator_module(full, PRIME_CFG)
    mod.maps[((1, 1), 0)] = [[2]]  # one scaled edge in a commuting square
    assert not iso_to_standard(mod, full)


def test_iso_rejects_wrong_dimensions():
    s = s_support(2, 1, 2)
    mod = standard_module(s, PRIME_CFG)
    assert not iso_to_standard(mod, n_support(3))
    assert not iso_to_standard(mod, s_support(2, 2, 2))


def test_explicit_zero_dims_read_as_missing():
    s = s_support(2, 1, 2)
    outside = next(p for p in s.shape.iter_points() if p not in s.point_set)
    for point in (s.points[0], outside):
        missing = standard_module(s, PRIME_CFG)
        missing.dims.pop(point, None)
        explicit = standard_module(s, PRIME_CFG)
        explicit.dims[point] = 0
        for expected in (s, s_support(2, 2, 2)):
            assert iso_to_standard(explicit, expected) == iso_to_standard(missing, expected)
            assert oracle._dims_witnesses(explicit, expected, "d") == oracle._dims_witnesses(
                missing, expected, "d"
            )


# --- packaged oracle cross-checks -------------------------------------------------


@pytest.mark.parametrize("cfg", [PRIME_CFG, RAT_CFG], ids=["prime", "rational"])
def test_oracle_check_functions(cfg):
    assert oracle_commutativity_check(2, 2, 2, 1, 2, cfg).passed
    assert oracle_associativity_check(2, 2, 2, 1, 1, cfg).passed
    assert oracle_nakayama_gamma_check(2, 2, 1, cfg).passed
    assert oracle_nakayama_mu_check(2, 2, 2, cfg).passed
    assert oracle_unit_check(3, 2, 2, cfg).passed


def test_oracle_results_field_independent():
    for m, n, i in [(2, 2, 1), (3, 1, 2), (2, 3, 2)]:
        a = oracle_nakayama_gamma_check(m, n, i, PRIME_CFG)
        b = oracle_nakayama_gamma_check(m, n, i, RAT_CFG)
        assert a.passed and b.passed
        assert (a.left_size, a.right_size) == (b.left_size, b.right_size)


def test_equal_sides_are_certified_once():
    # s_support(2, 1, 1) == s_support(2, 2, 1), so one side of the
    # associativity check equals one already certified for commutativity
    calls = [
        (oracle_commutativity_check, (2, 1, 1, 1, 2)),
        (oracle_associativity_check, (2, 1, 1, 1, 1)),
    ]
    fresh = []
    for check, args in calls:
        oracle._certify_tensor.cache_clear()
        fresh.append(check(*args, PRIME_CFG))
    oracle._certify_tensor.cache_clear()
    kept = [check(*args, PRIME_CFG) for check, args in calls]
    info = oracle._certify_tensor.cache_info()
    assert (info.misses, info.hits) == (3, 1)
    assert kept == fresh


def test_oracle_nakayama_mu_needs_inner_slot():
    with pytest.raises(ValueError, match="i >= 2"):
        oracle_nakayama_mu_check(2, 2, 1, PRIME_CFG)


# --- seeded defects on the support-calculus side ---------------------------------
# The oracle certifies the predictions of contract and fiber_reversal, so a
# prediction that gains or loses one point must be named at that point.


def flipped(fn, index):
    """fn with the mask entry at a 0-based index of its result flipped."""

    def seeded(*args, **kwargs):
        result = fn(*args, **kwargs)
        mask = result.mask.copy()
        mask[index] = not mask[index]
        return Support(result.shape, mask)

    return seeded


@pytest.mark.parametrize(
    "check, args",
    [(oracle_commutativity_check, (2, 1, 1, 1, 2)), (oracle_associativity_check, (2, 2, 1, 1, 1))],
    ids=["commutativity", "associativity"],
)
def test_seeded_contract_defect_is_named(monkeypatch, check, args):
    # both sides lose the point (1, 1, 1, 1), and each side names it once;
    # the clean sides certified first do not answer for a changed prediction
    assert check(*args, PRIME_CFG).passed
    monkeypatch.setattr(oracle, "contract", flipped(oracle.contract, (0, 0, 0, 0)))
    report = check(*args, PRIME_CFG)
    assert report.witnesses == [
        Witness(tag, (1, 1, 1, 1), "dim 1, expected 0") for tag in ("left_dims", "right_dims")
    ]


@pytest.mark.parametrize(
    "check, args, index, tag, message",
    [
        (oracle_nakayama_gamma_check, (2, 2, 1), (1, 0, 0), "gamma_dims", "dim 1, expected 0"),
        (oracle_nakayama_gamma_check, (2, 2, 1), (0, 0, 1), "gamma_dims", "dim 0, expected 1"),
        (oracle_nakayama_mu_check, (2, 2, 2), (1, 0, 0), "mu_dims", "dim 1, expected 0"),
    ],
    ids=["gamma-loses", "gamma-gains", "mu-loses"],
)
def test_seeded_fiber_reversal_defect_is_named(monkeypatch, check, args, index, tag, message):
    assert check(*args, PRIME_CFG).passed
    monkeypatch.setattr(oracle, "fiber_reversal", flipped(oracle.fiber_reversal, index))
    report = check(*args, PRIME_CFG)
    assert report.witnesses == [Witness(tag, tuple(k + 1 for k in index), message)]


def test_seeded_unit_defect_is_named(monkeypatch):
    # the unit check compares s with itself, so seed the bimodule instead:
    # the Nakayama triangle in place of the regular bimodule reverses s
    monkeypatch.setattr(oracle, "regular_support", n_support)
    m, n, i = 2, 2, 1
    want = s_support(m, i, n).point_set
    got = fiber_reversal(s_support(m, i, n), 0, SUCCESSOR).point_set
    report = oracle_unit_check(m, n, i, PRIME_CFG)
    expected = [
        Witness("unit_dims", p, f"dim {int(p in got)}, expected {int(p in want)}")
        for p in s_support(m, i, n).shape.iter_points()
        if (p in got) != (p in want)
    ]
    assert expected
    assert report.witnesses == expected


def scaling(arrow):
    """tensor_over with the matrix of one arrow of its result set to 2."""

    def seeded(*args):
        module = tensor_over(*args)
        module.maps[arrow] = [[2]]
        return module

    return seeded


def test_seeded_tensor_defect_is_named(monkeypatch):
    # a wrong arrow in the computed tensor product breaks its one square
    monkeypatch.setattr(oracle, "tensor_over", scaling(((1, 1, 1), 1)))
    report = oracle_unit_check(2, 2, 1, PRIME_CFG)
    assert report.witnesses == [Witness("unit_relations", (1, 1, 1), "axes (1, 2)")]
    # an arrow that lies in no commutation square can be rescaled to one by
    # a change of basis: the module is still standard, and no witness is the
    # correct answer
    monkeypatch.setattr(oracle, "tensor_over", scaling(((1, 1, 1, 1), 2)))
    assert oracle_commutativity_check(2, 1, 1, 1, 2, PRIME_CFG).passed
