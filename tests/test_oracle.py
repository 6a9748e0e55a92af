"""Module oracle: explicit modules, relations, exact tensor products."""

import hashlib
import itertools
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quiverdias import oracle
from quiverdias.cli import main
from quiverdias.families import interval_support, n_support, regular_support, s_support
from quiverdias.linalg import mat_mul, reduce_mod_rows, rref
from quiverdias.oracle import (
    FieldConfig,
    QuiverModule,
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
    PLAIN,
    SUCCESSOR,
    Axis,
    Point,
    Shape,
    Support,
    contract,
    fiber_reversal,
    SquareViolation,
    make_support,
    validate_standard,
)
from quiverdias.reports import Witness
from quiverdias.sweeps import SweepConfig, run_sweep

PRIME_CFG = FieldConfig()
RAT_CFG = FieldConfig("rational")


def clear_tables():
    oracle._TABLES = None


@pytest.fixture(autouse=True)
def fresh_certificates():
    # certified tensor sides and the tables of the tensor body are kept per
    # process; a test that patches the oracle must not see, or leave behind,
    # entries made without its patch
    clear_tables()
    yield
    clear_tables()


@pytest.fixture
def certified(monkeypatch):
    """The modules _certify is called on, one per certificate miss."""
    modules = []
    certify = oracle._certify

    def recording(module, expected):
        modules.append(module)
        return certify(module, expected)

    monkeypatch.setattr(oracle, "_certify", recording)
    return modules


def table_sizes(*names):
    """The sizes of the named tables (default: all, certificates last), or
    [0] when the tables are dropped."""
    t = oracle._TABLES
    names = names or ("ids", "content", "shared", "fibers", "quotients", "induced", "certificates")
    return [0] if t is None else [len(getattr(t, name)) for name in names]


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


def reference_composite(F, second, first):
    """second . first as a matrix, or None when a factor is missing or the
    product is zero."""
    if first is None or second is None:
        return None
    prod = mat_mul(F, second, first)
    return prod if any(map(any, prod)) else None


def reference_check_relations(module):
    """Box-loop relation check: every square of the box, in lexicographic
    order of its base, then of its axes."""
    F = module.config.field
    maps = module.maps
    axes = module.shape.axes
    k = len(axes)
    plain = [ax.polarity == PLAIN for ax in axes]
    out = []
    for base in module.shape.iter_points():
        for a in range(k):
            if base[a] >= axes[a].length:
                continue
            base_a = base[:a] + (base[a] + 1,) + base[a + 1 :]
            for b in range(a + 1, k):
                if base[b] >= axes[b].length:
                    continue
                base_b = base[:b] + (base[b] + 1,) + base[b + 1 :]
                a_lo, a_hi = maps.get((base, a)), maps.get((base_b, a))
                b_lo, b_hi = maps.get((base, b)), maps.get((base_a, b))
                via_a = reference_composite(F, b_hi if plain[a] else b_lo, a_lo if plain[b] else a_hi)
                via_b = reference_composite(F, a_hi if plain[b] else a_lo, b_lo if plain[a] else b_hi)
                if via_a != via_b:
                    out.append(SquareViolation(base, a, b))
    return out


# few distinct scalars, so that fibers and runs of equal content recur;
# unreduced residues, integral Fractions and non-integral Fractions
PRIME_SCALARS = [0, 1, 2, -1, PRIME_CFG.q + 1, 2 * PRIME_CFG.q + 2]
RATIONAL_SCALARS = [0, 1, 2, -1, Fraction(2), Fraction(1, 2), Fraction(-3, 4)]
FIELD_CASES = [(PRIME_CFG, PRIME_SCALARS), (RAT_CFG, RATIONAL_SCALARS)]


@st.composite
def random_modules(draw, shape, cfg, scalars, palette):
    """Dimensions 0 to 2, one or two of them per module, in random key order
    and some of the zeros explicit; on every arrow between positive
    dimensions a matrix or none.  The matrices of each size come from a
    palette of one to three, shared by the modules drawn with it, so that
    equal fibers and runs recur."""
    dim_choices = sorted(draw(st.sets(st.integers(0, 2), min_size=1, max_size=2)))
    dims = {}
    for p in draw(st.permutations(list(shape.iter_points()))):
        d = draw(st.sampled_from(dim_choices))
        if d or draw(st.booleans()):
            dims[p] = d
    maps = {}
    for p in sorted(dims):
        for a, ax in enumerate(shape.axes):
            q = p[:a] + (p[a] + 1,) + p[a + 1 :]
            if not dims[p] or not dims.get(q) or not draw(st.integers(0, 3)):
                continue
            size = (dims[q], dims[p]) if ax.polarity == PLAIN else (dims[p], dims[q])
            if size not in palette:
                row = st.lists(st.sampled_from(scalars), min_size=size[1], max_size=size[1])
                matrix = st.lists(row, min_size=size[0], max_size=size[0])
                palette[size] = draw(st.lists(matrix, min_size=1, max_size=3))
            maps[(p, a)] = [list(r) for r in draw(st.sampled_from(palette[size]))]
    return QuiverModule(shape, cfg, dims, maps)


def stores_only_nonzero_arrows(module):
    return all(
        module.dim(p) and module.dim(p[:a] + (p[a] + 1,) + p[a + 1 :]) for p, a in module.maps
    )


@pytest.mark.parametrize("cfg, scalars", FIELD_CASES, ids=["prime", "rational"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_check_relations_matches_box_loop(cfg, scalars, data):
    k = data.draw(st.integers(2, 3))
    polarities = data.draw(st.lists(st.sampled_from((PLAIN, OP)), min_size=k, max_size=k))
    lengths = data.draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    shape = Shape(tuple(Axis(n, pol) for n, pol in zip(lengths, polarities)))
    module = data.draw(random_modules(shape, cfg, scalars, {}))
    assert check_relations(module) == reference_check_relations(module)


def test_square_with_zero_base_is_checked_from_its_source():
    # axis 0 plain, axis 1 op: the square at base (1, 1) leaves its source
    # (1, 2) through (2, 2) and through the base, which is zero, so it
    # commutes only while the path through (2, 2) composes to zero
    shape = Shape((Axis(2), Axis(2, OP)))
    dims = {(1, 1): 0, (1, 2): 1, (2, 1): 1, (2, 2): 1}
    maps = {((1, 2), 0): [[1]], ((2, 1), 1): [[0]]}
    module = QuiverModule(shape, PRIME_CFG, dims, maps)
    assert check_relations(module) == []
    module.maps[((2, 1), 1)] = [[3]]
    assert check_relations(module) == [SquareViolation((1, 1), 0, 1)]
    assert check_relations(module) == reference_check_relations(module)


# the square at base (1, 1) of a plain 2 x 2 box, with (2, 1) of dimension
# two: path a is (1, 1) -> (2, 1) -> (2, 2), path b is (1, 1) -> (1, 2) -> (2, 2)
A1, A2 = ((1, 1), 0), ((2, 1), 1)
B1, B2 = ((1, 1), 1), ((1, 2), 0)


@pytest.mark.parametrize(
    "maps, violated",
    [
        ({A1: [[1], [1]], B2: [[1]]}, False),  # each path misses its second arrow
        ({A2: [[1, 1]], B1: [[1]]}, False),  # each path misses its first arrow
        ({A1: [[1], [1]], A2: [[1, 1]], B1: [[1]]}, True),  # only path a composes
        ({A1: [[1], [1]], B1: [[1]], B2: [[4]]}, True),  # only path b composes
        ({A1: [[1], [2]], A2: [[2, -1]], B1: [[1]]}, False),  # 1x2 . 2x1 is zero
        ({A1: [[1], [2]], A2: [[3, -1]], B1: [[1]], B2: [[1]]}, False),  # both are one
        ({A1: [[1], [2]], A2: [[3, -1]], B1: [[1]], B2: [[2]]}, True),  # one against two
    ],
    ids=["second-missing", "first-missing", "only-a", "only-b", "zero-product", "equal", "unequal"],
)
def test_square_with_missing_arrows(maps, violated):
    shape = Shape((Axis(2), Axis(2)))
    module = QuiverModule(shape, PRIME_CFG, {(1, 1): 1, (2, 1): 2, (1, 2): 1, (2, 2): 1}, maps)
    assert check_relations(module) == reference_check_relations(module)
    assert check_relations(module) == ([SquareViolation((1, 1), 0, 1)] if violated else [])


@pytest.mark.parametrize(
    "cfg, five", [(PRIME_CFG, PRIME_CFG.q + 5), (RAT_CFG, Fraction(5))], ids=["prime", "rational"]
)
def test_square_through_a_plane_matches_square_through_a_line(cfg, five):
    # (1, 1) -> (2, 1) -> (2, 2) is (1x2)(2x1) = 3 * 1 + 1 * 2, and
    # (1, 1) -> (1, 2) -> (2, 2) is (1x1)(1x1): equal maps, so no violation
    shape = Shape((Axis(2), Axis(2)))
    dims = {(1, 1): 1, (2, 1): 2, (1, 2): 1, (2, 2): 1}
    maps = {((1, 1), 0): [[1], [2]], ((2, 1), 1): [[3, 1]]}
    maps |= {((1, 1), 1): [[1]], ((1, 2), 0): [[five]]}
    module = QuiverModule(shape, cfg, dims, maps)
    assert check_relations(module) == reference_check_relations(module) == []
    module.maps[((1, 2), 0)] = [[4]]
    assert check_relations(module) == reference_check_relations(module)
    assert check_relations(module) == [SquareViolation((1, 1), 0, 1)]


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


def test_mutating_a_tensor_product_leaves_later_products_alone():
    # tensor_over hands out lists of its own, not the tables' shared maps
    args = (standard_module(n_support(3), PRIME_CFG), 1, standard_module(s_support(2, 1, 2), PRIME_CFG), 0)
    first = tensor_over(*args)
    for mat in first.maps.values():
        for row in mat:
            row[0] = 5
    again = tensor_over(*args)
    assert first.maps and first.maps != again.maps
    assert_same_module(again, reference_tensor_over(*args))


def reference_tensor_over(m1, a1, m2, a2):
    """Per-vertex tensor product: the balancing relations are eliminated at
    every result vertex, and each arrow map is induced label by label from
    the source arrows at that vertex.  Inputs are taken as valid."""
    F = m1.config.field
    L = m1.shape.axes[a1].length
    k1 = m1.shape.arity - 1
    out_shape = Shape(
        m1.shape.axes[:a1] + m1.shape.axes[a1 + 1 :] + m2.shape.axes[:a2] + m2.shape.axes[a2 + 1 :]
    )
    maps1, maps2 = m1.maps, m2.maps

    def level_fibers(module, axis):
        out = {}
        for rest in sorted({p[:axis] + p[axis + 1 :] for p in module.dims}):
            keys = [rest[:axis] + (c,) + rest[axis:] for c in range(1, L + 1)]
            out[rest] = (keys, [module.dims.get(p, 0) for p in keys])
        return out

    verts, dims = {}, {}
    fibers = itertools.product(level_fibers(m1, a1).items(), level_fibers(m2, a2).items())
    for (u, (left, d1)), (w, (right, d2)) in fibers:
        x = u + w
        offsets, total = [], 0
        for e1, e2 in zip(d1, d2):
            offsets.append(total)
            total += e1 * e2
        if not total:
            continue
        rows = []
        for i in range(L - 1):
            if not d1[i] or not d2[i + 1]:
                continue
            A = maps1.get((left[i], a1))
            B = maps2.get((right[i], a2))
            for b1 in range(d1[i]):
                for b2 in range(d2[i + 1]):
                    row = [0] * total
                    if A is not None:
                        for t, arow in enumerate(A):
                            row[offsets[i + 1] + t * d2[i + 1] + b2] = arow[b1]
                    if B is not None:
                        start = offsets[i] + b1 * d2[i]
                        for t, brow in enumerate(B):
                            row[start + t] = -brow[b2]
                    if any(row):
                        rows.append(row)
        red, pivots = rref(F, rows) if rows else ([], [])
        free = [f for f in range(total) if f not in set(pivots)]
        if not free:
            continue
        free_labels = []
        for f in free:
            i = bisect_right(offsets, f) - 1
            free_labels.append((i, *divmod(f - offsets[i], d2[i])))
        verts[x] = (left, right, d2, offsets, total, red, pivots, free, free_labels)
        dims[x] = len(free)

    maps = {}
    for x, vx in verts.items():
        for t, ax in enumerate(out_shape.axes):
            if x[t] >= ax.length:
                continue
            y = x[:t] + (x[t] + 1,) + x[t + 1 :]
            vy = verts.get(y)
            if vy is None:
                continue
            vs, vd = (vx, vy) if ax.polarity == PLAIN else (vy, vx)
            _, _, d2, offsets, total, red, pivots, free, _ = vd
            on_left = t < k1
            if on_left:
                orig, src_maps, level_keys = (t if t < a1 else t + 1), maps1, vx[0]
            else:
                orig = t - k1 if t - k1 < a2 else t - k1 + 1
                src_maps, level_keys = maps2, vx[1]
            cols = []
            for i, r1, r2 in vs[8]:
                img = [0] * total
                mat = src_maps.get((level_keys[i], orig))
                if mat is not None:
                    if on_left:
                        start, stride, q = offsets[i] + r2, d2[i], r1
                    else:
                        start, stride, q = offsets[i] + r1 * d2[i], 1, r2
                    for r, mrow in enumerate(mat):
                        img[start + r * stride] = mrow[q]
                reduced = reduce_mod_rows(F, img, red, pivots)
                cols.append([reduced[g] for g in free])
            maps[(x, t)] = [list(row) for row in zip(*cols)]
    return QuiverModule(out_shape, m1.config, dims, maps)


def assert_same_module(got, want):
    assert got.shape == want.shape and got.config == want.config
    assert list(got.dims.items()) == list(want.dims.items())
    assert list(got.maps.items()) == list(want.maps.items())


@st.composite
def tensor_inputs(draw, cfg, scalars):
    """Two random modules with 2 or 3 axes, sharing an interval of length
    1 to 3 along plain axis a1 of the first and op axis a2 of the second."""
    L = draw(st.integers(1, 3))
    palette: dict = {}
    sides = []
    for polarity in (PLAIN, OP):
        k = draw(st.integers(2, 3))
        axis = draw(st.integers(0, k - 1))
        axes = [Axis(draw(st.integers(1, 2)), draw(st.sampled_from((PLAIN, OP))))
                for _ in range(k - 1)]
        axes.insert(axis, Axis(L, polarity))
        sides.append((draw(random_modules(Shape(tuple(axes)), cfg, scalars, palette)), axis))
    (m1, a1), (m2, a2) = sides
    return m1, a1, m2, a2


def twin_fibers(cfg, s1, s2):
    """Fibers (1,) and (2,) of the left factor have equal dimensions, and the
    scalars s1 and s2 on their arrows along the shared axis.  An arrow of
    the right factor leads from a vertex whose quotient keeps shared level
    1 to one where level 1 is identified with level 2 through that scalar,
    so the induced map reads the scalar of the left fiber."""
    m1 = QuiverModule(
        Shape((Axis(2), Axis(2))),
        cfg,
        dict.fromkeys([(1, 1), (1, 2), (2, 1), (2, 2)], 1),
        {((1, 1), 1): [[s1]], ((2, 1), 1): [[s2]], ((1, 1), 0): [[1]], ((1, 2), 0): [[1]]},
    )
    m2 = QuiverModule(
        Shape((Axis(2, OP), Axis(2))),
        cfg,
        dict.fromkeys([(1, 1), (1, 2), (2, 1), (2, 2)], 1),
        {((1, 2), 0): [[1]], ((1, 1), 1): [[1]], ((2, 1), 1): [[1]]},
    )
    return m1, 1, m2, 0


def mirrored_runs(cfg, mat):
    """Both factors carry the same 2x2 matrix on their free axis over a
    shared interval of length 1, so every result vertex has the same
    quotient and both arrow runs are equal: only the factor each acts on
    tells mat (x) 1 from 1 (x) mat."""
    m1 = QuiverModule(Shape((Axis(2), Axis(1))), cfg, {(1, 1): 2, (2, 1): 2}, {((1, 1), 0): mat})
    m2 = QuiverModule(
        Shape((Axis(1, OP), Axis(2))), cfg, {(1, 1): 2, (1, 2): 2}, {((1, 1), 1): mat}
    )
    return m1, 1, m2, 0


# twin fibers need their matrices in the fiber key, and mirrored runs need
# the side in the induced-map key; random modules rarely meet the second
@settings(max_examples=120, deadline=None)
@given(inputs=st.sampled_from(FIELD_CASES).flatmap(lambda case: tensor_inputs(*case)))
@example(inputs=twin_fibers(PRIME_CFG, 2, 5))
@example(inputs=twin_fibers(PRIME_CFG, 3, 3 + PRIME_CFG.q))
@example(inputs=twin_fibers(RAT_CFG, Fraction(1, 2), Fraction(2)))
@example(inputs=mirrored_runs(PRIME_CFG, [[1, 2], [0, 1]]))
@example(inputs=mirrored_runs(RAT_CFG, [[Fraction(1, 3), 0], [1, 0]]))
def test_tensor_over_matches_per_vertex_reference(inputs):
    got = tensor_over(*inputs)
    assert_same_module(got, reference_tensor_over(*inputs))
    assert stores_only_nonzero_arrows(got)


def with_arrow(inputs, side, key, value):
    """Copy of tensor inputs in which one arrow of one factor is [[value]]."""
    m1, a1, m2, a2 = inputs
    modules = [m1, m2]
    m = modules[side]
    modules[side] = QuiverModule(m.shape, m.config, dict(m.dims), {**m.maps, key: [[value]]})
    return modules[0], a1, modules[1], a2


@pytest.mark.parametrize(
    "first, then, old, new",
    [
        (PRIME_CFG, PRIME_CFG, 1, 2),
        (PRIME_CFG, PRIME_CFG, 1, PRIME_CFG.q + 1),
        (RAT_CFG, RAT_CFG, 2, Fraction(2)),
        (PRIME_CFG, RAT_CFG, -1, -1),
        (RAT_CFG, PRIME_CFG, -1, -1),
    ],
    ids=["scaled", "unreduced", "fraction", "prime-then-rational", "rational-then-prime"],
)
def test_tensor_over_after_an_input_differing_in_one_arrow(first, then, old, new):
    # the tables outlive each call: an input that differs from the one
    # before it in a single arrow, or only in its field, must not be
    # answered from the entries of the first
    clean = twin_fibers(first, 2, -1)
    changed = 0
    for side in (0, 1):
        for key, mat in clean[2 * side].maps.items():
            if mat != [[old]]:
                continue
            clear_tables()
            tensor_over(*clean)
            inputs = with_arrow(twin_fibers(then, 2, -1), side, key, new)
            assert_same_module(tensor_over(*inputs), reference_tensor_over(*inputs))
            changed += 1
    assert changed


def test_tables_stay_within_their_cap(monkeypatch):
    # a small cap is overfilled by some calls and not by others: the tables
    # are cleared between calls, never beyond the cap, and every result
    # still equals the reference
    monkeypatch.setattr(oracle, "_TABLE_CAP", 16)
    s = s_support(2, 1, 2)
    lefts = [n_support(3), regular_support(3), s_support(3, 1, 1), s_support(3, 2, 2)]
    sizes = []
    for cfg, left in itertools.product((PRIME_CFG, RAT_CFG), lefts * 2):
        inputs = (standard_module(left, cfg), 1, standard_module(s, cfg), 0)
        assert_same_module(tensor_over(*inputs), reference_tensor_over(*inputs))
        sizes.append(table_sizes("ids", "quotients", "induced"))
        assert max(table_sizes()) <= 16
    assert [0] in sizes and any(min(row) > 0 for row in sizes)


def test_memos_hold_one_field_at_a_time():
    # a sweep runs its fields one after the other, so the tables of a field
    # are dropped when a call in another field comes, ids included
    s = s_support(2, 1, 2)
    for cfg in (PRIME_CFG, RAT_CFG):
        tensor_over(standard_module(n_support(3), cfg), 1, standard_module(s, cfg), 0)
        assert oracle._TABLES.config == cfg
        assert len(oracle._TABLES.ids) == 7


def test_equal_content_of_another_field_is_not_read_back():
    # Fraction(2) == 2: read back in the prime field, the rational arrow
    # would reach PrimeField.inv as a Fraction and raise TypeError
    for cfg, two in ((RAT_CFG, Fraction(2)), (PRIME_CFG, 2)):
        points = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
        m1 = QuiverModule(Shape((Axis(3), Axis(2))), cfg, dict.fromkeys(points, 1))
        m2 = QuiverModule(
            Shape((Axis(3, OP), Axis(1))), cfg, dict.fromkeys(points[::2], 1), {((2, 1), 0): [[two]]}
        )
        inputs = (m1, 0, m2, 0)
        assert_same_module(tensor_over(*inputs), reference_tensor_over(*inputs))


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


def reference_iso_to_standard(module, support):
    """iso_to_standard probing each support point's neighbours for its
    edges, then rescaling along a depth-first spanning forest."""
    if module.shape != support.shape:
        return False
    points, point_set, maps = support.points, support.point_set, module.maps
    if {p: d for p, d in module.dims.items() if d} != dict.fromkeys(points, 1):
        return False
    F = module.config.field
    norm = F.norm
    plain = [ax.polarity == PLAIN for ax in module.shape.axes]

    edges: dict[Point, list[tuple[Point, Point, Point, object]]] = {p: [] for p in points}
    for p in points:
        for a, forward in enumerate(plain):
            q = p[:a] + (p[a] + 1,) + p[a + 1 :]
            if q not in point_set:
                continue
            src, dst = (p, q) if forward else (q, p)
            mat = maps.get((p, a))
            scalar = norm(mat[0][0]) if mat else 0
            if not scalar:
                return False
            edges[p].append((q, src, dst, scalar))
            edges[q].append((p, src, dst, scalar))

    scale: dict[Point, object] = {}
    for root in points:
        if root in scale:
            continue
        scale[root] = 1
        stack = [root]
        while stack:
            x = stack.pop()
            for y, src, dst, lam in edges[x]:
                if y in scale:
                    # non-forest edge: the rescaled scalar must come out one
                    if norm(lam * scale[src]) != scale[dst]:
                        return False
                    continue
                # forest edge: choose the scale making the arrow one
                if y == dst:
                    scale[y] = norm(lam * scale[x])
                else:
                    scale[y] = norm(F.inv(lam) * scale[x])
                stack.append(y)
    return True


def gauged(F, scale, p, q, forward):
    """The scalar of the arrow between p and q, q = p + one step, that
    rescaling by scale turns into one: scale[dst] / scale[src]."""
    src, dst = (p, q) if forward else (q, p)
    return F.norm(scale[dst] * F.inv(scale[src]))


@st.composite
def iso_inputs(draw, cfg, scalars):
    """A support of a random 2- or 3-axis box, most points in, so that some
    have holes and some cycles; a module with the indicator dims but now and
    then one point changed, some zeros explicit; on every arrow of the box,
    also those that leave the support, a scalar from the palette, or one a
    random rescaling turns into one, or none."""
    F = cfg.field
    k = draw(st.integers(2, 3))
    polarities = draw(st.lists(st.sampled_from((PLAIN, OP)), min_size=k, max_size=k))
    lengths = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    shape = Shape(tuple(Axis(n, pol) for n, pol in zip(lengths, polarities)))
    box = list(shape.iter_points())
    support = make_support(shape, [p for p in box if draw(st.integers(0, 3))])
    dims = {p: 1 if p in support else 0 for p in box if p in support or draw(st.booleans())}
    if not draw(st.integers(0, 7)):
        dims[draw(st.sampled_from(box))] = draw(st.integers(0, 2))
    nonzero = [s for s in scalars if F.norm(s)]
    scale = {p: draw(st.sampled_from(nonzero)) for p in box}
    maps = {}
    for p in box:
        for a, ax in enumerate(shape.axes):
            q = p[:a] + (p[a] + 1,) + p[a + 1 :]
            if q[a] > ax.length:
                continue
            kind = draw(st.integers(0, 9))
            if kind == 0:
                continue
            forward = ax.polarity == PLAIN
            scalar = draw(st.sampled_from(scalars)) if kind < 3 else gauged(F, scale, p, q, forward)
            maps[(p, a)] = [[scalar]]
    return QuiverModule(shape, cfg, dims, maps), support


@pytest.mark.parametrize("cfg, scalars", FIELD_CASES, ids=["prime", "rational"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_iso_to_standard_matches_neighbour_probing(cfg, scalars, data):
    module, support = data.draw(iso_inputs(cfg, scalars))
    assert iso_to_standard(module, support) == reference_iso_to_standard(module, support)


RING = [p for p in itertools.product((1, 2, 3), repeat=2) if p != (2, 2)]


@pytest.mark.parametrize("cfg, scalars", FIELD_CASES, ids=["prime", "rational"])
@pytest.mark.parametrize("polarities", list(itertools.product((PLAIN, OP), repeat=2)))
def test_iso_on_the_ring_around_a_hole(cfg, scalars, polarities):
    # the 3 x 3 box without its centre: one cycle of eight arrows, which no
    # spanning forest covers, so the arrow it leaves out decides
    F = cfg.field
    ring = make_support(Shape(tuple(Axis(3, pol) for pol in polarities)), RING)
    module = indicator_module(ring, cfg)
    assert len(module.maps) == 8
    assert iso_to_standard(module, ring) and reference_iso_to_standard(module, ring)
    for arrow in module.maps:
        scaled = indicator_module(ring, cfg)
        scaled.maps[arrow] = [[2]]
        assert not iso_to_standard(scaled, ring) and not reference_iso_to_standard(scaled, ring)
    nonzero = [s for s in scalars if F.norm(s)]
    scale = {p: nonzero[i % len(nonzero)] for i, p in enumerate(RING)}
    rescaled = indicator_module(ring, cfg)
    for p, a in rescaled.maps:
        q = p[:a] + (p[a] + 1,) + p[a + 1 :]
        rescaled.maps[(p, a)] = [[gauged(F, scale, p, q, polarities[a] == PLAIN)]]
    assert any(F.norm(mat[0][0]) != 1 for mat in rescaled.maps.values())
    assert iso_to_standard(rescaled, ring) and reference_iso_to_standard(rescaled, ring)


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


def test_equal_sides_are_certified_once(certified):
    # s_support(2, 1, 1) == s_support(2, 2, 1), so one side of the
    # associativity check equals one already certified for commutativity
    calls = [
        (oracle_commutativity_check, (2, 1, 1, 1, 2)),
        (oracle_associativity_check, (2, 1, 1, 1, 1)),
    ]
    fresh = []
    for check, args in calls:
        clear_tables()
        fresh.append(check(*args, PRIME_CFG))
    clear_tables()
    certified.clear()
    kept = [check(*args, PRIME_CFG) for check, args in calls]
    # the key holds no tag: the left and right sides of the commutativity
    # check are equal too, so of the four sides two are misses, two hits
    assert len(certified) == len(oracle._TABLES.certificates) == 2
    assert kept == fresh


def test_predictions_differing_at_one_point_are_two_misses(certified):
    # the key packs the expected mask eight points to a byte; a box of 12
    # points leaves four padding bits, which must not hide the last point
    s1, s2 = s_support(2, 1, 2), s_support(2, 1, 1)
    predicted = contract(s1, 1, s2, 0)
    assert predicted.mask.size % 8
    last = predicted.shape.lengths  # the last box point, in the support
    mask = predicted.mask.copy()
    mask[-1, -1, -1, -1] = False
    seeded = Support(predicted.shape, mask)
    clean = oracle._certified_tensor(s1, 1, s2, predicted, "left", PRIME_CFG)
    wrong = oracle._certified_tensor(s1, 1, s2, seeded, "left", PRIME_CFG)
    assert len(certified) == len(oracle._TABLES.certificates) == 2
    assert clean == ()
    assert wrong == (Witness("left_dims", last, "dim 1, expected 0"),)


def test_sides_sharing_a_key_keep_their_own_tags(certified):
    # one seeded prediction certified under two tags is one entry, and the
    # witnesses of each call are named by its own tag
    s1, s2 = s_support(2, 1, 2), s_support(2, 1, 1)
    predicted = contract(s1, 1, s2, 0)
    mask = predicted.mask.copy()
    mask[-1, -1, -1, -1] = False
    seeded = Support(predicted.shape, mask)
    last = predicted.shape.lengths
    for tag in ("left", "right", "left"):
        got = oracle._certified_tensor(s1, 1, s2, seeded, tag, PRIME_CFG)
        assert got == (Witness(f"{tag}_dims", last, "dim 1, expected 0"),)
    # three calls: one miss, two hits
    assert len(certified) == len(oracle._TABLES.certificates) == 1


def test_certificates_build_each_standard_module_once(monkeypatch, certified):
    # a sweep validates and builds each factor support once per field, and
    # the body it tensors them with gives what public tensor_over gives
    standard, cached = oracle.standard_module, oracle._certified_tensor
    built, misses = [], []

    def counting(support, config):
        built.append((support, config))
        return standard(support, config)

    def keyed(s1, a1, s2, expected, tag, config):
        before = len(certified)
        witnesses = cached(s1, a1, s2, expected, tag, config)
        if len(certified) > before:
            misses.append(((s1, a1, s2, config), certified[-1]))
        return witnesses

    monkeypatch.setattr(oracle, "standard_module", counting)
    monkeypatch.setattr(oracle, "_certified_tensor", keyed)
    assert all(r.passed for r in run_sweep(SweepConfig(suite="oracle", max_m=2, oracle_max=2)))
    factors = {(s, cfg) for (s1, _, s2, cfg), _ in misses for s in (s1, s2)}
    sides = {side for (s1, a1, s2, cfg), _ in misses for side in ((s1, a1, cfg), (s2, 0, cfg))}
    # some supports are tensored along two axes, and each is built once
    assert len(misses) == len(certified) and len(sides) > len(factors)
    assert len(built) == len(factors) and set(built) == factors
    for (s1, a1, s2, cfg), module in misses:
        # the body keeps the table's tuples, which public tensor_over copies
        module.maps = {key: [list(row) for row in mat] for key, mat in module.maps.items()}
        assert_same_module(module, tensor_over(standard(s1, cfg), a1, standard(s2, cfg), 0))


def test_certificates_refuse_a_nonstandard_factor_every_time():
    # a refused factor leaves no fiber table behind that would skip its check
    bad = make_support(Shape((Axis(2), Axis(2))), [(1, 1), (2, 1), (2, 2)])
    right = s_support(2, 1, 1)
    expected = make_support(Shape(bad.shape.axes[:1] + right.shape.axes[1:]), [])
    with pytest.raises(ValueError) as refused:
        standard_module(bad, PRIME_CFG)
    for _ in range(2):
        with pytest.raises(ValueError) as again:
            oracle._certified_tensor(bad, 1, right, expected, "left", PRIME_CFG)
        assert str(again.value) == str(refused.value)
    assert not oracle._TABLES.fibers


ORACLE_K3_SHA = "f4afe9a49591bbcae13e0cc1813edc6c0b74cc31df0479f475e576437b065b06"


def test_sweep_with_tables_cleared_every_few_calls_keeps_its_bytes(tmp_path, monkeypatch):
    # with a cap of 16 every table is cleared after most tensor products, so
    # no id, shared entry or fiber table may outlive the content it names;
    # forked workers inherit the cap
    monkeypatch.setattr(oracle, "_TABLE_CAP", 16)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    certified_tensor, sizes = oracle._certified_tensor, []

    def recording(*args):
        witnesses = certified_tensor(*args)
        sizes.append(table_sizes())
        return witnesses

    monkeypatch.setattr(oracle, "_certified_tensor", recording)
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(["verify", "--suite", "oracle", "--max", "3", "--oracle-max", "3",
                     "--workers", workers, "--out", str(out)]) == 0
        reports.append((out / "verify-oracle.jsonl").read_bytes())
    assert hashlib.sha256(reports[0]).hexdigest() == ORACLE_K3_SHA
    assert reports[1] == reports[0]
    # the certificates count against the cap like every other table
    assert max(table_sizes()) <= 16
    assert max(map(max, sizes)) <= 16 and any(row[-1] for row in sizes)


def test_equal_factor_supports_are_held_once():
    # a key holds one object per distinct factor support, so the points a
    # Support caches are kept once, not once per key
    a, b = n_support(3), n_support(3)
    assert a == b and a is not b
    s = s_support(2, 1, 2)
    predicted = fiber_reversal(s, 0, SUCCESSOR)
    for left in (a, b):
        assert oracle._certified_tensor(left, 1, s, predicted, "gamma", PRIME_CFG) == ()
    (key,) = oracle._TABLES.certificates
    assert key[0] is a and oracle._TABLES.share(b) is a


def test_a_drop_during_a_call_leaves_that_call_alone(monkeypatch):
    # a call keeps the tables it took on entry, so dropping them between its
    # two factors leaves it every id it has made
    expected = oracle_commutativity_check(2, 2, 2, 1, 2)
    clear_tables()
    standard_fibers, drops = oracle._standard_fibers, []

    def dropping(support, axis, tables):
        fibers = standard_fibers(support, axis, tables)
        oracle._TABLES = None
        drops.append(tables)
        return fibers

    monkeypatch.setattr(oracle, "_standard_fibers", dropping)
    assert oracle_commutativity_check(2, 2, 2, 1, 2) == expected
    assert len(drops) == 4


def test_certificates_are_held_per_field(certified):
    # a certificate of one field is never read back in another: each field
    # switch starts new tables, and the old field's are not kept
    misses = []
    for cfg in (PRIME_CFG, PRIME_CFG, RAT_CFG, RAT_CFG, PRIME_CFG):
        before = len(certified)
        assert oracle_unit_check(3, 2, 2, cfg).passed
        misses.append(len(certified) - before)
    assert misses == [1, 0, 1, 0, 1]
    assert [module.config for module in certified] == [PRIME_CFG, RAT_CFG, PRIME_CFG]


def test_sweep_modules_store_arrows_only_between_nonzero_vertices(monkeypatch):
    # check_relations visits only squares whose source has positive
    # dimension, which is sound when no arrow touches a zero vertex
    modules = []

    def recording(fn):
        def record(*args):
            modules.append(fn(*args))
            return modules[-1]

        return record

    monkeypatch.setattr(oracle, "standard_module", recording(oracle.standard_module))
    monkeypatch.setattr(oracle, "_tensor", recording(oracle._tensor))
    assert all(r.passed for r in run_sweep(SweepConfig(suite="oracle", max_m=2, oracle_max=2)))
    assert len(modules) > 100
    assert all(stores_only_nonzero_arrows(m) for m in modules)



@pytest.mark.parametrize("seeded", [False, True], ids=["clean", "seeded"])
def test_sweep_certifies_through_the_public_checks(monkeypatch, seeded):
    # each certificate miss calls the public check_relations once, and the
    # public iso_to_standard once unless dims or relations already failed,
    # so timings taken around those two functions account for the sweep
    calls = {"check_relations": 0, "iso_to_standard": 0}

    def counting(name, fn):
        def count(*args):
            calls[name] += 1
            return fn(*args)

        return count

    for name in calls:
        monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
    certify, misses = oracle._certify, []

    def recording(module, expected):
        misses.append(certify(module, expected))
        return misses[-1]

    monkeypatch.setattr(oracle, "_certify", recording)
    if seeded:
        monkeypatch.setattr(oracle, "contract", flipped(oracle.contract, (0, 0, 0, 0)))
    list(run_sweep(SweepConfig(suite="oracle", max_m=2, oracle_max=2)))
    unfailed = [w for w in misses if not {x.check for x in w} & {"dims", "relations"}]
    assert calls["check_relations"] == len(misses) > 0
    assert calls["iso_to_standard"] == len(unfailed)
    assert (len(unfailed) < len(misses)) == seeded

def test_oracle_nakayama_mu_needs_inner_slot():
    for i in (1, 3):
        with pytest.raises(ValueError, match="2 <= i <= m"):
            oracle_nakayama_mu_check(2, 2, i, PRIME_CFG)


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


def scaling(arrow, body=oracle._tensor):
    """The tensor body (the unseeded one, bound here) with the matrix of one
    arrow of its result set to 2."""

    def seeded(*args):
        module = body(*args)
        module.maps[arrow] = [[2]]
        return module

    return seeded


def test_seeded_tensor_defect_is_named(monkeypatch):
    # a wrong arrow in the computed tensor product breaks its one square
    monkeypatch.setattr(oracle, "_tensor", scaling(((1, 1, 1), 1)))
    report = oracle_unit_check(2, 2, 1, PRIME_CFG)
    assert report.witnesses == [Witness("unit_relations", (1, 1, 1), "axes (1, 2)")]
    # an arrow that lies in no commutation square can be rescaled to one by
    # a change of basis: the module is still standard, and no witness is the
    # correct answer
    monkeypatch.setattr(oracle, "_tensor", scaling(((1, 1, 1, 1), 2)))
    assert oracle_commutativity_check(2, 1, 1, 1, 2, PRIME_CFG).passed
