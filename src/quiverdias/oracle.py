"""Brute-force certification layer: honest vector spaces and arrow matrices.

Modules here carry one exact-field matrix per arrow of the product quiver.
Tensor products are computed from scratch, by spanning the balancing
relations at every vertex and eliminating them, so the support calculus can
be certified against genuinely independent linear algebra on small
instances.  Everything is field-exact: rationals, or integers modulo a
prime (default 32003).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field

import numpy as np

from .families import inner_slot, n_support, nested, parallel, regular_support
from .families import require_slots, s_support
# the field choice lives in fields, which a sweep reads without this module
from .fields import FieldConfig, is_prime
from .linalg import Matrix, mat_mul, rref, reduce_mod_rows
from .reports import Report, Witness
from .supports import (
    OP,
    PLAIN,
    PREDECESSOR,
    SUCCESSOR,
    Point,
    Shape,
    SquareViolation,
    Support,
    contract,
    fiber_reversal,
    permute_axes,
    validate_standard,
)


@dataclass
class QuiverModule:
    """Explicit module: a dimension per vertex, a matrix per arrow.

    Arrows are keyed by (base, axis) where base is the endpoint with the
    smaller coordinate along the axis; the matrix maps the polarity source
    to the polarity target, and a missing key means the zero map.  Only
    arrows with both endpoint dimensions positive are stored.
    """

    shape: Shape
    config: FieldConfig
    dims: dict[Point, int]
    maps: dict[tuple[Point, int], Matrix] = dc_field(default_factory=dict)

    def dim(self, vertex: Point) -> int:
        return self.dims.get(vertex, 0)


def indicator_module(support: Support, config: FieldConfig = FieldConfig()) -> QuiverModule:
    """One-dimensional spaces on the support, identity maps between adjacent
    support points.  No standardness check; see standard_module."""
    F = config.field
    dims = dict.fromkeys(support.points, 1)
    maps: dict[tuple[Point, int], Matrix] = {}
    for p in dims:
        for a in range(len(p)):
            q = p[:a] + (p[a] + 1,) + p[a + 1 :]
            if q in dims:
                maps[(p, a)] = [[F.one]]
    return QuiverModule(support.shape, config, dims, maps)


def standard_module(support: Support, config: FieldConfig = FieldConfig()) -> QuiverModule:
    """The standard module of a support; rejects non-standard supports,
    naming a broken square."""
    violations = validate_standard(support)
    if violations:
        v = violations[0]
        raise ValueError(
            f"support is not standard: commutation square at {v.base} "
            f"along axes ({v.axis_a}, {v.axis_b})"
        )
    return indicator_module(support, config)


def _composite(F, second: Matrix, first: Matrix) -> Matrix | None:
    """second . first with normalized entries, or None when it is zero."""
    prod = mat_mul(F, second, first)
    return prod if any(map(any, prod)) else None


def _arrows(module: QuiverModule) -> dict[Point, list]:
    """One pass over the maps: for each vertex an arrow leaves, per axis,
    that arrow as (target, matrix), or None."""
    axes = module.shape.axes
    table: dict[Point, list] = {}
    for (base, a), mat in module.maps.items():
        head = base[:a] + (base[a] + 1,) + base[a + 1 :]
        src, dst = (base, head) if axes[a].polarity == PLAIN else (head, base)
        legs = table.get(src) or table.setdefault(src, [None] * len(axes))
        legs[a] = (dst, mat)
    return table


def _unit_arrows(module: QuiverModule) -> tuple[list[int], list[int]] | None:
    """When every stored arrow is the unit ((1,),), as the tensor body
    stores it (a list matrix never is), with its base in the box and below
    the top layer of its axis: per axis, the bits of the arrow bases at
    their row-major box indices, and the row-major strides.  Else None."""
    maps, lengths = module.maps, module.shape.lengths
    if [*maps.values()].count(((1,),)) != len(maps):
        return None
    k = len(lengths)
    index = dict(zip(itertools.product(*[range(1, n + 1) for n in lengths]), itertools.count()))
    bits = [0] * k
    for base, a in maps:
        i = index.get(base)
        if i is None or not 0 <= a < k or base[a] == lengths[a]:
            return None
        bits[a] |= 1 << i
    return bits, [math.prod(lengths[a + 1 :]) for a in range(k)]


def check_relations(module: QuiverModule) -> list[SquareViolation]:
    """All commutation squares whose two composites disagree, ordered by
    base, then by axes.

    With every arrow the unit (see _unit_arrows), a square fails exactly
    when one of its two paths is complete, which a few shifts of the arrow
    bits decide for all squares of an axis pair at once.  Otherwise both
    composites leave the square's source corner, which is low on plain axes
    and high on op axes, so each square is read from the arrow table of its
    source (see _arrows).  Arrows are stored only between vertices of
    positive dimension, and a square where each path misses an arrow
    commutes (both composites are zero) without a product being formed.
    """
    pairs = list(itertools.combinations(range(module.shape.arity), 2))
    out: list[SquareViolation] = []
    unit = _unit_arrows(module)
    if unit is not None:
        (bits, strides), lengths = unit, module.shape.lengths
        plain = [ax.polarity == PLAIN for ax in module.shape.axes]
        for a, b in pairs:
            A, B, sa, sb = bits[a], bits[b], strides[a], strides[b]
            # each side of the xor is one path, complete at the square's base
            bad = (A & B >> sa) ^ (B & A >> sb) if plain[a] == plain[b] else (A & B) ^ (A >> sb & B >> sa)
            at = [i for i in range(bad.bit_length()) if bad >> i & 1]
            out += [SquareViolation(tuple(i // s % n + 1 for s, n in zip(strides, lengths)), a, b) for i in at]
    else:
        F = module.config.field
        table = _arrows(module)
        for src, legs in table.items():
            # the arrows leaving the corner each arrow from the source reaches
            mids = [leg and table.get(leg[0]) for leg in legs]
            for a, b in pairs:
                second_a, second_b = mids[a] and mids[a][b], mids[b] and mids[b][a]
                if not (second_a or second_b):
                    continue
                first_a, first_b = legs[a], legs[b]
                if (second_a and _composite(F, second_a[1], first_a[1])) != (
                    second_b and _composite(F, second_b[1], first_b[1])
                ):
                    out.append(SquareViolation(tuple(map(min, src, (second_a or second_b)[0])), a, b))
    out.sort(key=lambda v: (v.base, v.axis_a, v.axis_b))
    return out


def _frozen(mat: Matrix | None) -> tuple | None:
    return None if mat is None else tuple(map(tuple, mat))


class _Tables:
    """What the tensor body keeps across calls, in one field: an id per
    distinct fiber local data or run (its content at that index), one shared
    object per distinct fiber entry or part of one, one slot support per
    (m, i, n), fiber tables by factor support and axis, quotients by id
    pair, induced maps and certified witnesses.  Content equal in two
    fields (2, Fraction(2)) must not be read back where PrimeField.inv
    cannot invert a Fraction."""

    def __init__(self, config: FieldConfig) -> None:
        self.config = config
        self.ids: dict[tuple, int] = {}
        self.content: list[tuple] = []
        self.shared: dict = {}
        self.slots: dict[tuple[int, int, int], Support] = {}
        self.fibers: dict[Support, dict[int, tuple]] = {}
        self.quotients: dict[tuple[int, int], tuple | None] = {}
        self.induced: dict[tuple, tuple] = {}
        self.certificates: dict[tuple, tuple[Witness, ...]] = {}

    def intern(self, content: tuple) -> int:
        i = self.ids.get(content)
        if i is None:
            i = self.ids[content] = len(self.content)
            self.content.append(content)
        return i

    def share(self, entry):
        """The first object seen equal to entry, which is immutable."""
        return self.shared.setdefault(entry, entry)

    def slot(self, m: int, i: int, n: int) -> Support:
        """s_support(m, i, n), one object per triple: the fiber and
        certificate tables key on it."""
        key = (m, i, n)
        return self.slots.get(key) or self.slots.setdefault(key, s_support(m, i, n))


_TABLES: _Tables | None = None
_TABLE_CAP = 4096


def _tables(config: FieldConfig) -> _Tables:
    """The current tables, or new ones in another field.  A call takes them
    once and keeps them, so a drop (a rebinding) leaves its ids valid."""
    global _TABLES
    if _TABLES is None or _TABLES.config != config:
        _TABLES = _Tables(config)
    return _TABLES


def _drop_if_full(t: _Tables) -> None:
    """After a call, drop the tables once any of them is over the cap."""
    global _TABLES
    if max(map(len, (t.ids, t.shared, t.slots, t.fibers, t.quotients, t.induced, t.certificates))) > _TABLE_CAP:
        _TABLES = None


def _level_fibers(module: QuiverModule, axis: int, tables: _Tables) -> tuple:
    """Each nonzero fiber along the axis, in sorted order of the vertex with
    the axis dropped, as (that vertex, (id of its local data, id of its run
    along every other axis)).  Local data is the dimension at every level
    and the matrix of every arrow along the axis; a run is the matrix of the
    arrow along the other axis at every level (None: zero)."""
    dims, maps, intern = module.dims, module.maps, tables.intern
    out, levels = [], range(1, module.shape.axes[axis].length + 1)
    for rest in sorted({p[:axis] + p[axis + 1 :] for p in dims}):
        keys = [rest[:axis] + (c,) + rest[axis:] for c in levels]
        arrows = [tuple([_frozen(maps.get((p, b))) for p in keys]) for b in range(len(rest) + 1)]
        local = (tuple([dims.get(p, 0) for p in keys]), arrows.pop(axis)[:-1])
        out.append((rest, (intern(local), tuple([intern(r) for r in arrows]))))
    return tuple(out)


def _standard_fibers(support: Support, axis: int, tables: _Tables) -> tuple:
    """_level_fibers of the standard module of a support, built once per
    support and axis while the tables last.  The support is validated on
    its first use only; later axes are read from its indicator module.  A
    table is kept, so its entries and their parts are shared objects."""
    config, share = tables.config, tables.share
    by_axis = tables.fibers.get(support)
    if by_axis is None:
        module = standard_module(support, config)
        by_axis = tables.fibers[support] = {}
    elif axis in by_axis:
        return by_axis[axis]
    else:
        module = indicator_module(support, config)
    fibers = _level_fibers(module, axis, tables)
    by_axis[axis] = tuple(share((share(rest), share((f, share(runs))))) for rest, (f, runs) in fibers)
    return by_axis[axis]


def _quotient(F, local1: tuple, local2: tuple) -> tuple | None:
    """Big space of a result vertex modulo the balancing relations, from the
    local data of its left and right fiber; None when the quotient is zero.

    Returns (offsets, d2, bigdim, rref_rows, pivots, free, free_labels).
    Big-space index offsets[i] + r1 * d2[i] + r2 is the pure tensor of basis
    vectors r1 and r2 at shared level i (0-based); free_labels holds the
    (i, r1, r2) of each free index.
    """
    (d1, mats1), (d2, mats2) = local1, local2
    offsets, total = [], 0
    for e1, e2 in zip(d1, d2):
        offsets.append(total)
        total += e1 * e2
    if not total:
        return None
    rows: list[list] = []
    for i in range(len(d1) - 1):
        if not d1[i] or not d2[i + 1]:
            continue  # no pure tensors x (x) y with x at level i, y at i + 1
        A = mats1[i]  # m1 at level i -> level i + 1
        B = mats2[i]  # m2 at level i + 1 -> level i
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
    pivot_set = set(pivots)
    free = [f for f in range(total) if f not in pivot_set]
    if not free:
        return None
    free_labels = []
    for f in free:
        i = bisect_right(offsets, f) - 1  # the last level starting at or before f
        free_labels.append((i, *divmod(f - offsets[i], d2[i])))
    return offsets, d2, total, red, pivots, free, free_labels


def _induced(F, src: tuple, dst: tuple, run: tuple, on_left: bool) -> tuple[tuple, ...]:
    """Rows of the map from quotient src to quotient dst induced by the
    arrows of one factor at each shared level (run[i], None: zero), acting
    on the left or the right tensor factor."""
    offsets, d2, total, red, pivots, free, _ = dst
    cols = []
    for i, r1, r2 in src[6]:
        img = [0] * total
        mat = run[i]
        if mat is not None:
            if on_left:  # r1 (x) r2 -> sum_r mat[r][r1] r (x) r2
                start, stride, q = offsets[i] + r2, d2[i], r1
            else:  # r1 (x) r2 -> sum_r mat[r][r2] r1 (x) r
                start, stride, q = offsets[i] + r1 * d2[i], 1, r2
            for r, mrow in enumerate(mat):
                img[start + r * stride] = mrow[q]
        reduced = reduce_mod_rows(F, img, red, pivots)
        cols.append([reduced[g] for g in free])
    return tuple(zip(*cols))


def _tensor_shape(shape1: Shape, a1: int, shape2: Shape, a2: int) -> Shape:
    """Shape of the tensor product over plain axis a1 and op axis a2, after
    checking that those axes can be contracted."""
    for side, shape, axis in (("left", shape1, a1), ("right", shape2, a2)):
        if not 0 <= axis < shape.arity:
            raise ValueError(f"{side} axis index {axis} out of range for {shape.arity} axes")
    axes1, axes2 = shape1.axes, shape2.axes
    ax1, ax2 = axes1[a1], axes2[a2]
    if ax1.length != ax2.length:
        raise ValueError(f"length mismatch: {ax1.length} vs {ax2.length}")
    if ax1.polarity != PLAIN:
        raise ValueError(f"left axis {a1} must be plain, got {ax1.polarity}")
    if ax2.polarity != OP:
        raise ValueError(f"right axis {a2} must be op, got {ax2.polarity}")
    if shape1.arity + shape2.arity == 2:
        raise ValueError(f"contracting axis {a1} against axis {a2} leaves no axis")
    return Shape(axes1[:a1] + axes1[a1 + 1 :] + axes2[:a2] + axes2[a2 + 1 :])


def tensor_over(m1: QuiverModule, a1: int, m2: QuiverModule, a2: int) -> QuiverModule:
    """Tensor m1 and m2 over the interval factor shared by plain axis a1 of
    m1 and op axis a2 of m2.

    At every result vertex the big space is the direct sum over shared
    levels c of m1(.., c) tensor m2(c, ..); the balancing relations
    x.arrow (x) y - x (x) arrow.y are eliminated exactly, and arrow maps are
    induced on the chosen complements.  Both depend only on the local data
    of the fibers involved, so each is computed once per distinct input, in
    tables kept across calls (see _Tables).
    """
    out_shape = _tensor_shape(m1.shape, a1, m2.shape, a2)
    if m1.config != m2.config:
        raise ValueError(f"field mismatch: {m1.config} vs {m2.config}")
    tables = _tables(m1.config)
    fibers1, fibers2 = _level_fibers(m1, a1, tables), _level_fibers(m2, a2, tables)
    module = _tensor(fibers1, fibers2, out_shape, m1.shape.arity - 1, tables)
    _drop_if_full(tables)
    # a caller may mutate its maps, so they are not the table's tuples
    module.maps = {key: [list(row) for row in mat] for key, mat in module.maps.items()}
    return module


def _tensor(fibers1: tuple, fibers2: tuple, out_shape: Shape, k1: int, tables: _Tables) -> QuiverModule:
    """The tensor product from the fiber tables of its two factors, whose
    k1 free left axes come first in out_shape; its maps are shared tuples."""
    F, content = tables.config.field, tables.content
    quotients, induced = tables.quotients, tables.induced

    # result vertices x = u + w in lexicographic order, skipping those where
    # the quotient is zero; each holds the id pair of its fibers and its runs
    verts: dict[Point, tuple] = {}
    dims: dict[Point, int] = {}
    for (u, (f1, runs1)), (w, (f2, runs2)) in itertools.product(fibers1, fibers2):
        pair = (f1, f2)
        if pair not in quotients:
            quotients[pair] = _quotient(F, content[f1], content[f2])
        quo = quotients[pair]
        if quo is not None:
            x = u + w
            verts[x] = (pair, runs1, runs2)
            dims[x] = len(quo[5])

    # a map depends on its two quotients, its run and the factor it acts on
    maps: dict[tuple[Point, int], tuple] = {}
    for x, (pair, runs1, runs2) in verts.items():
        for t, ax in enumerate(out_shape.axes):
            if x[t] >= ax.length:
                continue
            vy = verts.get(x[:t] + (x[t] + 1,) + x[t + 1 :])
            if vy is None:
                continue
            on_left = t < k1
            run = runs1[t] if on_left else runs2[t - k1]
            src, dst = (pair, vy[0]) if ax.polarity == PLAIN else (vy[0], pair)
            key = (*src, *dst, run, on_left)
            mat = induced.get(key)
            if mat is None:
                mat = induced[key] = _induced(F, quotients[src], quotients[dst], content[run], on_left)
            maps[(x, t)] = mat
    return QuiverModule(out_shape, tables.config, dims, maps)


def _indicator_dims(module: QuiverModule, points: tuple[Point, ...]) -> bool:
    """The nonzero dims are one on the points and nowhere else."""
    return {p: d for p, d in module.dims.items() if d} == dict.fromkeys(points, 1)


def iso_to_standard(module: QuiverModule, support: Support) -> bool:
    """Decide whether the module is isomorphic to the standard module of the
    support.

    Requires the indicator dimension vector, nonzero scalars on every
    adjacent-in-support arrow, and a rescaling of basis vectors along a
    spanning forest that turns every remaining adjacent arrow into one.
    When every arrow is the unit (see _unit_arrows), only the first two
    remain, and every adjacent pair of support points must carry an arrow:
    per axis, the pairs are read from the bits of the support's mask.
    Otherwise the arrows are read in one pass over the maps, and must meet
    every adjacent pair of support points, as counted on the mask.
    """
    points = support.points
    if module.shape != support.shape or not _indicator_dims(module, points):
        return False
    mask = support.mask
    unit = _unit_arrows(module)
    if unit is not None:
        S = int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")
        box = (1 << mask.size) - 1
        for A, s, n in zip(*unit, mask.shape):
            # the top layer of the axis: the last s bits of every n * s
            top = (((1 << s) - 1) << (n - 1) * s) * (box // ((1 << n * s) - 1))
            if S & S >> s & ~top & ~A:
                return False
        return True
    F = module.config.field
    norm = F.norm
    point_set = set(points)
    plain = [ax.polarity == PLAIN for ax in module.shape.axes]
    arrows = []
    for (p, a), mat in module.maps.items():
        q = p[:a] + (p[a] + 1,) + p[a + 1 :]
        if p not in point_set or q not in point_set:
            continue
        scalar = norm(mat[0][0]) if mat else 0
        if not scalar:
            return False
        arrows.append((p, q, a, scalar))
    along = [mask.swapaxes(0, a) for a in range(mask.ndim)]
    if len(arrows) != sum(np.count_nonzero(m[1:] & m[:-1]) for m in along):
        return False

    edges: dict[Point, list[tuple[Point, Point, Point, object]]] = {p: [] for p in points}
    for p, q, a, scalar in arrows:
        src, dst = (p, q) if plain[a] else (q, p)
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


# ---------------------------------------------------------------------------
# Cross-checks against the support calculus


def _dims_witnesses(module: QuiverModule, expected: Support, check: str) -> list[Witness]:
    out, point_set = [], expected.point_set
    # a box point outside both the nonzero dims and the support agrees
    for p in sorted({p for p, d in module.dims.items() if d} | point_set):
        want = 1 if p in point_set else 0
        got = module.dim(p)
        if got != want:
            out.append(Witness(check, p, f"dim {got}, expected {want}"))
    return out


def _certify(module: QuiverModule, expected: Support) -> list[Witness]:
    """Dims match the indicator, relations hold, and the module is standard;
    each witness is named by the part of this certificate it fails."""
    dims_ok = _indicator_dims(module, expected.points)
    witnesses = [] if dims_ok else _dims_witnesses(module, expected, "dims")
    witnesses += [
        Witness("relations", v.base, f"axes ({v.axis_a}, {v.axis_b})")
        for v in check_relations(module)
    ]
    if not witnesses and not iso_to_standard(module, expected):
        witnesses.append(Witness("iso", (), "not isomorphic to the standard module"))
    return witnesses


def _certified_tensor(
    s1: Support, a1: int, s2: Support, expected: Support, tag: str, config: FieldConfig
) -> tuple[Witness, ...]:
    """Witnesses of the tensor product of the standard modules of s1 and s2,
    over axis a1 of s1 and the first axis of s2, against expected, each
    named tag_part.

    Equal inputs are certified once while the tables last, whatever their
    tag.  A key holds the factor supports as given, and the expected support
    as its axes and its mask packed eight points to a byte.
    """
    tables = _tables(config)
    key = (s1, a1, s2, expected.shape.axes, np.packbits(expected.mask).tobytes())
    witnesses = tables.certificates.get(key)
    if witnesses is None:
        out_shape = _tensor_shape(s1.shape, a1, s2.shape, 0)
        fibers1, fibers2 = _standard_fibers(s1, a1, tables), _standard_fibers(s2, 0, tables)
        module = _tensor(fibers1, fibers2, out_shape, s1.shape.arity - 1, tables)
        witnesses = tables.certificates[key] = tuple(_certify(module, expected))
        _drop_if_full(tables)
    return tuple(Witness(f"{tag}_{w.check}", w.where, w.detail) for w in witnesses)


def oracle_commutativity_check(
    m: int, n: int, p: int, i: int, j: int, config: FieldConfig = FieldConfig()
) -> Report:
    """Tensor both parallel-composition sides and compare with contract."""
    require_slots(parallel, m, n, i, j)
    slot = _tables(config).slot
    s_top_l, s_bot_l = slot(m + p - 1, i, n), slot(m, j, p)
    s_top_r, s_bot_r = slot(m + n - 1, j + n - 1, p), slot(m, i, n)
    witnesses: list[Witness] = []
    sizes = []
    for tag, s_top, s_bot in (("left", s_top_l, s_bot_l), ("right", s_top_r, s_bot_r)):
        predicted = contract(s_top, 1, s_bot, 0)
        witnesses += _certified_tensor(s_top, 1, s_bot, predicted, tag, config)
        sizes.append(predicted.size)
    params = {"m": m, "n": n, "p": p, "i": i, "j": j, "field": config.kind, "q": config.q}
    return Report("oracle_commutativity", params, sizes[0], sizes[1], witnesses)


def oracle_associativity_check(
    m: int, n: int, p: int, i: int, j: int, config: FieldConfig = FieldConfig()
) -> Report:
    """Tensor both nested-composition sides and compare with contract."""
    require_slots(nested, m, n, i, j)
    slot = _tables(config).slot
    witnesses: list[Witness] = []
    sizes = []
    for tag, s_top, axis, s_bot in (
        ("left", slot(m, i, n + p - 1), 2, slot(n, j, p)),
        ("right", slot(m + n - 1, j + i - 1, p), 1, slot(m, i, n)),
    ):
        predicted = contract(s_top, axis, s_bot, 0)
        witnesses += _certified_tensor(s_top, axis, s_bot, predicted, tag, config)
        sizes.append(predicted.size)
    params = {"m": m, "n": n, "p": p, "i": i, "j": j, "field": config.kind, "q": config.q}
    return Report("oracle_associativity", params, sizes[0], sizes[1], witnesses)


def oracle_nakayama_gamma_check(
    m: int, n: int, i: int, config: FieldConfig = FieldConfig()
) -> Report:
    """Tensoring with the Nakayama triangle on the op side is the successor
    reversal of the op axis."""
    s = _tables(config).slot(m, i, n)
    predicted = fiber_reversal(s, 0, SUCCESSOR)
    witnesses = list(_certified_tensor(n_support(m + n - 1), 1, s, predicted, "gamma", config))
    params = {"m": m, "n": n, "i": i, "field": config.kind, "q": config.q}
    return Report("oracle_nakayama_gamma", params, s.size, predicted.size, witnesses)


def oracle_nakayama_mu_check(m: int, n: int, i: int, config: FieldConfig = FieldConfig()) -> Report:
    """Tensoring with the Nakayama triangle on the length-m side is the
    predecessor reversal of the length-m axis (slot i-1 instances)."""
    require_slots(inner_slot, m, n, i)
    s = _tables(config).slot(m, i - 1, n)
    predicted = fiber_reversal(s, 1, PREDECESSOR)
    # the result keeps (gamma, nu) from the left and regrows the plain
    # m-axis on the right, so the predicted support gets permuted to match
    predicted = permute_axes(predicted, (0, 2, 1))
    witnesses = list(_certified_tensor(s, 1, n_support(m), predicted, "mu", config))
    params = {"m": m, "n": n, "i": i, "field": config.kind, "q": config.q}
    return Report("oracle_nakayama_mu", params, s.size, predicted.size, witnesses)


def oracle_unit_check(m: int, n: int, i: int, config: FieldConfig = FieldConfig()) -> Report:
    """Tensoring with the regular bimodule changes nothing."""
    s = _tables(config).slot(m, i, n)
    witnesses = list(_certified_tensor(regular_support(m + n - 1), 1, s, s, "unit", config))
    params = {"m": m, "n": n, "i": i, "field": config.kind, "q": config.q}
    return Report("oracle_unit", params, s.size, s.size, witnesses)
