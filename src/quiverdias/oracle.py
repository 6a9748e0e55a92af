"""Brute-force certification layer: honest vector spaces and arrow matrices.

Modules here carry one exact-field matrix per arrow of the product quiver.
Tensor products are computed from scratch, by spanning the balancing
relations at every vertex and eliminating them, so the support calculus can
be certified against genuinely independent linear algebra on small
instances.  Everything is field-exact: rationals, or integers modulo a
prime (default 32003).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .families import n_support, regular_support, s_support
from .k0 import K0Vector
from .linalg import Matrix, PrimeField, RationalField, mat_mul, rref, reduce_mod_rows, zeros
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

RATIONAL = "rational"
PRIME = "prime"
# exclusive bound on the prime modulus: primality is decided by trial
# division, which is instant below it and would hang on a large prime
MAX_PRIME = 2**31


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldConfig:
    """Choice of exact scalar field for the oracle."""

    kind: str = PRIME
    q: int = 32003

    def __post_init__(self) -> None:
        if self.kind not in (PRIME, RATIONAL):
            raise ValueError(f"kind must be {PRIME!r} or {RATIONAL!r}, got {self.kind!r}")
        if self.kind == PRIME:
            if self.q >= MAX_PRIME:
                raise ValueError(f"modulus {self.q} is too large: it must be below 2**31")
            if not is_prime(self.q):
                raise ValueError(f"modulus {self.q} is not prime")

    def field(self):
        return PrimeField(self.q) if self.kind == PRIME else RationalField()


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

    def total_dim(self) -> int:
        return sum(self.dims.values())


def _arrow_endpoints(shape: Shape, base: Point, axis: int) -> tuple[Point, Point]:
    other = base[:axis] + (base[axis] + 1,) + base[axis + 1 :]
    if shape.axes[axis].polarity == PLAIN:
        return base, other
    return other, base


def arrow_between(module: QuiverModule, x: Point, y: Point, axis: int) -> Matrix:
    """Matrix of the arrow x -> y along the axis, zeros when absent."""
    base = x if x[axis] < y[axis] else y
    src, dst = _arrow_endpoints(module.shape, base, axis)
    if (src, dst) != (x, y):
        raise ValueError(f"no arrow {x} -> {y} along axis {axis}")
    mat = module.maps.get((base, axis))
    if mat is None:
        return zeros(module.config.field(), module.dim(y), module.dim(x))
    return mat


def indicator_module(support: Support, config: FieldConfig = FieldConfig()) -> QuiverModule:
    """One-dimensional spaces on the support, identity maps between adjacent
    support points.  No standardness check; see standard_module."""
    F = config.field()
    dims = {p: 1 for p in support.points}
    maps: dict[tuple[Point, int], Matrix] = {}
    for p in support.points:
        for a in range(support.shape.arity):
            q = p[:a] + (p[a] + 1,) + p[a + 1 :]
            if q in support.point_set:
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


def _square_commutes(module: QuiverModule, base: Point, a: int, b: int) -> bool:
    F = module.config.field()
    axes = module.shape.axes
    # source corner: high coordinate on op axes, low on plain
    src = list(base)
    if axes[a].polarity == OP:
        src[a] += 1
    if axes[b].polarity == OP:
        src[b] += 1
    src_pt = tuple(src)
    mid_a = _flip_coord(src_pt, a, base)
    mid_b = _flip_coord(src_pt, b, base)
    sink = _flip_coord(mid_a, b, base)
    d_src, d_sink = module.dim(src_pt), module.dim(sink)
    if d_src == 0 or d_sink == 0:
        return True
    path_a = _compose_via(module, F, src_pt, mid_a, sink, a, b)
    path_b = _compose_via(module, F, src_pt, mid_b, sink, b, a)
    return path_a == path_b


def _flip_coord(p: Point, axis: int, base: Point) -> Point:
    # toggle between base[axis] and base[axis]+1
    v = base[axis] + 1 if p[axis] == base[axis] else base[axis]
    return p[:axis] + (v,) + p[axis + 1 :]


def _compose_via(module, F, src, mid, sink, first_axis, second_axis) -> Matrix:
    if module.dim(mid) == 0:
        return zeros(F, module.dim(sink), module.dim(src))
    first = arrow_between(module, src, mid, first_axis)
    second = arrow_between(module, mid, sink, second_axis)
    return mat_mul(F, second, first)


def check_relations(module: QuiverModule) -> list[SquareViolation]:
    """All commutation squares whose two composites disagree."""
    shape = module.shape
    k = shape.arity
    out: list[SquareViolation] = []
    for base in shape.iter_points():
        for a in range(k):
            if base[a] >= shape.axes[a].length:
                continue
            for b in range(a + 1, k):
                if base[b] >= shape.axes[b].length:
                    continue
                if not _square_commutes(module, base, a, b):
                    out.append(SquareViolation(base, a, b))
    return out


@dataclass
class _TensorVertex:
    """Quotient data of one result vertex of a tensor product."""

    d1: list[int]
    d2: list[int]
    offsets: list[int]
    bigdim: int
    rref_rows: list[list]
    pivots: list[int]
    free: list[int]

    def index(self, level: int, r1: int, r2: int) -> int:
        return self.offsets[level - 1] + r1 * self.d2[level - 1] + r2


def tensor_over(m1: QuiverModule, a1: int, m2: QuiverModule, a2: int) -> QuiverModule:
    """Tensor m1 and m2 over the interval factor shared by plain axis a1 of
    m1 and op axis a2 of m2.

    At every result vertex the big space is the direct sum over shared
    levels c of m1(.., c) tensor m2(c, ..); the balancing relations
    x.arrow (x) y - x (x) arrow.y are eliminated exactly, and arrow maps are
    induced on the chosen complements.
    """
    ax1 = m1.shape.axes[a1]
    ax2 = m2.shape.axes[a2]
    if ax1.length != ax2.length:
        raise ValueError(f"length mismatch: {ax1.length} vs {ax2.length}")
    if ax1.polarity != PLAIN:
        raise ValueError(f"left axis {a1} must be plain, got {ax1.polarity}")
    if ax2.polarity != OP:
        raise ValueError(f"right axis {a2} must be op, got {ax2.polarity}")
    if m1.config != m2.config:
        raise ValueError(f"field mismatch: {m1.config} vs {m2.config}")
    F = m1.config.field()
    L = ax1.length
    k1 = m1.shape.arity - 1
    out_shape = Shape(
        m1.shape.axes[:a1] + m1.shape.axes[a1 + 1 :] + m2.shape.axes[:a2] + m2.shape.axes[a2 + 1 :]
    )

    def left_vertex(u: Point, c: int) -> Point:
        return u[:a1] + (c,) + u[a1:]

    def right_vertex(w: Point, c: int) -> Point:
        return w[:a2] + (c,) + w[a2:]

    verts: dict[Point, _TensorVertex] = {}
    dims: dict[Point, int] = {}
    for x in out_shape.iter_points():
        u, w = x[:k1], x[k1:]
        d1 = [m1.dim(left_vertex(u, c)) for c in range(1, L + 1)]
        d2 = [m2.dim(right_vertex(w, c)) for c in range(1, L + 1)]
        offsets, total = [], 0
        for c in range(L):
            offsets.append(total)
            total += d1[c] * d2[c]
        rows: list[list] = []
        for c in range(1, L):
            if d1[c - 1] == 0 or d2[c] == 0:
                continue  # no pure tensors x (x) y at this level
            A = (
                arrow_between(m1, left_vertex(u, c), left_vertex(u, c + 1), a1)
                if d1[c] > 0
                else None
            )
            B = (
                arrow_between(m2, right_vertex(w, c + 1), right_vertex(w, c), a2)
                if d2[c - 1] > 0
                else None
            )
            for b1 in range(d1[c - 1]):
                for b2 in range(d2[c]):
                    row = [F.zero] * total
                    if A is not None:
                        for t in range(d1[c]):
                            row[offsets[c] + t * d2[c] + b2] = A[t][b1]
                    if B is not None:
                        for t in range(d2[c - 1]):
                            idx = offsets[c - 1] + b1 * d2[c - 1] + t
                            row[idx] = F.sub(row[idx], B[t][b2])
                    if any(not F.is_zero(v) for v in row):
                        rows.append(row)
        red, pivots = rref(F, rows)
        pivot_set = set(pivots)
        free = [c for c in range(total) if c not in pivot_set]
        verts[x] = _TensorVertex(d1, d2, offsets, total, red, pivots, free)
        if free:
            dims[x] = len(free)

    maps: dict[tuple[Point, int], Matrix] = {}
    for x in out_shape.iter_points():
        for t in range(out_shape.arity):
            if x[t] >= out_shape.axes[t].length:
                continue
            src, dst = _arrow_endpoints(out_shape, x, t)
            vs, vd = verts[src], verts[dst]
            if not vs.free or not vd.free:
                continue
            big = _big_arrow(m1, m2, a1, a2, k1, src, dst, t, vs, vd, F, left_vertex, right_vertex)
            cols = []
            for f in vs.free:
                img = [big[r][f] for r in range(vd.bigdim)]
                red = reduce_mod_rows(F, img, vd.rref_rows, vd.pivots)
                cols.append([red[g] for g in vd.free])
            maps[(x, t)] = [[cols[c][r] for c in range(len(cols))] for r in range(len(vd.free))]

    return QuiverModule(out_shape, m1.config, dims, maps)


def _big_arrow(m1, m2, a1, a2, k1, src, dst, t, vs, vd, F, left_vertex, right_vertex) -> Matrix:
    """Blockwise action of one result arrow on the pre-quotient spaces."""
    L = len(vs.d1)
    big = zeros(F, vd.bigdim, vs.bigdim)
    if t < k1:
        orig = t if t < a1 else t + 1
        u_src, u_dst = src[:k1], dst[:k1]
        for c in range(1, L + 1):
            if vs.d1[c - 1] == 0 or vd.d1[c - 1] == 0 or vs.d2[c - 1] == 0:
                continue
            C = arrow_between(m1, left_vertex(u_src, c), left_vertex(u_dst, c), orig)
            for r in range(vd.d1[c - 1]):
                for q in range(vs.d1[c - 1]):
                    if F.is_zero(C[r][q]):
                        continue
                    for s2 in range(vs.d2[c - 1]):
                        big[vd.index(c, r, s2)][vs.index(c, q, s2)] = C[r][q]
    else:
        orig = t - k1 if t - k1 < a2 else t - k1 + 1
        w_src, w_dst = src[k1:], dst[k1:]
        for c in range(1, L + 1):
            if vs.d2[c - 1] == 0 or vd.d2[c - 1] == 0 or vs.d1[c - 1] == 0:
                continue
            D = arrow_between(m2, right_vertex(w_src, c), right_vertex(w_dst, c), orig)
            for r in range(vd.d2[c - 1]):
                for q in range(vs.d2[c - 1]):
                    if F.is_zero(D[r][q]):
                        continue
                    for s1 in range(vs.d1[c - 1]):
                        big[vd.index(c, s1, r)][vs.index(c, s1, q)] = D[r][q]
    return big


def dimension_vector(module: QuiverModule) -> K0Vector:
    """Per-vertex dimensions, flattened in lexicographic vertex order."""
    values = [module.dim(p) for p in module.shape.iter_points()]
    return K0Vector(module.shape.lengths, values)


def iso_to_standard(module: QuiverModule, support: Support) -> bool:
    """Decide whether the module is isomorphic to the standard module of the
    support.

    Requires the indicator dimension vector, nonzero scalars on every
    adjacent-in-support arrow, and a rescaling of basis vectors along a
    spanning forest that turns every remaining adjacent arrow into one.
    """
    if module.shape != support.shape:
        return False
    for p in module.shape.iter_points():
        if module.dim(p) != (1 if p in support.point_set else 0):
            return False
    F = module.config.field()

    edges: dict[Point, list[tuple[Point, Point, Point, object]]] = {p: [] for p in support.points}
    for p in support.points:
        for a in range(support.shape.arity):
            q = p[:a] + (p[a] + 1,) + p[a + 1 :]
            if q not in support.point_set:
                continue
            src, dst = _arrow_endpoints(module.shape, p, a)
            mat = module.maps.get((p, a))
            scalar = mat[0][0] if mat else F.zero
            if F.is_zero(scalar):
                return False
            edges[p].append((q, src, dst, scalar))
            edges[q].append((p, src, dst, scalar))

    scale: dict[Point, object] = {}
    for root in support.points:
        if root in scale:
            continue
        scale[root] = F.one
        stack = [root]
        while stack:
            x = stack.pop()
            for y, src, dst, lam in edges[x]:
                if y in scale:
                    # non-forest edge: the rescaled scalar must come out one
                    if F.mul(lam, scale[src]) != scale[dst]:
                        return False
                    continue
                # forest edge: choose the scale making the arrow one
                if y == dst:
                    scale[y] = F.mul(lam, scale[x])
                else:
                    scale[y] = F.mul(F.inv(lam), scale[x])
                stack.append(y)
    return True


# ---------------------------------------------------------------------------
# Cross-checks against the support calculus


def _dims_witnesses(module: QuiverModule, expected: Support, check: str) -> list[Witness]:
    out = []
    for p in module.shape.iter_points():
        want = 1 if p in expected.point_set else 0
        got = module.dim(p)
        if got != want:
            out.append(Witness(check, p, f"dim {got}, expected {want}"))
    return out


def _certify(module: QuiverModule, expected: Support, check: str) -> list[Witness]:
    """Dims match the indicator, relations hold, and the module is standard."""
    witnesses = _dims_witnesses(module, expected, f"{check}_dims")
    witnesses += [
        Witness(f"{check}_relations", v.base, f"axes ({v.axis_a}, {v.axis_b})")
        for v in check_relations(module)
    ]
    if not witnesses and not iso_to_standard(module, expected):
        witnesses.append(Witness(f"{check}_iso", (), "not isomorphic to the standard module"))
    return witnesses


def oracle_commutativity_check(
    m: int, n: int, p: int, i: int, j: int, config: FieldConfig = FieldConfig()
) -> Report:
    """Tensor both parallel-composition sides and compare with contract."""
    s_top_l, s_bot_l = s_support(m + p - 1, i, n), s_support(m, j, p)
    s_top_r, s_bot_r = s_support(m + n - 1, j + n - 1, p), s_support(m, i, n)
    witnesses: list[Witness] = []
    sizes = []
    for tag, s_top, s_bot in (("left", s_top_l, s_bot_l), ("right", s_top_r, s_bot_r)):
        predicted = contract(s_top, 1, s_bot, 0)
        tens = tensor_over(standard_module(s_top, config), 1, standard_module(s_bot, config), 0)
        witnesses += _certify(tens, predicted, tag)
        sizes.append(predicted.size)
    params = {"m": m, "n": n, "p": p, "i": i, "j": j, "field": config.kind, "q": config.q}
    return Report("oracle_commutativity", params, sizes[0], sizes[1], witnesses)


def oracle_associativity_check(
    m: int, n: int, p: int, i: int, j: int, config: FieldConfig = FieldConfig()
) -> Report:
    """Tensor both nested-composition sides and compare with contract."""
    witnesses: list[Witness] = []
    sizes = []
    for tag, s_top, axis, s_bot in (
        ("left", s_support(m, i, n + p - 1), 2, s_support(n, j, p)),
        ("right", s_support(m + n - 1, j + i - 1, p), 1, s_support(m, i, n)),
    ):
        predicted = contract(s_top, axis, s_bot, 0)
        tens = tensor_over(
            standard_module(s_top, config), axis, standard_module(s_bot, config), 0
        )
        witnesses += _certify(tens, predicted, tag)
        sizes.append(predicted.size)
    params = {"m": m, "n": n, "p": p, "i": i, "j": j, "field": config.kind, "q": config.q}
    return Report("oracle_associativity", params, sizes[0], sizes[1], witnesses)


def oracle_nakayama_gamma_check(
    m: int, n: int, i: int, config: FieldConfig = FieldConfig()
) -> Report:
    """Tensoring with the Nakayama triangle on the op side is the successor
    reversal of the op axis."""
    s = s_support(m, i, n)
    predicted = fiber_reversal(s, 0, SUCCESSOR)
    tens = tensor_over(
        standard_module(n_support(m + n - 1), config), 1, standard_module(s, config), 0
    )
    witnesses = _certify(tens, predicted, "gamma")
    params = {"m": m, "n": n, "i": i, "field": config.kind, "q": config.q}
    return Report("oracle_nakayama_gamma", params, s.size, predicted.size, witnesses)


def oracle_nakayama_mu_check(m: int, n: int, i: int, config: FieldConfig = FieldConfig()) -> Report:
    """Tensoring with the Nakayama triangle on the length-m side is the
    predecessor reversal of the length-m axis (slot i-1 instances)."""
    if i < 2:
        raise ValueError(f"need i >= 2, got i={i}")
    s = s_support(m, i - 1, n)
    predicted = fiber_reversal(s, 1, PREDECESSOR)
    tens = tensor_over(standard_module(s, config), 1, standard_module(n_support(m), config), 0)
    # the result keeps (gamma, nu) from the left and regrows the plain
    # m-axis on the right, so the predicted support gets permuted to match
    predicted = permute_axes(predicted, (0, 2, 1))
    witnesses = _certify(tens, predicted, "mu")
    params = {"m": m, "n": n, "i": i, "field": config.kind, "q": config.q}
    return Report("oracle_nakayama_mu", params, s.size, predicted.size, witnesses)


def oracle_unit_check(m: int, n: int, i: int, config: FieldConfig = FieldConfig()) -> Report:
    """Tensoring with the regular bimodule changes nothing."""
    s = s_support(m, i, n)
    tens = tensor_over(
        standard_module(regular_support(m + n - 1), config), 1, standard_module(s, config), 0
    )
    witnesses = _certify(tens, s, "unit")
    params = {"m": m, "n": n, "i": i, "field": config.kind, "q": config.q}
    return Report("oracle_unit", params, s.size, s.size, witnesses)
