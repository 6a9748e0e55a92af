"""Integer shadow of the construction: dimension-vector classes, the
composition maps they dualize, and the translation/shift bookkeeping.

Classes live in the basis of simple modules, indexed row-major over the
vertex coordinates of a product of plain lines.  Matrices here are small
integer numpy arrays with explicit source/target basis descriptors, so
every composition is dimension- and basis-checked.

Sign conventions: the Nakayama matrix nu sends each projective class to the
matching injective class; the translation is tau = -nu (the shift
contributes a global -1 at this level, one sign for the whole product
category, not one per factor).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .families import STACK_BYTES, any_slot, inner_slot, nested, parallel, parallel_or_nested
from .families import require_slots, s_support
from .reports import Report, Witness
from .supports import PLAIN, Axis, Shape, Support, contract

BasisDesc = tuple[int, ...]


def _basis_size(desc: BasisDesc) -> int:
    return math.prod(desc)


@dataclass
class K0Map:
    """Integer matrix between simple-class bases, with basis descriptors.
    The matrix is a private read-only copy of the one given, so a map can
    be shared, as the caches of nu_k0 and tau_k0 share theirs."""

    source: BasisDesc
    target: BasisDesc
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.source = tuple(self.source)
        self.target = tuple(self.target)
        self.matrix = np.array(self.matrix, dtype=np.int64)
        self.matrix.flags.writeable = False
        expected = (_basis_size(self.target), _basis_size(self.source))
        if self.matrix.shape != expected:
            raise ValueError(f"matrix of shape {self.matrix.shape} does not fit {expected}")

    def __matmul__(self, other: "K0Map") -> "K0Map":
        if self.source != other.target:
            raise ValueError(f"cannot compose: source {self.source} != target {other.target}")
        return K0Map(other.source, self.target, self.matrix @ other.matrix)

    def kron(self, other: "K0Map") -> "K0Map":
        """Act on the concatenated bases; row-major order matches np.kron."""
        return K0Map(
            self.source + other.source,
            self.target + other.target,
            np.kron(self.matrix, other.matrix),
        )

    def transposed(self) -> "K0Map":
        return K0Map(self.target, self.source, self.matrix.T)

    def scaled(self, k: int) -> "K0Map":
        return K0Map(self.source, self.target, k * self.matrix)

    def power(self, k: int) -> "K0Map":
        if self.source != self.target:
            raise ValueError("powers need equal source and target")
        return K0Map(self.source, self.target, np.linalg.matrix_power(self.matrix, k))

    def is_identity(self) -> bool:
        return self.source == self.target and np.array_equal(
            self.matrix, np.eye(self.matrix.shape[0], dtype=np.int64)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, K0Map)
            and self.source == other.source
            and self.target == other.target
            and np.array_equal(self.matrix, other.matrix)
        )


def k0_class(support: Support) -> np.ndarray:
    """Indicator vector of a support on a product of plain axes, int64 in
    the row-major simple-class basis of its axis lengths."""
    for k, ax in enumerate(support.shape.axes):
        if ax.polarity != PLAIN:
            raise ValueError(f"op axis present at position {k}; classes live over plain axes")
    return support.mask.ravel().astype(np.int64)


def _nablas(m: int, slots, n: int) -> list[K0Map]:
    """nabla_k0(m, i, n) for each slot i of slots, from one contraction.

    Column j is the class of the image of the j-th simple, computed from
    the images of projectives via the two-term resolution
    S_j = P_j - P_{j+1} (with P_{m+n} = 0).  The projectives [j, m+n-1] are
    stacked along a leading plain axis and the slots' s_support(m, i, n)
    along another, so one contraction gives the images for every slot."""
    slot_supports = [s_support(m, i, n) for i in slots]  # validates the slots
    big = m + n - 1
    # row j - 1 of the mask is the projective [j, big]: set where j <= c
    stacked = Support(Shape((Axis(big), Axis(big))), np.triu(np.ones((big, big), dtype=bool)))
    shape = Shape((Axis(len(slots)),) + slot_supports[0].shape.axes)
    slot_stack = Support(shape, np.stack([s.mask for s in slot_supports]))
    proj = k0_class(contract(stacked, 1, slot_stack, 1)).reshape(big, len(slots), m * n)
    simple = -np.diff(proj, axis=0, append=0)
    return [K0Map((big,), (m, n), simple[:, k].T) for k in range(len(slots))]


def nabla_k0(m: int, i: int, n: int) -> K0Map:
    """Matrix of the slot-insertion functor on classes: _nablas at one slot."""
    return _nablas(m, [i], n)[0]


def _compose(i, n, j, k):
    """Basis index of e_j at slot i with e_k, for ints or broadcasting
    integer arrays: j below the slot, i + k - 1 on it, j + n - 1 above it."""
    return np.where(j < i, j, np.where(j == i, i + k - 1, j + n - 1))


def dias_compose(m: int, i: int, n: int, j: int, k: int) -> int:
    """Basis index of the composition e_j at slot i with e_k."""
    require_slots(any_slot, m, n, i)
    if not 1 <= j <= m:
        raise ValueError(f"need 1 <= j <= m, got j={j}, m={m}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return int(_compose(i, n, j, k))


def dias_compose_matrix(m: int, i: int, n: int) -> K0Map:
    """The 0/1 matrix of composition at slot i, from basis (j, k) row-major."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    require_slots(any_slot, m, n, i)
    mat = np.zeros((m + n - 1, m * n), dtype=np.int64)
    j, k = np.indices((m, n)) + 1
    mat[_compose(i, n, j, k).ravel() - 1, np.arange(m * n)] = 1
    return K0Map((m, n), (m + n - 1,), mat)


def _matrix_witnesses(check: str, left: K0Map, right: K0Map) -> list[Witness]:
    if left.source != right.source or left.target != right.target:
        return [
            Witness(
                check,
                (),
                f"basis mismatch: {left.source}->{left.target} vs {right.source}->{right.target}",
            )
        ]
    diffs = np.argwhere(left.matrix != right.matrix)
    return [
        Witness(check, (int(r), int(c)), f"{left.matrix[r, c]} vs {right.matrix[r, c]}")
        for r, c in diffs
    ]


def duality_check(m: int, i: int, n: int) -> Report:
    """The transpose of the class-level insertion map is the composition map."""
    nab = nabla_k0(m, i, n)
    comp = dias_compose_matrix(m, i, n)
    witnesses = _matrix_witnesses("transpose_vs_compose", nab.transposed(), comp)
    params = {"m": m, "i": i, "n": n}
    return Report(
        "duality",
        params,
        int(np.count_nonzero(nab.matrix)),
        int(np.count_nonzero(comp.matrix)),
        witnesses,
    )


@functools.lru_cache(maxsize=1024)
def nu_k0(n: int) -> K0Map:
    """The unique integer matrix sending each projective class to the
    matching injective class, in the simple basis.  Cached per process.
    Column j < n is -e_{j+1} and column n is all ones: S_j = P_j - P_{j+1}
    goes to I_j - I_{j+1} = [1, j] - [1, j+1] = -S_{j+1}, and S_n = P_n to [1, n]."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    mat = -np.eye(n, k=-1, dtype=np.int64)
    mat[:, -1] = 1
    return K0Map((n,), (n,), mat)


@functools.lru_cache(maxsize=1024)
def tau_k0(n: int) -> K0Map:
    """Translation on classes: minus the Nakayama matrix (shift sign -1).
    Cached, like nu_k0."""
    return nu_k0(n).scaled(-1)


def flip_k0(m: int, n: int) -> K0Map:
    """Permutation matrix exchanging the two factors: (a, b) to (b, a)."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    perm = np.arange(m * n).reshape(m, n).T.ravel()
    return K0Map((m, n), (n, m), np.eye(m * n, dtype=np.int64)[perm])


def _on_factors(nab: K0Map, first: K0Map, second: K0Map | None = None) -> K0Map:
    """nab with first acting on factor a of its target (a, b), as first x id
    would; with second, also second on factor b and the factors exchanged, as
    flip . (first x second) would.  The exchange is the output index order."""
    (a, b), (big,) = nab.target, nab.source
    for mp, factor in ((first, (a,)), (second, (b,))):
        if mp is not None and mp.source != factor:
            raise ValueError(f"cannot compose: source {mp.source} != target {factor}")
    out = np.tensordot(first.matrix, nab.matrix.reshape(a, b, big), axes=1)
    if second is None:
        return K0Map(nab.source, first.target + (b,), out.reshape(-1, big))
    out = np.einsum("yb,xbe->yxe", second.matrix, out)
    return K0Map(nab.source, second.target + first.target, out.reshape(-1, big))


def _forms_report(name: str, params: dict, nu_form: tuple, tau_form: tuple) -> Report:
    """Report on an identity stated as (left, right) in the nu and tau forms;
    the side sizes are those of the nu form."""
    witnesses = _matrix_witnesses("nu_form", *nu_form) + _matrix_witnesses("tau_form", *tau_form)
    sizes = [int(np.count_nonzero(side.matrix)) for side in nu_form]
    return Report(name, params, *sizes, witnesses)


def verify_border_k0(m: int, n: int) -> Report:
    """Class-level border identity, in both the nu form and the tau form.

    nu form:  nabla(m,1,n) . nu = flip . (nu x nu) . nabla(n,n,m).
    tau form: same with tau = -nu on every translation and one extra global
    -1 for the shift on the right side; the two forms are equivalent and
    both are checked, certifying the sign bookkeeping.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    nab_left, nab_right = nabla_k0(m, 1, n), nabla_k0(n, n, m)
    return _forms_report(
        "border_k0",
        {"m": m, "n": n},
        (nab_left @ nu_k0(m + n - 1), _on_factors(nab_right, nu_k0(n), nu_k0(m))),
        (nab_left @ tau_k0(m + n - 1), _on_factors(nab_right, tau_k0(n), tau_k0(m)).scaled(-1)),
    )


def inner_k0_group(params: list[dict]) -> list[Report]:
    """Class-level inner identity, nu form and tau form, for the slots i of
    one (m, n), from one _nablas stack of the slots i and i - 1.

    nu form: nabla(m,i,n) . nu = (nu x id) . nabla(m,i-1,n); the tau form
    carries one -1 on each side, so it holds iff the nu form does.
    """
    if not params:
        return []
    m, n = params[0]["m"], params[0]["n"]
    require_slots(inner_slot, m, n, [d["i"] for d in params])
    slots = sorted({s for d in params for s in (d["i"] - 1, d["i"])})
    nab = dict(zip(slots, _nablas(m, slots, n)))
    return [
        _forms_report(
            "inner_k0",
            d,
            (nab[d["i"]] @ nu_k0(m + n - 1), _on_factors(nab[d["i"] - 1], nu_k0(m))),
            (nab[d["i"]] @ tau_k0(m + n - 1), _on_factors(nab[d["i"] - 1], tau_k0(m))),
        )
        for d in params
    ]


def verify_inner_k0(m: int, n: int, i: int) -> Report:
    """inner_k0_group on the one slot i."""
    return inner_k0_group([{"m": m, "n": n, "i": i}])[0]


def dias_axioms_group(params: list[dict]) -> list[Report]:
    """Brute-force the parallel and nested composition axioms on all basis
    elements, for whichever of the two each slot pair (i, j) of one
    (m, n, p) legally selects, over one (pair, a, b, c) grid of _compose.

    Parallel (families.parallel):
        (e_a o_j e_c) o_i e_b = (e_a o_i e_b) o_{j+n-1} e_c.
    Nested (families.nested):
        e_a o_i (e_b o_j e_c) = (e_a o_i e_b) o_{i+j-1} e_c.
    """
    if not params:
        return []
    m, n, p = params[0]["m"], params[0]["n"], params[0]["p"]
    if min(m, n, p) < 1:
        raise ValueError(f"need m, n, p >= 1, got m={m}, n={n}, p={p}")
    reports = []
    step = max(1, STACK_BYTES // (8 * m * n * p))  # bytes of a pair's int64 grid
    a, b, c = (x + 1 for x in np.indices((m, n, p), sparse=True))
    for chunk in (params[s : s + step] for s in range(0, len(params), step)):
        i, j = (np.array([d[key] for d in chunk]).reshape(-1, 1, 1, 1) for key in "ij")
        require_slots(parallel_or_nested, m, n, i, j)
        ab = _compose(i, n, a, b)  # e_a o_i e_b, both right sides start there
        axioms = [
            (_compose(i, n, _compose(j, p, a, c), b), _compose(j + n - 1, p, ab, c)),
            (_compose(i, n + p - 1, a, _compose(j, p, b, c)), _compose(i + j - 1, p, ab, c)),
        ]
        lhs, rhs = (np.stack(np.broadcast_arrays(*side), axis=-1) for side in zip(*axioms))
        selected = np.stack([parallel(m, n, i, j), nested(m, n, i, j)], axis=-1)
        found: list[list[Witness]] = [[] for _ in chunk]
        # argwhere runs (pair, a, b, c, axiom) row-major: parallel before nested
        for k, x, y, z, ax in np.argwhere((lhs != rhs) & selected).tolist():
            detail = f"{lhs[k, x, y, z, ax]} vs {rhs[k, x, y, z, ax]}"
            found[k].append(Witness(("parallel", "nested")[ax], (x + 1, y + 1, z + 1), detail))
        checks = (m * n * p * selected.reshape(len(chunk), 2)).tolist()
        reports += [Report("dias_axioms", d, *sizes, w) for d, sizes, w in zip(chunk, checks, found)]
    return reports


def dias_operad_axiom_check(m: int, n: int, p: int, i: int, j: int) -> Report:
    """dias_axioms_group on the one slot pair (i, j)."""
    return dias_axioms_group([{"m": m, "n": n, "p": p, "i": i, "j": j}])[0]


def dias_tau(n: int) -> K0Map:
    """The order-(n+1) map on the rank-n dual basis: the transpose of tau.

    In coordinates it sends f_k to f_{k-1} - f_n for k >= 2 and f_1 to
    -f_n; only the transpose relation and the order are relied upon.
    """
    return tau_k0(n).transposed()


def matrix_order(mp: K0Map, limit: int) -> int | None:
    """Smallest k in [1, limit] with mp**k = id, or None."""
    if mp.source != mp.target:
        raise ValueError("order needs equal source and target")
    acc = mp
    for k in range(1, limit + 1):
        if acc.is_identity():
            return k
        acc = acc @ mp
    return None


def tau_order_check(n: int) -> Report:
    """Both translation shadows have order exactly n+1 (n >= 2), and power
    n+1 is the identity for every n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    witnesses: list[Witness] = []
    for label, mp in (("tau", tau_k0(n)), ("dias_tau", dias_tau(n))):
        order = matrix_order(mp, n + 1)
        if order is None:
            witnesses.append(Witness(label, (n,), f"power {n + 1} is not the identity"))
        elif n >= 2 and order != n + 1:
            witnesses.append(Witness(label, (n,), f"order {order}, expected {n + 1}"))
    return Report("tau_order", {"n": n}, n, n, witnesses)
