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

from .families import s_support
from .reports import Report, Witness
from .supports import PLAIN, Axis, Shape, Support, contract

BasisDesc = tuple[int, ...]


def _basis_size(desc: BasisDesc) -> int:
    return math.prod(desc)


@dataclass
class K0Map:
    """Integer matrix between simple-class bases, with basis descriptors.
    The matrix is a private read-only copy of the one given, so a map can
    be shared, as the caches of nabla_k0, nu_k0 and tau_k0 share theirs."""

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

    @classmethod
    def identity(cls, desc: BasisDesc) -> "K0Map":
        return cls(desc, desc, np.eye(_basis_size(tuple(desc)), dtype=np.int64))

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


@functools.lru_cache(maxsize=1024)
def nabla_k0(m: int, i: int, n: int) -> K0Map:
    """Matrix of the slot-insertion functor on classes.

    Column j is the class of the image of the j-th simple, computed from
    the images of projectives via the two-term resolution
    S_j = P_j - P_{j+1} (with P_{m+n} = 0).  The projectives [j, m+n-1]
    are stacked along a leading plain index axis, so one contraction with
    s_support(m, i, n) gives their images as the rows of its mask.  Cached:
    callers share one map per argument triple.
    """
    if not 1 <= i <= m:
        raise ValueError(f"need 1 <= i <= m, got i={i}, m={m}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    big = m + n - 1
    # row j - 1 of the mask is the projective [j, big]: set where j <= c
    stacked = Support(Shape((Axis(big), Axis(big))), np.triu(np.ones((big, big), dtype=bool)))
    proj = contract(stacked, 1, s_support(m, i, n), 0).mask.reshape(big, m * n).astype(np.int64)
    return K0Map((big,), (m, n), -np.diff(proj, axis=0, append=0).T)


def dias_compose(m: int, i: int, n: int, j: int, k: int) -> int:
    """Basis index of the composition e_j at slot i with e_k."""
    if not 1 <= i <= m:
        raise ValueError(f"need 1 <= i <= m, got i={i}, m={m}")
    if not 1 <= j <= m:
        raise ValueError(f"need 1 <= j <= m, got j={j}, m={m}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if i > j:
        return j
    if i == j:
        return i + k - 1
    return j + n - 1


def dias_compose_matrix(m: int, i: int, n: int) -> K0Map:
    """The 0/1 matrix of composition at slot i, from basis (j, k) row-major."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    if not 1 <= i <= m:
        raise ValueError(f"need 1 <= i <= m, got i={i}, m={m}")
    mat = np.zeros((m + n - 1, m * n), dtype=np.int64)
    mat[np.ravel(_compose_table(m, i, n)) - 1, np.arange(m * n)] = 1
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
    matching injective class, in the simple basis.  Cached, like nabla_k0.
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


def verify_inner_k0(m: int, n: int, i: int) -> Report:
    """Class-level inner identity, nu form and tau form.

    nu form: nabla(m,i,n) . nu = (nu x id) . nabla(m,i-1,n); the tau form
    carries one -1 on each side, so it holds iff the nu form does.
    """
    if not 2 <= i <= m:
        raise ValueError(f"need 2 <= i <= m, got i={i}, m={m}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    nab_left, nab_right = nabla_k0(m, i, n), nabla_k0(m, i - 1, n)
    return _forms_report(
        "inner_k0",
        {"m": m, "n": n, "i": i},
        (nab_left @ nu_k0(m + n - 1), _on_factors(nab_right, nu_k0(m))),
        (nab_left @ tau_k0(m + n - 1), _on_factors(nab_right, tau_k0(m))),
    )


@functools.lru_cache(maxsize=1024)
def _compose_table(m: int, i: int, n: int) -> tuple[tuple[int, ...], ...]:
    """dias_compose(m, i, n, j, k) at [j - 1][k - 1]; cached per process."""
    return tuple(
        tuple([dias_compose(m, i, n, j, k) for k in range(1, n + 1)]) for j in range(1, m + 1)
    )


def dias_operad_axiom_check(m: int, n: int, p: int, i: int, j: int) -> Report:
    """Brute-force the parallel and nested composition axioms on all basis
    elements, for whichever of the two the slot pair (i, j) legally selects.
    Both sides are read from tables of dias_compose.

    Parallel (needs i < j <= m):
        (e_a o_j e_c) o_i e_b = (e_a o_i e_b) o_{j+n-1} e_c.
    Nested (needs i <= m, j <= n):
        e_a o_i (e_b o_j e_c) = (e_a o_i e_b) o_{i+j-1} e_c.
    """
    if min(m, n, p) < 1:
        raise ValueError(f"need m, n, p >= 1, got {m}, {n}, {p}")
    if i < 1:
        raise ValueError(f"need i >= 1, got i={i}")
    parallel = i < j <= m
    nested = i <= m and 1 <= j <= n
    if not (parallel or nested):
        raise ValueError(
            f"slots i={i}, j={j} select neither the parallel (i<j<=m) nor the "
            f"nested (i<=m, j<=n) axiom for m={m}, n={n}"
        )
    first = _compose_table(m, i, n)
    if parallel:
        p_in, p_out = _compose_table(m, j, p), _compose_table(m + p - 1, i, n)
        p_after = _compose_table(m + n - 1, j + n - 1, p)
    if nested:
        n_in, n_out = _compose_table(n, j, p), _compose_table(m, i, n + p - 1)
        n_after = _compose_table(m + n - 1, i + j - 1, p)
    witnesses: list[Witness] = []
    for a in range(m):
        for b in range(n):
            ab = first[a][b] - 1  # e_a o_i e_b, both right sides start there
            for c in range(p):
                if parallel:
                    lhs, rhs = p_out[p_in[a][c] - 1][b], p_after[ab][c]
                    if lhs != rhs:
                        witnesses.append(Witness("parallel", (a + 1, b + 1, c + 1), f"{lhs} vs {rhs}"))
                if nested:
                    lhs, rhs = n_out[a][n_in[b][c] - 1], n_after[ab][c]
                    if lhs != rhs:
                        witnesses.append(Witness("nested", (a + 1, b + 1, c + 1), f"{lhs} vs {rhs}"))
    checks = m * n * p
    params = {"m": m, "n": n, "p": p, "i": i, "j": j}
    return Report("dias_axioms", params, checks if parallel else 0, checks if nested else 0, witnesses)


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
