"""Canonical operators on the 512-dimensional exterior algebra.

This module builds every operator the package reasons about, as concrete
sparse matrices over Q(i) in the monomial basis:

* wedge and contraction generators E_ij, I_ij;
* the structure operators L_j (wedge with the three distinguished
  two-forms), the block-volume wedges V_j, and the rotation derivations J_k;
* metric adjoints (plain and super), giving Lambda_j = L_j* and
  A_j = super-adjoint of V_j;
* the graded commutator, the Hodge conjugation phi -> * phi *, the natural
  permutation action on the block index, the toral operators H_j and K_lm,
  the weight-pattern decomposition of an operator, and the super adjoint
  of the graded Hilbert pairing (dagger).

An operator stores one form, its coordinate view: its entries sorted by
(column, row) as int64 row and column masks beside the real and imaginary
parts.  The parts are int64 arrays when every part is an int that fits,
and object arrays of ints and Fractions otherwise.  Every product and sum
(compose, +, -, superbracket), ``scale``, the adjoints, equality and the
zero test run on the view.  Products are one sparse join,
``_product_sum``, in int64 only when a bound proves every partial product
and cell sum exact, else on object arrays, so the arithmetic stays exact.
Every reader of the entries (``apply``, ``entry``, ``multidegree_shift``,
``kw_decompose``, ``supertrace``, ``dump_operator``) reads them off the
view; ``apply`` is the product with a one-column operator.  The wedge
operators L_j and V_j and the rotation triple are built once and shared,
and every operator caches its parity and int64 magnitude, so no operator
is mutated in place.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from .scalars import GaussRational, I, ONE, ZERO, _canon, _make, gauss
from . import forms
from .forms import (
    ABOVE,
    DIM,
    FULL_MASK,
    NPOS,
    Form,
    multidegree_of_mask,
    pos,
)

__all__ = [
    "Operator",
    "wedge_operator",
    "creation",
    "annihilation",
    "build_E",
    "build_I",
    "build_L",
    "build_V",
    "build_J",
    "identity",
    "zero_operator",
    "star_operator",
    "plain_adjoint",
    "super_adjoint",
    "dagger",
    "hodge_conjugate",
    "superbracket",
    "perm_operator",
    "s3_conjugate",
    "PERMUTATIONS",
    "perm_sign",
    "build_Lambda",
    "build_A",
    "build_H",
    "build_K",
    "standard_generators",
    "GENERATOR_NAMES",
    "sl2_triple",
    "serre_generators",
    "serre_check",
    "clifford_relations_report",
    "kw_pattern",
    "kw_form_weight",
    "kw_decompose",
    "supertrace",
    "dump_operator",
]


class _Coords(NamedTuple):
    """An operator's entries sorted by (column, row): int64 row and column
    masks, and the canonical re and im parts, both int64 arrays or both
    object arrays of ints and Fractions."""

    rows: np.ndarray
    cols: np.ndarray
    re: np.ndarray
    im: np.ndarray


_UNSET = object()  # a parity or magnitude not yet computed (None is a value)
_MASKS = np.arange(DIM, dtype=np.int64)
_MASK_PARITY = np.array([m.bit_count() & 1 for m in range(DIM)], dtype=np.int64)
_MULTIDEGREE = np.array([multidegree_of_mask(m) for m in range(DIM)], dtype=np.int64)
# int64 arithmetic is exact on values of magnitude below this
_LIMIT = 1 << 63


def _parts(re: list, im: list) -> tuple[np.ndarray, np.ndarray]:
    """Canonical parts as int64 arrays when each is an int of magnitude
    below 2^63 (so negation stays exact), else as object arrays."""
    if all(type(x) is int and -_LIMIT < x < _LIMIT for x in (*re, *im)):
        return np.array(re, dtype=np.int64), np.array(im, dtype=np.int64)
    return np.array(re, dtype=object), np.array(im, dtype=object)


def _entries(v: _Coords, which=slice(None)):
    """(row, col, GaussRational) of the view's entries picked by ``which``
    (a slice or a boolean mask), in view order."""
    return zip(v.rows[which].tolist(), v.cols[which].tolist(),
               map(_make, v.re[which].tolist(), v.im[which].tolist()))


def _cast(v: _Coords, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """v's parts, as object arrays of Python ints unless ``exact``, i.e.
    unless int64 arithmetic on them was proven exact."""
    if exact or v.re.dtype == object:
        return v.re, v.im
    return v.re.astype(object), v.im.astype(object)


class Operator:
    """Sparse linear map of the 512-dimensional algebra over Q(i).

    The one stored form is the ``_Coords`` view, ``coords()``: nonzero
    canonical values only, sorted by (column, row), which ``_product_sum``
    joins on.  The constructor takes the column-sparse mapping
    {input mask: {output mask: coeff}}; nothing keeps it.  ``parity()``,
    ``_magnitude()`` and ``_col_ptr()`` are computed once, which is sound
    because no operator is mutated after it is built.
    """

    __slots__ = ("_coords", "_parity", "_mag", "_ptr")

    def __init__(self, cols: Mapping[int, Mapping[int, GaussRational]] | None = None):
        # (c, r) pairs are distinct, so the sort never compares values
        cells = sorted((c, r, v) for c, col in (cols or {}).items() for r, v in col.items() if v)
        cs, rows, vals = zip(*cells) if cells else ((), (), ())
        self._coords = _Coords(np.array(rows, dtype=np.int64), np.array(cs, dtype=np.int64),
                               *_parts([v.re for v in vals], [v.im for v in vals]))
        self._parity = self._mag = self._ptr = _UNSET

    @classmethod
    def _from_coords(cls, coords: _Coords) -> "Operator":
        """An Operator over a coordinate view as it is: sorted by (column,
        row), canonical and with no zero value, since nothing is checked."""
        op = object.__new__(cls)
        op._coords = coords
        op._parity = op._mag = op._ptr = _UNSET
        return op

    def coords(self) -> _Coords:
        """The entries sorted by (column, row)."""
        return self._coords

    def _magnitude(self) -> int | None:
        """P = max|re| + max|im| as an exact int, None for object parts;
        computed once."""
        if self._mag is _UNSET:
            v = self._coords
            if v.re.dtype == object:
                self._mag = None
            else:
                self._mag = sum(max(int(x.max()), -int(x.min())) for x in (v.re, v.im)) if len(v.re) else 0
        return self._mag

    def _col_ptr(self) -> np.ndarray:
        """Column pointers: column c's entries are the view's entries
        ptr[c] to ptr[c + 1] - 1, for c in 0..DIM - 1; computed once, as
        int32 (an operator has at most DIM * DIM = 262144 entries)."""
        if self._ptr is _UNSET:
            self._ptr = np.searchsorted(self._coords.cols, np.arange(DIM + 1)).astype(np.int32)
        return self._ptr

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "Operator") -> "Operator":
        return _product_sum(((1, self, None), (1, other, None)))

    def __sub__(self, other: "Operator") -> "Operator":
        return _product_sum(((1, self, None), (-1, other, None)))

    def __neg__(self) -> "Operator":
        return self.scale(-1)

    def scale(self, s) -> "Operator":
        """s * self, in int64 when P * (|s.re| + |s.im|) < 2^63 for
        integral s; s * v != 0 for v != 0, so no entry vanishes."""
        s = gauss(s)
        v = self._coords
        if not s or not self:
            return Operator()
        pa = self._magnitude()
        exact = pa is not None and type(s.re) is type(s.im) is int and pa * (abs(s.re) + abs(s.im)) < _LIMIT
        p, q = _cast(v, exact)
        return _from_sums(v.rows, v.cols, s.re * p - s.im * q, s.re * q + s.im * p)

    def __mul__(self, other):
        if isinstance(other, Operator):
            return self.compose(other)
        return self.scale(other)

    __rmul__ = scale

    def compose(self, other: "Operator") -> "Operator":
        """self after other (matrix product self @ other)."""
        return _product_sum(((1, self, other),))

    def apply(self, f: Form) -> Form:
        """self(f): the product with the one-column operator of f, read
        back off the result's view."""
        v = self.compose(Operator({0: f.coeffs})).coords()
        return Form({r: z for r, _, z in _entries(v)})

    def __call__(self, f: Form) -> Form:
        return self.apply(f)

    # -- structure queries ----------------------------------------------------

    def entry(self, row: int, col: int) -> GaussRational:
        v = self._coords
        lo, hi = np.searchsorted(v.cols, (col, col + 1))
        return next((z for r, _, z in _entries(v, slice(lo, hi)) if r == row), ZERO)

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        return len(self._coords.rows) > 0

    def __eq__(self, other) -> bool:
        """Equal views: canonical values make equality entrywise."""
        if not isinstance(other, Operator):
            return False
        x, y = self._coords, other._coords
        return len(x.rows) == len(y.rows) and all(map(np.array_equal, x, y))

    def __hash__(self):
        raise TypeError("Operator is unhashable")

    def parity(self) -> int | None:
        """0 for even, 1 for odd, None for mixed or zero-without-meaning;
        computed once."""
        if self._parity is _UNSET:
            v = self.coords()
            d = _MASK_PARITY[v.rows] ^ _MASK_PARITY[v.cols]
            self._parity = int(d[0]) if len(d) and d.min() == d.max() else None
        return self._parity

    def multidegree_shift(self) -> tuple[int, int, int] | None:
        """Common (da, db, dc) of all entries, or None if mixed or zero."""
        v = self._coords
        d = _MULTIDEGREE[v.rows] - _MULTIDEGREE[v.cols]
        return tuple(d[0].tolist()) if len(d) and (d == d[0]).all() else None

    def nnz(self) -> int:
        return len(self._coords.rows)

    def __repr__(self):
        return f"<Operator nnz={self.nnz()} parity={self.parity()}>"


def _product_sum(terms) -> Operator:
    """The sum of sgn * (a @ b) over the terms (sgn, a, b), sgn = +1 or -1;
    b = None stands for the identity, so (sgn, a, None) adds sgn * a.

    One sparse join on the coordinate views: each entry (mid, c) of b meets
    the entries of a in column mid, found by a's column pointers
    (``_col_ptr``), and each meeting is one partial product (r, c).  The partial
    products of all terms are sorted on col * DIM + row and summed per cell
    with ``np.add.reduceat``.  Each partial product part is at most
    P_a * P_b in magnitude (P = max|re| + max|im| of an operand, 1 for the
    identity), and a cell gets at most n_t = min(#products, DIM) of them
    per term.  So when every view is int64 and the sum over terms of
    n_t * P_a * P_b is below 2^63, every product and partial cell sum is
    exact in int64; otherwise the parts are summed as ints and Fractions in
    object arrays.  Exact zeros are dropped and the arrays become the
    result's view.
    """
    joins = []
    bound: int | None = 0
    for sgn, a, b in terms:
        x = a._coords
        if b is None:
            y, i, j, pb = None, None, None, 1
            n = len(x.rows)
        else:
            y = b._coords
            ptr = a._col_ptr()
            lo = ptr[y.rows].astype(np.intp)  # int32 pointers, int64 arithmetic
            hits = ptr[y.rows + 1] - lo
            j = np.repeat(np.arange(len(hits)), hits)
            i = np.arange(len(j)) + np.repeat(lo - (np.cumsum(hits) - hits), hits)
            n, pb = len(j), b._magnitude()
        pa = a._magnitude()
        bound = None if None in (bound, pa, pb) else bound + min(n, DIM) * pa * pb
        joins.append((sgn, x, y, i, j))
    exact = bound is not None and bound < _LIMIT
    parts = []
    for sgn, x, y, i, j in joins:
        p, q = _cast(x, exact)
        if y is None:
            rows, cols, re, im = x.rows, x.cols, p, q
        else:
            s, t = _cast(y, exact)
            rows, cols = x.rows[i], y.cols[j]
            p, q, s, t = p[i], q[i], s[j], t[j]
            re, im = p * s - q * t, p * t + q * s
        if sgn < 0:
            re, im = -re, -im
        parts.append((rows, cols, re, im))
    rows, cols, re, im = (np.concatenate(z) for z in zip(*parts))
    if not len(rows):
        return Operator._from_coords(_Coords(rows, cols, re, im))
    key = cols * DIM + rows
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    re = np.add.reduceat(re[order], first)
    im = np.add.reduceat(im[order], first)
    keep = (re != 0) | (im != 0)
    cols, rows = np.divmod(key[first[keep]], DIM)
    return _from_sums(rows, cols, re[keep], im[keep])


def _from_sums(rows, cols, re, im) -> Operator:
    """The Operator over entries sorted by (column, row) whose re and im
    parts are exact sums, not both zero: object parts (ints and Fractions)
    are made canonical once, int64 parts are canonical ints already, and
    the arrays become its coordinate view."""
    if re.dtype == object:
        re = np.array(list(map(_canon, re.tolist())), dtype=object)
        im = np.array(list(map(_canon, im.tolist())), dtype=object)
    return Operator._from_coords(_Coords(rows, cols, re, im))


def zero_operator() -> Operator:
    return Operator()


def identity() -> Operator:
    return Operator({m: {m: ONE} for m in range(DIM)})


def creation(p: int) -> Operator:
    """Wedge with the basis one-form at position p."""
    return wedge_operator(forms.monomial(1 << p))


def annihilation(p: int) -> Operator:
    """Contraction with the vector dual to position p: v_m -> s v_(m ^ bit)
    for each m holding p, with v_p ^ v_(m ^ bit) = s v_m, as in
    ``forms.contract``."""
    bit = 1 << p
    m = _MASKS[(_MASKS & bit) != 0]
    sign = 1 - 2 * _MASK_PARITY[m & ABOVE[bit]]
    return Operator._from_coords(_Coords(m ^ bit, m, sign, np.zeros_like(sign)))


def build_E(i: int, j: int) -> Operator:
    return creation(pos(i, j))


def build_I(i: int, j: int) -> Operator:
    return annihilation(pos(i, j))


def wedge_operator(f: Form) -> Operator:
    """Left wedge with a fixed form, built as a coordinate view: a term
    z v_a sends each v_m with m disjoint from a to +-z v_(a|m), with the
    sign of v_a ^ v_m read off ``forms.ABOVE``.  Distinct terms give
    distinct rows in a column, so nothing is summed."""
    if not f:
        return Operator()
    terms = list(f.coeffs.items())
    zr, zi = _parts([z.re for _, z in terms], [z.im for _, z in terms])
    pieces = []
    for t, (a, _) in enumerate(terms):
        m = _MASKS[(_MASKS & a) == 0]
        neg = _MASK_PARITY[m & ABOVE[a]] == 1
        z = slice(t, t + 1)  # a slice keeps the parts' dtype
        pieces.append((m | a, m, np.where(neg, -zr[z], zr[z]), np.where(neg, -zi[z], zi[z])))
    rows, cols, re, im = (np.concatenate(z) for z in zip(*pieces))
    order = np.argsort(cols * DIM + rows, kind="stable")
    return Operator._from_coords(_Coords(rows[order], cols[order], re[order], im[order]))


@lru_cache(maxsize=3)
def build_L(j: int) -> Operator:
    """L_0 = omegaD ^ ., L_1 = -omega2 ^ ., L_2 = omega1 ^ .  Built once per
    j; callers share the operator and must not mutate it."""
    if j == 0:
        return wedge_operator(forms.omegaD())
    if j == 1:
        return wedge_operator(forms.omega2()).scale(-1)
    if j == 2:
        return wedge_operator(forms.omega1())
    raise ValueError(f"L index out of range: {j}")


@lru_cache(maxsize=3)
def build_V(j: int) -> Operator:
    """Wedge with the block volume Vol(W_j) = v_1j ^ v_2j ^ v_3j.  Built once
    per j; callers share the operator and must not mutate it."""
    if j not in (0, 1, 2):
        raise ValueError(f"V index out of range: {j}")
    return wedge_operator(forms.block_volume(j))


_J_ACTION = {
    # k -> {source i: (target i, sign)}
    1: {2: (3, 1), 3: (2, -1)},
    2: {3: (1, 1), 1: (3, -1)},
    3: {1: (2, 1), 2: (1, -1)},
}


def build_J(k: int) -> Operator:
    """Rotation generators, extended to the whole algebra as even
    derivations: J(v ^ w) = J(v) ^ w + v ^ J(w).  The one-form map
    v_ij -> s v_i'j extends as the derivation s E_i'j I_ij, so J_k is the
    sum of six such products."""
    if k not in (1, 2, 3):
        raise ValueError(f"J index out of range: {k}")
    return _product_sum(tuple((sgn, build_E(i2, j), build_I(i, j))
                              for j in range(3) for i, (i2, sgn) in _J_ACTION[k].items()))


@lru_cache(maxsize=1)
def star_operator() -> Operator:
    return Operator(
        {m: {FULL_MASK ^ m: ONE if forms.star_sign(m) > 0 else -ONE} for m in range(DIM)}
    )


# -- adjoints -------------------------------------------------------------------


def plain_adjoint(phi: Operator) -> Operator:
    """Conjugate transpose in the orthonormal monomial basis."""
    return _conjugate_transpose(phi, False)


def super_adjoint(phi: Operator) -> Operator:
    """Adjoint twisted by the parity of the first argument:

        (phi(a), b) = (-1)^{|phi| deg(a)} (a, phi_star(b)).

    Entrywise: phi_star[r, c] = (-1)^{|phi| deg(r)} conj(phi[c, r]).
    Requires definite parity; an involution on even operators and a
    square root of -Id on odd ones.
    """
    par = phi.parity()
    if par is None:
        raise ValueError("super_adjoint needs an operator of definite parity")
    return _conjugate_transpose(phi, par == 1)


def _conjugate_transpose(phi: Operator, twist: bool) -> Operator:
    """conj(phi[c, r]) at (r, c), negated on the rows r of odd degree when
    twist is set; re-sorted on the coordinate view, so no cell is touched
    in Python."""
    v = phi.coords()
    order = np.argsort(v.rows * DIM + v.cols, kind="stable")
    rows, cols, re, im = v.cols[order], v.rows[order], v.re[order], -v.im[order]
    if twist:
        odd = _MASK_PARITY[rows] == 1
        re, im = np.where(odd, -re, re), np.where(odd, -im, im)
    return Operator._from_coords(_Coords(rows, cols, re, im))


def dagger(phi: Operator) -> Operator:
    """Super adjoint for the graded Hilbert pairing <x,y> (equal to (x,y)
    on even pairs, i(x,y) on odd pairs, 0 across parity).

    Reduces to the plain adjoint on even operators and to -i times the
    plain adjoint on odd ones.
    """
    par = phi.parity()
    if par is None:
        raise ValueError("dagger needs an operator of definite parity")
    adj = plain_adjoint(phi)
    return adj if par == 0 else adj.scale(-I)


def hodge_conjugate(phi: Operator) -> Operator:
    """star . phi . star"""
    s = star_operator()
    return s.compose(phi).compose(s)


def superbracket(phi: Operator, psi: Operator) -> Operator:
    """Graded commutator phi psi - (-1)^{|phi||psi|} psi phi."""
    p1, p2 = phi.parity(), psi.parity()
    if p1 is None or p2 is None:
        raise ValueError("superbracket needs operators of definite parity")
    return _product_sum(((1, phi, psi), (1 if (p1 and p2) else -1, psi, phi)))


# -- permutation action on the block index -----------------------------------

PERMUTATIONS: tuple[tuple[int, int, int], ...] = (
    (0, 1, 2),
    (1, 0, 2),
    (2, 1, 0),
    (0, 2, 1),
    (1, 2, 0),
    (2, 0, 1),
)


def perm_sign(sigma: tuple[int, int, int]) -> int:
    inv = sum(
        1
        for x in range(3)
        for y in range(x + 1, 3)
        if sigma[x] > sigma[y]
    )
    return -1 if inv & 1 else 1


def perm_operator(sigma: tuple[int, int, int]) -> Operator:
    """v_ij -> v_{i, sigma(j)} extended multiplicatively (a signed
    permutation of the basis monomials)."""
    cols = {}
    for m in range(DIM):
        positions = [p for p in range(NPOS) if m >> p & 1]
        mapped = [3 * sigma[p // 3] + p % 3 for p in positions]
        target = 0
        for p in mapped:
            target |= 1 << p
        inv = sum(
            1
            for x in range(len(mapped))
            for y in range(x + 1, len(mapped))
            if mapped[x] > mapped[y]
        )
        cols[m] = {target: ONE if inv % 2 == 0 else -ONE}
    return Operator(cols)


def s3_conjugate(sigma: tuple[int, int, int], phi: Operator) -> Operator:
    p = perm_operator(sigma)
    inv = tuple(sigma.index(j) for j in range(3))
    return p.compose(phi).compose(perm_operator(inv))  # type: ignore[arg-type]


# -- derived canonical operators ----------------------------------------------


def build_Lambda(j: int) -> Operator:
    """Lambda_j, the (super = plain, since L_j is even) adjoint of L_j."""
    return super_adjoint(build_L(j))


def build_A(j: int) -> Operator:
    """A_j, the super adjoint of the odd wedge operator V_j."""
    return super_adjoint(build_V(j))


def build_H(j: int) -> Operator:
    """H_j = [i Lambda_j, i L_j]."""
    return superbracket(build_Lambda(j).scale(I), build_L(j).scale(I))


def build_K(l: int, m: int) -> Operator:
    """K_lm = [i V_l, A_m]."""
    return superbracket(build_V(l).scale(I), build_A(m))


GENERATOR_NAMES = (
    "iL0", "iL1", "iL2",
    "iLambda0", "iLambda1", "iLambda2",
    "iV0", "iV1", "iV2",
    "A0", "A1", "A2",
)


def standard_generators() -> dict[str, Operator]:
    """The twelve generators in their fixed seeding order."""
    gens: dict[str, Operator] = {}
    for j in range(3):
        gens[f"iL{j}"] = build_L(j).scale(I)
    for j in range(3):
        gens[f"iLambda{j}"] = build_Lambda(j).scale(I)
    for j in range(3):
        gens[f"iV{j}"] = build_V(j).scale(I)
    for j in range(3):
        gens[f"A{j}"] = build_A(j)
    return gens


# -- weight operators ------------------------------------------------------------


@lru_cache(maxsize=1)
def sl2_triple() -> tuple[Operator, Operator, Operator]:
    """Raising/lowering/Cartan triple of the rotation action:
    e = iJ1 - J2, f = iJ1 + J2, h = 2iJ3.  Built once; callers share the
    operators and must not mutate them."""
    j1, j2, j3 = build_J(1), build_J(2), build_J(3)
    e = j1.scale(I) - j2
    f = j1.scale(I) + j2
    h = j3.scale(GaussRational(0, 2))
    return e, f, h


def serre_generators() -> dict[str, Operator]:
    """Chevalley generators of the even algebra, one triple per node of the
    A3 diagram:

        e1 = [L0, Lambda1]   f1 = [L1, Lambda0]   h1 = [e1, f1]
        e2 = [L1, Lambda2]   f2 = [L2, Lambda1]   h2 = [e2, f2]
        e3 = L2              f3 = Lambda2         h3 = [e3, f3]
    """
    L = [build_L(j) for j in range(3)]
    Lam = [build_Lambda(j) for j in range(3)]
    g = {
        "e1": superbracket(L[0], Lam[1]),
        "f1": superbracket(L[1], Lam[0]),
        "e2": superbracket(L[1], Lam[2]),
        "f2": superbracket(L[2], Lam[1]),
        "e3": L[2],
        "f3": Lam[2],
    }
    for k in (1, 2, 3):
        g[f"h{k}"] = superbracket(g[f"e{k}"], g[f"f{k}"])
    return g


_CARTAN_A3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))


def serre_check() -> dict:
    """Verify the A3 Chevalley-Serre presentation of the even algebra and
    the sl2 relations of the rotation triple.  Returns a report dict with
    a 'failures' list naming each violated identity."""
    g = serre_generators()
    failures: list[str] = []
    checks = 0

    def expect_zero(op: Operator, name: str):
        nonlocal checks
        checks += 1
        if op:
            failures.append(name)

    for k in (1, 2, 3):
        for l in (1, 2, 3):
            expect_zero(superbracket(g[f"h{k}"], g[f"h{l}"]), f"[h{k},h{l}] != 0")
            expected = g[f"h{k}"] if k == l else zero_operator()
            expect_zero(
                superbracket(g[f"e{k}"], g[f"f{l}"]) - expected,
                f"[e{k},f{l}] != {'h%d' % k if k == l else '0'}",
            )
            a = _CARTAN_A3[k - 1][l - 1]
            expect_zero(
                superbracket(g[f"h{k}"], g[f"e{l}"]) - g[f"e{l}"].scale(a),
                f"[h{k},e{l}] != {a}*e{l}",
            )
            expect_zero(
                superbracket(g[f"h{k}"], g[f"f{l}"]) - g[f"f{l}"].scale(-a),
                f"[h{k},f{l}] != {-a}*f{l}",
            )
            if k != l:
                n = 1 - a
                for sym in ("e", "f"):
                    ad = g[f"{sym}{l}"]
                    for _ in range(n):
                        ad = superbracket(g[f"{sym}{k}"], ad)
                    expect_zero(ad, f"ad({sym}{k})^{n}({sym}{l}) != 0")

    e, f, h = sl2_triple()
    expect_zero(superbracket(h, e) - e.scale(2), "[h,e] != 2e (rotation triple)")
    expect_zero(superbracket(h, f) - f.scale(-2), "[h,f] != -2f (rotation triple)")
    expect_zero(superbracket(e, f) - h, "[e,f] != h (rotation triple)")
    w10 = forms.w_form(1, 0)
    checks += 1
    if h.apply(w10) - w10.scale(2):
        failures.append("h(w10) != 2*w10")

    return {"checks": checks, "failures": failures, "pass": not failures}


def clifford_relations_report() -> dict:
    """Exhaustive check of the creation/annihilation relations.

    Families:
      * E_ij E_kl + E_kl E_ij = 0 for all 81 pairs, and likewise for I;
      * E_ij I_ij + I_ij E_ij = Id for all 9 indices;
      * E_ij I_kl + I_kl E_ij = 0 for the 72 mixed pairs;
      * plain adjoint exchanges E and I.

    The report also records which adjoint (plain or super) satisfies the
    exchange, since the two differ by entrywise signs on odd rows.
    """
    E = {(i, j): build_E(i, j) for i in (1, 2, 3) for j in (0, 1, 2)}
    Iops = {(i, j): build_I(i, j) for i in (1, 2, 3) for j in (0, 1, 2)}
    idx = sorted(E)
    ident = identity()
    failures: list[str] = []
    checks = 0

    def anti(a: Operator, b: Operator) -> Operator:
        return _product_sum(((1, a, b), (1, b, a)))

    for x in idx:
        for y in idx:
            checks += 2
            if anti(E[x], E[y]):
                failures.append(f"E{x}E{y} + E{y}E{x} != 0")
            if anti(Iops[x], Iops[y]):
                failures.append(f"I{x}I{y} + I{y}I{x} != 0")
            checks += 1
            if x == y:
                if anti(E[x], Iops[x]) != ident:
                    failures.append(f"E{x}I{x} + I{x}E{x} != Id")
            else:
                if anti(E[x], Iops[y]):
                    failures.append(f"E{x}I{y} + I{y}E{x} != 0")

    plain_ok = all(plain_adjoint(E[x]) == Iops[x] for x in idx)
    super_ok = all(super_adjoint(E[x]) == Iops[x] for x in idx)
    checks += 1
    if not plain_ok:
        failures.append("plain adjoint does not exchange E and I")
    return {
        "checks": checks,
        "failures": failures,
        "pass": not failures,
        "adjoint_exchange": {"plain": plain_ok, "super": super_ok},
    }


# -- weight patterns ----------------------------------------------------------


def kw_pattern(md: tuple[int, int, int]) -> tuple[int, int, int]:
    """Block occupancy pattern (d_{a,0} - d_{a,3}, ...) of a multidegree:
    +1 on an empty block, -1 on a full one, 0 in between."""
    return tuple((1 if x == 0 else 0) - (1 if x == 3 else 0) for x in md)  # type: ignore[return-value]


_PATTERN = np.array([kw_pattern(multidegree_of_mask(m)) for m in range(DIM)], dtype=np.int64)


def kw_form_weight(mask: int) -> tuple[GaussRational, GaussRational, GaussRational]:
    """Simultaneous K_mm eigenvalue triple of a basis monomial:
    i * (-1)^degree * pattern, valued in {0, +i, -i}."""
    sgn = -1 if mask.bit_count() & 1 else 1
    pat = kw_pattern(multidegree_of_mask(mask))
    return tuple(GaussRational(0, sgn * t) for t in pat)  # type: ignore[return-value]


def kw_decompose(phi: Operator) -> dict[tuple[GaussRational, ...], Operator]:
    """Split an operator by the occupancy-pattern weight of its entries.

    The bucket of an entry col -> row is i*(pattern(row) - pattern(col)),
    using the multidegree patterns alone.  The buckets sum to the operator.
    On forms of even degree a bucket of weight z is an ad(K_mm) eigenvector
    of eigenvalue z_m, and of eigenvalue -z_m on odd degree; each explicit
    basis the package restricts to has a single degree parity, so on those
    spaces the buckets are genuine simultaneous eigencomponents.
    """
    v = phi.coords()
    d = _PATTERN[v.rows] - _PATTERN[v.cols]
    # one code per weight, each component in -2..2; buckets in order of first entry
    code = (d + 2) @ np.array([25, 5, 1])
    _, first = np.unique(code, return_index=True)
    out = {}
    for i in sorted(first.tolist()):
        keep = code == code[i]
        key = tuple(GaussRational(0, x) for x in d[i].tolist())
        out[key] = Operator._from_coords(_Coords(*(x[keep] for x in v)))
    return out


def supertrace(phi: Operator) -> GaussRational:
    """Trace on even-degree monomials minus trace on odd-degree ones."""
    v = phi.coords()
    acc = ZERO
    for c, _, z in _entries(v, v.rows == v.cols):
        acc = acc + (z if c.bit_count() % 2 == 0 else -z)
    return acc


def dump_operator(phi: Operator) -> list[tuple[int, int, str]]:
    """Sorted (row_mask, col_mask, scalar) triples, for golden tests."""
    return sorted((r, c, str(z)) for r, c, z in _entries(phi.coords()))
