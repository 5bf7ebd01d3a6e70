"""Decomposition of the algebra under the rotation sl2 triple.

The raising/lowering/Cartan operators e, f, h of the rotation action
preserve both the form degree and the block multidegree, so every kernel
and eigenspace computation splits into the 64 multidegree classes (of
dimension at most 27) and stays exact over Q(i).

A highest-weight vector of type k is killed by e and has h-eigenvalue 2k;
HW_k collects them across all degrees, split into even and odd form degree.
Each class eliminates e's rows once and takes its kernel K; since
[h, e] = 2e, h maps K into itself, so every type is solved on the small
matrix of h in K's free-column coordinates and mapped back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .scalars import GaussRational, ONE, ZERO, _make, _quotient
from .forms import DIM, Form, multidegree_of_mask
from .linalg import SparseEchelon, _sub_scaled
from .operators import _MULTIDEGREE, Operator, _Coords, _entries, _product_sum, sl2_triple

__all__ = [
    "multidegree_classes",
    "IsotypicalTable",
    "isotypical_table",
    "HWSpace",
    "highest_weight_space",
    "SpanSolver",
    "basis_operator",
    "SpaceEscape",
    "restrict_operator",
    "HW_DIMS",
    "HW_HALF_DIMS",
]

# column totals of the multiplicity table and their parity splits
HW_DIMS = (40, 72, 40, 8)
HW_HALF_DIMS = (20, 36, 20, 4)

# a restricted matrix: its nonzero entries only, keyed (row, column)
_BlockMat = dict[tuple[int, int], GaussRational]

_BINOM9 = (1, 9, 36, 84, 126, 126, 84, 36, 9, 1)

# the types computed, 0..4, and the types the table holds, 0..3: type 4
# is computed only to show it is absent
_TYPES = range(5)
_TABLE_TYPES = range(4)


# each mask's index in _CLASSES, the multidegree classes in increasing order
_CLASS_ARRAY, _MASK_CLASS = np.unique(_MULTIDEGREE, axis=0, return_inverse=True)
_CLASSES = list(map(tuple, _CLASS_ARRAY.tolist()))


@lru_cache(maxsize=1)
def multidegree_classes() -> dict[tuple[int, int, int], list[int]]:
    """Masks grouped by (a, b, c), each list in increasing mask order."""
    classes: dict[tuple[int, int, int], list[int]] = {}
    for m, i in enumerate(_MASK_CLASS.tolist()):
        classes.setdefault(_CLASSES[i], []).append(m)
    return classes


def _class_rows(op: Operator) -> dict[tuple[int, int, int], dict[int, dict[int, GaussRational]]]:
    """The rows {output mask: {input mask: coeff}} of an operator that
    preserves every multidegree class, grouped by class in one pass over
    its entries."""
    v = op.coords()
    cls = _MASK_CLASS[v.cols]
    if (_MASK_CLASS[v.rows] != cls).any():
        raise ValueError("operator leaves the multidegree class")
    out: dict = {}
    for i, (r, c, x) in zip(cls.tolist(), _entries(v)):
        out.setdefault(_CLASSES[i], {}).setdefault(r, {})[c] = x
    return out


@lru_cache(maxsize=1)
def _hw_class_vectors_by_type() -> tuple[list[tuple[tuple[int, int, int], list[Form]]], ...]:
    """Per type k in ``_TYPES`` and multidegree class, the basis of
    ker(e) with h-eigenvalue 2k that is the free-column kernel of e's rows
    stacked on the rows of h - 2k, with the masks of the class as columns.

    Each class takes the free-column kernel K of e once: one vector v_f per
    free column f, 1 at f, 0 at every other free column and otherwise
    supported on pivots below f, so f is its largest key.  Since
    [h, e] = 2e, h maps ker(e) into itself, so h v_f = sum_f' H[f', f] v_f'
    with H[f', f] = (h v_f)[f'] read at K's free columns; one exact check,
    h B_K = B_K H for the operator B_K whose column f is v_f, confirms it.
    Per k, each vector c of the free-column kernel of H - 2k maps to
    w = sum_f c_f v_f, keys in increasing mask order.  c is 1 at its own
    free column g and 0 at the others, and its support is g plus pivots
    below g, so w lies in ker(e) and ker(h - 2k), is 1 at g, 0 at every
    other free column of H - 2k and has largest key g.  Every nonzero
    vector of the intersection then has its largest key at one of those
    free columns, so such a reverse-reduced basis is unique: it is the
    stacked system's free-column kernel, value for value."""
    e, _, h = sl2_triple()
    e_rows = _class_rows(e)
    kernels = {}
    for md, masks in sorted(multidegree_classes().items()):
        # any order gives the same echelon; decreasing output masks
        # leave about half the elimination work of the view's order
        rows = e_rows.get(md, {})
        ech = SparseEchelon()
        for r in sorted(rows, reverse=True):
            ech.insert(rows[r])
        kern = ech.kernel(masks)
        if kern:
            # v_f's largest key is its free column f
            kernels[md] = {max(v): v for v in kern}
    basis = Operator({f: v for kern in kernels.values() for f, v in kern.items()})
    image = h.compose(basis)
    free = np.zeros(DIM, dtype=bool)
    free[basis.coords().cols] = True
    iv = image.coords()
    keep = free[iv.rows]
    hmat = Operator._from_coords(iv._make(a[keep] for a in iv))
    if basis.compose(hmat) != image:
        raise ValueError("h does not map ker(e) into itself")
    h_rows = _class_rows(hmat)
    out = tuple([] for _ in _TYPES)
    for md, kern in kernels.items():
        rows = h_rows.get(md, {})
        # eigenspaces of distinct eigenvalues are independent, so once
        # they fill ker(e) no other type has a vector in this class
        left = len(kern)
        for k, by_class in zip(_TYPES, out):
            if not left:
                break
            ech = SparseEchelon()
            for f in kern:
                row = dict(rows.get(f, {}))
                row[f] = row.get(f, ZERO) - 2 * k
                ech.insert({c: x for c, x in row.items() if x})
            vecs = []
            for coeffs in ech.kernel(kern):
                vec: dict = {}
                for f, c in coeffs.items():
                    _sub_scaled(vec, kern[f], -c)
                vecs.append(Form({m: vec[m] for m in sorted(vec)}))
            if vecs:
                by_class.append((md, vecs))
                left -= len(vecs)
    return out


def _hw_class_vectors(k: int) -> list[tuple[tuple[int, int, int], list[Form]]]:
    """Per multidegree class, the basis of ker(e) with h-eigenvalue 2k.
    Types 0..4, the range ``isotypical_table`` checks, share one pass;
    any other k raises ValueError."""
    if k not in _TYPES:
        raise ValueError(f"type {k} is outside the computed types 0..4")
    return _hw_class_vectors_by_type()[k]


@dataclass
class IsotypicalTable:
    """multiplicity[(degree, k)] of the irreducible of highest weight 2k."""

    multiplicity: dict[tuple[int, int], int]

    def row(self, degree: int) -> tuple[int, ...]:
        return tuple(self.multiplicity.get((degree, k), 0) for k in _TABLE_TYPES)

    def rows(self) -> list[tuple[int, ...]]:
        return [self.row(d) for d in range(10)]

    def column_total(self, k: int) -> int:
        return sum(self.multiplicity.get((d, k), 0) for d in range(10))

    def dimension_check(self) -> bool:
        """sum_k mult(d,k) * (2k+1) must reproduce binomial(9, d)."""
        for d in range(10):
            if sum(m * (2 * k + 1) for k in _TABLE_TYPES
                   for m in [self.multiplicity.get((d, k), 0)]) != _BINOM9[d]:
                return False
        return True

    def as_csv(self) -> str:
        lines = ["degree," + ",".join(f"rho{k}" for k in _TABLE_TYPES)]
        for d in range(10):
            lines.append(f"{d}," + ",".join(str(x) for x in self.row(d)))
        return "\n".join(lines) + "\n"


def isotypical_table() -> IsotypicalTable:
    """Multiplicities of each rotation type per form degree, computed as
    dim ker(e) on the h-eigenspace of eigenvalue 2k inside each degree."""
    mult: dict[tuple[int, int], int] = {}
    for k in _TYPES:
        for md, vecs in _hw_class_vectors(k):
            d = sum(md)
            mult[(d, k)] = mult.get((d, k), 0) + len(vecs)
    # anything outside the table's types must be absent
    for (d, k), m in mult.items():
        if k not in _TABLE_TYPES and m:
            raise AssertionError(f"unexpected type-{k} component in degree {d}")
    return IsotypicalTable({dk: m for dk, m in mult.items() if dk[1] in _TABLE_TYPES})


@dataclass
class HWSpace:
    """Highest-weight vectors of one type, split by form-degree parity.

    The basis is echelon-canonical: classes ordered by (multidegree), each
    class basis from the deterministic kernel solver.
    """

    k: int
    even: list[Form] = field(default_factory=list)
    odd: list[Form] = field(default_factory=list)

    def vectors(self) -> list[Form]:
        return self.even + self.odd

    def dims(self) -> tuple[int, int, int]:
        return (len(self.even) + len(self.odd), len(self.even), len(self.odd))


def highest_weight_space(k: int) -> HWSpace:
    space = HWSpace(k)
    for md, vecs in _hw_class_vectors(k):
        (space.even if sum(md) % 2 == 0 else space.odd).extend(vecs)
    return space


class SpaceEscape(ValueError):
    """An operator mapped a basis vector outside the given span."""


class SpanSolver:
    """Coordinate solver for a family of multidegree-homogeneous forms.

    Vectors are grouped by multidegree, each class in one ``SparseEchelon``,
    so solves stay tiny even for the 160 vectors of all four HW spaces.
    Vector i goes in with an extra -1 at the marker key ``DIM + i``, past
    every mask: a pivot at a marker means vector i is dependent, and a
    member f = sum_i x_i vectors[i] reduces to {DIM + i: x_i} over the
    nonzero x_i.  Hence x_i = -sum_p f[p] row_p[DIM + i] over the pivots p,
    which is the coordinate functional P, with P B = I for the basis
    operator B (``basis``).  P is kept scaled, as (D, D P) (``functional``):
    D is the lcm of the denominators of P's parts, so D P has Gaussian
    integer entries and, when they fit, an int64 view.  ``chain`` selects
    B's columns and D P's rows for some of the vectors; all three are built
    on first use, a chain once per selection.
    """

    def __init__(self, vectors: list[Form]):
        self.vectors = vectors
        self.by_md: dict[tuple[int, int, int], SparseEchelon] = {}
        for i, v in enumerate(vectors):
            ech = self.by_md.setdefault(_require_homogeneous(v, i), SparseEchelon())
            if ech.insert({**v.coeffs, DIM + i: -ONE}) >= DIM:
                raise ValueError(f"vector {i} is linearly dependent on earlier ones")
        self._chains: dict[tuple[range, ...], tuple] = {}

    @cached_property
    def basis(self) -> Operator:
        """B, whose column i is vectors[i]."""
        return basis_operator(self.vectors)

    @cached_property
    def functional(self) -> tuple[int, Operator]:
        """(D, D P) for P[i, p] = -row_p[DIM + i] at each pivot p, with D
        the lcm of the denominators of P's parts; D P is built from ints,
        so its view is int64 when they fit."""
        cols = {p: {k - DIM: v for k, v in row.items() if k >= DIM}
                for ech in self.by_md.values() for p, row in ech.rows.items()}
        d = math.lcm(*(x.denominator for col in cols.values() for v in col.values()
                       for x in (v.re, v.im)))
        return d, Operator({p: {i: v * -d for i, v in col.items()} for p, col in cols.items()})

    def chain(self, parts: tuple[range, ...]) -> tuple[Operator, Operator, np.ndarray, np.ndarray]:
        """For the vectors whose indices the ranges ``parts`` list,
        renumbered 0, 1, ... in that order: B's columns and D P's rows for
        them, and per vector its index among all vectors and the number of
        its part; built once per ``parts``."""
        if parts not in self._chains:
            index = np.array([i for r in parts for i in r], dtype=np.int64)
            local = np.full(len(self.vectors), -1, dtype=np.int64)
            local[index] = np.arange(len(index))
            b, f = self.basis.coords(), self.functional[1].coords()
            self._chains[parts] = (
                _renumber(b, b.rows, local[b.cols]), _renumber(f, local[f.rows], f.cols), index,
                np.repeat(np.arange(len(parts)), [len(r) for r in parts]))
        return self._chains[parts]

    def coordinates(self, f: Form) -> dict[int, GaussRational] | None:
        """f's coordinates {i: x_i}, nonzero ones only; None outside the span."""
        out: dict[int, GaussRational] = {}
        parts: dict[tuple[int, int, int], dict] = {}
        for m, c in f.coeffs.items():
            parts.setdefault(multidegree_of_mask(m), {})[m] = c
        for md, part in parts.items():
            ech = self.by_md.get(md)
            if ech is None:
                return None
            for k, c in ech.reduce(part).items():
                if k < DIM:
                    return None
                out[k - DIM] = c
        return out


def _renumber(v: _Coords, rows: np.ndarray, cols: np.ndarray) -> Operator:
    """The entries of view v at new row and column indices ``rows`` and
    ``cols`` (an index of -1 drops the entry), sorted by (column, row)."""
    keep = (rows >= 0) & (cols >= 0)
    rows, cols = rows[keep], cols[keep]
    order = np.argsort(cols * DIM + rows, kind="stable")
    return Operator._from_coords(_Coords(rows[order], cols[order], v.re[keep][order], v.im[keep][order]))


def basis_operator(vectors: list[Form]) -> Operator:
    """The operator whose column i is vectors[i]."""
    return Operator(dict(enumerate(v.coeffs for v in vectors)))


def _require_homogeneous(v: Form, i: int) -> tuple[int, int, int]:
    mds = {multidegree_of_mask(m) for m in v.coeffs}
    if len(mds) != 1:
        raise ValueError(f"basis vector {i} is not multidegree homogeneous")
    return mds.pop()


def restrict_operator(
    phi: Operator,
    solver: SpanSolver,
    labels: list[str] | None = None,
    parts: tuple[range, ...] | None = None,
) -> _BlockMat:
    """Matrix of phi on the span of the solver's vectors as its nonzero
    entries {(r, c): v}, keyed by vector index.  ``parts``, ranges of vector
    indices, narrows it to the listed vectors, and phi must then keep each
    part's span.

    On the solver's chain (``SpanSolver.chain``) of basis columns B and
    scaled functional rows D P, N = (D P)(phi B) has Gaussian integer
    entries, so every product runs in int64 under ``_product_sum``'s bound,
    and v = N / D, canonical.  Column c holds D times the coordinates of
    phi(vectors[c]) when that image lies in its part's span.  It does
    exactly when column c of B N equals that of D (phi B) once N's entries
    that link two parts are dropped; otherwise SpaceEscape names the first
    offending vector, by its label when ``labels`` (indexed like the
    solver's vectors) is given."""
    d = solver.functional[0]
    basis, functional, index, part = solver.chain(parts or (range(len(solver.vectors)),))
    image = phi.compose(basis)
    mat = functional.compose(image)
    v = mat.coords()
    keep = part[v.rows] == part[v.cols]
    if not keep.all():
        mat = Operator._from_coords(v._make(a[keep] for a in v))
    escape = _product_sum(((1, basis, mat), (-1, image.scale(d), None)))
    if escape:
        c = int(index[escape.coords().cols[0]])
        name = labels[c] if labels else f"vector {c}"
        raise SpaceEscape(f"image of {name} escapes the span")
    v = mat.coords()
    re, im = v.re.tolist(), v.im.tolist()
    # the parts take few distinct values, so each is divided once
    quot = {x: _quotient(x, d) for x in {*re, *im}}
    return {(r, c): _make(quot[x], quot[y])
            for r, c, x, y in zip(index[v.rows].tolist(), index[v.cols].tolist(), re, im)}
