"""Exact Gaussian elimination over Q(i), sparse and dense flavors.

Everything here is deterministic: pivots are always the smallest key
(sparse) or the leftmost column (dense), rows are normalized to a leading
one, and kernels are parameterized by free columns in increasing order.
The sparse routines accept entries of any exact type, so ``SparseEchelon``
also serves rational coordinates (ints and Fractions, as the exact closure
engine flattens a ``GaussRational``'s int-or-Fraction components).
Normalization divides ``Fraction(1)`` by the leading entry, never the
int 1, so an int row never turns into floats, and stores integral
rational entries as ints, so reductions against them stay on ints.
Sizes in this package stay below a few hundred, so exact arithmetic is
cheap.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GaussRational, ONE, ZERO

__all__ = ["SparseEchelon", "CoordinateSolver", "rref_dense", "kernel_basis", "rank_dense"]


def _sub_scaled(vec: dict, other: dict, coeff) -> None:
    """vec -= coeff * other, in place, dropping zeros; rational entries
    stay rational and GaussRational entries stay GaussRational."""
    for k, v in other.items():
        s = vec[k] - coeff * v if k in vec else -(coeff * v)
        if s:
            vec[k] = s
        else:
            vec.pop(k, None)


def _canonical(x):
    """An integral Fraction as its int, anything else unchanged."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


class SparseEchelon:
    """Echelon basis of sparse row vectors keyed by their leading index."""

    def __init__(self):
        self.rows: dict = {}

    def reduce(self, vec: dict) -> dict:
        """Reduce the leading entry until it is pivot-free or the vector
        dies; returns the (mutated) vector."""
        while vec:
            lead = min(vec)
            row = self.rows.get(lead)
            if row is None:
                return vec
            _sub_scaled(vec, row, vec[lead])
        return vec

    def insert(self, vec: dict):
        """Reduce and, if nonzero, normalize and store; returns the new
        pivot or None."""
        vec = self.reduce(dict(vec))
        if not vec:
            return None
        lead = min(vec)
        inv = Fraction(1) / vec[lead]
        self.rows[lead] = {k: _canonical(inv * v) for k, v in vec.items()}
        return lead

    def contains(self, vec: dict) -> bool:
        return not self.reduce(dict(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)


class CoordinateSolver:
    """Expresses vectors as exact linear combinations of a fixed list.

    Feed the spanning vectors in order; ``coordinates`` then returns the
    coefficient list of any member of the span, or None for non-members.
    """

    def __init__(self, vectors=None):
        self.rows: dict = {}  # lead -> (row vec, combo dict idx -> coeff)
        self.n = 0
        self.dependent: list[int] = []
        for v in vectors or []:
            self.append(v)

    def append(self, vec: dict) -> bool:
        """Add one spanning vector; False when it was already in the span."""
        idx = self.n
        self.n += 1
        work = dict(vec)
        combo = {idx: ONE}
        while work:
            lead = min(work)
            hit = self.rows.get(lead)
            if hit is None:
                c = work[lead]
                inv = ONE / c
                self.rows[lead] = (
                    {k: inv * v for k, v in work.items()},
                    {k: inv * v for k, v in combo.items()},
                )
                return True
            row, rcombo = hit
            c = work[lead]
            _sub_scaled(work, row, c)
            _sub_scaled(combo, rcombo, c)
        self.dependent.append(idx)
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)

    def coordinates(self, vec: dict) -> list | None:
        """Coefficients x with vec = sum x_i * vectors[i], else None."""
        work = dict(vec)
        combo: dict = {}
        while work:
            lead = min(work)
            hit = self.rows.get(lead)
            if hit is None:
                return None
            row, rcombo = hit
            c = work[lead]
            _sub_scaled(work, row, c)
            for k, v in rcombo.items():
                s = combo.get(k, ZERO) + c * v
                if s:
                    combo[k] = s
                else:
                    combo.pop(k, None)
        return [combo.get(i, ZERO) for i in range(self.n)]


def rref_dense(rows: list[list[GaussRational]], ncols: int):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = ONE / mat[r][c]
        mat[r] = [inv * x for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b if b else a for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank_dense(rows: list[list[GaussRational]], ncols: int) -> int:
    return len(rref_dense(rows, ncols)[1])


def kernel_basis(rows: list[list[GaussRational]], ncols: int) -> list[list[GaussRational]]:
    """Deterministic kernel basis: one vector per free column, carrying a 1
    there and the negated pivot-row coefficients elsewhere."""
    rref, pivots = rref_dense(rows, ncols)
    pivot_set = set(pivots)
    out = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for r, pc in enumerate(pivots):
            if rref[r][free]:
                vec[pc] = -rref[r][free]
        out.append(vec)
    return out
