"""Exact Gaussian elimination over Q(i) and Q on sparse rows.

``SparseEchelon`` is the one echelon: a fully reduced basis, each row 1 at
its pivot (its smallest key) and 0 at every other pivot.  A reduced
echelon form is unique for its span, so pivots, rows and the free-column
kernels read off them do not depend on the insertion order.
``rref_dense``, ``rank_dense`` and ``kernel_basis`` wrap it for dense
lists; ``CoordinateSolver`` also tracks how its rows combine the inputs.
Entries may be of any exact type, so rational coordinates (the exact
closure's ints and Fractions) work too: normalization divides
``Fraction(1)``, never the int 1, so no float appears, and integral
rational entries are stored as ints, so reductions stay on ints.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GaussRational, ONE, ZERO

__all__ = ["SparseEchelon", "CoordinateSolver", "rref_dense", "kernel_basis", "rank_dense"]


def _sub_scaled(vec: dict, other: dict, coeff) -> None:
    """vec -= coeff * other, in place, dropping zeros; rational entries
    stay canonical (integral ones as ints) and GaussRational entries stay
    GaussRational."""
    for k, v in other.items():
        s = vec[k] - coeff * v if k in vec else -(coeff * v)
        if s:
            vec[k] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
        else:
            vec.pop(k, None)


def _canonical(x):
    """An integral Fraction as its int, anything else unchanged."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


class SparseEchelon:
    """Fully reduced echelon basis of sparse row vectors keyed by their
    pivot: ``rows[p]`` is 1 at p and 0 at every other pivot."""

    def __init__(self):
        self.rows: dict = {}

    def copy(self) -> "SparseEchelon":
        out = SparseEchelon()
        out.rows = {p: dict(row) for p, row in self.rows.items()}
        return out

    def reduce(self, vec: dict) -> dict:
        """Clear every pivot column of vec in one pass (a row is 0 at the
        other pivots, so each subtraction clears one pivot for good);
        returns the (mutated) vector."""
        rows = self.rows
        for p in [k for k in vec if k in rows]:
            _sub_scaled(vec, rows[p], vec[p])
        return vec

    def insert(self, vec: dict):
        """Reduce and, if nonzero, normalize, back-reduce the stored rows at
        the new pivot and store; returns the new pivot or None."""
        vec = self.reduce(dict(vec))
        if not vec:
            return None
        lead = min(vec)
        inv = Fraction(1) / vec[lead]
        new = {k: _canonical(inv * v) for k, v in vec.items()}
        for row in self.rows.values():
            c = row.get(lead)
            if c:
                _sub_scaled(row, new, c)
        self.rows[lead] = new
        return lead

    def contains(self, vec: dict) -> bool:
        return not self.reduce(dict(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def kernel(self, columns) -> list[dict]:
        """Kernel of the rows on ``columns`` (increasing keys): one vector
        per free column f, 1 at f and minus each row's f entry at that
        row's pivot, with keys in increasing order."""
        rows = sorted(self.rows.items())
        out = []
        for f in columns:
            if f in self.rows:
                continue
            vec = {p: -row[f] for p, row in rows if f in row}
            vec[f] = ONE
            out.append(vec)
        return out


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


def _echelon(rows: list[list[GaussRational]]) -> SparseEchelon:
    ech = SparseEchelon()
    for r in rows:
        ech.insert({c: v for c, v in enumerate(r) if v})
    return ech


def rref_dense(rows: list[list[GaussRational]], ncols: int):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    ech = _echelon(rows)
    pivots = sorted(ech.rows)
    return [[ech.rows[p].get(c, ZERO) for c in range(ncols)] for p in pivots], pivots


def rank_dense(rows: list[list[GaussRational]], ncols: int) -> int:
    return _echelon(rows).rank


def kernel_basis(rows: list[list[GaussRational]], ncols: int) -> list[list[GaussRational]]:
    """Deterministic kernel basis: one vector per free column, carrying a 1
    there and the negated pivot-row coefficients elsewhere."""
    return [[vec.get(c, ZERO) for c in range(ncols)] for vec in _echelon(rows).kernel(range(ncols))]
