"""Exact Gaussian elimination over Q(i) and Q on sparse rows.

``SparseEchelon`` is the one echelon: a fully reduced basis, each row 1 at
its pivot (its smallest key) and 0 at every other pivot.  A reduced
echelon form is unique for its span, so pivots, rows and the free-column
kernels read off them do not depend on the insertion order.
``reptheory.SpanSolver`` reads the coordinate functional of a basis
off its rows' marker columns.
Entries may be of any exact type, so rational coordinates (the exact
closure's ints and Fractions) work too: normalization divides
``Fraction(1)`` (``ONE`` for a GaussRational lead), never the int 1, so no
float appears, and integral rational entries are stored as ints, so
reductions stay on ints.  A row whose lead is already 1 is stored as it is.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GaussRational, ONE

__all__ = ["SparseEchelon"]


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
        x = vec[lead]
        if x != 1:
            inv = ONE / x if type(x) is GaussRational else Fraction(1) / x
            vec = {k: _canonical(inv * v) for k, v in vec.items()}
        for row in self.rows.values():
            c = row.get(lead)
            if c:
                _sub_scaled(row, vec, c)
        self.rows[lead] = vec
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

