"""Exact Gaussian elimination on sparse rows, one echelon per field.

Each is a fully reduced basis: a row is nonzero at its pivot (its smallest
key) and 0 at every other pivot.  A reduced echelon form is unique for its
span, so pivots, rows and the free-column kernels read off them do not
depend on the insertion order.  ``SparseEchelon`` (Q(i)) stores each row 1
at its pivot, dividing by ``ONE`` (``Fraction(1)`` for a rational lead), so
no float appears; integral rationals are stored as ints.
``reptheory.SpanSolver`` reads a basis's coordinate functional off its
marker columns.  ``IntegerEchelon`` (Q) keeps primitive int rows and
eliminates fraction-free (Bareiss, Math. Comp. 22 (1968)), for the exact
closure, exact membership and ``closure.su_pair_dimension``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import GaussRational, ONE

__all__ = ["SparseEchelon", "IntegerEchelon", "integral"]


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


def integral(vec: dict) -> dict:
    """A rational row times the lcm of its denominators, as a new int row."""
    d = lcm(*(v.denominator for v in vec.values()))
    return {k: v.numerator * (d // v.denominator) for k, v in vec.items()}


def _eliminate(vec: dict, other: dict, p) -> dict:
    """Clear int row vec at p, fraction-free, in place and dropping zeros:
    vec = (a/g) vec - (c/g) other, a = other[p], c = vec[p], g = gcd(a, c)."""
    g = gcd(other[p], vec[p])
    m, c = other[p] // g, vec[p] // g
    if m != 1:
        for k in vec:
            vec[k] *= m
    for k, v in other.items():
        s = vec.get(k, 0) - c * v
        if s:
            vec[k] = s
        else:
            del vec[k]
    return vec


def _primitive(vec: dict, lead) -> dict:
    """vec over its content, positive at lead, as a new compact dict."""
    g = gcd(*vec.values()) * (1 if vec[lead] > 0 else -1)
    return {k: v // g for k, v in vec.items()}


class IntegerEchelon:
    """Fully reduced echelon basis over Q of int rows (``integral`` scales a
    rational one): ``basis[p]`` is primitive, positive at its pivot p and 0
    at every other pivot, keyed by pivot in insertion order."""

    def __init__(self):
        self.basis: dict[int, dict[int, int]] = {}
        self._rows: dict | None = None

    def reduce(self, vec: dict) -> dict:
        """Clear vec's pivot columns in one pass; returns vec, a multiple of its reduction."""
        for p in [k for k in vec if k in self.basis]:
            _eliminate(vec, self.basis[p], p)
        return vec

    def insert(self, vec: dict):
        """Reduce; if nonzero, store it primitive and back-reduce the rows at its pivot.
        Returns the pivot or None."""
        vec = self.reduce(dict(vec))
        if not vec:
            return None
        lead = min(vec)
        vec = _primitive(vec, lead)
        for p in [p for p, row in self.basis.items() if lead in row]:
            self.basis[p] = _primitive(_eliminate(self.basis[p], vec, lead), p)
        self.basis[lead], self._rows = vec, None
        return lead

    def contains(self, vec: dict) -> bool:
        return not self.reduce(dict(vec))

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def rows(self) -> dict:
        """The basis as ``SparseEchelon`` stores it, each row over its lead
        (integral entries as ints), cached until the next insert."""
        if self._rows is None:
            self._rows = {p: {k: _canonical(Fraction(v, row[p])) for k, v in row.items()}
                          for p, row in self.basis.items()}
        return self._rows
