"""Exact elimination: the fully reduced sparse echelons over Q(i) and Q."""

import random
from fractions import Fraction

import pytest

from math import gcd

from wsdalg.linalg import IntegerEchelon, SparseEchelon, integral
from wsdalg.scalars import GaussRational, ONE, ZERO


def _entry(rng):
    """A Gaussian rational with int or Fraction components."""

    def part():
        if rng.random() < 0.5:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    return GaussRational(part(), part())


def _matrix(rng, density):
    """A random matrix, often rank deficient: some rows are combinations
    of earlier ones, and an arrow pattern (a full first row and column)
    fills in the sparse case during elimination."""
    nr, nc = rng.randint(1, 8), rng.randint(1, 9)
    rows = [[_entry(rng) if rng.random() < density else ZERO for _ in range(nc)] for _ in range(nr)]
    if density < 0.5:
        rows[0] = [_entry(rng) for _ in range(nc)]
        for r in rows[1:]:
            r[0] = _entry(rng)
    for i in range(1, nr):
        if rng.random() < 0.3:
            a, b = _entry(rng), _entry(rng)
            rows[i] = [a * x + b * y for x, y in zip(rows[rng.randrange(i)], rows[i - 1])]
    return rows, nc


def _gauss_int_matrix(rng):
    """A sparse Gaussian-integer matrix."""
    nr, nc = rng.randint(1, 6), rng.randint(1, 7)
    rows = [
        [GaussRational(rng.randint(-3, 3), rng.randint(-3, 3)) if rng.random() < 0.4 else ZERO
         for _ in range(nc)]
        for _ in range(nr)
    ]
    return rows, nc


# case id -> (seed, number of matrices, matrix generator)
_CASES = {
    "0.9": (11, 40, lambda rng: _matrix(rng, 0.9)),
    "0.3": (12, 40, lambda rng: _matrix(rng, 0.3)),
    "gauss-int": (7, 30, _gauss_int_matrix),
}


def _sparse(rows):
    return [{c: v for c, v in enumerate(r) if v} for r in rows]


def _echelon(rows):
    ech = SparseEchelon()
    for r in _sparse(rows):
        ech.insert(r)
    return ech


@pytest.mark.parametrize("case", list(_CASES))
def test_rref_and_kernel_properties(case):
    seed, count, matrix = _CASES[case]
    rng = random.Random(seed)
    for _ in range(count):
        rows, nc = matrix(rng)
        ech = _echelon(rows)
        pivots = sorted(ech.rows)
        rref = [[ech.rows[p].get(c, ZERO) for c in range(nc)] for p in pivots]
        # reduced echelon form, unique for the span
        for i, pc in enumerate(pivots):
            assert [rref[j][pc] for j in range(len(rref))] == [ONE if j == i else ZERO for j in range(len(rref))]
            assert not any(rref[i][:pc])
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert _echelon(shuffled).rows == ech.rows
        # same span as the input: each input row r is sum_p r[p] * rref[p],
        # and each rref row is sum_j y_j * rows[j], with -y_j read off the
        # echelon of the rows augmented by -1 at column nc + j
        rank = len(pivots)
        assert rank == ech.rank
        for r in rows:
            combo = [sum((r[p] * rref[i][c] for i, p in enumerate(pivots)), ZERO) for c in range(nc)]
            assert combo == r
        aug = _echelon([r + [ZERO] * j + [-ONE] for j, r in enumerate(rows)])
        for i, p in enumerate(pivots):
            y = [-aug.rows[p].get(nc + j, ZERO) for j in range(len(rows))]
            assert [sum((a * r[c] for a, r in zip(y, rows)), ZERO) for c in range(nc)] == rref[i]
        # kernel: A v = 0 exactly, one vector per free column in increasing
        # order, 1 there and 0 at every other free column
        kern = [[v.get(c, ZERO) for c in range(nc)] for v in ech.kernel(range(nc))]
        free = [c for c in range(nc) if c not in pivots]
        assert len(kern) == nc - rank == len(free)
        for f, v in zip(free, kern):
            assert [v[c] for c in free] == [ONE if c == f else ZERO for c in free]
            for r in rows:
                assert sum((a * x for a, x in zip(r, v)), ZERO) == ZERO


def test_sparse_echelon_is_fully_reduced():
    rng = random.Random(5)
    for _ in range(30):
        rows, nc = _matrix(rng, 0.3)
        ech = _echelon(rows)
        for p, row in ech.rows.items():
            assert min(row) == p and row[p] == ONE
            assert not any(q in row for q in ech.rows if q != p)
        ech2 = _echelon(rows)
        for r in _sparse(rows):
            assert ech.contains(r)
            assert ech2.insert(r) is None
        assert ech2.rows == ech.rows


def test_sparse_echelon_back_reduction():
    """A second insert back-reduces the earlier row at the new pivot, and
    rational entries stay ints or Fractions (ints when integral)."""
    ech = SparseEchelon()
    assert ech.insert({0: 2, 1: 3}) == 0
    assert ech.rows[0] == {0: 1, 1: Fraction(3, 2)}
    assert ech.insert({0: 1, 1: 1, 2: 5}) == 1
    assert ech.rows == {0: {0: 1, 2: 15}, 1: {1: 1, 2: -10}}
    assert ech.insert({1: Fraction(1, 3), 2: 1, 3: 7}) == 2
    for row in ech.rows.values():
        assert 2 not in row or row is ech.rows[2]
        for v in row.values():
            assert type(v) in (int, Fraction), repr(v)
            assert type(v) is int or v.denominator != 1, repr(v)
    assert ech.rows[0] == {0: 1, 3: Fraction(-315, 13)}
    assert ech.rows[1] == {1: 1, 3: Fraction(210, 13)}


def _canon(x):
    """A rational as the exact closure writes it: integral values as ints."""
    return x.numerator if x.denominator == 1 else x


def _rational(rng):
    """A nonzero int or Fraction, canonical."""
    if rng.random() < 0.5:
        return rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    return _canon(Fraction(rng.choice([-9, -6, -3, -1, 1, 2, 5, 8]), rng.randint(1, 6)))


def _rational_rows(rng):
    """Sparse rational rows, often rank deficient: some rows repeat an
    earlier one, and some are rational combinations of two earlier ones."""
    nr, nc = rng.randint(1, 9), rng.randint(1, 10)
    rows = []
    for i in range(nr):
        pick = rng.random()
        if i and pick < 0.2:
            rows.append(dict(rows[rng.randrange(i)]))
        elif i > 1 and pick < 0.45:
            a, b = _rational(rng), _rational(rng)
            x, y = rows[rng.randrange(i)], rows[rng.randrange(i)]
            row = {k: a * x.get(k, 0) + b * y.get(k, 0) for k in {*x, *y}}
            rows.append({k: _canon(v) for k, v in row.items() if v})
        else:
            rows.append({c: _rational(rng) for c in range(nc) if rng.random() < 0.4})
    return rows, nc


def _assert_primitive(ech):
    for p, row in ech.basis.items():
        assert all(type(v) is int and v for v in row.values())
        assert min(row) == p and row[p] > 0 and gcd(*row.values()) == 1
        assert not any(q in row for q in ech.basis if q != p)


def _typed(rows):
    return [(p, [(k, type(v), v) for k, v in sorted(row.items())]) for p, row in rows.items()]


def test_integer_echelon_agrees_with_sparse_echelon():
    """On seeded rational rows, the fraction-free echelon over Q has the
    pivots of ``SparseEchelon`` in the same insertion order, its ``rows``
    view equals that echelon's rows value for value and type for type, and
    rank and membership agree, on int and Fraction input alike (scaled
    by ``integral``).  Every
    stored row is a primitive int row with a positive lead, after each
    insert and so after every back-reduction."""
    rng = random.Random(23)
    inserted, dependent = 0, 0
    for _ in range(120):
        rows, nc = _rational_rows(rng)
        ie, se = IntegerEchelon(), SparseEchelon()
        for row in rows:
            got = ie.insert(integral(row))
            assert got == se.insert(row)
            inserted += got is not None
            dependent += got is None
            _assert_primitive(ie)
            assert list(ie.basis) == list(se.rows) == list(ie.rows)
            assert _typed(ie.rows) == _typed(se.rows) and ie.rank == se.rank
        for _ in range(6):
            probe = {c: _rational(rng) for c in range(nc + 1) if rng.random() < 0.3}
            if rng.random() < 0.5 and rows:
                x = rows[rng.randrange(len(rows))]
                probe = {k: v * Fraction(rng.randint(1, 5), rng.randint(1, 5)) for k, v in x.items()}
            assert ie.contains(integral(probe)) == se.contains(probe)
        assert all(ie.contains(integral(r)) for r in rows)
    assert inserted > 200 and dependent > 50


def test_integral_scales_by_the_lcm_of_denominators():
    assert integral({0: Fraction(1, 2), 3: Fraction(-2, 3), 5: 4}) == {0: 3, 3: -4, 5: 24}
    row = {1: 2, 2: -3}
    assert integral(row) == row and integral(row) is not row
    assert integral({}) == {}
    assert all(type(v) is int for v in integral({0: Fraction(4, 2), 1: Fraction(1, 4)}).values())
