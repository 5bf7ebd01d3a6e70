"""Lie superalgebra closure over the restricted highest-weight representation.

The twelve generators act faithfully on the direct sum of the four
highest-weight spaces, so the algebra they generate is computed there: a
generator restricts to one block matrix per space (sizes 40, 72, 40, 8 over
Q(i)), a restricted operator flattens to the real/imaginary parts of its
block entries (16896 rational coordinates over all four blocks), and the
closure is the smallest coordinate subspace containing the generators and
stable under bracketing with each generator.  ``FlatLayout.entries`` is the
one map from the nonzero entries of the sparse blocks to flat coordinates
and exact values, and ``_project`` their one projection to F_p; the exact
rows, the modular seeds, the generator table and membership all read them,
and no dense block matrix is built.  Left-normed brackets span the whole
algebra by the graded Jacobi identity, so each new basis element is
bracketed with the twelve generators only.

Both engines are graded.  Every labeled basis vector has a definite
multidegree (a, b, c), so a flat coordinate (k, r, c) carries the shift
md(basis_r) - md(basis_c), and every generator has a definite shift: iL_j
adds 1 on the two other blocks, iLambda_j subtracts 1 there, iV_j adds 3 on
block j and A_j subtracts 3 there.  A bracket [g, x] of homogeneous
elements is homogeneous with shift(x) + shift(g), so the closure is the
direct sum of its shift classes (the root-space grading of a Lie
superalgebra; 319 classes of at most 448 coordinates on the full real
layout).  One level loop (``_closure``) runs both fields on one bracket
kernel, a row-by-row sparse product (Gustavson, ACM TOMS 4(3), 1978): the
generators' entries are keyed once per closure by the row or column of x
they meet (``_generator_table``, the one statement of the part rule), and
each level expands its frontier rows' nonzero entries through them
(``_bracket_rows``), bounds every sum below 2^53 first, and fills one
candidate stack at a time for the field's engine to reduce and insert.

* modular: F_p coordinates for primes p = 1 (mod 4) stored as exact small
  integers in float64, so every product runs on BLAS while staying exact
  (the primes are sized so no dot product can reach 2^53).  A stack holds
  a width group (16 widths on the full layout, 9 on hw0), for one batched
  reduce (which first balances the bracket sums mod p) and one batched
  elimination, in one fully reduced echelon per class held as one stack
  per width; the new basis rows are the next frontier.
* exact: the generators' int rows (each scaled by the lcm of its
  denominators) are the coefficients, and a stack holds one class, whose
  candidates go in order into its fraction-free ``linalg.IntegerEchelon``
  over Q; the raw candidates that add a pivot are the next frontier.

On both fields the per-class echelon bases are the state's one record:
dimension, block dimensions and row parities (the parity of a pivot's
shift class) are read off its pivots, listed class by class and in
increasing order within a class, so ``lie_closure`` refuses a generator
that is not homogeneous or whose support is not all of its declared
parity.  The pivot set of a reduced echelon basis is an invariant of the
span, and class-local coordinates keep the global order, so both fields
list the pivots of an ungraded computation.  Membership and the
supertrace check read only the classes they touch.

The modular rank is run under two independent primes; it can only ever
undercount the rational rank, so agreement at the expected value plus the
exact upper bound of 8444 brackets the answer.

A complexified run uses one residue per matrix entry (i mapped to a square
root of -1 mod p); the F_p span is then automatically stable under complex
scalars, so its rank is the complex dimension of the complexified algebra.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import tempfile
import time
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view as _windows

from .scalars import (
    DEFAULT_PRIMES,
    GaussRational,
    ZERO,
    balanced_residues,
    root_of_minus_one,
    validate_prime,
)
from .linalg import IntegerEchelon, integral
from .operators import (
    GENERATOR_NAMES,
    Operator,
    dagger,
    hodge_conjugate,
    standard_generators,
    super_adjoint,
)
from .reptheory import HW_DIMS as BLOCK_SIZES, HW_HALF_DIMS  # BLOCK_SIZES: the HW block sizes
from .reptheory import _BlockMat, _require_homogeneous, restrict_operator
from .hwbases import LabeledBasis, all_bases, all_vectors_solver

__all__ = [
    "BLOCK_SIZES",
    "RestrictedAlgebra",
    "FlatLayout",
    "ClosureState",
    "lie_closure",
    "load_state",
    "verify_structure",
    "su_pair_dimension",
    "DIMENSION_BOUND",
    "InexactBracket",
    "EXPECTED_DIMENSION",
    "EXPECTED_BLOCK_DIMS",
]

DIMENSION_BOUND = 8444  # supertrace-zero pairing-preserving operators
EXPECTED_DIMENSION = 8396
EXPECTED_BLOCK_DIMS = (1599, 5183, 1599, 15)

EVEN_GENERATOR_NAMES = ("iL0", "iL1", "iL2", "iLambda0", "iLambda1", "iLambda2")


@dataclass
class RestrictedOperator:
    """Block matrices of one operator on the four labeled bases."""

    blocks: dict[int, _BlockMat]
    parity: int

    def block(self, k: int) -> _BlockMat:
        return self.blocks.get(k, {})


class RestrictedAlgebra:
    """Restriction context: the labeled bases, the one span solver over all
    their vectors (``hwbases.all_vectors_solver``), and the generators,
    built once and restricted lazily one name at a time.  The checks that
    depend only on the algebra (the pairing identity, the generators'
    daggers, and the restricted supertraces and daggers) are computed once,
    the last two once per tuple of blocks."""

    def __init__(self):
        self.bases: tuple[LabeledBasis, ...] = all_bases()
        self.solver = all_vectors_solver()
        self._labels = [lab for b in self.bases for lab in b.labels()]
        starts = np.cumsum([0] + [len(b.vectors()) for b in self.bases]).tolist()
        self._ranges = [range(a, z) for a, z in zip(starts, starts[1:])]
        # per vector of the solver, its block and the block's first index
        self._block_of = [(k, r.start) for k, r in enumerate(self._ranges) for _ in r]
        self._ops: dict[str, Operator] | None = None
        self._gens: dict[str, RestrictedOperator] = {}
        self._supertraces: dict[tuple[int, ...], dict[str, GaussRational]] = {}
        self._daggers: dict[tuple[int, ...], list[RestrictedOperator]] = {}

    def restrict(self, op: Operator, blocks=(0, 1, 2, 3)) -> RestrictedOperator:
        """op's block matrices on ``blocks``, from one restriction over
        their vectors together (its chain is built once per tuple of
        blocks).  An image that leaves its own block's span raises
        SpaceEscape naming the first such vector, block by block in the
        order given, as restricting to each block in turn would."""
        par = op.parity()
        if par is None and op:
            raise ValueError("restriction needs definite parity")
        ranges = tuple(self._ranges[k] for k in blocks)
        mat = restrict_operator(op, self.solver, self._labels, ranges)
        out: dict[int, _BlockMat] = {k: {} for k in blocks}
        for (r, c), v in mat.items():
            k, a = self._block_of[c]
            out[k][r - a, c - a] = v
        return RestrictedOperator(out, 0 if par is None else par)

    def operators(self) -> dict[str, Operator]:
        """The twelve generators on the full algebra, built once."""
        if self._ops is None:
            self._ops = standard_generators()
        return self._ops

    def generator(self, name: str) -> RestrictedOperator:
        if name not in self._gens:
            self._gens[name] = self.restrict(self.operators()[name])
        return self._gens[name]

    def generators(self, names=GENERATOR_NAMES) -> list[RestrictedOperator]:
        return [self.generator(n) for n in names]

    @cached_property
    def pairing_identity(self) -> dict[str, bool]:
        """Per generator g, whether super_adjoint(g) = -(star g star) holds
        exactly on the 512-dimensional algebra."""
        return {name: super_adjoint(g) == hodge_conjugate(g).scale(-1)
                for name, g in self.operators().items()}

    @cached_property
    def generator_daggers(self) -> dict[str, Operator]:
        """The twisted adjoint of each generator on the full algebra."""
        return {name: dagger(g) for name, g in self.operators().items()}

    def supertraces(self, blocks) -> dict[str, GaussRational]:
        """Exact supertrace of each restricted generator over ``blocks``."""
        blocks = tuple(blocks)
        if blocks not in self._supertraces:
            self._supertraces[blocks] = {name: sum(
                (v if r < HW_HALF_DIMS[k] else -v for k in blocks
                 for (r, c), v in self.generator(name).block(k).items() if r == c), ZERO)
                for name in GENERATOR_NAMES}
        return self._supertraces[blocks]

    def daggers(self, blocks) -> list[RestrictedOperator]:
        """The twisted adjoints of the generators, in ``GENERATOR_NAMES``
        order, restricted to ``blocks``."""
        blocks = tuple(blocks)
        if blocks not in self._daggers:
            daggers = self.generator_daggers
            self._daggers[blocks] = [self.restrict(daggers[n], blocks) for n in GENERATOR_NAMES]
        return self._daggers[blocks]


@lru_cache(maxsize=1)
def default_algebra() -> RestrictedAlgebra:
    return RestrictedAlgebra()


class FlatLayout:
    """Coordinate layout of flattened restricted operators.

    real mode: per included block, the real parts of the row-major entries
    followed by the imaginary parts (2 s^2 coordinates per block), so part
    m of entry (r, c) of block k is offsets[k] + (m s + r) s + c.
    complex mode: one coordinate per entry (s^2 per block, m = 0).
    ``entries`` lists an operator's nonzero parts with their exact values,
    and ``places`` decodes coordinates back to (block, row, column, part).

    Every labeled basis vector is multidegree-homogeneous, so coordinate
    (k, r, c) carries the shift md(basis_r) - md(basis_c); real and
    imaginary parts and all blocks share one class per shift.  Class ids
    number the distinct shifts in lexicographic order: ``coord_class`` maps
    each coordinate to its class, ``class_shift_array[t]`` is class t's
    shift, ``class_indices[t]`` lists its coordinates in increasing global
    order (there are ``class_width[t]`` of them, and ``coord_local`` gives
    each coordinate's place among them), and ``class_parity[t]`` is the
    parity of a + b + c (odd exactly on the off-diagonal even/odd
    sub-blocks).  An operator of definite shift is supported on a single
    class.  The tables are built with the first layout of each shape and
    shared, read-only, by every later one (``_class_tables``).
    """

    def __init__(self, blocks=(0, 1, 2, 3), complexified: bool = False):
        self.blocks = tuple(blocks)
        self.complexified = complexified
        starts = np.cumsum([0] + [BLOCK_SIZES[k] ** 2 * (2 - complexified) for k in self.blocks])
        self.offsets, self.length = dict(zip(self.blocks, starts[:-1].tolist())), int(starts[-1])
        (self.coord_class, self.class_shift_array, self.class_parity, self.class_indices,
         self.class_width, self.coord_local) = _class_tables(self.blocks, complexified)

    def entries(self, rop: RestrictedOperator) -> tuple[np.ndarray, list]:
        """The nonzero parts of rop on this layout, in one pass: their flat
        coordinates (int64) and exact values, the real and imaginary part of
        each entry (an int or Fraction each) in real mode, and each entry
        whole (a GaussRational) in complex mode."""
        coords, values = [], []
        for k in self.blocks:
            s = BLOCK_SIZES[k]
            o, im = self.offsets[k], s * s  # the block's offsets, once per block
            if self.complexified:
                for (r, c), v in rop.block(k).items():
                    if v:
                        coords.append(o + r * s + c)
                        values.append(v)
                continue
            for (r, c), v in rop.block(k).items():
                if v.re:
                    coords.append(o + r * s + c)
                    values.append(v.re)
                if v.im:
                    coords.append(o + im + r * s + c)
                    values.append(v.im)
        return np.array(coords, dtype=np.int64), values

    def places(self, coords: np.ndarray) -> tuple[np.ndarray, ...]:
        """(k, r, c, m) arrays of the flat coordinates ``coords``: part m of
        entry (r, c) of block k."""
        starts = np.array(list(self.offsets.values()))
        i = np.searchsorted(starts, coords, side="right") - 1
        k = np.array(self.blocks)[i]
        s = np.array(BLOCK_SIZES)[k]
        m, rc = np.divmod(coords - starts[i], s * s)
        return (k, *np.divmod(rc, s), m)


def _project(coords: np.ndarray, values: list, p: int, root_i: int) -> tuple[np.ndarray, ...]:
    """``FlatLayout.entries`` with the values' balanced residues mod p (i to root_i), each
    reduced as a Python int and only then cast to float64, so any numerator stays exact."""
    return coords, np.array(balanced_residues(values, p, root_i), dtype=np.float64)


@lru_cache(maxsize=8)
def _class_tables(blocks: tuple[int, ...], complexified: bool) -> tuple:
    """The shift-class tables of ``FlatLayout(blocks, complexified)``, in
    the order its constructor unpacks them; built once per layout shape
    and shared by every layout of that shape, so the arrays are read-only.

    Each component of a multidegree lies in 0..3, so each component of a
    shift lies in -3..3, and the code sum_i (d_i + 3) 7^(2 - i) of a shift
    d is one base-7 integer whose order is the lexicographic order of the
    shifts: the class ids are the ranks of the distinct codes."""
    codes = []
    for k in blocks:
        md = np.array([_require_homogeneous(v, i) for i, v in enumerate(all_bases()[k].vectors())])
        code = ((md[:, None, :] - md[None, :, :] + 3) @ np.array([49, 7, 1])).ravel()
        codes += [code] if complexified else [code, code]  # real parts, then imaginary
    uniq, coord_class = np.unique(np.concatenate(codes), return_inverse=True)
    shifts = np.stack([uniq // 49, uniq // 7 % 7, uniq % 7], axis=1) - 3
    counts = np.bincount(coord_class, minlength=len(uniq))
    order = np.argsort(coord_class, kind="stable")
    coord_local = np.empty(len(order), dtype=np.int64)
    coord_local[order] = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    class_parity = shifts.sum(axis=1) & 1
    for a in (coord_class, shifts, class_parity, order, counts, coord_local):
        a.setflags(write=False)  # before splitting: views inherit the flag
    return (coord_class, shifts, class_parity, tuple(np.split(order, np.cumsum(counts)[:-1])),
            counts, coord_local)


# ---------------------------------------------------------------------------
# exact engine (int rows over Q, bracketed on the generator table)
# ---------------------------------------------------------------------------


class InexactBracket(ArithmeticError):
    """An exact bracket sum could reach 2^53, where float64 stops being exact."""


class _ExactEngine:
    """The closure over Q behind ``_ModularEngine``'s interface: one
    fraction-free ``linalg.IntegerEchelon`` per shift class that has rows,
    keyed by global coordinate."""

    def __init__(self, layout: FlatLayout):
        self.layout = layout
        self.echelons: dict[int, IntegerEchelon] = {}
        self.widths, self.class_group = layout.class_width, np.arange(len(layout.class_width))

    @property
    def nrows(self) -> int:
        return sum(ech.rank for ech in self.echelons.values())

    def global_pivots(self) -> list[int]:
        """The pivots class by class, in increasing order within a class."""
        return [p for t in sorted(self.echelons) for p in sorted(self.echelons[t].basis)]

    def stacks(self, counts: np.ndarray):
        """Both engines' plan of the stacks for ``counts[t]`` candidates of
        each class t, one per group (a class here, a width group on the
        modular field), groups in order: (plan, stack, start), plan[s] stack
        s's (classes, shape), and class t's candidate r at flat place
        start[t] + r * width of stack stack[t]."""
        live = np.flatnonzero(counts)
        grp = self.class_group[live]
        plan, stack, start = [], np.full(len(counts), -1), np.zeros(len(counts), dtype=np.int64)
        for g in np.flatnonzero(np.bincount(grp, minlength=len(self.widths))).tolist():
            ts = live[grp == g]
            shape = (len(ts), int(counts[ts].max()), int(self.widths[g]))
            stack[ts], start[ts] = len(plan), np.arange(len(ts)) * shape[1] * shape[2]
            plan.append((ts, shape))
        return plan, stack, start

    def process_batch(self, batch: tuple, phases: dict[str, float]) -> tuple:
        """Insert each filled stack (float64 int rows) of ``batch``, class by
        class and row by row, into each class's echelon (made with its first
        nonzero row), one ``np.nonzero`` per class, each stack dropped once
        inserted; the raw rows that add a pivot are the COO frontier."""
        plan, stacks = batch
        parts = []
        for (ts, _), C in zip(plan, stacks):
            for t, Ct in zip(ts.tolist(), C):
                r, c = np.nonzero(Ct != 0)  # a candidate per run of equal r, in row order
                if not r.size:
                    continue
                ech = self.echelons.setdefault(t, IntegerEchelon())
                coords, values = self.layout.class_indices[t][c], Ct[r, c]
                size = np.bincount(r)
                size = size[size > 0]
                ends = np.cumsum(size).tolist()
                keys, ints = coords.tolist(), values.astype(np.int64).tolist()
                took = np.array([ech.insert(dict(zip(keys[i:j], ints[i:j]))) is not None
                                 for i, j in zip([0] + ends, ends)])
                if took.any():
                    keep = np.repeat(took, size)
                    row = np.repeat(np.cumsum(took) - 1, size)[keep]
                    parts.append((np.full(len(row), t), row, coords[keep], values[keep]))
            C = None
        return _frontier(parts)


def _frontier(parts: list) -> tuple:
    """The COO frontier (class, row within its class, coordinate: int32;
    value) of ``parts``, a class's nonzeros one run, its rows increasing."""
    cols = [np.concatenate(a) for a in zip(*parts)] if parts else [[]] * 4
    return (*(np.asarray(a, dtype=np.int32) for a in cols[:3]), np.asarray(cols[3], dtype=float))


# ---------------------------------------------------------------------------
# modular engine (float64 BLAS over F_p, exact by prime sizing)
# ---------------------------------------------------------------------------


def _columns(C: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The stack of C[i][:, cols[i]]."""
    k, m = C.shape[:2]
    return C[np.arange(k)[:, None, None], np.arange(m)[None, :, None], cols[:, None, :]]


class _HalfEngine:
    """The fully reduced echelon bases of all shift classes of one width,
    held as one rank-padded stack.

    Slot k belongs to class ``classes[k]``.  ``B[k, :nrows[k]]`` are that
    class's basis rows on its class-local coordinates, in insertion order,
    and ``pivots[k, j]`` is the pivot of row j: each row is 1 at its own
    pivot and 0 at every other pivot of its class.  The rows past a slot's
    rank, up to the largest rank of the group, are zero with pivot 0, so a
    batch of candidates of any set of slots reduces in one batched product.
    Every array holds balanced residues (|x| <= (p-1)/2), and the primes are
    sized so no product here can leave the exact float64 integer range."""

    def __init__(self, p: int, width: int, classes: np.ndarray):
        self.p = p
        self.fp = float(p)
        self.inv_p = 1.0 / p
        self.width = width
        self.classes = classes
        self.nrows = np.zeros(len(classes), dtype=np.int64)
        self.B = np.zeros((len(classes), 0, width))
        self.pivots = np.zeros((len(classes), 0), dtype=np.int64)  # local coordinates

    def _balance(self, a: np.ndarray) -> np.ndarray:
        q = np.multiply(a, self.inv_p)
        np.rint(q, out=q)
        q *= self.fp
        a -= q
        return a

    def reserve(self, rank: int) -> None:
        """Pad the stack to hold ``rank`` rows per slot."""
        extra = rank - self.B.shape[1]
        if extra > 0:
            k = len(self.classes)
            self.B = np.concatenate([self.B, np.zeros((k, extra, self.width))], axis=1)
            self.pivots = np.concatenate([self.pivots, np.zeros((k, extra), np.int64)], axis=1)

    def reduce_rows(self, C: np.ndarray, sel: np.ndarray) -> np.ndarray:
        """Reduce each C[i], a stack of rows of slot sel[i], in place against
        that slot's basis: the rows are first balanced mod p (bracket
        outputs come in as exact unreduced sums, see ``_bracket_rows``),
        then reduced by one batched product, the bases being fully
        reduced."""
        self._balance(C)
        rank = int(self.nrows[sel].max(initial=0))
        if rank:
            C -= _columns(C, self.pivots[sel, :rank]) @ self.B[sel, :rank]
            self._balance(C)
        return C

    def insert_batch(self, C: np.ndarray, sel: np.ndarray) -> dict[int, range]:
        """Insert candidate rows already reduced against the bases: C[i]
        holds the candidates of slot sel[i], padded with zero rows.  Returns
        {class: range of its new rows} for every class that gained rows;
        a class's new rows come in increasing pivot order.

        One modular RREF of all the stacks at once, by the rule for a single
        class: at each step, every class that still has a live row takes
        its leftmost live column, normalises its first row nonzero there,
        and clears that column from its other rows that are nonzero in it.
        So each class's pivots increase, and each of its new rows leads at
        its pivot and is zero at every other new pivot.  The stored rows are
        then reduced at the new pivots, so the bases stay fully reduced."""
        p, w = self.p, self.width
        nz = C != 0
        lead = np.where(nz.any(axis=2), nz.argmax(axis=2), w)  # w: zero or pivot row
        steps = []
        while True:
            col = lead.min(axis=1, initial=w)
            live = np.flatnonzero(col < w)  # a class once dead stays dead
            if not live.size:
                break
            c = col[live]
            r = lead[live].argmin(axis=1)  # the first row leading at c
            inv = np.array([pow(x, -1, p) for x in (C[live, r, c].astype(np.int64) % p).tolist()])
            rows = self._balance(C[live, r] * np.where(inv > p // 2, inv - p, inv)[:, None])
            C[live, r] = rows
            lead[live, r] = w
            a, b = np.nonzero(C[live, :, c])
            keep = b != r[a]
            a, b = a[keep], b[keep]
            if a.size:
                k = live[a]
                # fancy indexing copies, so the balanced rows are written back
                hit = self._balance(C[k, b] - C[k, b, c[a]][:, None] * rows[a])
                C[k, b] = hit
                free = lead[k, b] < w
                nz = hit[free] != 0
                lead[k[free], b[free]] = np.where(nz.any(axis=1), nz.argmax(axis=1), w)
            steps.append((live, r, c))
        if not steps:
            return {}
        # a class live at s steps gains s rows, its j-th new row taken at step j
        gained = np.zeros(len(sel), dtype=np.int64)
        V = np.zeros((len(sel), len(steps), w))
        P = np.zeros((len(sel), len(steps)), dtype=np.int64)
        for j, (live, r, c) in enumerate(steps):
            gained[live] += 1
            V[live, j] = C[live, r]
            P[live, j] = c
        got = np.flatnonzero(gained)
        slots, V, P, gained = sel[got], V[got], P[got], gained[got]
        start = self.nrows[slots]
        rank = int(start.max())
        if rank:
            B = self.B[slots, :rank]
            coef = _columns(B, P)
            if np.any(coef):
                B -= coef @ V
                self.B[slots, :rank] = self._balance(B)
        self.reserve(int((start + gained).max()))
        k, j = np.nonzero(np.arange(len(steps)) < gained[:, None])
        self.B[slots[k], start[k] + j] = V[k, j]
        self.pivots[slots[k], start[k] + j] = P[k, j]
        self.nrows[slots] += gained
        return {t: range(a, z) for t, a, z in
                zip(self.classes[slots].tolist(), start.tolist(), (start + gained).tolist())}


class _ModularEngine:
    """The echelon basis of the whole closure: one ``_HalfEngine`` per class
    width, holding every shift class of that width.

    Rows are listed class by class, in increasing pivot order within a
    class, and pivots are reported in the global coordinate numbering.
    Every row is homogeneous, so the span is the direct sum of its class
    parts and the classes never interact.  Class-local coordinates are in
    increasing global order, so a local pivot is the row's global leading
    coordinate and the pivot set is that of the unsplit computation."""

    def __init__(self, layout: FlatLayout, p: int):
        self.layout = layout
        self.root_i = root_of_minus_one(p)
        self.class_width = layout.class_width
        # class t's local coordinate c is the global coordinate coords[first[t] + c]
        self.coords = np.concatenate(layout.class_indices)
        self.first = np.cumsum(self.class_width) - self.class_width
        self.widths, self.class_group = np.unique(self.class_width, return_inverse=True)
        self.groups = [_HalfEngine(p, int(w), np.flatnonzero(self.class_group == g))
                       for g, w in enumerate(self.widths)]
        self.class_slot = np.empty(len(self.class_width), dtype=np.int64)
        for ech in self.groups:
            self.class_slot[ech.classes] = np.arange(len(ech.classes))

    def _where(self, t: int) -> tuple[_HalfEngine, int]:
        return self.groups[self.class_group[t]], int(self.class_slot[t])

    @property
    def nrows(self) -> int:
        return int(sum(ech.nrows.sum() for ech in self.groups))

    def listing(self):
        """Every basis row, listed class by class in increasing pivot order
        within a class, as arrays of its class, its local pivot and its
        (group, slot, row) place in the stacks."""
        parts = []
        for g, ech in enumerate(self.groups):
            k, j = np.nonzero(np.arange(ech.B.shape[1]) < ech.nrows[:, None])
            parts.append((ech.classes[k], ech.pivots[k, j], np.full(len(k), g), k, j))
        cls, piv, grp, slot, row = map(np.concatenate, zip(*parts))
        order = np.lexsort((piv, cls))
        return cls[order], piv[order], grp[order], slot[order], row[order]

    def export_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(classes, local pivots, residues) of the basis rows in
        ``listing`` order, the rows' class-local residues concatenated: per
        width group, one gather of its rows and one copy of them, row by
        row, into their windows of the residues."""
        cls, piv, grp, slot, row = self.listing()
        at = np.cumsum(self.class_width[cls]) - self.class_width[cls]  # each row's first residue
        residues = np.empty(int(self.class_width[cls].sum()))
        for g, ech in enumerate(self.groups):
            if (m := grp == g).any():  # the group's rows, each copied whole
                _windows(residues, ech.width, writeable=True)[at[m]] = ech.B[slot[m], row[m]]
        return cls, piv, residues

    def import_rows(self, cls: np.ndarray, piv: np.ndarray, residues: np.ndarray) -> None:
        """Fill an empty engine with rows given as ``export_rows`` gives
        them: a class's rows are one segment of the residues, copied whole
        into the class's stack."""
        counts = np.bincount(cls, minlength=len(self.class_group))
        row = np.arange(len(cls)) - (np.cumsum(counts) - counts)[cls]
        end = np.cumsum(counts * self.class_width).tolist()
        for g, ech in enumerate(self.groups):
            m = self.class_group[cls] == g
            ech.reserve(int(counts[ech.classes].max()))
            ech.pivots[self.class_slot[cls[m]], row[m]] = piv[m]
            ech.nrows, w = counts[ech.classes], ech.width
            for k, (t, n) in enumerate(zip(ech.classes.tolist(), ech.nrows.tolist())):
                ech.B[k, :n] = residues[end[t] - n * w : end[t]].reshape(n, w)

    def global_pivots(self) -> list[int]:
        cls, piv = self.listing()[:2]
        return self.coords[self.first[cls] + piv].tolist()

    stacks = _ExactEngine.stacks

    def process_batch(self, batch: tuple, phases: dict[str, float]) -> tuple:
        """Reduce and insert the stacks of ``batch`` (the plan from ``stacks``
        and the stacks, filled in turn), each dropped once inserted; the new
        basis rows, one ``np.nonzero`` per group, are the COO frontier."""
        plan, stacks = batch
        parts = []
        for (ts, _), C in zip(plan, stacks):
            ech, sel = self.groups[self.class_group[ts[0]]], self.class_slot[ts]
            t1 = time.perf_counter()
            ech.reduce_rows(C, sel)
            t2 = time.perf_counter()
            before = ech.nrows[sel]
            if ech.insert_batch(C, sel):
                k, j = np.nonzero(np.arange(C.shape[1]) < (ech.nrows[sel] - before)[:, None])
                V = ech.B[sel[k], before[k] + j]  # the new rows, j-th of their class
                r, c = np.nonzero(V != 0)
                t = ech.classes[sel[k[r]]]
                parts.append((t, j[r], self.coords[self.first[t] + c], V[r, c]))
            C = None
            phases["reduce_s"] += t2 - t1
            phases["insert_s"] += time.perf_counter() - t2
        return _frontier(parts)

    def contains(self, coords: np.ndarray, residues: np.ndarray) -> bool:
        """Membership of a vector given by its ``_project``-ed entries: the
        span is graded, so only the classes they touch are built, each on
        its class-local coordinates and reduced on views of its rows.  A
        reduced entry sums at most 448 (the widest class) products of
        balanced residues, far below 2^53, so fmod by p tests it exactly."""
        cls, local = self.layout.coord_class[coords], self.layout.coord_local[coords]
        for t in set(cls.tolist()):
            at = cls == t
            ech, k = self._where(t)
            v = np.zeros(ech.width)
            v[local[at]] = residues[at]
            n = ech.nrows[k]  # a class without rows reduces by an empty product
            v -= v[ech.pivots[k, :n]] @ ech.B[k, :n]
            if np.fmod(v, ech.fp).any():
                return False
        return True


_GeneratorTable = namedtuple("_GeneratorTable", "nkeys keys start off coef local target most")


def _coordinate_keys(layout: FlatLayout) -> tuple:
    """The layout's side of a generator table, built with it once per
    closure and dropped with it: ``line[k] + i`` numbers block k's i-th row
    (or column) among all ``nlines``; ``keys[x]`` are x's row key (line,
    part), which g x reads, and column key (line, part, parity), which x g
    reads; ``lines`` each coordinate's row and column line, class by class;
    ``code`` a shift's class by its base-7 code.  Written block by block
    in int32, so its temporaries are a block's rows, not the layout's."""
    parts = 1 if layout.complexified else 2
    line = np.zeros(len(BLOCK_SIZES), dtype=np.int64)
    line[list(layout.blocks)] = np.cumsum([0] + [BLOCK_SIZES[k] for k in layout.blocks])[:-1]
    nlines = sum(BLOCK_SIZES[k] for k in layout.blocks)
    keys, lines = np.empty((layout.length, 2), dtype=np.int32), np.empty((2, layout.length), np.int32)
    for k in layout.blocks:
        s, o = BLOCK_SIZES[k], layout.offsets[k]
        at, shape = slice(o, o + parts * s * s), (parts, s, s)  # block k's [part, row, column]
        i, a = np.arange(line[k], line[k] + s, dtype=np.int32), np.arange(parts, dtype=np.int32)
        u, v = lines[:, at].reshape(2, *shape)  # views: writing them writes lines
        u[:], v[:] = i[:, None], i
        key = keys[at].reshape(*shape, 2)
        key[..., 0] = u * parts + a[:, None, None]
        key[..., 1] = (parts * nlines + 2 * (v * parts + a[:, None, None])
                       + layout.class_parity[layout.coord_class[at]].reshape(shape))
    lines = lines.take(np.concatenate(layout.class_indices), axis=1)
    code = np.full(7**3, -1)
    code[(layout.class_shift_array + 3) @ [49, 7, 1]] = np.arange(len(layout.class_width))
    return line, nlines, keys, lines, code


def _generator_table(layout: FlatLayout, gens, flat) -> _GeneratorTable:
    """ad_g = [g, .] of the generators g on the layout, once per closure,
    from their flat entries ``flat`` (balanced residues or exact integers),
    each generator in one shift class (``lie_closure`` checks it).
    Generator i's entries at key k (``_coordinate_keys``) are
    ``start[i * nkeys + k]`` up to the next start, each a target's offset
    from x (``off``) and a nonzero coefficient (``coef``).  A channel
    (source class d, generator i) with entries lands in class
    ``target[d, i]`` (else -1), at most ``most[d, i]`` entries on one
    coordinate; ``local`` is ``coord_local`` as int32.

    Part a of x meets part m of g in part a ^ m, negated when both are
    imaginary (i * i = -1); complex mode has the one part a = m = 0.  So
    x[a, u, v] meets g[r, u] in (g x)[a ^ m, r, v], and g[v, c] in
    (x g)[a ^ m, u, c], signed as in [g, x] = g x - (-1)^{|g||x|} x g.
    Each entry of g is copied for each part a and (on the right) parity of
    x, keyed by the row (a, u) or column (a, v) of x it meets, with its
    coefficient and the target's offset from the source,
    (a ^ m - a) s^2 + (r - u) s or (a ^ m - a) s^2 + c - v.  So target
    (a, r, c) receives one entry per nonzero part of g's row r and one per
    nonzero part of its column c, all from the class of shift(target) -
    shift(g)."""
    ngens, parts, width = len(gens), 1 if layout.complexified else 2, layout.class_width
    owner = np.repeat(np.arange(ngens), [len(f[0]) for f in flat])
    coords, value = np.concatenate([f[0] for f in flat]), np.concatenate([f[1] for f in flat])
    here = value != 0  # a part may vanish mod p
    owner, value, coords = owner[here], value[here], coords[here]
    block, row, col, part = layout.places(coords)
    s = np.array(BLOCK_SIZES)[block]
    line, lines, keys, rc, code = _coordinate_keys(layout)
    nkeys = 3 * parts * lines  # rows (line, part), then columns (line, part, parity)
    odd = np.array([g.parity for g in gens], dtype=bool)[owner]
    key, off, coef = [], [], []
    for a in range(parts):
        shift, w = ((a ^ part) - a) * s * s, np.where(a & part, -value, value)
        right = parts * lines + 2 * ((line[block] + row) * parts + a)
        key += [(line[block] + col) * parts + a, right, right + 1]
        off += [shift + (row - col) * s] + [shift + col - row] * 2
        coef += [w, -w, np.where(odd, w, -w)]  # g x; x g for x even, odd
    key = np.concatenate(key) + nkeys * np.tile(owner, 3 * parts)
    order = np.argsort(key, kind="stable")
    start = np.searchsorted(key[order], np.arange(ngens * nkeys + 1)).astype(np.int32)
    # the most entries of each generator landing on one coordinate of each class
    lines_of = [np.bincount(owner * lines + line[block] + x, minlength=ngens * lines)
                .reshape(ngens, lines) for x in (row, col)]
    lands = np.array([np.maximum.reduceat(r.take(rc[0]) + c.take(rc[1]), np.cumsum(width) - width)
                      for r, c in zip(*lines_of)])
    # generator i takes class d to the class of shift(d) + shift(g_i), if there is one
    shifts = layout.class_shift_array
    moved = shifts[:, None] + shifts[[layout.coord_class[f[0]] if len(f) else 0 for f, _ in flat]]
    target = np.where((abs(moved) <= 3).all(axis=2), code[(moved.clip(-3, 3) + 3) @ [49, 7, 1]], -1)
    most = np.where(target >= 0, lands[np.arange(ngens), target], 0)
    return _GeneratorTable(nkeys, keys, start, np.concatenate(off)[order].astype(np.int32),
                           np.concatenate(coef)[order], layout.coord_local.astype(np.int32),
                           np.where(most > 0, target, -1), most)


def _bracket_rows(table: _GeneratorTable, frontier: tuple, source: np.ndarray,
                  generator: np.ndarray, base: np.ndarray, width: np.ndarray) -> tuple:
    """[g, x] for every row x of the COO ``frontier`` (class, row, global
    coordinate, value; a class's nonzeros one run) and every channel c =
    (source[c], generator[c]) of its class, in one pass: each nonzero of x
    meets g's entries at its two keys, and row r's products land at flat
    places base[c] + r * width[c] + target's class-local coordinate.
    Returns (places, values, ends), channel c's being ends[c]:ends[c + 1];
    index arrays are int32 where every value fits, each dropped once read."""
    cls, row, coord, value = frontier
    head = np.flatnonzero(np.diff(cls, prepend=-1))
    first, count = np.zeros((2, len(table.most)), dtype=np.int64)
    first[cls[head]], count[cls[head]] = head, np.diff(head, append=len(cls))
    m = count[source]  # a (channel, nonzero) pair per nonzero of the channel's source
    pair = np.repeat(np.arange(len(source), dtype=np.int32), m)
    nz = (first[source] - (np.cumsum(m) - m)).astype(np.int32).take(pair)
    nz += np.arange(len(nz), dtype=np.int32)
    places = int((base + width * (row.max(initial=0) + 1)).max(initial=0))
    most = 2 * len(nz) * int(np.diff(table.start).max(initial=0)) + len(table.coef)  # products
    index = np.int32 if max(places, most) < 2**31 else np.int64
    at = base.astype(index).take(pair)  # each pair's row in its stack
    at += row.take(nz) * width.astype(index).take(pair)
    x = coord.take(nz)
    # the pair's two keys, one int64 per coordinate, generator i's offset added to both halves
    n = table.keys.view(np.int64).take(x)
    n += (generator * table.nkeys * (2**32 + 1)).take(pair)
    n, pair = n.view(np.int32).astype(np.intp), None
    lo = table.start.take(n)
    n += 1
    n = table.start.take(n)
    n -= lo  # the entries at each key
    u = np.flatnonzero(n > 0)  # the keys with entries
    n = n.take(u)
    ends = np.cumsum(n, dtype=index)
    lo = lo.take(u).astype(index, copy=False) - (ends - n)
    k = np.repeat(np.arange(len(u), dtype=index), n)  # each product's key
    e, lo, n = lo.take(k), None, None
    e += np.arange(len(e), dtype=index)  # its table entry
    k = (u >> 1).astype(index).take(k)  # its pair
    pos = at.take(k)
    pos += table.local.take(x.take(k) + table.off.take(e))  # its target's place
    x = at = None
    val = value.take(nz).take(k)
    val *= table.coef.take(e)
    stop = np.searchsorted(u, 2 * np.concatenate([[0], np.cumsum(m)]))  # each channel's keys
    return pos, val, np.concatenate([[0], ends])[stop]


# the (channel, nonzero) pairs a run of stacks may always take, so that a
# level of small stacks brackets in a few kernel calls, not one per stack
RUN_FLOOR = 2**13


def _filled_stacks(table: _GeneratorTable, frontier: tuple, channels: tuple, plan: list,
                   edge: np.ndarray):
    """The planned stacks, filled in turn with their ``channels`` (source,
    generator, base, width; stack s's are edge[s]:edge[s + 1]) by
    ``np.add.at``; one ``_bracket_rows`` serves a run of whole stacks whose
    (channel, nonzero) pairs fit in the entries of the level's largest
    stack, or in ``RUN_FLOOR`` if that is more (a stack with more pairs
    runs alone), so the kernel's products stay within about one stack."""
    pairs = np.bincount(frontier[0], minlength=len(table.most))[channels[0]]
    bound = max(max(np.prod(s) for _, s in plan), RUN_FLOOR)
    cuts, held = [0], 0
    for s, n in enumerate(np.add.reduceat(pairs, edge[:-1]).tolist() if len(pairs) else []):
        cuts, held = (cuts + [s], n) if held and held + n > bound else (cuts, held + n)
    for a, b in zip(cuts, cuts[1:] + [len(plan)]):
        pos = val = None
        pos, val, ends = _bracket_rows(table, frontier, *(c[edge[a] : edge[b]] for c in channels))
        cut = ends[edge[a : b + 1] - edge[a]].tolist()
        for s, i, j in zip(range(a, b), cut, cut[1:]):
            C = np.zeros(plan[s][-1])
            np.add.at(C.reshape(-1), pos[i:j], val[i:j])
            yield C
            C = None  # the engine's stack is dropped before the next is made


def _closure(gens: list[RestrictedOperator], layout: FlatLayout, flat: list[tuple], eng,
             progress=None):
    """Level-synchronous left-normed closure on either engine, from the
    generators' flat entries ``flat`` (coordinates and float64 values: int
    rows over Q, or balanced residues mod p), the first frontier.  Each
    level reads the channels of its frontier's classes off the generator
    table, plans the stacks by one bincount over them, and hands them to
    the engine as ``_filled_stacks`` fills them, bracketing a run of about
    one stack at a time; the rows that add to the span, in COO form, are
    the next frontier.  Every sum of a level is below max |frontier entry|
    * max |generator entry| * the most entries landing on one coordinate
    from the level's classes, which must stay below 2^53 (else
    InexactBracket), and the rank within ``DIMENSION_BOUND``.  Each row
    that adds to the span meets every generator once, so ``brackets`` is
    len(gens) * dim.  Returns (brackets, levels, phases), the last the
    seconds spent building the table, bracketing, reducing and inserting."""
    nclasses, ngens, width = len(layout.class_width), len(gens), layout.class_width
    phases = dict.fromkeys(("adjoint_s", "bracket_s", "reduce_s", "insert_s"), 0.0)
    gmax = max((float(np.abs(v).max()) for _, v in flat if len(v)), default=0.0)
    if gmax >= 2**53:
        raise InexactBracket("a generator entry reaches 2^53")
    t0 = time.perf_counter()
    table = _generator_table(layout, gens, flat)
    phases["adjoint_s"] = time.perf_counter() - t0
    seeds = [(int(layout.coord_class[f[0]]), f, v) for f, v in flat if len(f)]
    plan, stack, start = eng.stacks(np.bincount(np.array([t for t, _, _ in seeds], dtype=np.int64),
                                                minlength=nclasses))
    stacks, filled = [np.zeros(spec[-1]) for spec in plan], np.zeros(nclasses, dtype=np.int64)
    for t, f, v in seeds:
        stacks[stack[t]].reshape(-1)[start[t] + filled[t] * width[t] + layout.coord_local[f]] = v
        filled[t] += 1
    frontier = eng.process_batch((plan, stacks), phases)
    brackets = levels = 0
    while True:
        cls, row = frontier[:2]  # the frontier's rows per class
        size, last = np.zeros(nclasses, dtype=np.int64), np.flatnonzero(np.diff(cls, append=-1))
        size[cls[last]] = row[last] + 1
        if eng.nrows > DIMENSION_BOUND:
            raise AssertionError("closure rank exceeded the proven upper bound")
        if progress and levels:
            progress(levels, eng.nrows, brackets, int(size.sum()))
        if not size.any():
            return brackets, levels, phases
        t0 = time.perf_counter()
        src = np.flatnonzero(size)
        if float(np.abs(frontier[3]).max()) * gmax * int(table.most[src].max()) >= 2**53:
            raise InexactBracket(f"level {levels + 1}: a bracket sum could reach 2^53")
        d, g = np.nonzero(table.target[src] >= 0)  # the level's channels: source class, generator
        d, t = src[d], table.target[src[d], g]
        plan, stack, start = eng.stacks(np.bincount(t, weights=size[d], minlength=nclasses)
                                        .astype(np.int64))
        o = np.lexsort((t, stack[t]))  # stack by stack, a target's channels in (d, g) order
        d, g, t = d[o], g[o], t[o]
        below = np.cumsum(size[d]) - size[d]
        head = np.flatnonzero(np.diff(t, prepend=-1))
        below -= np.repeat(below[head], np.diff(head, append=len(t)))  # a channel's first row
        edge = np.searchsorted(stack[t], np.arange(len(plan) + 1))  # stack s's channels
        stacks = _filled_stacks(table, frontier, (d, g, start[t] + below * width[t], width[t]),
                                plan, edge)
        frontier, engine_s = None, phases["reduce_s"] + phases["insert_s"]
        brackets += int(size.sum()) * ngens
        levels += 1
        frontier = eng.process_batch((plan, stacks), phases)
        phases["bracket_s"] += time.perf_counter() - t0 - (phases["reduce_s"] + phases["insert_s"]
                                                           - engine_s)


# ---------------------------------------------------------------------------
# public driver
# ---------------------------------------------------------------------------


@dataclass
class ClosureState:
    """Result of one closure run: an echelonized basis of the flattened
    algebra with deterministic pivots, one per basis row.  ``dim``,
    ``blocks`` and ``parities`` (each row's, the parity of its pivot's shift
    class) are read off the pivots and the layout, for computed and loaded
    states alike."""

    field: str
    prime: int | None
    layout: FlatLayout
    pivots: list[int]
    brackets: int
    wall_s: float
    levels: int = 0  # bracketing levels of a modular run (not in the report)
    _engine: object = None  # {class: IntegerEchelon} (exact) or _ModularEngine
    # seconds spent building the generator table, bracketing, reducing and
    # inserting in a modular run (not in the report)
    phases: dict[str, float] = dataclasses.field(default_factory=dict)
    blocks: tuple[int, ...] = dataclasses.field(init=False)
    dim: int = dataclasses.field(init=False)
    parities: list[int] = dataclasses.field(init=False)

    def __post_init__(self):
        self.blocks, self.dim = self.layout.blocks, len(self.pivots)
        self.parities = self.layout.class_parity[self.layout.coord_class[self.pivots]].tolist()

    def block_dims(self) -> dict[int, int]:
        """Per-block dimensions read off the echelon pivots.  Pivot counts
        are exact projection ranks whenever the per-block ranks sum to the
        total dimension (each block's pivot rows project independently)."""
        block = self.layout.places(np.array(self.pivots, dtype=np.int64))[0]
        return {k: int(np.count_nonzero(block == k)) for k in self.blocks}

    def parity_dims(self) -> tuple[int, int]:
        odd = sum(self.parities)
        return len(self.parities) - odd, odd

    def pivot_hash(self) -> str:
        h = hashlib.sha256()
        h.update(repr(sorted(self.pivots)).encode())
        return h.hexdigest()[:16]

    def _on_layout(self, rop: RestrictedOperator) -> bool:
        """Whether rop vanishes on every block the layout lacks (else it is
        no member)."""
        return not any(any(b.values()) for k, b in rop.blocks.items() if k not in self.blocks)

    def contains_exact(self, rop: RestrictedOperator) -> bool:
        """Exact membership, class by class: rop's part on each class it
        touches, scaled to an int row, must reduce to zero in that class's
        echelon, and a part on a class without rows is no member."""
        assert isinstance(self._engine, dict)
        if not self._on_layout(rop):
            return False
        coords, values = self.layout.entries(rop)
        parts: dict[int, dict] = {}
        for t, f, v in zip(self.layout.coord_class[coords].tolist(), coords.tolist(), values):
            parts.setdefault(t, {})[f] = v
        return all(t in self._engine and self._engine[t].contains(integral(row))
                   for t, row in parts.items())

    def contains_modular(self, rop: RestrictedOperator) -> bool:
        assert isinstance(self._engine, _ModularEngine)
        return self._on_layout(rop) and self._engine.contains(
            *_project(*self.layout.entries(rop), self.prime, self._engine.root_i))

    def supertrace_residues(self) -> float:
        """max |supertrace residue| over all basis rows (modular only): every
        diagonal entry lies in the zero-shift class, so that class's rows
        meet one +-1 sign vector per part (real and imaginary in real mode,
        one residue per entry carrying both in complex mode)."""
        assert isinstance(self._engine, _ModularEngine)
        layout, parts = self.layout, 1 if self.layout.complexified else 2
        ech, k = self._engine._where(int(layout.coord_class[layout.offsets[layout.blocks[0]]]))
        signs = np.zeros((ech.width, parts))
        for b in layout.blocks:
            s, i = BLOCK_SIZES[b], np.arange(BLOCK_SIZES[b])
            sign = np.where(i < HW_HALF_DIMS[b], 1, -1)
            for m in range(parts):  # part m of entry (i, i)
                signs[layout.coord_local[layout.offsets[b] + m * s * s + i * (s + 1)], m] = sign
        return float(np.abs(ech._balance(ech.B[k, :ech.nrows[k]] @ signs)).max(initial=0.0))

    def report(self) -> dict:
        return {
            "field": self.field,
            "prime": self.prime,
            "blocks": [f"hw{k}" for k in self.blocks],
            "dim": self.dim,
            "block_dims": {f"hw{k}": v for k, v in self.block_dims().items()},
            "parity_dims": {"even": self.parity_dims()[0], "odd": self.parity_dims()[1]},
            "brackets": self.brackets,
            "pivot_hash": self.pivot_hash(),
        }

    def save(self, path: str) -> None:
        """Compressed dump of the echelon basis (modular states only),
        enough to resume membership checks without recomputing the closure.

        Basis rows are stored class by class, in increasing pivot order
        within a class: ``row_class`` holds each row's class id,
        ``row_pivot`` its class-local pivot, and ``rows`` the concatenation
        of the rows' class-local residues.  Like ``np.savez``, a ".npz" suffix is
        appended when missing.  The file is written to a temporary name and
        then renamed into place."""
        if not isinstance(self._engine, _ModularEngine):
            raise ValueError("only modular closure states can be dumped")
        row_class, row_pivot, rows = self._engine.export_rows()
        path = os.fspath(path)
        if not path.endswith(".npz"):
            path += ".npz"
        _write_atomic(path, "wb", lambda fh: np.savez_compressed(
            fh, field=self.field, prime=self.prime, blocks=np.asarray(self.blocks),
            complexified=np.asarray(self.layout.complexified),
            row_class=row_class.astype(np.int32), row_pivot=row_pivot.astype(np.int32),
            rows=rows.astype(np.int32), brackets=self.brackets))


def _write_atomic(path: str, mode: str, write) -> None:
    """Call write(fh) on a temporary file beside ``path``, opened with
    ``mode``, and rename it into place; on failure the file is removed."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".wsdalg-")
    try:
        with os.fdopen(fd, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _resolve_generators(generators, ralg: RestrictedAlgebra) -> list[RestrictedOperator]:
    if isinstance(generators, str):
        raise ValueError(f"generators: {generators!r} is a name, not a sequence of generators")
    out = []
    for i, g in enumerate(generators):
        if isinstance(g, str):
            if g not in GENERATOR_NAMES:
                raise ValueError(f"generators[{i}]: unknown generator name {g!r}")
            out.append(ralg.generator(g))
        elif isinstance(g, RestrictedOperator):
            out.append(g)
        elif isinstance(g, Operator):
            out.append(ralg.restrict(g))
        else:
            raise TypeError(f"cannot use {type(g).__name__} as a generator")
    return out


def _valid_blocks(blocks: tuple) -> bool:
    """Whether blocks is a non-empty strictly increasing tuple of integers
    (Python or numpy, not bool) drawn from 0..3, the only form whose layout,
    and so whose pivots, depend on the set of blocks alone."""
    return (bool(blocks) and all(isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                                 for k in blocks)
            and set(blocks) <= {0, 1, 2, 3} and list(blocks) == sorted(set(blocks)))


def lie_closure(
    generators=GENERATOR_NAMES,
    field: str = "modular",
    blocks=(0, 1, 2, 3),
    prime: int | None = None,
    ralg: RestrictedAlgebra | None = None,
    progress=None,
) -> ClosureState:
    """Close the span of the generators under bracketing with each of them.

    field: "exact" (int rows over Q; raises InexactBracket rather than
    form a sum past 2^53), "modular" (real coordinates mod p) or
    "modular-complex" (one residue per matrix entry; the rank is then the
    complex dimension of the complexified algebra).
    blocks: the highest-weight blocks to close on, a non-empty strictly
    increasing tuple of integers drawn from 0..3; generators a sequence of
    at least one generator (a name in GENERATOR_NAMES or an operator), each
    in one multidegree-shift class of its declared parity.  Anything else
    raises ValueError.
    prime, progress: modular only (an exact run raises ValueError on
    either).  The prime defaults to ``DEFAULT_PRIMES[0]``; progress is
    called after each bracketing level with (level, dim, brackets,
    frontier size), and the last call has frontier 0.
    """
    ralg = ralg or default_algebra()
    gens = _resolve_generators(generators, ralg)
    if not gens:
        raise ValueError("generators: at least one generator is needed")
    blocks = tuple(blocks)
    if not _valid_blocks(blocks):
        raise ValueError(f"blocks {blocks}: need a non-empty strictly increasing tuple "
                         "of integers drawn from 0..3")
    if field not in ("exact", "modular", "modular-complex"):
        raise ValueError(f"unknown field {field!r}")
    for name, value in (("prime", prime), ("progress", progress)):
        if field == "exact" and value is not None:
            raise ValueError(f"{name}: the exact field takes none")
    t0 = time.perf_counter()
    layout = FlatLayout(blocks, complexified=(field == "modular-complex"))
    entries = [layout.entries(g) for g in gens]  # each generator flattened once per closure
    for i, (g, (f, _)) in enumerate(zip(gens, entries)):
        cls = layout.coord_class[f]
        if np.any(cls != cls[:1]):
            raise ValueError(f"generators[{i}]: not homogeneous in the multidegree-shift grading")
        if np.any(layout.class_parity[cls] != g.parity):
            raise ValueError(f"generators[{i}]: support not all of its parity {g.parity}")
    if field == "exact":  # each row times the lcm of its denominators: its span over Q
        eng = _ExactEngine(layout)
        flat = [(f, np.array(list(integral(dict(zip(f.tolist(), v))).values()), dtype=np.float64))
                for f, v in entries]
    else:
        prime = validate_prime(prime if prime is not None else DEFAULT_PRIMES[0])
        eng = _ModularEngine(layout, prime)
        flat = [_project(*e, prime, eng.root_i) for e in entries]
    brackets, levels, phases = _closure(gens, layout, flat, eng, progress)
    pivots = eng.global_pivots()
    if field == "exact":  # its state keeps the echelons alone
        levels, phases, eng = 0, {}, eng.echelons
    return ClosureState(field, prime, layout, pivots, brackets, time.perf_counter() - t0, levels,
                        eng, phases)


_STATE_KEYS = ("field", "prime", "blocks", "complexified", "row_class", "row_pivot",
               "rows", "brackets")


def load_state(path: str) -> ClosureState:
    """Rebuild a membership-capable closure state from ``ClosureState.save``.

    The file is checked against the layout it names before use; an
    unreadable file or any inconsistency raises ValueError naming the
    problem (a missing path raises FileNotFoundError)."""

    def bad(why: str) -> ValueError:
        return ValueError(f"closure state {path}: {why}")

    with open(path, "rb") as fh:
        try:
            data = np.load(fh)
            if archive := isinstance(data, np.lib.npyio.NpzFile):
                with data:
                    d = {k: data[k] for k in _STATE_KEYS if k in data.files}
        except Exception as e:  # zipfile, zlib, OS, EOF, tokenize, numpy: no narrower base
            raise bad(f"not a readable archive ({type(e).__name__}: {e})") from None
    if not archive:
        raise bad("not an archive of named arrays")
    missing = [k for k in _STATE_KEYS if k not in d]
    if missing:
        raise bad(f"missing entries {', '.join(missing)}")

    def integers(key: str, ndim: int | None = None) -> np.ndarray:
        a = d[key]
        if a.dtype.kind not in "iu":
            raise bad(f"{key} does not hold integers")
        if ndim is not None and a.ndim != ndim:
            raise bad(f"{key} has {a.ndim} dimensions, not {ndim}")
        return a

    field = str(d["field"])
    if d["complexified"].dtype.kind != "b" or d["complexified"].ndim:
        raise bad("complexified is not a boolean scalar")
    complexified = bool(d["complexified"])
    if field not in ("modular", "modular-complex") or complexified != (field == "modular-complex"):
        raise bad(f"field {field!r} with complexified={complexified} is not a modular state")
    prime = int(integers("prime", 0))
    try:
        validate_prime(prime)
    except ValueError as e:
        raise bad(f"invalid prime: {e}") from None
    blocks = tuple(integers("blocks", 1).tolist())
    if not _valid_blocks(blocks):
        raise bad(f"blocks {blocks} are not strictly increasing values among 0..3")
    brackets = int(integers("brackets", 0))
    if brackets < 0:
        raise bad(f"negative bracket count {brackets}")
    layout = FlatLayout(blocks, complexified)
    row_class = integers("row_class").astype(np.int64).ravel()
    row_pivot = integers("row_pivot").astype(np.int64).ravel()
    rows = integers("rows").astype(np.float64).ravel()
    if row_pivot.size != row_class.size:
        raise bad(f"{row_pivot.size} pivots for {row_class.size} rows")
    nclasses = len(layout.class_indices)
    if row_class.size and (row_class.min() < 0 or row_class.max() >= nclasses):
        raise bad(f"class ids outside 0..{nclasses - 1} of the layout")
    lengths = layout.class_width[row_class]
    if rows.size != lengths.sum():
        raise bad(f"{rows.size} residues where the rows' classes have {lengths.sum()} coordinates")
    if rows.size and np.abs(rows).max() > (prime - 1) // 2:
        raise bad(f"residues outside the balanced range mod {prime}")
    outside = (row_pivot < 0) | (row_pivot >= lengths)
    if outside.any():
        raise bad(f"pivots outside class {row_class[outside.argmax()]}")
    # list the rows class by class, in increasing pivot order within a class
    order = np.lexsort((row_pivot, row_class))
    listed = lengths[order]
    shift = (np.cumsum(lengths) - lengths)[order] - (np.cumsum(listed) - listed)
    rows = rows[np.arange(rows.size) + np.repeat(shift, listed)]
    eng = _ModularEngine(layout, prime)
    eng.import_rows(row_class[order], row_pivot[order], rows)
    unreduced, unled = [], []
    for ech in eng.groups:
        rank = ech.B.shape[1]
        live = np.arange(rank) < ech.nrows[:, None]
        wrong = (_columns(ech.B, ech.pivots) != np.eye(rank)) & live[:, :, None] & live[:, None, :]
        unreduced.append(ech.classes[wrong.any(axis=(1, 2))])
        wrong = (np.argmax(ech.B != 0, axis=2) != ech.pivots) & live
        unled.append(ech.classes[wrong.any(axis=1)])
    for failing, why in ((unreduced, "are not reduced at"), (unled, "do not lead at")):
        failing = np.concatenate(failing)
        if failing.size:
            raise bad(f"class {failing.min()} rows {why} their pivots")
    return ClosureState(field, prime, layout, eng.global_pivots(), brackets, 0.0, _engine=eng)


# ---------------------------------------------------------------------------
# structural verification
# ---------------------------------------------------------------------------


def su_pair_dimension(n: int) -> int:
    """Real dimension of the supertrace-zero operators on C^{n|n} preserving
    the standard odd Hermitean pairing, as the kernel of its defining
    linear constraints over Q (no closed formula is assumed).

    Basis vector i < 2n is even for i < n and odd otherwise, and
    <e_i, e_j> = 1 exactly when j = i' = i + n (mod 2n).  The unknowns are
    the real and imaginary parts of each entry X[r, c], at column
    2 (2n r + c) + part.  For every (c, b), the constraint
    <X e_c, e_b> + (-1)^{|X| p(c)} <e_c, X e_b> = 0 reads
    X[b', c] + sigma conj(X[c', b]) = 0; both entries are of the parity
    |X| = 1 + p(b) + p(c), so the even and odd parts of X separate.  Its
    real and imaginary parts, and those of the supertrace, are one sparse
    row each of a single echelon.  Raises ValueError for n < 1."""
    if n < 1:
        raise ValueError(f"n = {n}: C^{{n|n}} needs n >= 1")
    size = 2 * n

    def var(r: int, c: int, part: int) -> int:
        return 2 * (r * size + c) + part

    ech = IntegerEchelon()
    for c in range(size):
        for b in range(size):
            sigma = -1 if b >= n and c >= n else 1  # (-1)^{|X| p(c)}, i odd iff i >= n
            # conj flips the imaginary part of the second term
            for part, second in ((0, sigma), (1, -sigma)):
                row = {var((b + n) % size, c, part): 1}
                key = var((c + n) % size, b, part)
                row[key] = row.get(key, 0) + second
                ech.insert({k: v for k, v in row.items() if v})
    for part in (0, 1):
        ech.insert({var(i, i, part): 1 - 2 * (i >= n) for i in range(size)})
    return 2 * size * size - ech.rank


def verify_structure(
    state: ClosureState,
    ralg: RestrictedAlgebra | None = None,
    complexified_state: ClosureState | None = None,
) -> dict:
    """Structural claims checked on a completed full closure:

    * each generator g satisfies the pairing-preservation identity
      super_adjoint(g) = -(star g star), exactly on the 512-dimensional
      algebra;
    * supertrace: exactly zero for the restricted generators, and zero mod
      p for every closure basis element;
    * the dagger of each restricted generator lies in the closure span
      (modular membership);
    * the complexified closure has the complex dimension matching the real
      one, i.e. real dimension 2 * dim;
    * the gap to the invariant-superalgebra dimension bound.
    """
    ralg = ralg or default_algebra()
    pairing = ralg.pairing_identity
    failures = [f"{name}: pairing preservation identity fails"
                for name, ok in pairing.items() if not ok]
    for name, st in ralg.supertraces(state.blocks).items():
        if st:
            failures.append(f"{name}: restricted supertrace {st} != 0")

    max_str_residue, contains = None, state.contains_exact
    if isinstance(state._engine, _ModularEngine):
        max_str_residue, contains = state.supertrace_residues(), state.contains_modular
        if max_str_residue:
            failures.append("a closure basis element has nonzero supertrace mod p")

    dagger_ok = [contains(rop) for rop in ralg.daggers(state.blocks)]
    failures += [f"dagger({name}) not in the closure span"
                 for name, ok in zip(GENERATOR_NAMES, dagger_ok) if not ok]

    report = {
        "pass": not failures,
        "failures": failures,
        "generator_pairing_identity": all(pairing.values()),
        "supertrace_max_residue": max_str_residue,
        "dagger_membership": dict(zip(GENERATOR_NAMES, dagger_ok)),
        "dim": state.dim,
        "bound": DIMENSION_BOUND,
        "bound_gap": DIMENSION_BOUND - state.dim,
    }
    if complexified_state is not None:
        report["complex_dim"] = complexified_state.dim
        report["complex_real_dim"] = 2 * complexified_state.dim
        if complexified_state.dim != state.dim:
            failures.append(
                f"complexified dimension {complexified_state.dim} != {state.dim}"
            )
            report["pass"] = False
    return report
