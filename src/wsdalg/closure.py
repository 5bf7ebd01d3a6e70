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
rows, the modular seeds, the ad_g build and membership all read them, and
no dense block matrix is built.  Left-normed brackets span the whole
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
layout).  Both run level by level on one bracket kernel: a class's
frontier rows are bracketed with all twelve generators by one gather, one
multiply and one segmented sum over the class's ad_g entry table
(``_bracket_rows``, ``_adjoint_blocks``), built from the one statement of
the part rule in ``_generator_entries``.

* modular: F_p coordinates for primes p = 1 (mod 4) stored as exact small
  integers in float64, so every product runs on BLAS while staying exact
  (the default primes are sized so no dot product can reach 2^53).  The
  tables of all classes are built once; the candidates are written into
  one stack per target width, and each width group makes one batched
  reduce (which first balances the bracket sums mod p) and one batched
  elimination, in one fully reduced echelon per class held as one stack
  per width (16 widths on the full layout, 9 on hw0).
* exact: the generators' int rows (each scaled by the lcm of its
  denominators) are the coefficients, every sum is bounded below 2^53
  before it is formed, and the candidates go into one fraction-free
  ``linalg.IntegerEchelon`` over Q.  Only the classes the frontier reaches
  get tables (13 for the even subalgebra).

Either engine's echelon basis is the state's one record: dimension, block
dimensions and row parities (the parity of a pivot's shift class) are
read off its pivots, so ``lie_closure`` refuses a generator that is not
homogeneous or whose support is not all of its declared parity.  The
pivot set of a reduced echelon basis is an invariant of the span, and
class-local coordinates keep the global order, so the pivots are those of
an ungraded computation.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .scalars import (
    DEFAULT_PRIMES,
    GaussRational,
    I,
    ONE,
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

    def support_class(self, coords: np.ndarray) -> int | None:
        """Class of the flat coordinates ``coords`` (None when there are
        none); raises ValueError when they span several classes."""
        classes = np.unique(self.coord_class[coords])
        if len(classes) > 1:
            raise ValueError("operator is not homogeneous in the multidegree-shift grading")
        return int(classes[0]) if classes.size else None

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

    def flatten_exact(self, rop: RestrictedOperator) -> dict[int, Fraction]:
        if self.complexified:
            raise ValueError("exact engine runs on real coordinates")
        coords, values = self.entries(rop)
        return dict(zip(coords.tolist(), values))

    def flatten_modular(self, rop: RestrictedOperator, p: int, root_i: int) -> np.ndarray:
        """rop's ``_project``-ed entries as a dense vector of the layout."""
        coords, residues = _project(*self.entries(rop), p, root_i)
        vec = np.zeros(self.length)
        vec[coords] = residues
        return vec


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
# exact engine (int rows over Q, bracketed on the ad_g tables)
# ---------------------------------------------------------------------------


class InexactBracket(ArithmeticError):
    """An exact bracket sum could reach 2^53, where float64 stops being exact."""


def _exact_closure(gens: list[RestrictedOperator], layout: FlatLayout, entries: list[tuple]):
    """Level-synchronous left-normed closure over Q on the modular engine's
    kernel.  Each generator's row (its ``layout.entries`` in ``entries``)
    times the lcm of its denominators (``integral``) is an int row with the
    span it has over Q, and these rows are the tables' coefficients.  Each
    level builds the tables of the frontier classes that have none yet and
    brackets each class's frontier rows in float64 (``_bracket_rows``),
    once max |frontier entry| * max |generator entry| * longest column, a
    bound on every sum, is below 2^53 (else InexactBracket); both maxima
    are read off the rows' Python ints.  The candidates are inserted row
    by row, generator by generator, and the frontier holds the class-local
    rows of the generators and raw candidates that add a pivot, so
    ``brackets`` is len(gens) * dim.  Returns (echelon, brackets)."""
    echelon, flat, frontier, gmax = IntegerEchelon(), [], {}, 0
    for f, v in entries:
        row = integral(dict(zip(f.tolist(), v)))
        gmax = max(gmax, max(map(abs, row.values()), default=0))
        flat.append((f, np.array(list(row.values()), dtype=np.float64)))
        if echelon.insert(row) is not None:
            x = np.zeros(layout.class_width[t := int(layout.coord_class[f[0]])])
            x[layout.coord_local[f]] = flat[-1][1]
            frontier.setdefault(t, []).append(x)
    tables, top = {}, gmax  # top: max |entry| of the frontier rows
    while frontier:
        if new := [d for d in frontier if d not in tables]:
            ads = _adjoint_blocks(layout, gens, flat, new)
            tables.update(dict.fromkeys(new))  # None: every bracket of the class vanishes
            for d, (rows, _, starts) in ads.tables.items():
                out = ads.outputs[d]  # with each output column's coordinate and channel
                tables[d] = (ads.tables[d], out,
                             np.concatenate([layout.class_indices[t] for t, _, _ in out]),
                             np.repeat(np.arange(len(out)), [hi - lo for _, lo, hi in out]),
                             int(np.diff(starts, append=len(rows)).max()))
        found, peak = {}, 0
        for d, xs in frontier.items():
            if tables[d] is None:
                continue
            table, out, cols, chan, longest = tables[d]
            if top * gmax * longest >= 2**53:
                raise InexactBracket(f"class {d}: a bracket sum could reach 2^53")
            R = _bracket_rows(np.array(xs), table)
            # a candidate per (row, channel): a run of R's nonzeros in row-major order
            r, c = np.nonzero(R)
            seg = r * len(out) + chan[c]
            ends = (np.flatnonzero(np.diff(seg, append=-1)) + 1).tolist()
            keys, values = cols[c].tolist(), R[r, c].astype(np.int64).tolist()
            for a, b in zip([0] + ends, ends):
                if echelon.insert(dict(zip(keys[a:b], values[a:b]))) is not None:
                    i, k = divmod(int(seg[a]), len(out))
                    t, lo, hi = out[k]
                    found.setdefault(t, []).append(R[i, lo:hi].copy())
                    peak = max(peak, max(map(abs, values[a:b])))
        frontier, top = found, peak
    return echelon, len(gens) * echelon.rank  # each row that adds a pivot met every generator


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
        return {int(self.classes[s]): range(int(a), int(a + n))
                for s, a, n in zip(slots, start, gained)}


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
        widths, self.class_group = np.unique(self.class_width, return_inverse=True)
        self.groups = [_HalfEngine(p, int(w), np.flatnonzero(self.class_group == g))
                       for g, w in enumerate(widths)]
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
        ``listing`` order, the rows' class-local residues concatenated."""
        cls, piv, grp, slot, row = self.listing()
        counts = np.bincount(cls, minlength=len(self.class_group))
        rows = [None] * len(counts)
        for g, ech in enumerate(self.groups):
            m = grp == g
            block = ech.B[slot[m], row[m]]  # the group's rows, class by class
            for t, part in zip(ech.classes, np.split(block, np.cumsum(counts[ech.classes])[:-1])):
                rows[t] = part.ravel()
        return cls, piv, np.concatenate(rows)

    def import_rows(self, cls: np.ndarray, piv: np.ndarray, residues: np.ndarray) -> None:
        """Fill an empty engine with rows given as ``export_rows`` gives
        them."""
        counts = np.bincount(cls, minlength=len(self.class_group))
        row = np.arange(len(cls)) - (np.cumsum(counts) - counts)[cls]
        rows = np.split(residues, np.cumsum(counts * self.class_width)[:-1])
        for g, ech in enumerate(self.groups):
            m = self.class_group[cls] == g
            slot = self.class_slot[cls[m]]
            ech.reserve(int(counts[ech.classes].max()))
            ech.B[slot, row[m]] = np.concatenate([rows[t] for t in ech.classes]).reshape(-1, ech.width)
            ech.pivots[slot, row[m]] = piv[m]
            ech.nrows = counts[ech.classes]

    def frontier_rows(self, t: int, new: range) -> np.ndarray:
        ech, k = self._where(t)
        return ech.B[k, new.start : new.stop]

    def global_pivots(self) -> list[int]:
        cls, piv = self.listing()[:2]
        first = np.cumsum(self.class_width) - self.class_width
        return np.concatenate(self.layout.class_indices)[first[cls] + piv].tolist()

    def stacks(self, counts: np.ndarray):
        """Zero candidate stacks for ``counts[t]`` rows of each class t, one
        per width group that has candidates, the classes in increasing
        order.  Returns ({group: (slots, C)}, {t: class t's stack}), each
        class's stack a view into the C of its group."""
        live = np.flatnonzero(counts)
        grp = self.class_group[live]
        stacks, views = {}, {}
        for g in np.flatnonzero(np.bincount(grp, minlength=len(self.groups))).tolist():
            ts = live[grp == g]
            C = np.zeros((len(ts), int(counts[ts].max()), self.groups[g].width))
            stacks[g] = (self.class_slot[ts], C)
            views.update(zip(ts.tolist(), C))
        return stacks, views

    def process_batch(self, stacks: dict, phases: dict[str, float]) -> dict[int, range]:
        """Reduce and insert filled candidate stacks, as made by ``stacks``:
        one reduce and one elimination per width group, groups in
        increasing width, each stack dropped once inserted.  Returns
        {class: range of its new rows} for each class that gained rows, in
        class order, and adds the seconds spent to ``phases["reduce_s"]``
        and ``phases["insert_s"]``."""
        added: dict[int, range] = {}
        for g in sorted(stacks):
            sel, C = stacks.pop(g)
            ech = self.groups[g]
            t0 = time.perf_counter()
            ech.reduce_rows(C, sel)
            t1 = time.perf_counter()
            added.update(ech.insert_batch(C, sel))
            phases["reduce_s"] += t1 - t0
            phases["insert_s"] += time.perf_counter() - t1
        return dict(sorted(added.items()))

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


def _generator_entries(layout: FlatLayout, gens, flat, sources):
    """The nonzero entries of ad_g = [g, .] from the classes ``sources`` for
    every g in gens, each in one shift class (``lie_closure`` checks it),
    as (source coordinate, target coordinate, coefficient, generator index)
    arrays; ``flat`` holds the generators' flat coordinates and values,
    balanced residues (``_project``) or exact integers.

    Part a of x meets part m of g in part a ^ m, negated when both are
    imaginary (i * i = -1); complex mode has the one part a = m = 0.  So
    x[a, u, v] meets g[r, u] in (g x)[a ^ m, r, v], and g[v, c] in
    (x g)[a ^ m, u, c], signed as in [g, x] = g x - (-1)^{|g||x|} x g.
    Each entry of g is copied for each part a and (on the right) parity of
    x, keyed by the row or column of x it meets, with its coefficient and
    the target's offset from the source, (a ^ m - a) s^2 + (r - u) s or
    (a ^ m - a) s^2 + c - v.  Only the sources' coordinates are expanded."""
    owner = np.repeat(np.arange(len(gens), dtype=np.int16), [len(f[0]) for f in flat])
    coords, value = np.concatenate([f[0] for f in flat]), np.concatenate([f[1] for f in flat])
    here = value != 0  # a part may vanish mod p
    owner, value, coords = owner[here], value[here], coords[here]
    block, row, col, part = layout.places(coords)
    sizes = np.array(BLOCK_SIZES)
    s = sizes[block]
    at = coords - (part * s + row) * s - col  # the entry's block offset
    odd = np.array([g.parity for g in gens], dtype=bool)[owner]
    # x's coordinates are keyed by the first coordinate of their row (a, u)
    # in g x, and of their column (a, v), with x's parity, in x g
    n, parts = layout.length, 1 if layout.complexified else 2
    key, off, coef = [], [], []
    for a in range(parts):
        shift, w = ((a ^ part) - a) * s * s, np.where(a & part, -value, value)
        right = n + 2 * (at + a * s * s + row)
        key += [at + (a * s + col) * s, right, right + 1]
        off += [shift + (row - col) * s] + [shift + col - row] * 2
        coef += [w, -w, np.where(odd, w, -w)]  # g x; x g for x even, odd
    key, off, coef = map(np.concatenate, (key, off, coef))
    order = np.argsort(key, kind="stable")
    key, off, coef, gen = key[order], off[order], coef[order], np.tile(owner, 3 * parts)[order]
    x = np.concatenate([layout.class_indices[d] for d in sources])
    k, u, v, _ = layout.places(x)
    px = layout.class_parity[layout.coord_class[x]]
    xk = np.concatenate([x - v, n + 2 * (x - u * sizes[k]) + px])
    first = np.searchsorted(key, xk)  # each key's copies are key[first:first + m]
    m = np.searchsorted(key, xk, side="right") - first
    ei = np.arange(int(m.sum())) + np.repeat(first - (np.cumsum(m) - m), m)
    src = np.repeat(np.concatenate([x, x]), m)
    return src, src + off[ei], coef[ei], gen[ei]


@dataclass(frozen=True)
class _Adjoint:
    """ad_g = [g, .] on a layout for every generator g, as channels.

    A channel is a (source class, generator) pair on which the bracket does
    not vanish; it maps class-local rows of its source class to class-local
    rows of its target class.  Channels are numbered by source class, then
    generator, and the channels of class d are ``first[d]:first[d + 1]``.
    The output columns of class d are its channels' target coordinates side
    by side, channel c's at ``lo[c]:hi[c]``; ``outputs[d]`` lists (target,
    lo, hi) for each of them.

    ``tables[d]`` is class d's entry table (rows, coef, starts), sorted by
    output column: the entries of column j run from ``starts[j]`` to the
    next column's start, each a source row (class-local) and a nonzero
    coefficient (a balanced residue, or an exact integer), in increasing
    row order.  A row repeats in a column only where a diagonal entry of g
    meets x from both sides; the bracket sums the two.  An empty column
    holds one filler entry, row 0 with coefficient 0, so every column is
    one non-empty segment (``np.add.reduceat`` reads an empty one as the
    next entry).  Only source classes with a channel have a table."""

    source: np.ndarray
    generator: np.ndarray
    target: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    first: np.ndarray
    tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]
    outputs: dict[int, list[tuple[int, int, int]]]


def _adjoint_blocks(layout: FlatLayout, gens, flat, sources) -> _Adjoint:
    """Build the ad_g channels of every generator from the classes
    ``sources`` in one pass, from the generators' flat entries ``flat`` (see
    ``_generator_entries``); a class's table does not depend on the other
    sources.  One argsort of the entries by (output column, source row)
    groups them into columns, and a filler is inserted into each empty
    column.  Every array is of the size of the entries or of the columns:
    no dense position is formed."""
    src, tgt, coef, gen = _generator_entries(layout, gens, flat, sources)
    ngens, width = len(gens), layout.class_width
    # channel c is (source class, generator) = divmod(chans[c], ngens); a
    # table over all such pairs numbers them without sorting the entries
    pair = layout.coord_class[src] * ngens + gen
    number = np.full(len(width) * ngens, -1)
    number[pair] = layout.coord_class[tgt]  # one target per channel, as checked
    chans = np.flatnonzero(number >= 0)
    target = number[chans]
    number[chans] = np.arange(len(chans))
    chan = number[pair]
    del gen, pair  # each array of the entries is dropped once read
    source, generator = np.divmod(chans, ngens)
    first = np.searchsorted(source, np.arange(len(width) + 1))
    w = width[target]
    start = np.cumsum(w) - w  # the columns of all classes, numbered in one run
    lo = start - start[first[source]]
    # one argsort of the bit fields (column, source row, entry), unique by the
    # entry field; an in-place sort is faster but maps an int64 sort kernel
    # that no other step of an exact run uses (about 0.2 MiB of peak RSS)
    rbits, ebits = int(width.max() - 1).bit_length(), len(src).bit_length()
    key = (start[chan] + layout.coord_local[tgt]) << rbits | layout.coord_local[src]
    key <<= ebits
    key |= np.arange(len(src))
    del src, tgt, chan
    key = key[key.argsort()]
    coef = coef[key & ((1 << ebits) - 1)]
    key >>= ebits
    row = key & ((1 << rbits) - 1)
    key >>= rbits  # each entry's output column
    # column j's segment is starts[j]:starts[j + 1], a filler where it is empty
    ncols = int(w.sum())
    count = np.bincount(key, minlength=ncols)
    empty = count == 0
    size = count + empty
    starts = np.cumsum(size) - size
    at = np.arange(len(key)) + np.cumsum(empty)[key]
    index, value = np.zeros(int(size.sum()), dtype=np.intp), np.zeros(int(size.sum()))
    index[at], value[at] = row, coef
    del key, row, coef, at
    edge = np.append(start, ncols)[first]  # class d's columns are edge[d]:edge[d + 1]
    bound = np.append(starts, len(index))[edge]  # and its entries bound[d]:bound[d + 1]
    starts -= np.repeat(bound[:-1], np.diff(edge))
    hi = lo + w
    channels = list(zip(target.tolist(), lo.tolist(), hi.tolist()))
    edge, bound, cut = edge.tolist(), bound.tolist(), first.tolist()
    tables, outputs = {}, {}
    for t in np.flatnonzero(np.diff(first)).tolist():  # the classes with channels
        a, b = bound[t], bound[t + 1]
        tables[t] = (index[a:b], value[a:b], starts[edge[t] : edge[t + 1]])
        outputs[t] = channels[cut[t] : cut[t + 1]]
    return _Adjoint(source, generator, target, lo, hi, first, tables, outputs)


def _modular_closure(
    gens: list[RestrictedOperator],
    layout: FlatLayout,
    p: int,
    entries: list[tuple],
    progress=None,
):
    """Level-synchronous left-normed closure over F_p.

    ``entries`` holds ``layout.entries(g)`` of each generator, read once
    per closure; each generator's residues are projected from them once,
    for its ad_g entries and its seed row.  The ad_g channels of all
    generators are built once per run (``_adjoint_blocks``), and the generators are the
    first frontier.  Each level sizes one zero-padded stack per target width
    group by the candidate count of each target class (its channels' source
    frontier sizes, summed).  Each source class, in frontier order, then
    brackets its frontier rows with all its channels at once
    (``_bracket_rows``), and each of its channels writes its columns into
    its target's stack after the rows already there; then every width group
    is reduced and inserted once.  The rows added (a range of rows per
    class) form the next frontier; the run ends when a level adds none.  Any
    row of the span may stand for a frontier element, so the current
    (further reduced) basis rows are bracketed.  The span, hence the pivot
    set, does not depend on the order of insertion, and every basis row is
    bracketed with every generator exactly once, so ``brackets`` is
    len(gens) * dim.  Returns (engine, brackets, levels, phases), the last
    the seconds spent building ad_g and bracketing, reducing and
    inserting."""
    eng = _ModularEngine(layout, p)
    t0 = time.perf_counter()
    flat = [_project(*e, p, eng.root_i) for e in entries]
    nclasses = len(layout.class_width)
    ads = _adjoint_blocks(layout, gens, flat, range(nclasses))
    phases = dict.fromkeys(("adjoint_s", "bracket_s", "reduce_s", "insert_s"), 0.0)
    phases["adjoint_s"] = time.perf_counter() - t0

    seeds = [(t, f, v) for f, v in flat if (t := layout.support_class(f)) is not None]
    counts = np.bincount(np.array([t for t, _, _ in seeds], dtype=np.int64), minlength=nclasses)
    stacks, views = eng.stacks(counts)
    filled = dict.fromkeys(views, 0)  # rows written so far per target class
    for t, f, v in seeds:
        views[t][filled[t], layout.coord_local[f]] = v
        filled[t] += 1
    frontier = eng.process_batch(stacks, phases)

    brackets = levels = 0
    while frontier:
        t0 = time.perf_counter()
        size = np.zeros(nclasses, dtype=np.int64)
        size[list(frontier)] = [len(new) for new in frontier.values()]
        counts = np.bincount(ads.target, weights=size[ads.source], minlength=nclasses)
        stacks, views = eng.stacks(counts.astype(np.int64))
        filled = dict.fromkeys(views, 0)
        for d, new in frontier.items():
            if d in ads.tables:
                R = _bracket_rows(eng.frontier_rows(d, new), ads.tables[d])
                k = len(new)
                for t, lo, hi in ads.outputs[d]:
                    r = filled[t]
                    views[t][r : r + k] = R[:, lo:hi]
                    filled[t] = r + k
                R = None  # before the next product is made
        views = None  # only the stacks live on into the inserts
        phases["bracket_s"] += time.perf_counter() - t0
        brackets += int(size.sum()) * len(gens)
        levels += 1
        frontier = eng.process_batch(stacks, phases)
        if eng.nrows > DIMENSION_BOUND:
            raise AssertionError("closure rank exceeded the proven upper bound")
        if progress:
            progress(levels, eng.nrows, brackets, sum(map(len, frontier.values())))
    return eng, brackets, levels, phases


def _bracket_rows(X: np.ndarray, ad: tuple) -> np.ndarray:
    """[g, x] for a stack X of class-local rows x of one class, all the
    class's channels side by side: ``ad`` is the class's entry table from
    ``_adjoint_blocks``, and the brackets are one gather of its source rows,
    one multiply by its coefficients and one segmented sum per column.  A
    sum is exact in float64 while max |x| * max |coefficient| * its
    column's length stays below 2^53.  For balanced residues a column holds
    at most five entries, far under the 8448 products the primes keep
    exact; ``_exact_closure`` checks the bound for its int rows.  Residue
    sums are left unreduced: ``_HalfEngine.reduce_rows`` balances them."""
    rows, coef, starts = ad
    G = X.take(rows, axis=1)
    G *= coef
    return np.add.reduceat(G, starts, axis=1)


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
    _engine: object = None  # IntegerEchelon (exact) or _ModularEngine
    # seconds spent building ad_g, bracketing, reducing and inserting in a
    # modular run (not in the report)
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
        assert isinstance(self._engine, IntegerEchelon)
        return self._on_layout(rop) and self._engine.contains(integral(self.layout.flatten_exact(rop)))

    def contains_modular(self, rop: RestrictedOperator) -> bool:
        assert isinstance(self._engine, _ModularEngine)
        return self._on_layout(rop) and self._engine.contains(
            *_project(*self.layout.entries(rop), self.prime, self._engine.root_i))

    def supertrace_residues(self) -> float:
        """max |supertrace residue| over all basis rows (modular only)."""
        assert isinstance(self._engine, _ModularEngine)
        eng = self._engine
        idx = self.layout.class_indices
        vals = [0.0]
        # the real part of the supertrace, and in real mode the imaginary
        # part: a single residue per entry already carries both
        for unit in ((ONE,) if self.layout.complexified else (ONE, I)):
            full = self.layout.flatten_modular(_supertrace_sign(self.layout, unit), self.prime,
                                               eng.root_i)
            for ech in eng.groups:
                w = full[np.stack([idx[t] for t in ech.classes])]
                if ech.B.shape[1] and w.any():
                    r = ech._balance(ech.B @ w[:, :, None])
                    vals.append(float(np.abs(r).max()))
        return max(vals)

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


def _supertrace_sign(layout: FlatLayout, unit: GaussRational) -> RestrictedOperator:
    """unit times the grading sign: +unit on the even half of each block's
    basis, -unit on the odd half."""
    return RestrictedOperator({k: {(i, i): unit if i < HW_HALF_DIMS[k] else -unit
                                   for i in range(BLOCK_SIZES[k])} for k in layout.blocks}, 0)


def _resolve_generators(generators, ralg: RestrictedAlgebra) -> list[RestrictedOperator]:
    out = []
    for g in generators:
        if isinstance(g, str):
            out.append(ralg.generator(g))
        elif isinstance(g, RestrictedOperator):
            out.append(g)
        elif isinstance(g, Operator):
            out.append(ralg.restrict(g))
        else:
            raise TypeError(f"cannot use {type(g).__name__} as a generator")
    return out


def _valid_blocks(blocks: tuple) -> bool:
    """Whether blocks is a non-empty strictly increasing tuple drawn from
    0..3, the only form whose layout, and so whose pivots, depend on the
    set of blocks alone."""
    return bool(blocks) and set(blocks) <= {0, 1, 2, 3} and list(blocks) == sorted(set(blocks))


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
    increasing tuple drawn from 0..3; generators must name at least one
    generator, each in one multidegree-shift class of its declared parity.
    Anything else raises ValueError.
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
                         "drawn from 0..3")
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
    if field == "exact":
        echelon, brackets = _exact_closure(gens, layout, entries)
        return ClosureState(field, None, layout, list(echelon.basis), brackets,
                            time.perf_counter() - t0, _engine=echelon)
    p = prime if prime is not None else DEFAULT_PRIMES[0]
    eng, brackets, levels, phases = _modular_closure(gens, layout, p, entries, progress)
    return ClosureState(field, p, layout, eng.global_pivots(), brackets,
                        time.perf_counter() - t0, levels, eng, phases)


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
