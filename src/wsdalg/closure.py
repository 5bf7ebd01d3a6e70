"""Lie superalgebra closure over the restricted highest-weight representation.

The twelve generators act faithfully on the direct sum of the four
highest-weight spaces, so the algebra they generate is computed there: a
generator restricts to one block matrix per space (sizes 40, 72, 40, 8 over
Q(i)), a restricted operator flattens to the real/imaginary parts of its
block entries (16896 rational coordinates over all four blocks), and the
closure is the smallest coordinate subspace containing the generators and
stable under bracketing with each generator.  Left-normed brackets span the
whole algebra by the graded Jacobi identity, so each new basis element is
bracketed with the twelve generators only.

Two engines compute the same closure:

* exact: sparse Fraction coordinates in a ``linalg.SparseEchelon``, used
  for the smallest block and for the even subalgebra, where the answer is
  15-dimensional;
* modular: F_p coordinates for primes p = 1 (mod 4) stored as exact small
  integers in float64, so every matrix product runs on BLAS while staying
  exact (the default primes are sized so no dot product can reach 2^53).

The modular rank is run under two independent primes; it can only ever
undercount the rational rank, so agreement at the expected value plus the
exact upper bound of 8444 brackets the answer.

A complexified run uses one residue per matrix entry (i mapped to a square
root of -1 mod p); the F_p span is then automatically stable under complex
scalars, so its rank is the complex dimension of the complexified algebra.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .scalars import (
    DEFAULT_PRIMES,
    GaussRational,
    ZERO,
    balanced_residue,
    root_of_minus_one,
)
from .linalg import SparseEchelon
from .operators import (
    GENERATOR_NAMES,
    Operator,
    dagger,
    hodge_conjugate,
    standard_generators,
    super_adjoint,
)
from .reptheory import SpanSolver, restrict_operator, HW_HALF_DIMS
from .hwbases import LabeledBasis, all_bases

__all__ = [
    "BLOCK_SIZES",
    "RestrictedAlgebra",
    "FlatLayout",
    "ClosureState",
    "lie_closure",
    "load_state",
    "block_dimensions",
    "verify_structure",
    "su_pair_dimension",
    "DIMENSION_BOUND",
    "EXPECTED_DIMENSION",
    "EXPECTED_BLOCK_DIMS",
]

BLOCK_SIZES = (40, 72, 40, 8)
DIMENSION_BOUND = 8444  # supertrace-zero pairing-preserving operators
EXPECTED_DIMENSION = 8396
EXPECTED_BLOCK_DIMS = (1599, 5183, 1599, 15)

EVEN_GENERATOR_NAMES = ("iL0", "iL1", "iL2", "iLambda0", "iLambda1", "iLambda2")

_BlockMat = dict[tuple[int, int], GaussRational]


@dataclass
class RestrictedOperator:
    """Block matrices of one operator on the four labeled bases."""

    blocks: dict[int, _BlockMat]
    parity: int

    def block(self, k: int) -> _BlockMat:
        return self.blocks.get(k, {})


class RestrictedAlgebra:
    """Restriction context: the labeled bases, their solvers, and cached
    restricted generators."""

    def __init__(self):
        self.bases: tuple[LabeledBasis, ...] = all_bases()
        self.solvers = [SpanSolver(b.vectors()) for b in self.bases]
        self._gens: dict[str, RestrictedOperator] = {}

    def restrict(self, op: Operator, blocks=(0, 1, 2, 3)) -> RestrictedOperator:
        par = op.parity()
        if par is None and op:
            raise ValueError("restriction needs definite parity")
        out: dict[int, _BlockMat] = {}
        for k in blocks:
            basis = self.bases[k]
            mat = restrict_operator(op, basis.vectors(), self.solvers[k], basis.labels())
            entries = {
                (r, c): v
                for r, row in enumerate(mat)
                for c, v in enumerate(row)
                if v
            }
            out[k] = entries
        return RestrictedOperator(out, 0 if par is None else par)

    def generator(self, name: str) -> RestrictedOperator:
        if name not in self._gens:
            op = standard_generators()[name]
            self._gens[name] = self.restrict(op)
        return self._gens[name]

    def generators(self, names=GENERATOR_NAMES) -> list[RestrictedOperator]:
        return [self.generator(n) for n in names]


@lru_cache(maxsize=1)
def default_algebra() -> RestrictedAlgebra:
    return RestrictedAlgebra()


class FlatLayout:
    """Coordinate layout of flattened restricted operators.

    real mode: per included block, the real parts of the row-major entries
    followed by the imaginary parts (2 s^2 coordinates per block).
    complex mode: one coordinate per entry (s^2 per block).
    Each coordinate has a parity class: diagonal (even-even / odd-odd)
    sub-blocks are even, the off-diagonal ones odd; operators of definite
    parity are supported on a single class.
    """

    def __init__(self, blocks=(0, 1, 2, 3), complexified: bool = False):
        self.blocks = tuple(blocks)
        self.complexified = complexified
        self.offsets: dict[int, int] = {}
        off = 0
        for k in self.blocks:
            s = BLOCK_SIZES[k]
            self.offsets[k] = off
            off += (s * s) if complexified else (2 * s * s)
        self.length = off
        par = np.zeros(self.length, dtype=np.uint8)
        for k in self.blocks:
            s, h = BLOCK_SIZES[k], HW_HALF_DIMS[k]
            rr, cc = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
            odd = ((rr < h) != (cc < h)).astype(np.uint8).ravel()
            o = self.offsets[k]
            if complexified:
                par[o : o + s * s] = odd
            else:
                par[o : o + s * s] = odd
                par[o + s * s : o + 2 * s * s] = odd
        self.coord_parity = par
        # operators of definite parity live entirely on one coordinate
        # class, so the echelon splits into two independent halves
        self.parity_indices = (
            np.nonzero(par == 0)[0],
            np.nonzero(par == 1)[0],
        )

    def index(self, k: int, r: int, c: int, imag: bool = False) -> int:
        s = BLOCK_SIZES[k]
        base = self.offsets[k] + r * s + c
        if self.complexified:
            if imag:
                raise ValueError("complex layout has a single coordinate per entry")
            return base
        return base + (s * s if imag else 0)

    def block_range(self, k: int) -> tuple[int, int]:
        s = BLOCK_SIZES[k]
        width = (s * s) if self.complexified else (2 * s * s)
        return self.offsets[k], self.offsets[k] + width

    # -- exact flattening --------------------------------------------------

    def flatten_exact(self, rop: RestrictedOperator) -> dict[int, Fraction]:
        if self.complexified:
            raise ValueError("exact engine runs on real coordinates")
        out: dict[int, Fraction] = {}
        for k in self.blocks:
            for (r, c), v in rop.block(k).items():
                if v.re:
                    out[self.index(k, r, c, False)] = v.re
                if v.im:
                    out[self.index(k, r, c, True)] = v.im
        return out

    # -- modular flattening --------------------------------------------------

    def generator_arrays(self, rop: RestrictedOperator, p: int, root_i: int):
        """Balanced-residue block matrices: (re, im) pairs in real mode,
        single arrays in complex mode."""
        out = {}
        for k in self.blocks:
            s = BLOCK_SIZES[k]
            if self.complexified:
                m = np.zeros((s, s))
                for (r, c), v in rop.block(k).items():
                    m[r, c] = balanced_residue(v, p, root_i)
                out[k] = m
            else:
                mr = np.zeros((s, s))
                mi = np.zeros((s, s))
                for (r, c), v in rop.block(k).items():
                    mr[r, c] = balanced_residue(v.re, p, root_i)
                    mi[r, c] = balanced_residue(v.im, p, root_i)
                out[k] = (mr, mi)
        return out

    def flatten_modular(self, rop: RestrictedOperator, p: int, root_i: int) -> np.ndarray:
        arrs = self.generator_arrays(rop, p, root_i)
        vec = np.zeros(self.length)
        for k in self.blocks:
            s = BLOCK_SIZES[k]
            o = self.offsets[k]
            if self.complexified:
                vec[o : o + s * s] = arrs[k].ravel()
            else:
                vec[o : o + s * s] = arrs[k][0].ravel()
                vec[o + s * s : o + 2 * s * s] = arrs[k][1].ravel()
        return vec


# ---------------------------------------------------------------------------
# exact engine (sparse rational coordinates)
# ---------------------------------------------------------------------------


def _blockmat_mul(a: _BlockMat, b: _BlockMat) -> _BlockMat:
    bycol: dict[int, list[tuple[int, GaussRational]]] = {}
    for (r, c), v in a.items():
        bycol.setdefault(c, []).append((r, v))
    out: _BlockMat = {}
    for (k, c), vb in b.items():
        hits = bycol.get(k)
        if not hits:
            continue
        for r, va in hits:
            key = (r, c)
            s = out.get(key, ZERO) + va * vb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _rop_bracket(x: RestrictedOperator, y: RestrictedOperator, blocks) -> RestrictedOperator:
    sign = -1 if (x.parity and y.parity) else 1
    out: dict[int, _BlockMat] = {}
    for k in blocks:
        ab = _blockmat_mul(x.block(k), y.block(k))
        ba = _blockmat_mul(y.block(k), x.block(k))
        for key, v in ba.items():
            s = ab.get(key, ZERO) - (v if sign > 0 else -v)
            if s:
                ab[key] = s
            else:
                ab.pop(key, None)
        out[k] = ab
    return RestrictedOperator(out, (x.parity + y.parity) & 1)


def _exact_closure(gens: list[RestrictedOperator], layout: FlatLayout):
    """FIFO left-normed closure with sparse rational echelon reduction."""
    echelon = SparseEchelon()
    pivots: list[int] = []
    parities: list[int] = []
    frontier: deque[RestrictedOperator] = deque()
    brackets = 0

    def reduce_insert(rop: RestrictedOperator) -> bool:
        lead = echelon.insert(layout.flatten_exact(rop))
        if lead is None:
            return False
        pivots.append(lead)
        parities.append(rop.parity)
        return True

    for g in gens:
        if reduce_insert(g):
            frontier.append(g)
    while frontier:
        x = frontier.popleft()
        for g in gens:
            brackets += 1
            cand = _rop_bracket(g, x, layout.blocks)
            if reduce_insert(cand):
                frontier.append(cand)
    return echelon, pivots, parities, brackets


# ---------------------------------------------------------------------------
# modular engine (float64 BLAS over F_p, exact by prime sizing)
# ---------------------------------------------------------------------------


class _HalfEngine:
    """Echelon accumulator for one parity class, on that class's coordinate
    slice.  Two tiers: a large fully-reduced tier and a pending tier merged
    once it grows past a threshold, so batch reduction is one BLAS product
    per tier.  Every array holds balanced residues (|x| <= (p-1)/2), and
    the primes are sized so no product here can leave the exact float64
    integer range."""

    MERGE_AT = 512

    def __init__(self, p: int, length: int, capacity: int):
        self.p = p
        self.fp = float(p)
        self.inv_p = 1.0 / p
        self.length = length
        self.B = np.zeros((capacity, length))
        self.nrows = 0
        self.nmerged = 0
        self.pivots: list[int] = []  # local coordinate indices
        self._piv_merged: np.ndarray | None = None

    def _balance(self, a: np.ndarray) -> np.ndarray:
        a -= np.rint(a * self.inv_p) * self.fp
        return a

    def reduce_rows(self, C: np.ndarray) -> np.ndarray:
        """Single pass per tier suffices: each tier is fully reduced
        against itself and the pending tier against the merged one."""
        if self.nmerged:
            piv = self._piv_merged
            if piv is None or len(piv) != self.nmerged:
                piv = self._piv_merged = np.asarray(self.pivots[: self.nmerged])
            C -= C[:, piv] @ self.B[: self.nmerged]
            self._balance(C)
        if self.nrows > self.nmerged:
            piv = np.asarray(self.pivots[self.nmerged : self.nrows])
            C -= C[:, piv] @ self.B[self.nmerged : self.nrows]
            self._balance(C)
        return C

    def merge(self):
        lo, hi = self.nmerged, self.nrows
        if lo == hi:
            return
        piv = np.asarray(self.pivots[lo:hi])
        coef = self.B[:lo, piv]
        if lo and np.any(coef):
            self.B[:lo] -= coef @ self.B[lo:hi]
            self._balance(self.B[:lo])
        self.nmerged = hi
        self._piv_merged = None

    def insert_batch(self, C: np.ndarray) -> list[tuple[int, int]]:
        """Sequentially insert reduced candidate rows; returns (candidate
        index, pivot) pairs for the rows that extended the basis."""
        survivors: list[tuple[int, int]] = []  # (pivot, row index in C)
        for i in range(C.shape[0]):
            row = C[i]
            for pv, j in survivors:
                c = row[pv]
                if c:
                    row -= c * C[j]
                    self._balance(row)
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                continue
            pv = int(nz[0])
            inv = pow(int(row[pv]) % self.p, -1, self.p)
            if inv > self.p // 2:
                inv -= self.p
            row *= float(inv)
            self._balance(row)
            survivors.append((pv, i))
        if not survivors:
            return []
        # back-pass: clear later pivots from earlier surviving rows, so the
        # stored batch is reduced within itself
        for t in range(len(survivors) - 1, 0, -1):
            pv, it = survivors[t]
            for s in range(t):
                _, js = survivors[s]
                c = C[js][pv]
                if c:
                    C[js] -= c * C[it]
                    self._balance(C[js])
        if self.nrows + len(survivors) > self.B.shape[0]:
            raise RuntimeError("closure exceeded the basis capacity bound")
        # keep the whole pending tier reduced at the new pivots, so the
        # single-pass batch reduction against it stays complete
        if self.nrows > self.nmerged:
            newpivs = np.asarray([pv for pv, _ in survivors])
            pend = self.B[self.nmerged : self.nrows]
            coef = pend[:, newpivs]
            if np.any(coef):
                V = C[[i for _, i in survivors]]
                pend -= coef @ V
                self._balance(pend)
        out = []
        for pv, i in survivors:
            self.B[self.nrows] = C[i]
            self.pivots.append(pv)
            self.nrows += 1
            out.append((i, pv))
        if self.nrows - self.nmerged >= self.MERGE_AT:
            self.merge()
        return out

    def contains(self, vec: np.ndarray) -> bool:
        self.merge()
        v = self.reduce_rows(vec.reshape(1, -1).copy())
        return not np.any(v)


class _ModularEngine:
    """Pair of parity-class engines presenting one echelon basis.

    Rows are addressed as (parity, local row); pivots are reported in the
    global coordinate numbering.  Insertion order follows candidate order,
    and the two halves never interact (their coordinate supports are
    disjoint), so the result equals the unsplit computation."""

    def __init__(self, layout: FlatLayout, p: int, capacity: int):
        self.layout = layout
        self.p = p
        self.halves = tuple(
            _HalfEngine(p, len(layout.parity_indices[t]), min(capacity, len(layout.parity_indices[t])))
            for t in (0, 1)
        )
        self.row_order: list[tuple[int, int]] = []  # (parity, local row) in insertion order

    @property
    def nrows(self) -> int:
        return len(self.row_order)

    def global_pivots(self) -> list[int]:
        out = []
        for par, local in self.row_order:
            lp = self.halves[par].pivots[local]
            out.append(int(self.layout.parity_indices[par][lp]))
        return out

    def parities(self) -> list[int]:
        return [par for par, _ in self.row_order]

    def process_batch(self, C: np.ndarray, cand_parities: np.ndarray) -> list[tuple[int, int, int]]:
        """Reduce and insert a candidate batch (rows in candidate order).
        Returns (candidate index, parity, local row) for each new basis row,
        in candidate order."""
        added: list[tuple[int, int, int]] = []
        for par in (0, 1):
            rows = np.nonzero(cand_parities == par)[0]
            if rows.size == 0:
                continue
            idx = self.layout.parity_indices[par]
            sub = C[np.ix_(rows, idx)]
            half = self.halves[par]
            half.reduce_rows(sub)
            kept = half.insert_batch(sub)
            base = half.nrows - len(kept)
            for t, (i, _pv) in enumerate(kept):
                added.append((int(rows[i]), par, base + t))
        added.sort(key=lambda x: x[0])
        for cand_i, par, local in added:
            self.row_order.append((par, local))
        return added

    def rows_full(self, refs: list[tuple[int, int]]) -> np.ndarray:
        """Materialize full-length vectors for (parity, local row) refs."""
        X = np.zeros((len(refs), self.layout.length))
        for t, (par, local) in enumerate(refs):
            X[t, self.layout.parity_indices[par]] = self.halves[par].B[local]
        return X

    def contains(self, vec: np.ndarray) -> bool:
        return all(
            self.halves[par].contains(vec[self.layout.parity_indices[par]])
            for par in (0, 1)
        )

    def _balance(self, a: np.ndarray) -> np.ndarray:
        a -= np.rint(a * (1.0 / self.p)) * float(self.p)
        return a


def _modular_closure(
    gens: list[RestrictedOperator],
    layout: FlatLayout,
    p: int,
    progress=None,
):
    root_i = root_of_minus_one(p)
    garrs = [layout.generator_arrays(g, p, root_i) for g in gens]
    gpar = np.array([g.parity for g in gens])
    cap = DIMENSION_BOUND + len(gens) + 4
    eng = _ModularEngine(layout, p, cap)

    for g in gens:
        vec = layout.flatten_modular(g, p, root_i)
        par = int(layout.coord_parity[np.nonzero(vec)[0][0]]) if np.any(vec) else g.parity
        if par != g.parity:
            raise AssertionError("generator support disagrees with its parity")
    seeds = np.stack([layout.flatten_modular(g, p, root_i) for g in gens])
    added = eng.process_batch(seeds, np.array([g.parity for g in gens]))
    frontier: deque[tuple[int, int]] = deque((par, local) for _, par, local in added)

    ngen = len(gens)
    brackets = 0
    chunk = 4
    while frontier:
        take = min(chunk, len(frontier))
        refs = [frontier.popleft() for _ in range(take)]
        X = eng.rows_full(refs)  # current row values; any row of the span works
        xpar = np.array([par for par, _ in refs])
        m = len(refs)
        C = np.empty((m * ngen, layout.length))
        cpar = np.empty(m * ngen, dtype=np.int64)
        for gi in range(ngen):
            cand = _bracket_rows(X, xpar, garrs[gi], int(gpar[gi]), layout, eng)
            C[gi::ngen] = cand
            cpar[gi::ngen] = (xpar + gpar[gi]) & 1
        brackets += m * ngen
        added = eng.process_batch(C, cpar)
        for _, par, local in added:
            frontier.append((par, local))
        if eng.nrows > DIMENSION_BOUND:
            raise AssertionError("closure rank exceeded the proven upper bound")
        chunk = min(chunk * 2, 160) if not added else max(4, chunk // 2)
        if progress:
            progress(eng.nrows, brackets, len(frontier))
    for half in eng.halves:
        half.merge()
    return eng, brackets


def _bracket_rows(X, xpar, gblocks, gparity, layout: FlatLayout, eng: _ModularEngine):
    """[g, x] for a stack of flattened rows; x-major candidate order is
    arranged by the caller."""
    m = X.shape[0]
    out = np.empty((m, layout.length))
    # sign: gx - (-1)^{|g||x|} xg
    sgn = np.where((xpar & gparity) == 1, -1.0, 1.0).reshape(m, 1, 1)
    for k in layout.blocks:
        s = BLOCK_SIZES[k]
        o = layout.offsets[k]
        if layout.complexified:
            Xb = X[:, o : o + s * s].reshape(m, s, s)
            G = gblocks[k]
            R = G @ Xb - sgn * (Xb @ G)
            eng._balance(R)
            out[:, o : o + s * s] = R.reshape(m, s * s)
        else:
            Xr = X[:, o : o + s * s].reshape(m, s, s)
            Xi = X[:, o + s * s : o + 2 * s * s].reshape(m, s, s)
            Gr, Gi = gblocks[k]
            gx_r = Gr @ Xr - Gi @ Xi
            gx_i = Gr @ Xi + Gi @ Xr
            xg_r = Xr @ Gr - Xi @ Gi
            xg_i = Xr @ Gi + Xi @ Gr
            Rr = gx_r - sgn * xg_r
            Ri = gx_i - sgn * xg_i
            eng._balance(Rr)
            eng._balance(Ri)
            out[:, o : o + s * s] = Rr.reshape(m, s * s)
            out[:, o + s * s : o + 2 * s * s] = Ri.reshape(m, s * s)
    return out


# ---------------------------------------------------------------------------
# public driver
# ---------------------------------------------------------------------------


@dataclass
class ClosureState:
    """Result of one closure run: an echelonized basis of the flattened
    algebra with deterministic pivots."""

    field: str
    prime: int | None
    blocks: tuple[int, ...]
    layout: FlatLayout
    dim: int
    pivots: list[int]
    parities: list[int]
    brackets: int
    wall_s: float
    _engine: object = None  # SparseEchelon (exact) or _ModularEngine

    def block_dims(self) -> dict[int, int]:
        out = {}
        for k in self.blocks:
            lo, hi = self.layout.block_range(k)
            out[k] = sum(1 for p in self.pivots if lo <= p < hi)
        return out

    def parity_dims(self) -> tuple[int, int]:
        odd = sum(self.parities)
        return len(self.parities) - odd, odd

    def pivot_hash(self) -> str:
        h = hashlib.sha256()
        h.update(repr(sorted(self.pivots)).encode())
        return h.hexdigest()[:16]

    def contains_exact(self, vec: dict[int, Fraction]) -> bool:
        assert isinstance(self._engine, SparseEchelon)
        return self._engine.contains(vec)

    def contains_modular(self, rop: RestrictedOperator) -> bool:
        assert isinstance(self._engine, _ModularEngine)
        root_i = root_of_minus_one(self.prime)
        vec = self.layout.flatten_modular(rop, self.prime, root_i)
        return self._engine.contains(vec)

    def supertrace_residues(self) -> float:
        """max |supertrace residue| over all basis rows (modular only)."""
        assert isinstance(self._engine, _ModularEngine)
        eng = self._engine
        vals = [0.0]
        for full in (_supertrace_vector(self.layout, imag=False),
                     _supertrace_vector(self.layout, imag=True)):
            for par in (0, 1):
                half = eng.halves[par]
                if not half.nrows:
                    continue
                r = half.B[: half.nrows] @ full[self.layout.parity_indices[par]]
                half._balance(r)
                vals.append(float(np.abs(r).max()) if r.size else 0.0)
        return max(vals)

    def report(self, include_wall: bool = False) -> dict:
        out = {
            "field": self.field,
            "prime": self.prime,
            "blocks": [f"hw{k}" for k in self.blocks],
            "dim": self.dim,
            "block_dims": {f"hw{k}": v for k, v in self.block_dims().items()},
            "parity_dims": {"even": self.parity_dims()[0], "odd": self.parity_dims()[1]},
            "brackets": self.brackets,
            "pivot_hash": self.pivot_hash(),
        }
        if include_wall:
            out["wall_s"] = round(self.wall_s, 3)
        return out

    def save(self, path: str) -> None:
        """Binary dump of the echelon basis (modular states only), enough
        to resume membership checks without recomputing the closure."""
        if not isinstance(self._engine, _ModularEngine):
            raise ValueError("only modular closure states can be dumped")
        eng = self._engine
        for half in eng.halves:
            half.merge()
        np.savez_compressed(
            path,
            field=self.field,
            prime=self.prime,
            blocks=np.asarray(self.blocks),
            complexified=np.asarray(self.layout.complexified),
            row_order=np.asarray(eng.row_order, dtype=np.int32).reshape(-1, 2),
            basis_even=eng.halves[0].B[: eng.halves[0].nrows].astype(np.int32),
            basis_odd=eng.halves[1].B[: eng.halves[1].nrows].astype(np.int32),
            pivots_even=np.asarray(eng.halves[0].pivots, dtype=np.int32),
            pivots_odd=np.asarray(eng.halves[1].pivots, dtype=np.int32),
            brackets=self.brackets,
        )


def _supertrace_vector(layout: FlatLayout, imag: bool) -> np.ndarray:
    v = np.zeros(layout.length)
    if layout.complexified and imag:
        return v  # single residue per entry already carries both parts
    for k in layout.blocks:
        s, h = BLOCK_SIZES[k], HW_HALF_DIMS[k]
        for i in range(s):
            v[layout.index(k, i, i, imag=imag)] = 1.0 if i < h else -1.0
    return v


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


def lie_closure(
    generators=GENERATOR_NAMES,
    field: str = "modular",
    blocks=(0, 1, 2, 3),
    prime: int | None = None,
    ralg: RestrictedAlgebra | None = None,
    progress=None,
) -> ClosureState:
    """Close the span of the generators under bracketing with each of them.

    field: "exact" (sparse rational), "modular" (real coordinates mod p) or
    "modular-complex" (one residue per matrix entry; the rank is then the
    complex dimension of the complexified algebra).
    """
    ralg = ralg or default_algebra()
    gens = _resolve_generators(generators, ralg)
    blocks = tuple(blocks)
    t0 = time.time()
    if field == "exact":
        layout = FlatLayout(blocks, complexified=False)
        echelon, pivots, parities, brackets = _exact_closure(gens, layout)
        return ClosureState(
            "exact", None, blocks, layout, len(pivots), pivots, parities,
            brackets, time.time() - t0, _engine=echelon,
        )
    if field in ("modular", "modular-complex"):
        p = prime if prime is not None else DEFAULT_PRIMES[0]
        layout = FlatLayout(blocks, complexified=(field == "modular-complex"))
        eng, brackets = _modular_closure(gens, layout, p, progress)
        return ClosureState(
            field, p, blocks, layout, eng.nrows, eng.global_pivots(),
            eng.parities(), brackets, time.time() - t0, _engine=eng,
        )
    raise ValueError(f"unknown field {field!r}")


def load_state(path: str) -> ClosureState:
    """Rebuild a membership-capable closure state from ``ClosureState.save``."""
    data = np.load(path)
    field = str(data["field"])
    prime = int(data["prime"])
    blocks = tuple(int(b) for b in data["blocks"])
    layout = FlatLayout(blocks, complexified=bool(data["complexified"]))
    eng = _ModularEngine(layout, prime, capacity=4)
    for par, key_b, key_p in ((0, "basis_even", "pivots_even"), (1, "basis_odd", "pivots_odd")):
        half = eng.halves[par]
        B = data[key_b].astype(np.float64)
        half.B = B
        half.nrows = half.nmerged = B.shape[0]
        half.pivots = [int(x) for x in data[key_p]]
    eng.row_order = [(int(p), int(r)) for p, r in data["row_order"]]
    pivots = eng.global_pivots()
    return ClosureState(
        field, prime, blocks, layout, eng.nrows, pivots, eng.parities(),
        int(data["brackets"]), 0.0, _engine=eng,
    )


def block_dimensions(state: ClosureState) -> dict[str, int]:
    """Per-block dimensions read off the echelon pivots.  Pivot counts are
    exact projection ranks whenever the per-block ranks sum to the total
    dimension (each block's pivot rows project independently)."""
    return {f"hw{k}": v for k, v in state.block_dims().items()}


# ---------------------------------------------------------------------------
# structural verification
# ---------------------------------------------------------------------------


def su_pair_dimension(n: int) -> int:
    """Real dimension of the supertrace-zero operators on C^{n|n} preserving
    the standard odd Hermitean pairing, by brute-force enumeration of the
    defining linear constraints over Q (no closed formula is assumed)."""
    from .linalg import rank_dense

    # basis: even vectors 0..n-1, odd vectors n..2n-1; <e_a, f_b> = delta,
    # <f_a, e_b> = delta, zero otherwise
    def pair(x, y):
        px, ix = x
        py, iy = y
        if px != py and ix == iy:
            return 1
        return 0

    basis = [(0, i) for i in range(n)] + [(1, i) for i in range(n)]

    def constraint_rows(parity: int, params: list[tuple]):
        rows = []
        for x in basis:
            for y in basis:
                row_re, row_im = [], []
                for (src, dst, scal) in params:
                    # operator: basis src -> scal * basis dst
                    val = GaussRational(0)
                    if src == x:
                        val = val + scal * GaussRational(pair(dst, y))
                    if src == y:
                        sgn = -1 if (parity and x[0]) else 1
                        val = val + GaussRational(sgn) * scal.conjugate() * GaussRational(pair(x, dst))
                    row_re.append(GaussRational(val.re))
                    row_im.append(GaussRational(val.im))
                rows.append(row_re)
                rows.append(row_im)
        return rows

    one = GaussRational(1)
    i_ = GaussRational(0, 1)
    even_params = []
    for a in range(n):
        for b in range(n):
            for scal in (one, i_):
                even_params.append(((0, b), (0, a), scal))  # block e -> e
                even_params.append(((1, b), (1, a), scal))  # block f -> f
    odd_params = []
    for a in range(n):
        for b in range(n):
            for scal in (one, i_):
                odd_params.append(((0, b), (1, a), scal))  # e -> f
                odd_params.append(((1, b), (0, a), scal))  # f -> e

    even_rows = constraint_rows(0, even_params)
    str_re, str_im = [], []
    for (src, dst, scal) in even_params:
        if src == dst:
            sgn = 1 if src[0] == 0 else -1
            str_re.append(GaussRational(sgn) * GaussRational(scal.re))
            str_im.append(GaussRational(sgn) * GaussRational(scal.im))
        else:
            str_re.append(GaussRational(0))
            str_im.append(GaussRational(0))
    even_rows.append(str_re)
    even_rows.append(str_im)
    odd_rows = constraint_rows(1, odd_params)

    dim_even = len(even_params) - rank_dense(even_rows, len(even_params))
    dim_odd = len(odd_params) - rank_dense(odd_rows, len(odd_params))
    return dim_even + dim_odd


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
    gens = standard_generators()
    failures: list[str] = []

    pairing_ok = True
    for name, g in gens.items():
        if super_adjoint(g) != hodge_conjugate(g).scale(-1):
            pairing_ok = False
            failures.append(f"{name}: pairing preservation identity fails")

    for name in GENERATOR_NAMES:
        rop = ralg.generator(name)
        st = GaussRational(0)
        for k in state.blocks:
            h = HW_HALF_DIMS[k]
            for (r, c), v in rop.block(k).items():
                if r == c:
                    st = st + (v if r < h else -v)
        if st:
            failures.append(f"{name}: restricted supertrace {st} != 0")

    max_str_residue = None
    if isinstance(state._engine, _ModularEngine):
        max_str_residue = state.supertrace_residues()
        if max_str_residue:
            failures.append("a closure basis element has nonzero supertrace mod p")

    dagger_ok = []
    for name in GENERATOR_NAMES:
        d = dagger(gens[name])
        rop = ralg.restrict(d, state.blocks)
        if isinstance(state._engine, _ModularEngine):
            ok = state.contains_modular(rop)
        else:
            ok = state.contains_exact(state.layout.flatten_exact(rop))
        dagger_ok.append(ok)
        if not ok:
            failures.append(f"dagger({name}) not in the closure span")

    report = {
        "pass": not failures,
        "failures": failures,
        "generator_pairing_identity": pairing_ok,
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
