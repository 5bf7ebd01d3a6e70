"""Explicit labeled bases of the four highest-weight spaces.

Each space has one half generated concretely and the other half produced by
the Hodge star:

* type 0:  even half = i^(a+b+c) L0^a L1^b L2^c (1) over all exponent
  triples of degree <= 3; odd half = star images (equivalently, the same
  monomials in the adjoints applied to the volume form).
* type 1:  odd half = i^(a+b+c) L0^a L1^b L2^c (w_1j), j = 0,1,2, with
  twelve exponent triples per block sector; even half = star images.
* type 2:  even half = the twenty listed monomials applied to w_1j ^ w_1k
  for (j,k) in {01, 02, 12}; odd half = star images.
* type 3:  odd half = w10^w11^w12 and its three iL_j images; even half =
  star images.

Labels follow the tabulated convention "(a,b,c)", "(a,b,c)j", "(a,b,c)jk";
star images carry a trailing '*'.  The exponent triples are ordered by
total degree, then descending lexicographically, which is exactly the
order the pattern tables list them in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .scalars import I
from . import forms
from .forms import Form, wedge, hodge_star, w_form
from .reptheory import HW_DIMS, SpanSolver, basis_operator, restrict_operator
from .operators import kw_pattern, build_L, build_K, sl2_triple
from . import pattern_tables

__all__ = [
    "LabeledBasis",
    "build_hw0_basis",
    "build_hw1_basis",
    "build_hw2_basis",
    "build_hw3_basis",
    "all_bases",
    "relation_vector",
    "basis_report",
    "basis_dump",
    "verify_pattern_tables",
    "HW0_TRIPLES",
    "HW1_SECTOR_TRIPLES",
    "HW2_SECTOR_TRIPLES",
    "HW3_TRIPLES",
]


def _graded_revlex(max_degree: int) -> list[tuple[int, int, int]]:
    out = []
    for d in range(max_degree + 1):
        level = [
            (a, b, d - a - b)
            for a in range(d, -1, -1)
            for b in range(d - a, -1, -1)
        ]
        out.extend(sorted(level, reverse=True))
    return out


HW0_TRIPLES: list[tuple[int, int, int]] = _graded_revlex(3)

_DEG2 = _graded_revlex(2)

HW1_SECTOR_TRIPLES: dict[int, list[tuple[int, int, int]]] = {
    0: _DEG2 + [(3, 0, 0), (1, 1, 1)],
    1: _DEG2 + [(0, 3, 0), (1, 1, 1)],
    2: _DEG2 + [(0, 0, 3), (1, 1, 1)],
}

_DEG1 = _graded_revlex(1)

HW2_SECTOR_TRIPLES: dict[tuple[int, int], list[tuple[int, int, int]]] = {
    (0, 1): _DEG1 + [(2, 0, 0), (1, 1, 0), (0, 2, 0)],
    (0, 2): _DEG1 + [(2, 0, 0), (0, 0, 2)],
    (1, 2): _DEG1 + [(0, 2, 0), (0, 1, 1), (0, 0, 2)],
}

HW3_TRIPLES: list[tuple[int, int, int]] = _graded_revlex(1)


@lru_cache(maxsize=None)
def _l_wedge_form(a: int, b: int, c: int) -> Form:
    """The wedge form of i^(a+b+c) L0^a L1^b L2^c: the operators are wedges
    with fixed two-forms, so the monomial is itself a wedge operator."""
    f = forms.monomial(0)
    for _ in range(a):
        f = wedge(forms.omegaD(), f)
    for _ in range(b):
        f = wedge(forms.omega2().scale(-1), f)
    for _ in range(c):
        f = wedge(forms.omega1(), f)
    return f.scale(I ** (a + b + c))


def _l_monomial_applied(triple: tuple[int, int, int], seed: Form) -> Form:
    return wedge(_l_wedge_form(*triple), seed)


@dataclass
class LabeledBasis:
    """Ordered labeled basis of one highest-weight space, split by parity.

    ``even`` + ``odd`` (in that order) is the flattening order used by the
    closure engine.
    """

    k: int
    even_labels: list[str]
    even: list[Form]
    odd_labels: list[str]
    odd: list[Form]

    def vectors(self) -> list[Form]:
        return self.even + self.odd

    def labels(self) -> list[str]:
        return self.even_labels + self.odd_labels

    def half(self, parity: str) -> tuple[list[str], list[Form]]:
        if parity == "even":
            return self.even_labels, self.even
        if parity == "odd":
            return self.odd_labels, self.odd
        raise ValueError(parity)

    def dims(self) -> tuple[int, int, int]:
        return (len(self.even) + len(self.odd), len(self.even), len(self.odd))


def _star_half(labels: list[str], vecs: list[Form]) -> tuple[list[str], list[Form]]:
    return [s + "*" for s in labels], [hodge_star(v) for v in vecs]


@lru_cache(maxsize=1)
def build_hw0_basis() -> LabeledBasis:
    labels = [f"({a},{b},{c})" for a, b, c in HW0_TRIPLES]
    even = [_l_monomial_applied(t, forms.one()) for t in HW0_TRIPLES]
    odd_labels, odd = _star_half(labels, even)
    return LabeledBasis(0, labels, even, odd_labels, odd)


@lru_cache(maxsize=1)
def build_hw1_basis() -> LabeledBasis:
    labels, odd = [], []
    for j in (0, 1, 2):
        seed = w_form(1, j)
        for t in HW1_SECTOR_TRIPLES[j]:
            labels.append(f"({t[0]},{t[1]},{t[2]}){j}")
            odd.append(_l_monomial_applied(t, seed))
    even_labels, even = _star_half(labels, odd)
    return LabeledBasis(1, even_labels, even, labels, odd)


@lru_cache(maxsize=1)
def build_hw2_basis() -> LabeledBasis:
    labels, even = [], []
    for (j, k) in ((0, 1), (0, 2), (1, 2)):
        seed = wedge(w_form(1, j), w_form(1, k))
        for t in HW2_SECTOR_TRIPLES[(j, k)]:
            labels.append(f"({t[0]},{t[1]},{t[2]}){j}{k}")
            even.append(_l_monomial_applied(t, seed))
    odd_labels, odd = _star_half(labels, even)
    return LabeledBasis(2, labels, even, odd_labels, odd)


@lru_cache(maxsize=1)
def build_hw3_basis() -> LabeledBasis:
    seed = wedge(wedge(w_form(1, 0), w_form(1, 1)), w_form(1, 2))
    labels = [f"({a},{b},{c})" for a, b, c in HW3_TRIPLES]
    odd = [_l_monomial_applied(t, seed) for t in HW3_TRIPLES]
    even_labels, even = _star_half(labels, odd)
    return LabeledBasis(3, even_labels, even, labels, odd)


def all_bases() -> tuple[LabeledBasis, LabeledBasis, LabeledBasis, LabeledBasis]:
    return (build_hw0_basis(), build_hw1_basis(), build_hw2_basis(), build_hw3_basis())


@lru_cache(maxsize=1)
def all_vectors_solver() -> SpanSolver:
    """One span solver over the vectors of all four bases, block after block."""
    return SpanSolver([v for b in all_bases() for v in b.vectors()])


def relation_vector() -> Form:
    """L0 L1 (w10^w11) + L1 L2 (w11^w12) + L2 L0 (w12^w10); exactly zero,
    which is why one degree-two monomial is absent from the type-2 basis."""
    w10, w11, w12 = w_form(1, 0), w_form(1, 1), w_form(1, 2)
    L0, L1, L2 = forms.omegaD(), forms.omega2().scale(-1), forms.omega1()
    t1 = wedge(L0, wedge(L1, wedge(w10, w11)))
    t2 = wedge(L1, wedge(L2, wedge(w11, w12)))
    t3 = wedge(L2, wedge(L0, wedge(w12, w10)))
    return t1 + t2 + t3


def basis_report(basis: LabeledBasis) -> dict:
    """Independence, membership and homogeneity checks for one basis.

    e and h are checked on the whole basis at once, against the span
    solver's basis operator B, whose column i is vector i: each nonzero
    column of e B or of h B - 2k B names a failing vector."""
    e, _, h = sl2_triple()
    failures: list[str] = []
    vectors = basis.vectors()
    labels = basis.labels()
    try:
        SpanSolver(vectors)
    except ValueError as exc:
        failures.append(f"independence: {exc}")
    B = basis_operator(vectors)
    raised = set(e.compose(B).coords().cols.tolist())
    off_weight = set((h.compose(B) - B.scale(2 * basis.k)).coords().cols.tolist())
    for i, (lab, v) in enumerate(zip(labels, vectors)):
        if not v:
            failures.append(f"{lab}: vanishes")
            continue
        if forms.multidegree(v) is None:
            failures.append(f"{lab}: not multidegree homogeneous")
        if i in raised:
            failures.append(f"{lab}: not killed by the raising operator")
        if i in off_weight:
            failures.append(f"{lab}: wrong Cartan weight")
    expected = HW_DIMS[basis.k]
    if len(vectors) != expected:
        failures.append(f"cardinality {len(vectors)} != {expected}")
    return {
        "k": basis.k,
        "dims": basis.dims(),
        "checks": 1 + 3 * len(vectors) + 1,
        "failures": failures,
        "pass": not failures,
    }


def basis_dump(basis: LabeledBasis) -> dict[str, str]:
    """label -> sorted monomial expansion, for golden files."""
    return {
        lab: forms.format_form(v)
        for lab, v in zip(basis.labels(), basis.vectors())
    }


# -- pattern-table verification -------------------------------------------------


def verify_pattern_tables(tables=None) -> dict:
    """Check the tabulated sparsity patterns of the weight components of
    iL0, iL1, iL2 (and the K_lm that appear) on the labeled half-bases.

    For each table: every cell carrying an operator mark must be a nonzero
    entry of that operator's restricted matrix, and every unmarked cell
    must vanish for all operators the table covers.  Starred marks assert
    presence just like plain marks; only the scalar value is unspecified.
    Each operator is restricted once per table, whole, by the solver the
    closure restricts with (``all_vectors_solver``) narrowed to the table's
    half-basis.  The labeled vectors are multidegree-homogeneous, so the
    component of iL_j of pattern weight w is the part whose row and column
    vectors' patterns differ by w.
    """
    tables = tables if tables is not None else pattern_tables.ALL_TABLES
    bases = {0: build_hw0_basis(), 1: build_hw1_basis(), 2: build_hw2_basis()}
    cache: dict = {}
    report: dict = {"tables": {}, "pass": True}
    solver, all_labels = all_vectors_solver(), [lab for b in all_bases() for lab in b.labels()]
    for table in tables:
        basis = bases[table.space_k]
        labels, vecs = basis.half(table.parity)
        index = {lab: i for i, lab in enumerate(labels)}
        missing = [lab for lab in table.row_labels + table.col_labels if lab not in index]
        if missing:
            raise ValueError(f"{table.name}: labels not in basis: {missing}")
        # the half-basis's vectors, in the solver over all four bases
        first = sum(len(b.vectors()) for b in all_bases()[:table.space_k])
        first += len(basis.even) if table.parity == "odd" else 0
        part = (range(first, first + len(vecs)),)
        pattern = [kw_pattern(forms.multidegree(v)) for v in vecs]
        ops_in_scope = sorted({entry.op for entry in table.entries.values()}, key=repr)
        matrices: dict = {op_spec: {} for op_spec in ops_in_scope}
        for key in dict.fromkeys(o[:2] if o[0] == "L" else o for o in ops_in_scope):
            if key not in cache:  # the whole of iL_j for ("L", j), K_lm for ("K", l, m)
                cache[key] = build_L(key[1]).scale(I) if key[0] == "L" else build_K(*key[1:])
            for (r, c), v in restrict_operator(cache[key], solver, all_labels, part).items():
                r, c = r - first, c - first
                weight = tuple(a - b for a, b in zip(pattern[r], pattern[c]))
                spec = key + (weight,) if key[0] == "L" else key
                if spec in matrices:  # components outside the table's scope are dropped
                    matrices[spec][r, c] = v
        mismatches = []
        marked = 0
        for rl in table.row_labels:
            for cl in table.col_labels:
                key = (index[rl], index[cl])
                found = {o: mat[key] for o, mat in matrices.items() if key in mat}
                entry = table.entries.get((rl, cl))
                expected = "0"
                if entry is not None:
                    marked += 1
                    expected = "0 (cell marked for another operator)"
                    if found.pop(entry.op, None) is None:
                        mismatches.append(
                            {"row": rl, "col": cl, "op": pattern_tables.op_name(entry.op),
                             "expected": "nonzero", "found": "0"}
                        )
                for op_spec, v in found.items():
                    mismatches.append(
                        {"row": rl, "col": cl, "op": pattern_tables.op_name(op_spec),
                         "expected": expected, "found": str(v)}
                    )
        unmarked = len(table.row_labels) * len(table.col_labels) - marked
        ok = not mismatches
        report["tables"][table.name] = {
            "pass": ok,
            "marked_cells": marked,
            "unmarked_cells": unmarked,
            "operators": [pattern_tables.op_name(o) for o in ops_in_scope],
            "mismatches": mismatches,
        }
        report["pass"] = report["pass"] and ok
    return report
