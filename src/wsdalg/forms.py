"""The complex exterior algebra on nine orthonormal one-forms v_ij.

Index conventions
-----------------
The coframe splits into three blocks W_0, W_1, W_2 of three one-forms each:
v_ij with i in {1,2,3} labels the vector inside block j in {0,1,2}.  The flat
position of v_ij is

    pos(i, j) = 3*j + (i - 1)        (0..8, block-major)

and a basis monomial of the 512-dimensional algebra is the wedge of its
factors in increasing position order, encoded by the 9-bit mask of occupied
positions with canonical coefficient +1.  The volume form is the full mask
with coefficient +1, which is exactly Vol(W_0) ^ Vol(W_1) ^ Vol(W_2); every
sign below (Hodge star, interior products, adjoints) is derived from this
single orientation choice.

Coefficients are GaussRational; a Form stores a sparse mask -> coefficient
map with no explicit zeros.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .scalars import GaussRational, I, ONE, ZERO, gauss

__all__ = [
    "NPOS",
    "DIM",
    "FULL_MASK",
    "BLOCK_MASKS",
    "ABOVE",
    "pos",
    "pos_label",
    "multidegree_of_mask",
    "Form",
    "monomial",
    "one",
    "wedge",
    "contract",
    "hodge_star",
    "star_sign",
    "hermitean_inner",
    "poincare_pair",
    "multidegree",
    "omega1",
    "omega2",
    "omegaD",
    "block_volume",
    "volume",
    "w_form",
    "format_form",
    "parse_form",
]

NPOS = 9
DIM = 1 << NPOS
FULL_MASK = DIM - 1

# positions 0-2 span W_0, 3-5 span W_1, 6-8 span W_2
BLOCK_MASKS = (0b000000111, 0b000111000, 0b111000000)


def pos(i: int, j: int) -> int:
    if not (1 <= i <= 3 and 0 <= j <= 2):
        raise ValueError(f"one-form index out of range: v_{i}{j}")
    return 3 * j + (i - 1)


def pos_label(p: int) -> str:
    """Inverse of pos(): the textual name 'v{i}{j}' of a position."""
    return f"v{p % 3 + 1}{p // 3}"


def multidegree_of_mask(mask: int) -> tuple[int, int, int]:
    return (
        (mask & BLOCK_MASKS[0]).bit_count(),
        (mask & BLOCK_MASKS[1]).bit_count(),
        (mask & BLOCK_MASKS[2]).bit_count(),
    )


class Form:
    """Sparse element of the exterior algebra: mask -> GaussRational."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, GaussRational] | None = None):
        self.coeffs = {m: c for m, c in (coeffs or {}).items() if c}

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Form(out)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form({m: -c for m, c in self.coeffs.items()})

    def scale(self, s) -> "Form":
        s = gauss(s)
        if not s:
            return Form()
        return Form({m: s * c for m, c in self.coeffs.items()})

    __rmul__ = scale
    __mul__ = scale

    def conjugate(self) -> "Form":
        return Form({m: c.conjugate() for m, c in self.coeffs.items()})

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Form) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def degree(self) -> int | None:
        """Common degree of all monomials, or None if inhomogeneous/zero."""
        degs = {m.bit_count() for m in self.coeffs}
        return degs.pop() if len(degs) == 1 else None

    def __repr__(self) -> str:
        return f"Form({format_form(self)!r})"


def monomial(mask: int, coeff=1) -> Form:
    c = gauss(coeff)
    return Form({mask: c}) if c else Form()


def one() -> Form:
    return monomial(0)


# ABOVE[a]: the positions k at which an odd number of factors of a lie
# above k, so the sign of v_a ^ v_b (disjoint masks) is
# (-1)^popcount(b & ABOVE[a]): merging the ascending factor lists moves each
# factor k of b past the factors of a above it.
ABOVE = tuple(sum(1 << k for k in range(NPOS) if (a >> (k + 1)).bit_count() & 1) for a in range(DIM))


def _wedge_sign_and_mask(a: int, b: int) -> tuple[int, int]:
    """Sign and mask of v_a ^ v_b for disjoint masks, else (0, 0)."""
    if a & b:
        return 0, 0
    return (-1 if (b & ABOVE[a]).bit_count() & 1 else 1), a | b


def wedge(f: Form, g: Form) -> Form:
    out: dict[int, GaussRational] = {}
    for ma, ca in f.coeffs.items():
        for mb, cb in g.coeffs.items():
            sgn, m = _wedge_sign_and_mask(ma, mb)
            if sgn == 0:
                continue
            c = ca * cb
            if sgn < 0:
                c = -c
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return Form(out)


def contract(p: int, f: Form) -> Form:
    """Interior product with the vector dual to position p.

    Graded derivation of degree -1:
        contract(p, v_p ^ a) + v_p ^ contract(p, a) = a.
    It sends v_m to s v_(m ^ bit), with v_p ^ v_(m ^ bit) = s v_m.
    """
    bit = 1 << p
    above = ABOVE[bit]
    out: dict[int, GaussRational] = {}
    for m, c in f.coeffs.items():
        if not m & bit:
            continue
        if (m & above).bit_count() & 1:
            c = -c
        out[m ^ bit] = c
    return Form(out)


def star_sign(mask: int) -> int:
    """Sign eps with v_mask ^ (eps * v_complement) = Vol."""
    return -1 if ((FULL_MASK ^ mask) & ABOVE[mask]).bit_count() & 1 else 1


def hodge_star(f: Form) -> Form:
    """Complex-linear Hodge star; an involution since dim = 9 makes
    k*(9-k) even for every degree k."""
    return Form({FULL_MASK ^ m: c if star_sign(m) > 0 else -c for m, c in f.coeffs.items()})


def hermitean_inner(f: Form, g: Form) -> GaussRational:
    """Hermitean inner product making the basis monomials orthonormal.

    Linear in the first argument and conjugate-linear in the second.
    """
    acc = ZERO
    small, big = (f.coeffs, g.coeffs) if len(f.coeffs) <= len(g.coeffs) else (g.coeffs, f.coeffs)
    for m, _ in small.items():
        if m in big:
            acc = acc + f.coeffs[m] * g.coeffs[m].conjugate()
    return acc


def poincare_pair(f: Form, g: Form) -> GaussRational:
    """Odd pairing <f, g> = (f ^ conj(g), Vol).

    Equals hermitean_inner(f, hodge_star(g)); vanishes unless the degrees
    sum to 9, so it pairs even with odd and is Hermitean as well as super
    Hermitean.
    """
    acc = ZERO
    for ma, ca in f.coeffs.items():
        mb = FULL_MASK ^ ma
        cb = g.coeffs.get(mb)
        if cb is None:
            continue
        term = ca * cb.conjugate()
        acc = acc + (term if star_sign(ma) > 0 else -term)
    return acc


def multidegree(f: Form) -> tuple[int, int, int] | None:
    """The common (a, b, c) block degree, or None when inhomogeneous."""
    mds = {multidegree_of_mask(m) for m in f.coeffs}
    return mds.pop() if len(mds) == 1 else None


# -- distinguished forms of the structure -------------------------------------


def omega1() -> Form:
    return Form({(1 << pos(i, 0)) | (1 << pos(i, 1)): ONE for i in (1, 2, 3)})


def omega2() -> Form:
    return Form({(1 << pos(i, 0)) | (1 << pos(i, 2)): ONE for i in (1, 2, 3)})


def omegaD() -> Form:
    return Form({(1 << pos(i, 1)) | (1 << pos(i, 2)): ONE for i in (1, 2, 3)})


def block_volume(j: int) -> Form:
    return monomial(BLOCK_MASKS[j])


def volume() -> Form:
    return monomial(FULL_MASK)


def w_form(i: int, j: int) -> Form:
    """Weight-basis one-forms: w_1j = v_1j + i v_2j, w_2j = v_1j - i v_2j,
    w_3j = v_3j."""
    if i == 1:
        return monomial(1 << pos(1, j)) + monomial(1 << pos(2, j), I)
    if i == 2:
        return monomial(1 << pos(1, j)) + monomial(1 << pos(2, j), -I)
    if i == 3:
        return monomial(1 << pos(3, j))
    raise ValueError(f"w index out of range: w_{i}{j}")


# -- textual syntax ------------------------------------------------------------
#
# form     := '0' | term ('+' term)*
# term     := scalar '*' monomial | scalar | monomial
# monomial := '1' | vfactor ('^' vfactor)*
# vfactor  := 'v' i j                      (i in 1..3, j in 0..2)
# scalar   := '(' rat ('+'|'-') rat '*i' ')' | rat | '(' rat ')'
# rat      := ['-'] digits ['/' digits]
#
# format_form emits monomials in ascending mask order with factors in
# ascending position order; parse_form accepts any factor order and applies
# the wedge sign.


def _format_scalar(c: GaussRational) -> str:
    if c.im == 0:
        return str(c.re)
    sign = "+" if c.im >= 0 else "-"
    return f"({c.re}{sign}{abs(c.im)}*i)"


def format_form(f: Form) -> str:
    if not f.coeffs:
        return "0"
    parts = []
    for m in sorted(f.coeffs):
        c = f.coeffs[m]
        mono = "^".join(pos_label(p) for p in range(NPOS) if m >> p & 1) or "1"
        if m == 0:
            parts.append(_format_scalar(c))
        elif c == ONE:
            parts.append(mono)
        else:
            parts.append(f"{_format_scalar(c)}*{mono}")
    return " + ".join(parts)


_RAT = r"(-?[0-9]+(?:/[0-9]+)?)"
_SCALAR_RE = _re.compile(
    rf"\(\s*{_RAT}\s*([+-])\s*{_RAT}\s*\*\s*i\s*\)|{_RAT}|\(\s*{_RAT}\s*\)"
)


def _parse_scalar(text: str) -> GaussRational:
    """A scalar of the grammar above; any other text, or a zero
    denominator, raises ValueError naming the text."""
    m = _SCALAR_RE.fullmatch(text.strip())
    if m is None or _re.search(r"/0+(?![0-9])", text):
        raise ValueError(f"bad scalar {text!r}")
    re_part, sign, im_part, real, bracketed = m.groups()
    if re_part is None:
        return GaussRational(Fraction(real or bracketed))
    im = Fraction(im_part)
    return GaussRational(Fraction(re_part), -im if sign == "-" else im)


def parse_form(text: str) -> Form:
    text = text.strip()
    if text in ("", "0"):
        return Form()
    total = Form()
    # split on '+' only at depth zero, so scalars like (1/2+3*i) stay whole
    terms, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0:
            terms.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    terms.append("".join(cur))
    for term in terms:
        term = term.strip()
        if not term:
            raise ValueError("empty term in form text")
        if "*" in term and not term.endswith("i)"):
            # split scalar*monomial at the last '*' outside parentheses
            depth = 0
            split_at = None
            for k, ch in enumerate(term):
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                elif ch == "*" and depth == 0:
                    split_at = k
            if split_at is None:
                scalar, mono = term, None
            else:
                scalar, mono = term[:split_at], term[split_at + 1 :]
        elif term.startswith("(") or term.lstrip("-")[:1].isdigit():
            scalar, mono = term, None
        else:
            scalar, mono = None, term
        coeff = _parse_scalar(scalar) if scalar is not None else ONE
        part = monomial(0, coeff)
        if mono is not None and mono.strip() != "1":
            for factor in mono.split("^"):
                factor = factor.strip()
                if not _re.fullmatch(r"v[0-9][0-9]", factor):
                    raise ValueError(f"bad factor {factor!r}")
                p = pos(int(factor[1]), int(factor[2]))
                part = wedge(part, monomial(1 << p))
        total = total + part
    return total
