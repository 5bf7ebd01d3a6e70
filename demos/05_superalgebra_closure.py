#!/usr/bin/env python3
"""Closing the generators into the full Lie superalgebra.

The quick parts run by default: the exact closure on the smallest block
(a 15-dimensional split special-linear algebra), the exact closure of the
six even generators (same dimension, a nontrivial coincidence), and the
brute-force dimension count for the pairing-preserving superalgebras on
C^{n|n} at n = 1, 2.

Pass --full to run the complete certification: both modular closures of
all twelve generators (dimension 8396 with block dimensions 1599, 5183,
1599, 15), the complexified closure, and the structural checks.  Expect
about 2 seconds on a 2-core machine.
"""

import sys
import time

from wsdalg import closure as cl

ralg = cl.default_algebra()

print("== smallest block, exact coordinates ==")
st = cl.lie_closure(blocks=(3,), field="exact", ralg=ralg)
print(f"  dimension {st.dim} (the split form: all brackets of the three")
print("  single-entry matrices and their adjoints)")

print("\n== the six even generators on all blocks, exact ==")
st = cl.lie_closure(generators=cl.EVEN_GENERATOR_NAMES, field="exact", ralg=ralg)
print(f"  dimension {st.dim}, parity split {st.parity_dims()}")

print("\n== pairing-preserving superalgebra dimensions, brute force ==")
for n in (1, 2):
    print(f"  n = {n}: {cl.su_pair_dimension(n)}  (formula 4n^2 - 1 = {4*n*n-1})")
print("  the formula feeds the expected block dimensions:",
      [4 * n * n - 1 for n in (20, 36, 20)], "+ [15]")

if "--full" not in sys.argv:
    print("\n(run with --full for the complete 8396-dimensional certification)")
    sys.exit(0)

print("\n== full closure under both default primes ==")
t0 = time.time()
states = []
for p in cl.DEFAULT_PRIMES:
    st = cl.lie_closure(field="modular", prime=p, ralg=ralg)
    states.append(st)
    print(f"  p = {p}: dim {st.dim}, blocks {st.block_dims()}, "
          f"parity {st.parity_dims()}, {st.wall_s:.0f}s")

print("\n== complexified closure ==")
cx = cl.lie_closure(field="modular-complex", ralg=ralg)
print(f"  complex dimension {cx.dim} (real dimension {2 * cx.dim})")

print("\n== structural checks ==")
rep = cl.verify_structure(states[0], ralg, cx)
print(f"  pairing identity on generators: {rep['generator_pairing_identity']}")
print(f"  max supertrace residue over the basis: {rep['supertrace_max_residue']}")
print(f"  twisted adjoints of generators in the span: "
      f"{all(rep['dagger_membership'].values())}")
print(f"  gap to the invariant bound {cl.DIMENSION_BOUND}: {rep['bound_gap']}")
print(f"\nall structural checks pass: {rep['pass']}  "
      f"(total {time.time()-t0:.0f}s)")
