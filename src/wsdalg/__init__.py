"""wsdalg: exact operator algebra of a rank-three weakly self-dual structure.

The package models the 512-dimensional exterior algebra of a 9-dimensional
inner-product space carrying the distinguished two-forms of a rank-three
weakly self-dual structure, builds its canonical operators over Q(i),
decomposes the algebra under the rotation action, and computes the Lie
superalgebra generated by the twelve distinguished operators together with
its block structure, entirely in exact arithmetic (rational, or modular for
the large rank computations).
"""

from .scalars import GaussRational, DEFAULT_PRIMES, gauss, balanced_residue
from .forms import (
    Form,
    monomial,
    one,
    wedge,
    contract,
    hodge_star,
    hermitean_inner,
    poincare_pair,
    multidegree,
    format_form,
    parse_form,
)
from .operators import (
    Operator,
    build_E,
    build_I,
    build_L,
    build_V,
    build_J,
    build_Lambda,
    build_A,
    build_H,
    build_K,
    plain_adjoint,
    super_adjoint,
    dagger,
    hodge_conjugate,
    superbracket,
    s3_conjugate,
    kw_decompose,
    serre_check,
    standard_generators,
)
from .reptheory import isotypical_table, highest_weight_space, restrict_operator
from .hwbases import (
    build_hw0_basis,
    build_hw1_basis,
    build_hw2_basis,
    build_hw3_basis,
    relation_vector,
    verify_pattern_tables,
)
from .closure import (
    RestrictedAlgebra,
    lie_closure,
    su_pair_dimension,
    verify_structure,
)

__version__ = "0.1.0"
