"""Exact-arithmetic toolkit for Riemann-Roch polynomials of holomorphic-symplectic manifolds.

Modules
-------
exactpoly   rational scalars, dense exact polynomials, residue sets
chebbern    quarter-shift Chebyshev substitutes P_k by closed form, Bernoulli numbers
chernrr     Riemann-Roch polynomial from Chern numbers (partition-product formula)
qkbasis     positive symmetric basis, its certified roots, decompositions, reality test
cnconst     certified gcd constants of square-difference products
hkprofile   invariant bundles, known families, denominator and parity checks
isosolver   residue sieve for the dimension-6 isotropic-class cases
cli         command-line reports (JSON / markdown)
"""

__version__ = "0.1.0"

from .chebbern import bernoulli, pk_poly
from .chernrr import ChernData, partitions, q_rr_from_chern
from .cnconst import (
    CnCertificate,
    cn_prime_support,
    cn_value,
    min_padic_valuation,
    tuple_product,
)
from .exactpoly import (
    Poly,
    ResidueSet,
    as_rat,
    binomial_poly,
    integrality_residues,
    poly_compose_affine,
    rat_str,
)
from .hkprofile import (
    HKProfile,
    ProfileError,
    cubic_prr,
    denominator_check,
    double_factorial,
    even_values_check,
    known_family_prr,
    profile_from_prr,
    real_root_classifier,
)
from .isosolver import (
    IsotropicCase,
    UnsupportedCase,
    divisibility_residues,
    fujiki_from_pairing,
    gcd_constraint,
    mx_upper_bounds,
    pairing_candidates,
    pairing_congruence,
    solve_case,
    square_closure,
)
from .qkbasis import (
    NotInSpan,
    all_roots_real,
    decompose_qk,
    decompose_shifted,
    qk_laurent_check,
    qk_poly,
    qk_roots,
)
