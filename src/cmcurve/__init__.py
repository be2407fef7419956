"""Exact finite-level model of the modular-curve tower and its CM points.

The library models, at a configurable finite level N, the covering of
canonical modular curves as a double-coset space, the equivalence and group
actions on its special points, and the finite shadows of the Galois action:
tuples of normalizer-shape matrices with a common determinant and a common
branch sign.  Everything is computed in exact integer and rational
arithmetic; partial operations signal typed obstructions instead of
approximating.

Modules:
  numth    exact integer kernel: factoring, Jacobi symbols, square roots
           modulo prime powers, Hilbert symbols
  qforms   positive-definite binary quadratic forms, reduction with
           transformation data, automorphs, class enumeration, Cornacchia,
           and the rational norm-form solver
  adele    finite-level adelic matrices in the normal form r * d_delta * s,
           level subgroups, torus/normalizer shapes, reciprocity matrices
  shimura  level points, exact point equality with witnesses, components,
           unit/rational actions, fixed-point classification, projections
  galois   Galois shadows: the group law, the action on points, determinant
           equalization, common-determinant surjectivity, the branch
           character and its exact sequence
  tori     character lattices under sign actions, stable saturation,
           independence of sqrt(-m) tuples, Goursat decompositions
  approx   the diagonal-unit quotient: canonical representatives, curve
           components, the four-point relation, faithfulness, and the lift
           of mapping tables back to shadows
  verify   runnable verification suites behind the `cmcurve verify` CLI
"""

from .adele import (
    AdelicMatrix,
    LevelMatrix,
    ShapeKind,
    UnitPart,
    conj_by_dlambda,
    in_gamma_tilde,
    mul,
    reciprocity_matrix,
    reduce_level,
    shape_test,
)
from .approx import (
    ApproxPoint,
    CurveComponentLabel,
    approx_eq,
    canonical_rep,
    curve_component,
    eval_curve,
    faithfulness_check,
    lift_automorphism,
    relation_R,
    relation_witness,
)
from .errors import (
    CmcurveError,
    LevelObstruction,
    NormObstruction,
    NotSubdirect,
    Obstruction,
    PrecisionObstruction,
    RViolation,
    UnsupportedOrbit,
)
from .galois import (
    GaloisShadow,
    NormalizationCertificate,
    branch_map,
    component_action,
    equalize_dets,
    shadow_act,
    shadow_eq,
    shadow_mul,
    surjective_common_det,
    torus_kernel_test,
)
from .matrices import Mat2, ModMat
from .numth import (
    Factorization,
    Residue,
    factor,
    hilbert_symbol,
    jacobi,
    sqrt_mod,
    squarefree_part,
)
from .qforms import (
    QuadForm,
    automorphs,
    class_number,
    cornacchia,
    form_of,
    reduce_form,
    reduced_forms,
    solve_form_rational,
)
from .shimura import (
    ComponentIndex,
    LevelPoint,
    QuadPoint,
    act_rational,
    act_unit,
    component,
    is_cm,
    is_fixed,
    orbit_rep,
    point_eq,
    point_eq_witness,
    project,
    same_orbit,
)
from .tori import (
    FiniteAbelianGroup,
    SignModule,
    Sublattice,
    goursat,
    independent,
    minimal_subtorus_check,
    stable_saturation,
)

__version__ = "0.1.0"
