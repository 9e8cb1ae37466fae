"""Holomorphic semiflows, composition semigroups, and coefficient spaces.

The library integrates complex flows u' = G(u) on discs and half-planes
with boundary-escape detection, classifies generators of global disc
semiflows by the sign of Re p in G = G(0) - conj(G(0)) z^2 - z p and
reports their Berkson-Porta factorization, acts with the induced
composition semigroup on truncated Taylor series in weighted coefficient
spaces, decides the evaluation condition for those spaces, transfers
symbols conformally between the disc and a half-plane, and reproduces the
restriction construction where the generator has the composition form but
the flow leaves the unit disc.
"""

from .classify import (
    BPVerdict,
    EscapeWitness,
    HerglotzReport,
    bp_build,
    bp_classify,
    herglotz_check,
)
from .counterexample import (
    CounterexampleReport,
    build_counterexample,
    run_counterexample,
)
from .errors import (
    BadParameter,
    DegreeMismatch,
    DomainError,
    EscapeError,
    HerglotzError,
    HoloflowError,
    NonFiniteError,
    ParseError,
    PoleError,
    StiffnessError,
    ToleranceError,
)
from .expr import (
    Compose,
    Const,
    Exp,
    HoloExpr,
    Mobius,
    Neg,
    Poly,
    Product,
    Ratio,
    Sum,
    Var,
)
from .geometry import Domain, parse_domain
from .grammar import parse_symbol
from .semiflow import (
    FlowSeries,
    Status,
    Trajectory,
    backward_integrate,
    escape_time,
    flow_point,
    flow_series,
    integrate,
    semigroup_residual,
    trajectory_to_csv,
)
from .semigroup import (
    OperatorMatrix,
    apply,
    generator_action,
    generator_residual,
    matrix_summary,
    matrix_to_csv,
    maximality_residual,
    operator_matrix,
    strong_continuity_report,
    transport_pde_residual,
)
from .series import SeriesFn, series_compose, taylor
from .spaces import (
    BetaRule,
    CoefSpace,
    ConditionEVerdict,
    parse_space,
)
from .transfer import (
    ConformalPair,
    cayley,
    conjugation_residual,
    mobius_pair,
    transfer_symbol,
)

__version__ = "0.1.0"

__all__ = [
    "BPVerdict",
    "BadParameter",
    "BetaRule",
    "CoefSpace",
    "Compose",
    "ConditionEVerdict",
    "ConformalPair",
    "Const",
    "CounterexampleReport",
    "DegreeMismatch",
    "Domain",
    "DomainError",
    "EscapeError",
    "EscapeWitness",
    "Exp",
    "FlowSeries",
    "HerglotzError",
    "HerglotzReport",
    "HoloExpr",
    "HoloflowError",
    "Mobius",
    "Neg",
    "NonFiniteError",
    "OperatorMatrix",
    "ParseError",
    "PoleError",
    "Poly",
    "Product",
    "Ratio",
    "SeriesFn",
    "Status",
    "StiffnessError",
    "Sum",
    "ToleranceError",
    "Trajectory",
    "Var",
    "apply",
    "backward_integrate",
    "bp_build",
    "bp_classify",
    "build_counterexample",
    "cayley",
    "conjugation_residual",
    "escape_time",
    "flow_point",
    "flow_series",
    "generator_action",
    "generator_residual",
    "herglotz_check",
    "integrate",
    "matrix_summary",
    "matrix_to_csv",
    "maximality_residual",
    "mobius_pair",
    "operator_matrix",
    "parse_domain",
    "parse_space",
    "parse_symbol",
    "run_counterexample",
    "semigroup_residual",
    "series_compose",
    "strong_continuity_report",
    "taylor",
    "trajectory_to_csv",
    "transfer_symbol",
    "transport_pde_residual",
]
