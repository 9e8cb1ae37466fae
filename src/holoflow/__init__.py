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

Importing the package loads none of its modules. Each name of __all__ is
resolved through the module-level __getattr__ (PEP 562): the first access
to a name loads the module that defines it, and every access returns that
module's attribute, so ``holoflow.integrate`` is ``semiflow.integrate``.
A process that runs one CLI subcommand loads only the modules it runs.
"""

import functools
import importlib

__version__ = "0.1.0"


@functools.cache
def _submodule(name: str):
    """holoflow.<name>, imported on the first call. Modules that load a
    sibling only where they use it call this: a cached call is a dict
    lookup, where a relative import statement resolves the package anew on
    every run (5-10 us on cold caches, against tasks of 0.05-4 ms)."""
    return importlib.import_module("." + name, __name__)


# The home module of every public name.
_HOMES = {
    "classify": ("BPVerdict", "EscapeWitness", "HerglotzReport", "bp_build",
                 "bp_classify", "herglotz_check"),
    "counterexample": ("CounterexampleReport", "build_counterexample",
                       "run_counterexample"),
    "errors": ("BadParameter", "DegreeMismatch", "DomainError",
               "EscapeError", "HerglotzError", "HoloflowError",
               "NonFiniteError", "ParseError", "PoleError", "StiffnessError",
               "ToleranceError"),
    "expr": ("Compose", "Const", "Exp", "HoloExpr", "Mobius", "Neg", "Poly",
             "Product", "Ratio", "Sum", "Var"),
    "geometry": ("Domain", "parse_domain"),
    "grammar": ("parse_symbol",),
    "semiflow": ("FlowSeries", "Status", "Trajectory", "backward_integrate",
                 "escape_time", "flow_point", "flow_series", "integrate",
                 "semigroup_residual", "trajectory_to_csv"),
    "semigroup": ("OperatorMatrix", "apply", "generator_action",
                  "generator_residual", "matrix_summary", "matrix_to_csv",
                  "maximality_residual", "operator_matrix",
                  "strong_continuity_report", "transport_pde_residual"),
    "series": ("SeriesFn", "series_compose", "taylor"),
    "spaces": ("BetaRule", "CoefSpace", "ConditionEVerdict", "parse_space"),
    "transfer": ("ConformalPair", "cayley", "conjugation_residual",
                 "mobius_pair", "transfer_symbol"),
}

_MODULE_OF = {name: module for module, names in _HOMES.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # Not cached in the package namespace: a value patched into the home
    # module (a test's monkeypatch, bench tracing) is what the package
    # hands out, and the original again once it is put back.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(_submodule(module), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
