"""qheun: exact tools for q-Heun-type three-term q-difference equations.

Subpackages cover the exact arithmetic kernel (symkernel), the equation
type with Newton diagrams and taxonomy (qdiff), gauge transformations
(gauge), Lax-data catalogs with scalar elimination and table verification
(lax), local series analysis (local), the q->1 continuum limit (climit),
the Heun-class ODE catalog (odeheun), and the command line (cli).

``import qheun`` loads no submodule: each name below, and each of the
submodules that hold them, loads on first use (PEP 562), so a command
line pays only for the modules its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_HOME = {name: module for module, names in (
    ("symkernel", "MPoly RatFun Rational parse_expr ratfun_eq rat sym"),
    ("qdiff", "QDiffEq ThreeTermRelation TaxonomyLabel classify "
              "equations_equal newton_diagram render_diagram"),
    ("gauge", "gauge_linear gauge_move_factor gauge_power invert_variable"),
    ("lax", "KNY_FAMILIES KNY_GAUGED KNYOperator KNYParams "
            "InvariantViolation LaxMatrix MURATA_FAMILIES MurataParams "
            "SubstitutionSingular accessory_formula build_kny build_murata "
            "derive_equation kny_to_equation reference_equation "
            "scalar_reduce specialize UnknownRoute verify_family"),
    ("local", "CharData DegenerateEquation Resonance SeriesSolution "
              "UnboundParameter char_exponents residual series_solution"),
    ("climit", "AllZero EpsilonFamily HeunODE IrregularAtZero LimitData "
               "LimitDiverges Unclassifiable classify_ode crosscheck "
               "emit_ode limit_coefficients ode_series preset_family "
               "preset_names preset_note preset_target"),
    ("odeheun", "BHEParams CHEParams ConstraintViolation DHEParams "
                "HEParams HeunParams NoMatch PARAM_CLASSES THEParams "
                "match_class to_operator"),
) for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _HOME.values():
        return import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
