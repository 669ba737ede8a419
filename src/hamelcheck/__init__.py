"""Exact-arithmetic verification of higher-order Jensen/Wright convexity
claims over a formal Hamel-basis lattice.

Everything is computed in exact rational arithmetic over abstract,
rationally independent basis symbols; there is no floating point anywhere.

The definition-file front end, ``hamelcheck.definitions``, is the
package's largest module and only ``run`` needs it, so it is compiled on
first use: the package registers it unexecuted, and ``parse_definition``,
``run_definition`` and ``run_definition_file`` are read from it when they
are first asked of the package.
"""

from .basis import (
    ZERO,
    AdditiveFunctional,
    Point,
    Symbol,
    is_positive_increment,
    point_combine,
    symbols,
    unit,
)
from .differences import (
    TableRow,
    Violation,
    backward_diff,
    difference_table,
    forward_diff,
    forward_diff_closed,
    jensen_convexity_probe,
    wright_convexity_probe,
)
from .errors import (
    DefinitionError,
    EvenOrder,
    HamelcheckError,
    InvalidIncrement,
    NonTerminatingJ,
    ParseError,
    UnknownCandidate,
    UnknownSymbol,
    UntabulatedPoint,
)
from .functions import (
    Composite,
    PointFunction,
    PositivePartPower,
    Tabulated,
    tabulated_abs,
)
from .measures import (
    Dirac,
    JClosure,
    MeasureExpr,
    Scale,
    Shift,
    Sum,
    atom_mass,
    build_mu,
    build_mu_i,
    j_op,
    nabla,
)
from .reports import Claim, Report, make_claim, render
from .scenarios import (
    probe_even,
    verify_lemma_4_4,
    verify_lemma_4_6,
    verify_prop_4_3,
    verify_section_3_1,
    verify_section_3_2,
    verify_theorem_2_3,
)

__version__ = "0.1.0"


def _registered_unexecuted(name: str):
    """The submodule ``name``, put in ``sys.modules`` as a module that
    executes when one of its attributes is first read. Finding it costs a
    few file checks, and compiling it waits until then."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    spec = find_spec(name)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


definitions = _registered_unexecuted(f"{__name__}.definitions")
_FROM_DEFINITIONS = frozenset({"parse_definition", "run_definition", "run_definition_file"})


def __getattr__(name: str):
    if name in _FROM_DEFINITIONS:
        return getattr(definitions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
