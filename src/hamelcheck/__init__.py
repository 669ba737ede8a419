"""Exact-arithmetic verification of higher-order Jensen/Wright convexity
claims over a formal Hamel-basis lattice.

Everything is computed in exact rational arithmetic over abstract,
rationally independent basis symbols; there is no floating point anywhere.
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
    MeasureMass,
    PointFunction,
    PointwisePower,
    PositivePartPower,
    Tabulated,
    tabulated_abs,
)
from .measures import (
    ASets,
    Dirac,
    JClosure,
    MeasureExpr,
    Scale,
    Shift,
    Sum,
    atom_mass,
    build_a_sets,
    build_mu,
    build_mu_i,
    j_op,
    nabla,
)
from .reports import Claim, Report, make_claim, render
from .definitions import parse_definition, run_definition, run_definition_file
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
