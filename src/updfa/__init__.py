"""Ultimately periodic sets of naturals and their digit automata.

Numbers are written least significant digit first over {0, ..., base-1}.
The package builds minimal automata of ultimately periodic sets, recognizes
Pascal-automaton quotients, and decides whether an arbitrary DFA accepts an
ultimately periodic set by value: O(b*n*log n) to minimize an n-state
automaton in base b, linear time for the structural conditions, and on a
positive answer a read-off of the set linear plus the size of the answer.
"""

from .automaton import (
    Condensation,
    Dfa,
    SccType,
    accepts,
    complete,
    condensation,
    is_group_automaton,
    isomorphic,
    minimize,
    parse_dfa,
    successor_sccs,
    validate,
    write_dfa,
)
from .decision import (
    ConditionFailure,
    DecisionResult,
    check_conditions,
    decide,
    extract_parameters,
)
from .errors import (
    BadDigit,
    BadStateId,
    BaseTooSmall,
    FormatError,
    NotCanonical,
    NotCoprime,
    PreconditionViolated,
    StateLimitExceeded,
    UpdfaError,
)
from .numeration import (
    ALL_NATURALS,
    EMPTY_SET,
    UpSet,
    build_minimal_automaton,
    delta,
    format_upset,
    h_p,
    membership,
    representation,
    value,
)
from .pascal import (
    PascalParams,
    QuotientCheck,
    QuotientFailure,
    build_pascal,
    build_quotient,
    format_params,
    is_pascal_quotient,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_NATURALS",
    "BadDigit",
    "BadStateId",
    "BaseTooSmall",
    "ConditionFailure",
    "Condensation",
    "DecisionResult",
    "Dfa",
    "EMPTY_SET",
    "FormatError",
    "NotCanonical",
    "NotCoprime",
    "PascalParams",
    "PreconditionViolated",
    "QuotientCheck",
    "QuotientFailure",
    "SccType",
    "StateLimitExceeded",
    "UpSet",
    "UpdfaError",
    "accepts",
    "build_minimal_automaton",
    "build_pascal",
    "build_quotient",
    "check_conditions",
    "complete",
    "condensation",
    "decide",
    "delta",
    "extract_parameters",
    "format_params",
    "format_upset",
    "h_p",
    "is_group_automaton",
    "is_pascal_quotient",
    "isomorphic",
    "membership",
    "minimize",
    "parse_dfa",
    "representation",
    "successor_sccs",
    "validate",
    "value",
    "write_dfa",
]
