"""Ultimately periodic sets of naturals and their digit automata.

Numbers are written least significant digit first over {0, ..., base-1}.
The package builds minimal automata of ultimately periodic sets, recognizes
Pascal-automaton quotients, and decides in time linear in the automaton
whether an arbitrary DFA accepts an ultimately periodic set by value.
"""

from .automaton import (
    Condensation,
    Dfa,
    SccType,
    accepts,
    check_zero_stability,
    complete,
    condensation,
    is_group_automaton,
    isomorphic,
    minimize,
    parse_dfa,
    validate,
    write_dfa,
)
from .decision import (
    ConditionFailure,
    DecisionResult,
    build_embedding,
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
    build_atomic_explicit,
    build_minimal_automaton,
    delta,
    delta_word,
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
    multiplicative_order,
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
    "build_atomic_explicit",
    "build_embedding",
    "build_minimal_automaton",
    "build_pascal",
    "build_quotient",
    "check_conditions",
    "check_zero_stability",
    "complete",
    "condensation",
    "decide",
    "delta",
    "delta_word",
    "extract_parameters",
    "format_params",
    "format_upset",
    "h_p",
    "is_group_automaton",
    "is_pascal_quotient",
    "isomorphic",
    "membership",
    "minimize",
    "multiplicative_order",
    "parse_dfa",
    "representation",
    "validate",
    "value",
    "write_dfa",
]
