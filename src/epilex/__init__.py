"""Episturmian words, lexicographic extremal factors, and fine-word classification."""

from .words import (
    Alphabet,
    AlphabetError,
    ConcatStream,
    LengthError,
    LexOrder,
    LiteralPeriodicStream,
    Word,
    WordStream,
    all_orders,
    complexity,
    factors,
)
from .morphisms import (
    MorphicImageStream,
    PureEpistandardMorphism,
    identity,
    psi,
)
from .engine import (
    DirectiveStream,
    DirectiveWord,
    InternalConsistencyError,
    NothingToDecompose,
    StrictnessReport,
    builder_word,
    decompose_nonstrict,
    exact_horizon,
    palindromic_closure,
    palindromic_prefixes,
    prefix_morphism,
    shift_chain,
    standard_word,
    strictness,
)
from .extremal import (
    Exactness,
    ExtremalResult,
    max_factor,
    max_stream,
    min_factor,
    min_stream,
)
from .fine import (
    Classification,
    FinenessVerdict,
    NotFine,
    NotSkewForm,
    SkewSpec,
    SpecError,
    Witness,
    classify,
    construct_skew,
    is_fine_empirical,
    reconstruct_skew,
    verify_min_transfer,
)

__version__ = "0.1.0"
