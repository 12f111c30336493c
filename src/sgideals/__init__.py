"""Ideal structure of finite monoids with zero: waists, comparizer ideals,
radicals, saturations, comparability, prime segments, and an executable
property-checking harness over built-in and exhaustively enumerated examples.
"""

from .core import (
    BadIdentity,
    BadZero,
    CayleyFormatError,
    Mask,
    NotAssociative,
    OneEqualsZero,
    Semigroup,
    SemigroupError,
    decode_canonical,
    format_cayley,
    isomorphic_fixing_one_zero,
    mask_contains,
    mask_elems,
    mask_of,
    parse_cayley,
)
from .ideals import (
    CapExceeded,
    IdealFamily,
    IdealKind,
    NotAnIdeal,
    NotProper,
    enumerate_ideals,
    exhaustive,
    ideal_closure,
    ideal_power,
    intersect_powers,
    is_a_nilpotent,
    is_ideal,
    is_nil_set,
    is_nilpotent_ideal,
    principal,
    right_annihilator,
)
from .classify import (
    PrimenessKind,
    RadicalReport,
    associated_prime,
    comparizer_bounds,
    comparizer_radical,
    is_prime_variant,
    is_right_chain,
    is_right_comparizer,
    is_right_waist,
    is_strongly_comparizer,
    prime_family,
    radicals,
    right_waists,
)
from .localize import (
    ComparabilityReport,
    NotCompletelyPrime,
    NotMultClosed,
    equivalence_class,
    is_right_ore_set,
    is_right_p_comparable,
    nested_saturation_inclusion_check,
    right_ore_condition,
    saturate,
)
from .segments import (
    PrimeSegment,
    SegmentClass,
    classify_segment,
    completely_prime_spectrum,
    has_non_nilpotent_over,
    is_locally_invariant,
    is_locally_right_invariant,
    lower_union,
    pairing_ideal,
    prime_segments,
    tail_intersection,
)
from .corpus import (
    CorpusEntry,
    NontrivialUnits,
    NotRightChain,
    all_monoids_with_zero,
    build_adjoined,
    build_chain_x,
    build_delta,
    build_ef,
    build_min_chain,
    build_minimal,
    corpus,
    corpus_entry,
    enumerate_monoids_with_zero,
)
from .verdict import DISCREPANCY, HOLDS, VACUOUS, Verdict
from .verify import (
    Gate,
    TheoremCheck,
    UnknownCheck,
    registered_ids,
    run_check,
    run_suite,
    search_converse_candidates,
    search_exceptional_candidates,
)

__version__ = "0.1.0"
