"""Ideal structure of finite monoids with zero: waists, comparizer ideals,
radicals, saturations, comparability, prime segments, and an executable
property-checking harness over built-in and exhaustively enumerated examples.

The public names below are loaded on first access (PEP 562), so importing
the package, or one of its modules, compiles only the modules it uses.
"""
import sys
from importlib import import_module
from types import ModuleType

_EXPORTS = {
    "core": (
        "BadIdentity", "BadZero", "CayleyFormatError", "Mask", "NotAssociative",
        "OneEqualsZero", "Semigroup", "SemigroupError", "decode_canonical",
        "format_cayley", "mask_contains", "mask_elems", "mask_of", "parse_cayley",
    ),
    "ideals": (
        "CapExceeded", "IdealKind", "NotAnIdeal", "NotProper", "enumerate_ideals",
        "ideal_closure", "intersect_powers", "is_ideal", "is_nil_set", "principals",
        "right_annihilator",
    ),
    "classify": (
        "PrimenessKind", "RadicalReport", "associated_prime", "comparizer_ideals",
        "comparizer_radical", "comparizer_support", "exceptional_primes", "is_comparizer",
        "is_completely_prime", "is_completely_semiprime", "is_prime", "is_prime_variant",
        "is_right_chain", "is_right_comparizer", "is_right_waist", "is_semiprime",
        "is_waist", "prime_family", "radicals", "right_waists",
    ),
    "localize": (
        "ComparabilityReport", "NotCompletelyPrime", "NotMultClosed", "equivalence_class",
        "is_right_ore_set", "is_right_p_comparable", "right_ore_condition",
        "saturate",
    ),
    "segments": (
        "PrimeSegment", "SegmentClass", "classify_segment", "completely_prime_spectrum",
        "has_non_nilpotent_over", "is_locally_invariant", "pairing_ideal",
        "prime_segments", "strictly_between", "tail_intersection",
    ),
    "corpus": (
        "CorpusEntry", "NontrivialUnits", "NotRightChain", "all_monoids_with_zero",
        "build_adjoined", "build_chain_x", "build_delta", "build_ef", "build_min_chain",
        "build_minimal", "corpus", "corpus_entry", "enumerate_monoids_with_zero",
    ),
    "verdict": ("DISCREPANCY", "HOLDS", "VACUOUS", "Verdict"),
    "verify": (
        "Gate", "TheoremCheck", "UnknownCheck", "registered_ids", "run_check", "run_suite",
        "search_converse_candidates",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Nothing is stored in the package namespace: the value is always the
    # defining module's current binding, so a function replaced there and
    # later restored (as perfbench's span tracer does) is never left stale.
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))


class _Package(ModuleType):
    """The import system binds each submodule on its package once it is
    loaded.  The function `corpus` keeps the name `sgideals.corpus` over the
    submodule of the same name, whatever loads first."""

    def __setattr__(self, name, value):
        if not (name in _HOME and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
