"""monoidkit: a workbench for computations in finite monoids.

Multiplication tables, transformation and transition monoids, Green's
relations, ideal arithmetic, cut-profile expansions, omega terms, and
finite shadow checks, with a `mono` command line on top.
"""

from .expansion import (DEFAULT_PROFILE_CAP, ExpandedMonoid, build_expansion,
                        check_eta_aperiodic, check_refinement, profile_product)
from .formats import (Dfa, dfa_to_transition_monoid, load_table, parse_dfa,
                      parse_tgen, serialize_monoid)
from .monoid import (DEFAULT_ELEMENT_CAP, CapExceeded, FiniteMonoid,
                     GeneratorMap, GreensData, InputError,
                     generate_from_transformations, generator_map, greens,
                     ideal_generated, is_aperiodic, is_group_element,
                     is_ideal, is_idempotent_ideal, is_prime_ideal,
                     is_regular, minimal_ideal)
from .shadows import (Concat, Letter, MembershipVerdict, OmegaPower,
                      OmegaTerm, Power, ProfileMismatch, ReplayResult,
                      StabilitySweep, evaluate, group_element_shadow,
                      ideal_product_shadow, parse_term, replay_factorization,
                      term_text)
from .words import (CutProfile, FactorWitness, cut, cut_brute, factorizations,
                    lemma_factor, match_factorization, word_image)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded", "Concat", "CutProfile", "DEFAULT_ELEMENT_CAP",
    "DEFAULT_PROFILE_CAP", "Dfa", "ExpandedMonoid", "FactorWitness",
    "FiniteMonoid", "GeneratorMap", "GreensData", "InputError", "Letter",
    "MembershipVerdict", "OmegaPower", "OmegaTerm", "Power",
    "ProfileMismatch", "ReplayResult", "StabilitySweep", "build_expansion",
    "check_eta_aperiodic", "check_refinement", "cut", "cut_brute",
    "dfa_to_transition_monoid", "evaluate", "factorizations",
    "generate_from_transformations", "generator_map", "greens",
    "group_element_shadow", "ideal_generated", "ideal_product_shadow",
    "is_aperiodic", "is_group_element", "is_ideal",
    "is_idempotent_ideal", "is_prime_ideal", "is_regular", "lemma_factor",
    "load_table", "match_factorization", "minimal_ideal",
    "parse_dfa", "parse_term", "parse_tgen", "profile_product",
    "replay_factorization", "serialize_monoid",
    "term_text", "word_image",
]
