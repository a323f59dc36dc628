"""Exact factorization invariants of additive monoids of nonnegative
rationals given by finite generator lists or truncated symbolic
families: atoms, membership, factorizations, length sets, elasticity
and its witnesses, stable/unstable structure, and a staged
construction in which every element eventually gains a two-atom
factorization.
"""

from .errors import (DomainError, InsufficientMetadataError, NotAMemberError,
                     PuiseuxError, ResourceCapError, SpecError, SpecSyntaxError,
                     SpecValidationError)
from .rationals import INFINITY, format_rational, parse_rational
from .primes import PrimeFilter, is_prime, next_prime_at_least, prime_seq
from .specfile import (GeneratorFamily, Metadata, MonoidSpec, NumeratorExpr,
                       load_spec, parse_spec, spec_to_dict, spec_to_json)
from .monoid import (PrimaryReport, TruncatedMonoid, WorkBudget, classify_stability,
                     contains, elements_up_to, from_generators, is_primary, truncate)
from .factorization import (Factorization, ValuationCheck, default_cap,
                            element_elasticity, factorizations,
                            length_extremes_up_to, length_set,
                            valuation_coefficient_check)
from .invariants import (Decomposition, DensityWitness, ElasticityReport,
                         ShiftReport, StatusReport, bf_ff_status,
                         decompose_stable_unstable, density_witness,
                         elasticity_set, elasticity_witnesses, is_accepted,
                         monoid_elasticity, predicted_elasticities,
                         shifted_lengths)
from .constructions import (CATALOG_NAMES, AtomPair, BifurcusVerification,
                            StagedMonoid, StageRecord, bifurcus_build,
                            bifurcus_verify, catalog, load_staged,
                            staged_from_dict, staged_from_json, staged_to_dict,
                            staged_to_json)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
