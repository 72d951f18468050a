"""A laboratory for a bang calculus with explicit substitutions.

Reduction at a distance with surface and full closures, clash analysis,
quantitative (non-idempotent intersection) typing, bounded inhabitation,
meaningfulness checking, and the call-by-name/call-by-value fragments
with their embeddings.
"""

from .syntax import (Abs, App, Bang, Ctx, Der, Idx, Sub, Term, Var,
                     enum_terms, free_vars, gen_term, lam, esub, match_list_bang,
                     msubst, parse_context, parse_term, plug, print_term)
from .reduction import (NfClass, Redex, ReduceOutcome, Rule, classify,
                        clash_free, joinable, normalize, redexes,
                        restricted_step, static_clashes, step)
from .measures import NatMultiset, ms_gt, multi_size, pot_mult
from .typesys import (Arrow, Bounds, Derivation, Env, Judgment, Multi, TVar,
                      Type, args, check_derivation, env_sum, nf_shape,
                      typable, typing_pairs, typing_transport_check,
                      typings_enumerate)
from .inhabitation import InhResult, inhabit, inhabit_env, testable
from .meaning import (Budgets, MeaningVerdict, build_testing_context,
                      check_testable_everywhere, discriminate,
                      genericity_check, meaningful)
from .cbnv import (CBN, CBV, c_meaningful, embed, embed_ctx, simulate_check,
                   transfer_check, unembed)
from .suites import Report, SuiteConfig, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
