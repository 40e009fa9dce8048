"""Ranking alternatives from opinions on the criteria they satisfy.

The model layer holds subsets, criterion tables, voter profiles over
criteria, and sparse opinion states with their support quotient.  On top of
it sit two choice methods driven by criterion scores, a family of opinion
aggregators built around the deepest-intersection score, an executable
axiom suite, and a brute-force oracle used for differential testing.
"""

from .aggregators import (
    coarse_f1,
    coarse_f2,
    indifference_rule,
    induce_opinion,
    iis_rank,
    iis_tiebreak_order,
    iis_tiebreak_tau,
    lexcel_rank,
    max_of,
    support_rank,
)
from .axioms import (
    AXIOM_KINDS,
    AxiomInstance,
    AxiomVerdict,
    InvalidInstanceError,
    RULES,
    Rule,
    SweepResult,
    check_axiom,
    check_choice_equivalence,
    generate_instances,
    permute_state,
    permute_subset,
    random_profile,
    random_state,
    random_support_state,
    random_symmetric_table,
    random_table,
    sweep_axiom,
    trailing_merge_sequence,
    validate_instance,
)
from .choice import (
    BordaTally,
    borda_criterion_scores,
    borda_ranking,
    cascade_sets,
    nurmi_first,
    nurmi_second,
)
from .model import (
    AltSubset,
    CriterionTable,
    MAX_UNIVERSE,
    OpinionState,
    PreferenceProfile,
    QuotientOrder,
    Ranking,
    SupportClass,
    ValidationError,
    ranking_from_scores,
    support_of,
)
from .oracle import (
    DenseRankings,
    DenseState,
    ORACLE_MAX_UNIVERSE,
    dense_e_score,
    dense_rankings,
    differential_sweep,
)

__version__ = "0.1.0"
