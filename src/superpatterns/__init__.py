"""Superpatterns on small alphabets.

Words over [r], permutation pattern containment, superpattern search,
weighted automata whose walk costs mirror greedy embeddings, exact and
Monte-Carlo walk statistics, and the closed-form bounds that tie them
together at desk scale.
"""

from .bounds import (
    LogValue,
    TheoremConstants,
    birthday_bound,
    birthday_ratio,
    con_constants,
    forL_bound,
    gupta_check,
    hoeffding_x_bound,
    infeasibility,
    loworder_predicate,
    theorem_constants,
)
from .dfa import (
    INFINITY,
    SubsetDfa,
    WalkTrace,
    WeightedDfa,
    build_greedy_dfa,
    build_subset_dfa,
    build_two_track_dfa,
    cheap_perm_count,
    cheapen,
    dfa_from_json,
    dfa_to_dot,
    dfa_to_json,
    finite_edges,
    is_k_dfa,
    perm_cost_census,
    random_k_dfa,
    walk_cost,
)
from .errors import AlphabetMismatchError, CheapeningError, ResourceLimitError
from .patterns import (
    Permutation,
    Word,
    as_permutation,
    as_word,
    ascent_count,
    circular_contains,
    circular_pattern_set,
    exhaustive_f_search,
    f_oracle,
    find_embedding,
    format_word,
    greedy_embed,
    is_pattern,
    is_superpattern,
    minimal_superpattern_length,
    parse_permutation,
    parse_word,
    pattern_set,
    repeat_word,
)

# walks needs numpy; it loads on the first use of one of these names (or of
# superpatterns.walks), so pattern-only code never imports numpy (PEP 562)
_WALKS_EXPORTS = frozenset({
    "ConcentrationReport",
    "CounterRng",
    "Decomposition",
    "EstimateReport",
    "PermutationalWord",
    "clopper_pearson",
    "concentration_experiment",
    "cost_distributions_by_length",
    "estimate_P",
    "exact_P",
    "exact_P_max",
    "restriction",
    "sample_perm_word",
    "sample_x_sums",
    "t_statistic",
    "xy_decompose",
})


def __getattr__(name):
    if name == "walks" or name in _WALKS_EXPORTS:
        from importlib import import_module

        walks = import_module(".walks", __name__)
        return walks if name == "walks" else getattr(walks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_WALKS_EXPORTS, "walks"})


# every public name, the lazy ones included: a star import loads walks
__all__ = sorted({n for n in globals() if not n.startswith("_")} | _WALKS_EXPORTS | {"walks"})


__version__ = "0.1.0"
