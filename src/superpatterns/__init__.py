"""Superpatterns on small alphabets.

Words over [r], permutation pattern containment, superpattern search,
weighted automata whose walk costs mirror greedy embeddings, exact and
Monte-Carlo walk statistics, and the closed-form bounds that tie them
together at desk scale.
"""

from .bounds import *
from .dfa import *
from .errors import AlphabetMismatchError, CheapeningError, ResourceLimitError
from .patterns import *

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
