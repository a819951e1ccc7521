"""Exact-arithmetic characteristic numbers of Collatz parity vectors.

Finite parity vectors get their characteristic set (n, m, P, N0, and c, a,
b, alpha, beta, A, B, X, Y derived from them) and the X* decomposition;
infinite bit streams get order-j rows, the same CharacteristicSet for each
prefix, and a horizon-bounded realizability verdict.
"""

from .core import (
    BitStreamExhausted,
    BitStreamGenerator,
    HeadCycleGenerator,
    IntegerGenerator,
    ParityVector,
    PrefixGenerator,
    collatz_sequence,
    collatz_step,
    parity,
    parity_vector,
    parse_generator,
)
from .characteristics import (
    CharacteristicSet,
    OmegaExtremes,
    XStarDecomposition,
    XStarRow,
    ab_family_member,
    ab_recurrence,
    apply_vector,
    char_set,
    compose_p,
    congruence_witness,
    cycle_fixed_point,
    g_of,
    is_member,
    nth_realizer,
    omega_extremes,
    p_closed_form,
    p_recurrence,
    repeat_p,
    solve_n0,
    xstar_decompose,
    xy_points,
)
from .trajectory import (
    GROWING,
    HALVED,
    HALVED_PLUS_HALF,
    INCONCLUSIVE,
    STABILIZED,
    AsymptoticReport,
    RealizabilityVerdict,
    asymptotic_report,
    classify,
    iter_trajectory,
    lemma51_check,
)
from .report import (
    FixtureCase,
    FixtureReport,
    FixtureResult,
    format_rational,
    load_fixtures,
    run_fixtures,
)

__version__ = "0.1.0"

__all__ = [
    "BitStreamExhausted", "BitStreamGenerator", "HeadCycleGenerator",
    "IntegerGenerator", "ParityVector", "PrefixGenerator",
    "collatz_sequence", "collatz_step", "parity", "parity_vector",
    "parse_generator",
    "CharacteristicSet", "OmegaExtremes", "XStarDecomposition", "XStarRow",
    "ab_family_member", "ab_recurrence", "apply_vector", "char_set",
    "compose_p", "congruence_witness", "cycle_fixed_point", "g_of",
    "is_member", "nth_realizer", "omega_extremes", "p_closed_form",
    "p_recurrence", "repeat_p", "solve_n0", "xstar_decompose", "xy_points",
    "GROWING", "HALVED", "HALVED_PLUS_HALF", "INCONCLUSIVE", "STABILIZED",
    "AsymptoticReport", "RealizabilityVerdict",
    "asymptotic_report", "classify", "iter_trajectory", "lemma51_check",
    "FixtureCase", "FixtureReport", "FixtureResult",
    "format_rational", "load_fixtures", "run_fixtures",
]
