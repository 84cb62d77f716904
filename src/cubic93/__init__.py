"""cubic93: which pure cubic radicands give a sextic 3-class group (9, 3).

For a cube-free d >= 2 let k = Q(cbrt(d), zeta_3).  This package decides
when the 3-class group of k can be of type (9, 3), certifies it given the
cubic field's exact 3-class number and the unit index, and explains every
verdict with the underlying arithmetic: Eisenstein factorizations, cubic
residue symbols, ramification counts and genus numbers.
"""

from .classifier import (
    ClassGroupShape,
    EquivalenceResult,
    FormClass,
    Reason,
    ReasonCode,
    Verdict,
    VerdictStatus,
    classify,
    hk_from_hgamma,
    necessary_form,
    scan,
    type93_equivalence,
)
from .eisenstein import (
    LAMBDA,
    OMEGA,
    OMEGA_SQUARED,
    ONE,
    UNITS,
    ZERO,
    CubicCharacterValue,
    EisensteinFactorization,
    EisensteinInt,
    PrimeSplitting,
    SplitKind,
    cubic_character,
    factor,
    factor_rational_prime,
    primary_associate,
    rational_cubic_symbol,
)
from .fixtures import (
    CasError,
    CasUnavailableError,
    FixtureError,
    FixtureRow,
    TableReport,
    TableRowResult,
    cas_query,
    load_bundled_fixtures,
    load_fixtures,
    reproduce_table,
    save_fixtures,
)
from .genus import (
    GenusReport,
    format_cubic,
    genus_field_description,
    genus_number,
    period_polynomial,
)
from .radicand import GerthForm, gerth_decompose, normalize
from .ramification import K0Prime, QStar, RamificationReport, ramify

__version__ = "0.1.0"
