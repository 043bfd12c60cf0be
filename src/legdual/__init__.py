"""Ferrers and associated Legendre functions of complex degree and order,
the polynomial and generating-coefficient families connected to them, and a
verification harness for the mutually inverse series relating the two."""

from .hypergeom import (
    DEFAULT_POLICY,
    SeriesValue,
    TruncationPolicy,
    gamma,
    gauss_2f1,
    pfq_terminating,
    pochhammer,
    recip_gamma,
)
from .legendre import (
    ParameterPoint,
    ferrers_p,
    legendre_p,
    legendre_q,
)
from .registry import (
    IdentityDescriptor,
    IdentityReport,
    Kind,
    evaluate_identity,
    get_descriptor,
    list_identities,
    sweep_identity,
)
from .harness import (
    HarnessConfig,
    SuiteResult,
    asymptotic_checks,
    convergence_table,
    run_suite,
)

__version__ = "0.1.0"
