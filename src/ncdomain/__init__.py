"""Truncated operator models of noncommutative polynomial domains.

The package builds weighted-shift models on truncated Fock space for
domains cut out by a positive regular free polynomial, evaluates free
power series at operator tuples, computes Berezin transforms in two
independent forms, and runs membership and rigidity certificates.
"""

from .berezin import (
    BerezinKernel,
    berezin_kernel,
    berezin_transform_kernel,
    berezin_transform_resolvent,
)
from .cp_maps import (
    OperatorTuple,
    agler_consistency,
    membership,
    monomial_product,
    sample_member,
    sample_nilpotent_member,
    spectral_radius_estimate,
    von_neumann_gap,
)
from .fock_model import (
    build_model,
    hardy_norm_estimate,
    model_defect,
    model_monomial,
    monomial_pair,
)
from .rigidity import (
    BiholoCertificate,
    MapImageReport,
    cartan_iteration_probe,
    check_linear_biholomorphism,
    map_image_check,
)
from .selftest import FAST, FULL, run_selftest
from .series import (
    FreeSeries,
    PositiveRegularFunction,
    compose,
    evaluate,
    rescale_symbol,
    unit_ball_symbol,
)
from .weights import WeightTable, binomial_constant, weights_direct, weights_oracle
from .words import WordIndex, enumerate_words, parse_word

__version__ = "0.1.0"

__all__ = [
    "BerezinKernel",
    "BiholoCertificate",
    "FAST",
    "FULL",
    "FreeSeries",
    "MapImageReport",
    "OperatorTuple",
    "PositiveRegularFunction",
    "WeightTable",
    "WordIndex",
    "agler_consistency",
    "berezin_kernel",
    "berezin_transform_kernel",
    "berezin_transform_resolvent",
    "binomial_constant",
    "build_model",
    "cartan_iteration_probe",
    "check_linear_biholomorphism",
    "compose",
    "enumerate_words",
    "evaluate",
    "hardy_norm_estimate",
    "map_image_check",
    "membership",
    "model_defect",
    "model_monomial",
    "monomial_pair",
    "monomial_product",
    "parse_word",
    "rescale_symbol",
    "run_selftest",
    "sample_member",
    "sample_nilpotent_member",
    "spectral_radius_estimate",
    "unit_ball_symbol",
    "von_neumann_gap",
    "weights_direct",
    "weights_oracle",
]
