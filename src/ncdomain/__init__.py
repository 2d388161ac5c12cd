"""Truncated operator models of noncommutative polynomial domains.

The package builds weighted-shift models on truncated Fock space for
domains cut out by a positive regular free polynomial, evaluates free
power series at operator tuples, computes Berezin transforms in two
independent forms, and runs membership and rigidity certificates.

Importing the package loads none of its modules: `_EXPORTS` names the
module that owns each public name, and the first access to a name
imports that module and binds the name here (PEP 562), so later lookups
are plain attribute reads and every export is its module's own object.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "berezin": ("BerezinKernel", "berezin_kernel", "berezin_transform_kernel",
                "berezin_transform_resolvent"),
    "cp_maps": ("OperatorTuple", "agler_consistency", "membership", "monomial_product",
                "sample_member", "sample_nilpotent_member", "von_neumann_gap"),
    "fock_model": ("build_model", "hardy_norm_estimate", "model_defect", "model_monomial"),
    "rigidity": ("BiholoCertificate", "MapImageReport", "cartan_iteration_probe",
                 "check_linear_biholomorphism", "map_image_check"),
    "selftest": ("FAST", "FULL", "run_selftest"),
    "series": ("FreeSeries", "PositiveRegularFunction", "compose", "evaluate",
               "rescale_symbol", "unit_ball_symbol"),
    "weights": ("WeightTable", "binomial_constant", "weights_direct", "weights_oracle"),
    "words": ("WordIndex", "enumerate_words", "parse_word"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
