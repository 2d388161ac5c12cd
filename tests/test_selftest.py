"""The fast selftest profile passes at seeds 0-11, so every criterion
holds on the members each of those seeds samples."""

import pytest

from ncdomain import fock_model
from ncdomain.selftest import FAST, check_moment_nilpotent, check_moment_radial, run_selftest


@pytest.mark.parametrize("seed", range(12))
def test_fast_profile_passes(seed):
    report = run_selftest("fast", seed)
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_moment_criteria_build_no_dense_model_element(monkeypatch):
    # the word observables enter both criteria as entry sets
    def dense(*args):
        raise AssertionError("a dense model element was built")

    monkeypatch.setattr(fock_model, "_require_dense", dense)
    monkeypatch.setattr(fock_model._ModelSum, "__init__", dense)
    for check in (check_moment_nilpotent, check_moment_radial):
        assert check(FAST, 0).passed
