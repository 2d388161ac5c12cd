"""The fast selftest profile passes at seeds 0-11, so every criterion
holds on the members each of those seeds samples."""

import pytest

from ncdomain.selftest import run_selftest


@pytest.mark.parametrize("seed", range(12))
def test_fast_profile_passes(seed):
    report = run_selftest("fast", seed)
    assert report.passed, [c.name for c in report.checks if not c.passed]
