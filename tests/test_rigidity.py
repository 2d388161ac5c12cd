"""Rigidity certificates: linear maps, nilpotent images, iteration probe."""

import numpy as np
import pytest

from ncdomain.rigidity import (
    LinearMapCandidate,
    apply_row,
    cartan_iteration_probe,
    check_generator_images,
    check_linear_biholomorphism,
    nilpotent_image_check,
)
from ncdomain.cp_maps import OperatorTuple
from ncdomain.series import (
    FreeSeries,
    PositiveRegularFunction,
    rescale_symbol,
    unit_ball_symbol,
)


def test_candidate_rejects_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        LinearMapCandidate(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ValueError):
        LinearMapCandidate(np.ones((2, 3)))


def test_apply_row_columns():
    x = OperatorTuple([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    u = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = apply_row(x, u)
    # component j is sum_i U[i, j] X_i
    assert np.allclose(y.mats[0], x.mats[0] + 3.0 * x.mats[1])
    assert np.allclose(y.mats[1], 2.0 * x.mats[0] + 4.0 * x.mats[1])
    with pytest.raises(ValueError):
        apply_row(x, np.eye(3))


def test_rescaling_gives_certificate():
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 1.0, "12": 1.0})
    c = [2.0, 3.0]
    g = rescale_symbol(f, c)
    cert = check_linear_biholomorphism(f, 1, g, 1, np.diag(c), 4)
    assert cert.forward_member
    assert cert.backward_member
    assert cert.passed


def test_doubling_the_ball_fails_with_eigenvalue_minus_three():
    f = unit_ball_symbol(2)
    cert = check_linear_biholomorphism(f, 1, f, 1, 2.0 * np.eye(2), 4)
    assert not cert.passed
    assert not cert.forward_member
    assert min(cert.forward_eigenvalues) == pytest.approx(-3.0, abs=1e-9)


def test_certificate_symmetry_under_inverse():
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 0.5})
    g = rescale_symbol(f, [2.0, 0.5])
    u = np.diag([2.0, 0.5])
    one = check_linear_biholomorphism(f, 1, g, 1, u, 3)
    two = check_linear_biholomorphism(g, 1, f, 1, np.linalg.inv(u), 3)
    assert one.passed == two.passed


def test_certificate_requires_matching_generator_count():
    with pytest.raises(ValueError):
        check_linear_biholomorphism(
            unit_ball_symbol(1), 1, unit_ball_symbol(2), 1, np.eye(1), 2
        )


def test_nilpotent_image_identity_map_passes():
    f = unit_ball_symbol(2)
    maps = [FreeSeries(2, 1, {"1": 1.0}), FreeSeries(2, 1, {"2": 1.0})]
    report = nilpotent_image_check(
        maps, f, 1, f, 1, p=3, rng=np.random.default_rng(0)
    )
    assert report.passed


def test_nilpotent_image_expansion_fails():
    f = unit_ball_symbol(1)
    maps = [FreeSeries(1, 1, {"1": 2.0})]
    report = nilpotent_image_check(
        maps, f, 1, f, 1, p=2, rng=np.random.default_rng(0)
    )
    assert not report.passed


def test_probe_quadratic_map_flags_at_two():
    f = unit_ball_symbol(1)
    result = cartan_iteration_probe(
        [FreeSeries(1, 2, {"1": 1.0, "11": 1.0})], f, 1, p=2
    )
    assert result.status == "violation"
    assert result.first_violation == 2
    assert result.witness_word == (1, 1)


def test_probe_small_perturbation_flags_within_budget():
    f = unit_ball_symbol(1)
    result = cartan_iteration_probe(
        [FreeSeries(1, 2, {"1": 1.0, "11": 1e-3})], f, 1, p=2, n_iter=10_000
    )
    assert result.status == "violation"
    assert result.first_violation is not None
    assert result.first_violation <= 10_001


def test_probe_identity_map_is_consistent():
    f = unit_ball_symbol(2)
    maps = [FreeSeries(2, 2, {"1": 1.0}), FreeSeries(2, 2, {"2": 1.0})]
    result = cartan_iteration_probe(maps, f, 1, p=2, n_iter=50)
    assert result.status == "identity-consistent"
    assert result.first_violation is None


def test_probe_rejects_maps_not_tangent_to_identity():
    f = unit_ball_symbol(1)
    with pytest.raises(ValueError, match="tangent"):
        cartan_iteration_probe([FreeSeries(1, 2, {"1": 2.0})], f, 1, p=2)


@pytest.mark.parametrize("n_iter", [0, -3])
def test_probe_rejects_empty_iteration_budget(n_iter):
    f = unit_ball_symbol(1)
    with pytest.raises(ValueError, match="iteration budget"):
        cartan_iteration_probe(
            [FreeSeries(1, 2, {"1": 1.0, "11": 1.0})], f, 1, p=2, n_iter=n_iter
        )


def test_probe_two_generator_witness():
    # quadratic motion shows up in the coupled component as well
    f = unit_ball_symbol(2)
    maps = [
        FreeSeries(2, 2, {"1": 1.0, "21": 0.5}),
        FreeSeries(2, 2, {"2": 1.0}),
    ]
    result = cartan_iteration_probe(maps, f, 1, p=2, n_iter=100)
    assert result.status == "violation"
    assert result.witness_word == (2, 1)


def test_generator_images_identity():
    f = unit_ball_symbol(2)
    maps = [FreeSeries(2, 1, {"1": 1.0}), FreeSeries(2, 1, {"2": 1.0})]
    report = check_generator_images(f, 1, f, 1, maps, N=3, r_grid=(0.5, 1.0))
    assert report.passed


def test_generator_images_detect_escape():
    f = unit_ball_symbol(1)
    maps = [FreeSeries(1, 1, {"1": 3.0})]
    report = check_generator_images(f, 1, f, 1, maps, N=3, r_grid=(1.0,))
    assert not report.passed
