"""Linear-algebra helpers."""

import numpy as np
import pytest

from ncdomain.linalg import kron


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("a_shape, b_shape", [
    ((1, 1), (1, 1)),
    ((1, 1), (3, 2)),
    ((2, 3), (1, 1)),
    ((2, 3), (4, 1)),
    ((3, 3), (2, 2)),
])
def test_kron_is_np_kron_bit_for_bit(a_shape, b_shape):
    rng = np.random.default_rng(sum(a_shape) + 7 * sum(b_shape))
    real_a, real_b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
    cases = [
        (real_a, real_b),
        (_complex(rng, a_shape), _complex(rng, b_shape)),
        (real_a, _complex(rng, b_shape)),
        (-0.0 * _complex(rng, a_shape), _complex(rng, b_shape)),  # signed zeros
    ]
    for a, b in cases:
        want = np.kron(a, b)
        got = kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
