"""Linear-algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdomain.linalg import hermitian_part, kron, min_eigenvalue, operator_norm


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


@settings(deadline=None, max_examples=200)
@given(
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["real", "complex", "zero"]),
    scale=st.sampled_from([1e-150, 1e-8, 1.0, 1e8, 1e150]),
)
def test_operator_norm_is_the_two_norm(rows, cols, seed, kind, scale):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        a = np.zeros((rows, cols))
    elif kind == "real":
        a = scale * rng.standard_normal((rows, cols))
    else:
        a = scale * _complex(rng, (rows, cols))
    assert operator_norm(a) == float(np.linalg.norm(a, 2))


def test_operator_norm_of_an_empty_matrix_is_zero():
    assert operator_norm(np.zeros((0, 3))) == 0.0


def test_hermitian_part_of_a_stack_is_each_matrix_bit_for_bit():
    stack = _complex(np.random.default_rng(4), (3, 5, 5))
    parts = hermitian_part(stack)
    for a, h in zip(stack, parts):
        assert h.tobytes() == hermitian_part(a).tobytes()
        assert h.tobytes() == ((a + a.conj().T) / 2.0).tobytes()


@pytest.mark.parametrize("a", [
    [[np.nan, 0.0], [0.0, 1.0]],  # LAPACK's eigvalsh gives [0, -0] here
    [[1.0, 0.0], [0.0, np.inf]],
    [[1.0, -np.inf], [0.0, 1.0]],
    [[1.0, complex(0.0, np.nan)], [0.0, 1.0]],
])
def test_min_eigenvalue_reads_a_non_finite_matrix_as_minus_inf(a):
    assert min_eigenvalue(np.array(a)) == -np.inf
