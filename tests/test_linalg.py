"""Linear-algebra helpers, and the one operator-tuple check."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdomain import linalg
from ncdomain.berezin import berezin_transform_kernel, berezin_transform_resolvent
from ncdomain.cp_maps import membership, monomial_product, von_neumann_gap
from ncdomain.linalg import (
    as_tuple, hermitian_part, kron, least_eigenvalues, operator_norm,
)
from ncdomain.series import FreeSeries, evaluate, unit_ball_symbol

TUPLE_ERRORS = {
    "empty": ([], "tuple must have at least one entry"),
    "non-square": ([np.ones((2, 3))], "tuple entries must be square matrices"),
    "mixed-size": ([np.eye(2), np.eye(3)], "tuple entries act on different spaces"),
}


@pytest.mark.parametrize("case", sorted(TUPLE_ERRORS))
def test_every_entry_point_refuses_a_bad_tuple_with_one_message(case):
    x, message = TUPLE_ERRORS[case]
    f = unit_ball_symbol(2)
    g = np.eye(7)  # the depth-2 Fock space over two letters
    calls = [
        lambda: as_tuple(x),
        lambda: evaluate(FreeSeries(2, 1, {(1,): 1.0}), x),
        lambda: membership(f, 1, x),
        lambda: monomial_product(x, "1"),
        lambda: berezin_transform_kernel(f, 1, x, g, 2),
        lambda: berezin_transform_resolvent(f, 1, x, g, 2),
        lambda: von_neumann_gap(f, 1, x, [((), (), 1.0)], N=2),
    ]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert type(exc.value) is ValueError and str(exc.value) == message


def test_the_tuple_messages_live_in_linalg_alone():
    src = Path(linalg.__file__).parent
    for _, message in TUPLE_ERRORS.values():
        owners = [p.name for p in sorted(src.glob("*.py")) if message in p.read_text()]
        assert owners == ["linalg.py"]


def test_evaluate_reads_a_zero_dimensional_entry_as_one_by_one():
    series = FreeSeries(1, 2, {(1,): 1.0, (1, 1): 2.0})
    assert np.array_equal(evaluate(series, [np.array(0.5)]), np.array([[1.0 + 0j]]))
    assert np.array_equal(evaluate(series, [0.5]), evaluate(series, [[[0.5]]]))


def test_as_tuple_stacks_entries_and_passes_a_complex_stack_through():
    x = np.arange(18, dtype=complex).reshape(2, 3, 3)
    assert as_tuple(x) is x
    got = as_tuple([x[0].real, x[1]])
    assert got.dtype == complex and np.array_equal(got, x)


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


NON_FINITE = [
    [[np.nan, 0.0], [0.0, 1.0]],  # LAPACK's eigvalsh gives [0, -0] here
    [[1.0, 0.0], [0.0, np.inf]],
    [[1.0, -np.inf], [0.0, 1.0]],
    [[1.0, complex(0.0, np.nan)], [0.0, 1.0]],
]


@pytest.mark.parametrize("a", NON_FINITE)
def test_min_eigenvalue_reads_a_non_finite_matrix_as_minus_inf(a):
    assert least_eigenvalues(np.array(a)) == -np.inf
    assert least_eigenvalues(np.array([a], dtype=complex)).tolist() == [-np.inf]


@pytest.mark.parametrize("a", NON_FINITE)
def test_operator_norm_of_a_non_finite_matrix_is_inf(a):
    assert operator_norm(np.array(a)) == np.inf


def _hermitian(rng, d, scale, peak):
    """A random Hermitian d x d matrix of entries near scale, one of them
    (and its mirror) peak, built without a sum that could overflow."""
    a = scale * _complex(rng, (d, d))
    i, j = sorted(rng.integers(0, d, size=2))
    a[i, j] = peak
    upper = np.triu(a, 1)
    return upper + upper.conj().T + np.diag(a.diagonal().real)


@settings(deadline=None, max_examples=200)
@given(
    d=st.integers(1, 8),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(-20, 20).map(lambda e: 10.0**e),
    peak=st.floats(-1.7e308, 1.7e308),
    spoiled=st.lists(st.booleans(), min_size=4, max_size=4),
    bad=st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.inf)]),
)
def test_least_eigenvalues_are_eigvalsh_per_matrix(d, count, seed, scale, peak, spoiled,
                                                    bad):
    rng = np.random.default_rng(seed)
    stack = np.array([_hermitian(rng, d, scale, peak) for _ in range(count)])
    got = least_eigenvalues(stack)
    assert got.shape == (count,) and not np.isnan(got).any()
    assert [v.tobytes() for v in got] == [np.linalg.eigvalsh(h)[0].tobytes() for h in stack]
    assert least_eigenvalues(stack[0]).tobytes() == got[0].tobytes()
    # a mixed stack: -inf exactly on the matrices with a non-finite entry
    spoiled = np.array(spoiled[:count])
    for k in np.flatnonzero(spoiled):
        stack[k][tuple(rng.integers(0, d, size=2))] = bad
    mixed = least_eigenvalues(stack)
    assert not np.isnan(mixed).any()
    assert np.array_equal(np.isneginf(mixed), spoiled)
    assert [v.tobytes() for v in mixed[~spoiled]] == [v.tobytes() for v in got[~spoiled]]


def test_only_linalg_reads_hermitian_spectra():
    # one reader for Hermitian spectra and one home for the overflow policy
    package = Path(linalg.__file__).parent
    readers = {p.name for p in package.glob("*.py")
               if re.search(r"\beig(valsh|h)\b|def _nonfinite_ok\b", p.read_text())}
    assert readers == {"linalg.py"}
