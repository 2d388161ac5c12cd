"""Word parsing, the graded-lexicographic index, and word products."""

import gc
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdomain import (
    FreeSeries,
    PositiveRegularFunction,
    berezin_transform_kernel,
    berezin_transform_resolvent,
    build_model,
    compose,
    evaluate,
    fock_model,
    membership,
    model_defect,
    monomial_product,
    sample_member,
)
from ncdomain.fock_model import grade_row_diagonal
from ncdomain.words import (
    DimensionCapError,
    enumerate_words,
    parse_word,
    word_count,
    word_products,
    word_text,
)


def test_parse_word_roundtrip():
    w = parse_word("121", 2)
    assert w == (1, 2, 1)
    assert word_text(w) == "121"


def test_parse_unit_word():
    w = parse_word("", 3)
    assert w == ()
    assert word_text(w) == ""


def test_parse_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        parse_word("13", 2)
    with pytest.raises(ValueError):
        parse_word("0", 2)


@pytest.mark.parametrize("word", [(1.9, 2.2), (1.0,), ("1",)])
def test_non_int_letters_are_rejected(word):
    with pytest.raises(ValueError, match="letters must be ints"):
        enumerate_words(2, 2).index_of(word)
    with pytest.raises(ValueError, match="letters must be ints"):
        FreeSeries(2, 2, {word: 1.0})


def test_word_count():
    assert word_count(1, 4) == 5
    assert word_count(2, 3) == 15
    assert word_count(3, 2) == 13


def test_index_graded_lex_order():
    index = enumerate_words(2, 2)
    texts = [word_text(w) for w in index]
    assert texts == ["", "1", "2", "11", "12", "21", "22"]


def test_index_bijection():
    index = enumerate_words(3, 3)
    assert index.dim == word_count(3, 3)
    for i in range(index.dim):
        assert index.index_of(index.letters_of(i)) == i
    assert index.index_of("") == 0
    assert index.index_of("31") == index.index_of(parse_word("31", 3))


def test_index_accepts_string_and_tuple_keys():
    index = enumerate_words(2, 2)
    assert index.index_of("12") == index.index_of((1, 2))


def test_grade_blocks_are_contiguous():
    index = enumerate_words(2, 3)
    seen = []
    for k in range(4):
        block = index.grade(k)
        assert all(len(index.letters_of(i)) == k for i in block)
        seen.extend(block)
    assert seen == list(range(index.dim))


def test_index_prefix_property():
    small = enumerate_words(2, 2)
    large = enumerate_words(2, 4)
    assert large.words[: small.dim] == small.words


@pytest.mark.parametrize("n", [1, 2, 3])
def test_index_arrays_match_per_word_loops(n):
    N = 4
    index = enumerate_words(n, N)
    loop = [w for k in range(N + 1) for w in product(range(1, n + 1), repeat=k)]
    pos = {w: i for i, w in enumerate(loop)}
    assert list(index.words) == loop
    assert [index.index_of(w) for w in loop] == list(range(index.dim))
    for length in range(N + 1):
        words = [index.letters_of(i) for i in index.grade(length)]
        assert index.offset(length) == pos[words[0]]
        for k in range(length + 1):
            prefix, suffix = index.split(length, k)
            assert prefix.tolist() == [pos[w[:k]] for w in words]
            assert suffix.tolist() == [pos[w[k:]] for w in words]
        for k in range(N - length + 1):
            for w in product(range(1, n + 1), repeat=k):
                left = index.shift_block(w, length)
                right = index.shift_block(w, length, right=True)
                assert list(range(index.dim))[left] == [pos[w + u] for u in words]
                assert list(range(index.dim))[right] == [pos[u + w] for u in words]
        with pytest.raises(ValueError, match="leaves"):
            index.shift_block((1,) * (N - length + 1), length)
    f = PositiveRegularFunction(n, {(i,): 1.0 for i in range(1, n + 1)})
    model = build_model(f, 1, N)
    for i in range(1, n + 1):
        want = [pos[(i,) + w] for w in loop if len(w) < N]
        assert fock_model._targets(model, (i,)).tolist() == want


def test_dimension_cap_enforced(monkeypatch):
    monkeypatch.setenv("NCDOMAIN_DIM_CAP", "100")
    with pytest.raises(DimensionCapError):
        enumerate_words(2, 10)
    # the error is a ValueError, so callers can catch broadly
    assert issubclass(DimensionCapError, ValueError)


@given(st.integers(1, 3), st.lists(st.integers(1, 3), max_size=5))
def test_index_of_word_of_inverse(n, letters):
    letters = tuple(min(x, n) for x in letters)
    index = enumerate_words(n, 5)
    i = index.index_of(letters)
    assert index.letters_of(i) == letters


def test_word_products_memoize_every_suffix():
    memo = {(): 1}
    products = word_products([(1, 2, 1), (2, 1)], [2, 3], lambda a, b: a * b, memo)
    assert products == [12, 6]
    assert set(memo) == {(), (1,), (2, 1), (1, 2, 1)}


def test_word_products_leave_no_cycles():
    # a self-calling closure per call would leave its memo to the cyclic GC
    f = PositiveRegularFunction(2, {(1,): 0.5, (2,): 0.5, (1, 2): 0.25})
    x = sample_member(f, 2, 3, np.random.default_rng(0))
    outer = FreeSeries(2, 3, {(1,): 1.0, (1, 2): 0.5, (2, 2, 1): 0.3})
    inner = [FreeSeries(2, 3, {(1,): 1.0, (2, 1): 0.2}),
             FreeSeries(2, 3, {(2,): 1.0, (1, 1): 0.1})]
    gc.collect()
    gc.disable()
    try:
        evaluate(outer, x.mats)
        compose(outer, inner)
        membership(f, 2, x)
        model = build_model(f, 2, 4)
        model_defect(model)
        grade_row_diagonal(model, 3)
        g = np.eye(model.index.dim)
        berezin_transform_kernel(f, 2, x, g, 4)
        berezin_transform_resolvent(f, 2, x, g, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(st.integers(1, 3), max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_monomial_product_is_left_to_right_product(n, d, letters, seed):
    word = tuple(min(i, n) for i in letters)
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((d, d)) for _ in range(n)]
    naive = reduce(np.matmul, [mats[i - 1] for i in word], np.eye(d))
    assert np.allclose(monomial_product(mats, word), naive, rtol=1e-12, atol=1e-12)


def _random_series(rng, n, degree, constant):
    coeffs = {}
    for k in range(0 if constant else 1, degree + 1):
        for w in product(range(1, n + 1), repeat=k):
            if rng.random() < 0.6:
                coeffs[w] = rng.uniform(-1.0, 1.0)
    return FreeSeries(n, degree, coeffs)


@settings(deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_compose_commutes_with_evaluate(n, degree, seed):
    # strictly upper triangular d x d points with d <= degree + 1 kill every
    # word longer than the truncation, so both sides are the same finite sum
    rng = np.random.default_rng(seed)
    outer = _random_series(rng, n, degree, constant=True)
    inner = [_random_series(rng, n, degree, constant=False) for _ in range(n)]
    d = degree + 1
    x = [np.triu(rng.uniform(-1.0, 1.0, (d, d)), k=1) for _ in range(n)]
    lhs = evaluate(compose(outer, inner), x)
    rhs = evaluate(outer, [evaluate(phi, x) for phi in inner])
    assert np.max(np.abs(lhs - rhs)) <= 1e-10
