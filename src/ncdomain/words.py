"""Words over a finite alphabet: the unital free semigroup on n generators.

A word is a finite sequence of generator indices drawn from {1, .., n};
the empty word is the unit.  Words label the monomials of free power
series and the orthonormal basis of the truncated full Fock space, so a
stable enumeration matters: `enumerate_words` orders words by length
first and lexicographically within each length.  Truncating by length is
then a basis prefix, and the enumeration is identical across runs.

A word is a tuple of letters (`Letters`).  Its digit form ("12" for
g_1 g_2, "" for the unit, n <= 9) appears only in files and on the
command line; `parse_word` reads it and `word_text` writes it.

Every product over words in the package (operator monomials X_w, the
column maps of the model shifts V_w, the series products phi_w of a
composition) goes through one engine, `word_products`: it forms
P_w = F_{w_0} P_{w[1:]} and stores every suffix product in a memo the
caller owns.  The recursion is a module-level function rather than a
nested closure: a closure that calls itself is a reference cycle, which
would leave every call's memo to the cyclic garbage collector and keep
large memos (a model's column maps) alive long after the call.
"""

from __future__ import annotations

import operator
from itertools import product
from typing import Callable, Iterable, Sequence

from .defaults import DIM_CAP_ENV, dim_cap


class DimensionCapError(ValueError):
    """Raised when a requested enumeration exceeds the basis cap."""


Letters = tuple[int, ...]


def _as_letters(word: str | Iterable[int], n: int) -> Letters:
    """Check a word given as a digit string or an iterable of ints."""
    if isinstance(word, str):
        return parse_word(word, n)
    try:
        letters = tuple(map(operator.index, word))
    except TypeError:
        raise ValueError(f"letters must be ints, got {word!r}") from None
    for i in letters:
        if not 1 <= i <= n:
            raise ValueError(f"letter {i} outside 1..{n}")
    return letters


def parse_word(text: str, n: int) -> Letters:
    """Parse the digit form: "" is the unit, "12" is g_1 g_2."""
    if n > 9 and text:
        raise ValueError("digit form only covers alphabets with n <= 9")
    if text and not text.isdigit():
        raise ValueError(f"invalid letter in word {text!r}")
    return _as_letters(map(int, text), n)


def word_text(word: Sequence[int]) -> str:
    """Digit form of a word; inverse of `parse_word`."""
    if any(i > 9 for i in word):
        raise ValueError("digit form only covers letters 1..9")
    return "".join(map(str, word))


def word_count(n: int, max_length: int) -> int:
    """Number of words of length <= max_length over n generators."""
    if n == 1:
        return max_length + 1
    return (n ** (max_length + 1) - 1) // (n - 1)


class WordIndex:
    """Graded-lexicographic bijection words <-> 0..dim-1.

    Index 0 is the unit; grade k occupies a contiguous block.  The order
    is deterministic, and the index for max_length N is a prefix of the
    index for any larger bound.
    """

    __slots__ = ("n", "max_length", "words", "_pos", "_grade_starts")

    def __init__(self, n: int, max_length: int):
        if max_length < 0:
            raise ValueError(f"max_length must be >= 0, got {max_length}")
        if n < 1:
            raise ValueError(f"need at least one generator, got n={n}")
        limit = dim_cap()
        dim = word_count(n, max_length)
        if dim > limit:
            raise DimensionCapError(
                f"basis for n={n}, max_length={max_length} needs {dim} words, "
                f"cap is {limit} (set {DIM_CAP_ENV} to override)"
            )
        self.n = n
        self.max_length = max_length
        words: list[Letters] = []
        starts = [0]
        for k in range(max_length + 1):
            words.extend(product(range(1, n + 1), repeat=k))
            starts.append(len(words))
        self.words = tuple(words)
        self._pos = {w: i for i, w in enumerate(self.words)}
        self._grade_starts = tuple(starts)

    @property
    def dim(self) -> int:
        return len(self.words)

    def index_of(self, word: str | Iterable[int]) -> int:
        letters = _as_letters(word, self.n)
        try:
            return self._pos[letters]
        except KeyError:
            raise KeyError(
                f"word of length {len(letters)} outside truncation "
                f"max_length={self.max_length}"
            ) from None

    def letters_of(self, i: int) -> Letters:
        return self.words[i]

    def grade(self, k: int) -> range:
        """Indices of the words of length exactly k."""
        if not 0 <= k <= self.max_length:
            raise ValueError(f"grade {k} outside 0..{self.max_length}")
        return range(self._grade_starts[k], self._grade_starts[k + 1])

    def __len__(self) -> int:
        return self.dim

    def __iter__(self):
        return iter(self.words)


def enumerate_words(n: int, max_length: int) -> WordIndex:
    """Build the graded-lex index of all words of length <= max_length."""
    return WordIndex(n, max_length)


def word_products(
    words: Iterable[Letters],
    factors: Sequence,
    mul: Callable,
    memo: dict,
) -> list:
    """P_w = mul(factors[w_0 - 1], P_{w[1:]}) for each word, in order.

    ``memo`` must hold the unit's product under the empty word; every
    suffix product computed on the way is stored in it, so callers that
    keep the memo reuse it across calls.
    """
    return [_suffix_product(w, factors, mul, memo) for w in words]


def _suffix_product(word: Letters, factors, mul, memo: dict):
    out = memo.get(word)
    if out is None:
        out = mul(factors[word[0] - 1], _suffix_product(word[1:], factors, mul, memo))
        memo[word] = out
    return out
