"""Words over a finite alphabet: the unital free semigroup on n generators.

A word is a finite sequence of generator indices drawn from {1, .., n};
the empty word is the unit.  Words label the monomials of free power
series and the orthonormal basis of the truncated full Fock space, so a
stable enumeration matters: `enumerate_words` orders words by length
first and lexicographically within each length.  Truncating by length is
then a basis prefix, and the enumeration is identical across runs.  In
that order a word u of length L sits at offset(L) + num(u), num(u) being
u read as a base-n number, so `WordIndex` finds prefixes and suffixes of
a whole grade by integer arithmetic, and the images wu and uw of a whole
grade under a fixed word w are one slice of a higher grade
(`WordIndex.shift_block`).  Its letter tuples (`WordIndex.words`) are
built only when first read: the model, the weight tables and the
grade-row gather never need them.

A word is a tuple of letters (`Letters`).  Its digit form ("12" for
g_1 g_2, "" for the unit, n <= 9) appears only in files and on the
command line; `parse_word` reads it and `word_text` writes it.

The products over words that have no closed form on the index (operator
monomials X_w, the series products phi_w of a composition) go through
one engine, `word_products`: it forms P_w = F_{w_0} P_{w[1:]} and stores
every suffix product in a memo the caller owns.  The recursion is a
module-level function rather than a nested closure: a closure that calls
itself is a reference cycle, which would leave every call's memo to the
cyclic garbage collector and keep large memos alive long after the call.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Callable, Iterable, Sequence

import numpy as np

from .defaults import DIM_CAP_ENV, DimensionCapError, dim_cap


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


def capped_word_count(n: int, max_length: int, what: str) -> int:
    """`word_count`, refused with DimensionCapError above the basis cap."""
    limit = dim_cap()
    count = word_count(n, max_length)
    if count > limit:
        raise DimensionCapError(
            f"{what} for n={n}, max_length={max_length} needs {count} words, "
            f"cap is {limit} (set {DIM_CAP_ENV} to override)"
        )
    return count


def word_num(letters: Letters, n: int) -> int:
    """num(u): the word read as a base-n number with digits letter - 1."""
    return reduce(lambda num, i: num * n + i - 1, letters, 0)


def _digits(n: int, k: int, nums) -> np.ndarray:
    """Base-n digits (letter - 1) of the length-k words numbered ``nums``."""
    powers = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return np.asarray(nums, dtype=np.int64)[:, None] // powers % n


def grade_letters(n: int, k: int, nums) -> list[Letters]:
    """The length-k words numbered ``nums``, as letter tuples."""
    if k == 0:
        return [()] * len(nums)
    return list(zip(*(_digits(n, k, nums) + 1).T.tolist()))


class WordIndex:
    """Graded-lexicographic bijection words <-> 0..dim-1.

    Index 0 is the unit; grade k occupies a contiguous block starting at
    offset(k), in which a word u sits at offset(k) + num(u).  Prefixes,
    suffixes and shifts are therefore integer arithmetic on num.  The
    order is deterministic, and the index for max_length N is a prefix of
    the index for any larger bound.
    """

    __slots__ = ("n", "max_length", "_grade_starts", "_words")

    def __init__(self, n: int, max_length: int):
        if max_length < 0:
            raise ValueError(f"max_length must be >= 0, got {max_length}")
        if n < 1:
            raise ValueError(f"need at least one generator, got n={n}")
        capped_word_count(n, max_length, "basis")
        self.n = n
        self.max_length = max_length
        self._grade_starts = tuple(word_count(n, k - 1) for k in range(max_length + 2))
        self._words: tuple[Letters, ...] | None = None

    @property
    def words(self) -> tuple[Letters, ...]:
        """Every word as a letter tuple, in index order; built on first read."""
        if self._words is None:
            self._words = tuple(
                w for k in range(self.max_length + 1)
                for w in grade_letters(self.n, k, range(self.n**k))
            )
        return self._words

    @property
    def dim(self) -> int:
        return self._grade_starts[-1]

    def index_of(self, word: str | Iterable[int]) -> int:
        letters = _as_letters(word, self.n)
        if len(letters) > self.max_length:
            raise KeyError(
                f"word of length {len(letters)} outside truncation "
                f"max_length={self.max_length}"
            )
        return self.offset(len(letters)) + word_num(letters, self.n)

    def offset(self, k: int) -> int:
        """Index of the first word of length k (k <= max_length + 1)."""
        return self._grade_starts[k]

    def grade(self, k: int) -> range:
        """Indices of the words of length exactly k."""
        if not 0 <= k <= self.max_length:
            raise ValueError(f"grade {k} outside 0..{self.max_length}")
        return range(self._grade_starts[k], self._grade_starts[k + 1])

    def split(self, length: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices of u[:k] and of u[k:] for every word u of the given length."""
        nums = np.arange(self.n**length, dtype=np.int64)
        tail = self.n ** (length - k)
        return self.offset(k) + nums // tail, self.offset(length - k) + nums % tail

    def shift_block(self, word: Letters, length: int, right: bool = False) -> slice:
        """Indices of wu (of uw if ``right``) for the words u of the given length.

        In the order of u.  With k = |w|, the left images are n^length
        consecutive indices of grade length + k, the right images every
        n^k-th index of that grade.
        """
        k = len(word)
        if not 0 <= length <= self.max_length - k:
            raise ValueError(f"grade {length} shifted by {k} letters leaves 0..{self.max_length}")
        start, num = self.offset(length + k), word_num(word, self.n)
        if right:
            return slice(start + num, self.offset(length + k + 1), self.n**k)
        size = self.n**length
        return slice(start + num * size, start + (num + 1) * size, 1)

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
