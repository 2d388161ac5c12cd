"""A memo that holds one (key, value) pair.

One point of the domain is read by several layers in a row: `membership`,
`build_model` and both Berezin forms each need the depth-N weight table
of (f, m) and the defects of (f, m, X).  `weights.weights_direct` and the
point state in `cp_maps` therefore remember their last result, keyed by
value (an equal f built anew, the same matrix entries), so the first
caller pays and the next ones read.  Memory stays bounded at one entry
per memo.  A miss replaces the whole pair in one assignment, and a call
that raises leaves the previous pair in place.  Keys are compared with
==, never hashed.  A value is shared by every caller that hits, so the
callers store only read-only arrays.
"""

from __future__ import annotations

from typing import Callable, TypeVar

V = TypeVar("V")


class OneDeep:
    """The last (key, value) pair computed through it."""

    __slots__ = ("_entry",)

    def __init__(self):
        self._entry: tuple[object, object] | None = None

    def get(self, key: object, make: Callable[..., V], *args) -> V:
        """The value held for ``key``, else ``make(*args)``, which is then held."""
        entry = self._entry
        if entry is not None and entry[0] == key:
            return entry[1]
        value = make(*args)
        self._entry = (key, value)
        return value

    def clear(self) -> None:
        self._entry = None
