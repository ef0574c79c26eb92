"""Freely reduced words in a free group.

A letter is a nonzero int: ``g`` stands for the generator ``x_g`` (``g >=
1``) and ``-g`` for its inverse, the way Havas, Kenne, Richardson and
Robertson's Tietze program (1984) stores relators.  This module alone
decides that encoding.  Words are kept freely reduced at all times:
adjacent letters ``x, -x`` cancel.  The empty word is the identity.

The tuple helpers :func:`product`, :func:`invert`,
:func:`alternating_factors` and :func:`cyclically_reduce` work on letter
tuples; :class:`Word`'s methods, the presentation builders in
:mod:`wirtlab.genpres` and :mod:`wirtlab.braids`, and the Tietze loop and
Artin builders in :mod:`wirtlab.fpgroups` share them.  :func:`product` is the one place where
reduced runs are joined: only their seams can cancel.
"""

from __future__ import annotations

from itertools import groupby
from operator import neg
from typing import Iterable, Iterator, Sequence

Letter = int


def free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Check each letter and cancel adjacent inverse pairs until no
    cancellation remains."""
    stack: list[Letter] = []
    for x in letters:
        if type(x) is not int or not x:
            raise ValueError("a letter must be a nonzero int, got %r" % (x,))
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def product(*runs: Sequence[Letter]) -> tuple[Letter, ...]:
    """The letters of the product of the freely reduced ``runs``.  Only
    the seams can cancel, so each is checked inline, without a call per
    run."""
    out: list[Letter] = []
    for run in runs:
        if out and run and out[-1] == -run[0]:
            out.pop()
            j, n = 1, len(run)
            while out and j < n and out[-1] == -run[j]:
                out.pop()
                j += 1
            out.extend(run[j:])
        else:
            out.extend(run)
    return tuple(out)


def invert(t: Sequence[Letter]) -> tuple[Letter, ...]:
    """The letters of the inverse word."""
    return tuple(map(neg, reversed(t)))


def cyclically_reduce(t: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Strip the letters at the two ends that cancel each other cyclically."""
    i, j = 0, len(t) - 1
    while i < j and t[i] == -t[j]:
        i += 1
        j -= 1
    return t[i : j + 1] if i else t


class Word:
    """An immutable freely reduced word."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", free_reduce(letters))

    @classmethod
    def _reduced(cls, letters: tuple[Letter, ...]) -> "Word":
        """Wrap a tuple of letters that is already valid and freely reduced,
        without checking either."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @staticmethod
    def gen(i: int, exp: int = 1) -> "Word":
        """The word consisting of a single generator power ``x_i^exp``."""
        if i < 1:
            raise ValueError("generator indices start at 1, got %r" % i)
        return Word([i if exp > 0 else -i] * abs(exp))

    def __mul__(self, other: "Word") -> "Word":
        return Word._reduced(product(self.letters, other.letters))

    def inverse(self) -> "Word":
        return Word._reduced(invert(self.letters))

    def conjugated_by(self, w: "Word") -> "Word":
        """Return ``w^-1 * self * w``."""
        return w.inverse() * self * w

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word._reduced(product(*[self.letters] * n))

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def max_generator(self) -> int:
        return max(map(abs, self.letters), default=0)

    def substitute(self, images: dict[int, "Word"]) -> "Word":
        """Replace each generator by its image word (missing ones map to
        themselves).

        The runs of untouched letters and the images are reduced already,
        so they are joined whole in one :func:`product`, which cancels only
        at the seams.  Each image is inverted once per call."""
        ls = self.letters
        inverses = {g: invert(w.letters) for g, w in images.items()}
        runs: list[tuple[Letter, ...]] = []
        start = 0
        for i, x in enumerate(ls):
            if abs(x) in images:
                runs += (ls[start:i], images[x].letters if x > 0 else inverses[-x])
                start = i + 1
        runs.append(ls[start:])
        return Word._reduced(product(*runs))

    def cyclically_reduced(self) -> "Word":
        ls = cyclically_reduce(self.letters)
        return Word._reduced(ls) if len(ls) < len(self.letters) else self

    def __repr__(self) -> str:
        return "Word(%s)" % format_word(self)


def alternating_factors(
    a: tuple[Letter, ...], b: tuple[Letter, ...], length: int
) -> tuple[tuple[Letter, ...], ...]:
    """The ``length`` factors ``a, b, a, ...`` of an alternating product,
    for a caller that multiplies them together with other factors in one
    :func:`product`."""
    return (a, b) * (length // 2) + (a,) * (length % 2)


def format_word(w: Word, names: list[str] | None = None) -> str:
    """Render a word like ``x1*x2^-1``; the empty word renders as ``1``.
    A run of one letter is one power: in a reduced word a generator's
    adjacent letters have one sign."""
    if not w.letters:
        return "1"
    texts = []
    for x, run in groupby(w.letters):
        g, n = abs(x), len(list(run))
        c = n if x > 0 else -n
        name = names[g - 1] if names is not None else "x%d" % g
        texts.append(name if c == 1 else "%s^%d" % (name, c))
    return "*".join(texts)
