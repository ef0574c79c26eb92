"""Freely reduced words in a free group.

A word is a sequence of letters ``(i, e)`` where ``i >= 1`` indexes a
generator and ``e`` is ``+1`` or ``-1``.  Words are kept freely reduced at
all times: adjacent letters ``(i, e), (i, -e)`` cancel.  The empty word is
the identity.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

Letter = Tuple[int, int]


def free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Check each letter and cancel adjacent inverse pairs until no
    cancellation remains."""
    stack: list[Letter] = []
    for gen, exp in letters:
        if gen < 1:
            raise ValueError("generator indices start at 1, got %r" % gen)
        if exp not in (1, -1):
            raise ValueError("letter exponents must be +1 or -1, got %r" % exp)
        if stack and stack[-1][0] == gen and stack[-1][1] == -exp:
            stack.pop()
        else:
            stack.append((gen, exp))
    return tuple(stack)


def _append_reduced(out: list[Letter], run: Sequence[Letter]) -> None:
    """Append the freely reduced ``run`` to the freely reduced ``out``,
    keeping it reduced: only the seam between them can cancel."""
    j, n = 0, len(run)
    while out and j < n and out[-1][0] == run[j][0] and out[-1][1] == -run[j][1]:
        out.pop()
        j += 1
    out.extend(run[j:] if j else run)


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
    def identity() -> "Word":
        return Word()

    @staticmethod
    def gen(i: int, exp: int = 1) -> "Word":
        """The word consisting of a single generator power ``x_i^exp``."""
        if exp == 0:
            return Word()
        letter = (i, 1 if exp > 0 else -1)
        return Word([letter] * abs(exp))

    def __mul__(self, other: "Word") -> "Word":
        out = list(self.letters)
        _append_reduced(out, other.letters)
        return Word._reduced(tuple(out))

    def inverse(self) -> "Word":
        return Word._reduced(tuple([(g, -e) for g, e in reversed(self.letters)]))

    def conjugated_by(self, w: "Word") -> "Word":
        """Return ``w^-1 * self * w``."""
        return w.inverse() * self * w

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        out: list[Letter] = []
        for _ in range(n):
            _append_reduced(out, self.letters)
        return Word._reduced(tuple(out))

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
        return max((g for g, _ in self.letters), default=0)

    def substitute(
        self, images: dict[int, "Word"], inverses: dict[int, "Word"] | None = None
    ) -> "Word":
        """Replace each generator by its image word (missing ones map to
        themselves).

        The runs of untouched letters and the images are reduced already,
        so they are copied whole and only the seams between them cancel.
        ``inverses`` caches the inverted images by generator; a caller that
        substitutes the same images into many words passes one dict, so
        each image is inverted once."""
        ls = self.letters
        if inverses is None:
            inverses = {}
        out: list[Letter] = []
        start = 0
        for i in [i for i, (g, _) in enumerate(ls) if g in images]:
            _append_reduced(out, ls[start:i])
            g, e = ls[i]
            if e == 1:
                _append_reduced(out, images[g].letters)
            else:
                if g not in inverses:
                    inverses[g] = images[g].inverse()
                _append_reduced(out, inverses[g].letters)
            start = i + 1
        _append_reduced(out, ls[start:])
        return Word._reduced(tuple(out))

    def cyclically_reduced(self) -> "Word":
        ls = self.letters
        i, j = 0, len(ls) - 1
        while i < j and ls[i][0] == ls[j][0] and ls[i][1] == -ls[j][1]:
            i += 1
            j -= 1
        return Word._reduced(ls[i : j + 1]) if i else self

    def __repr__(self) -> str:
        return "Word(%s)" % format_word(self)


def alternating(a: Word, b: Word, length: int) -> Word:
    """The alternating product ``a b a b ...`` with ``length`` factors."""
    out = Word()
    for i in range(length):
        out = out * (a if i % 2 == 0 else b)
    return out


def format_word(w: Word, names: list[str] | None = None) -> str:
    """Render a word like ``x1*x2^-1``; the empty word renders as ``1``."""
    if not w.letters:
        return "1"
    parts = []
    run_gen, run_exp = w.letters[0]
    count = run_exp
    for g, e in w.letters[1:]:
        if g == run_gen and (e > 0) == (count > 0):
            count += e
        else:
            parts.append((run_gen, count))
            run_gen, count = g, e
    parts.append((run_gen, count))
    texts = []
    for g, c in parts:
        name = names[g - 1] if names is not None else "x%d" % g
        texts.append(name if c == 1 else "%s^%d" % (name, c))
    return "*".join(texts)
