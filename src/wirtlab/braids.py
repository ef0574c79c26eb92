"""Braid groups acting on free groups from the right.

A braid on ``n`` strands is a sequence of letters ``(j, e)`` with
``1 <= j <= n-1`` and ``e = +1/-1`` denoting ``sigma_j^e``.  The action on
the free group with basis ``mu_1 .. mu_n`` is the standard right action:

    mu_i ^ sigma_j   = mu_i                      if j not in {i-1, i}
    mu_i ^ sigma_i   = mu_{i+1}
    mu_i ^ sigma_{i-1} = mu_i mu_{i-1} mu_i^-1

    mu_i ^ sigma_j^-1   = mu_i                   if j not in {i-1, i}
    mu_i ^ sigma_i^-1   = mu_i^-1 mu_{i+1} mu_i
    mu_i ^ sigma_{i-1}^-1 = mu_{i-1}

so that ``(w^a)^b = w^(a*b)`` with braids composed left to right.  The
local braid of each event kind is built in :func:`wirtlab.genpres.local_braid`.

Every local braid is a power of a half twist Delta_m, which acts in closed
form (:func:`twist_images`).  With P = w_m ... w_1, the boundary word every
braid fixes, and k = 2q + r (r in {0, 1}):

    w_i ^ Delta_m^k = P^q  D_r(w_i)  P^-q,
    D_0(w_i) = w_i,   D_1(w_i) = Q_i w_(m+1-i) Q_i^-1,   Q_i = w_m ... w_(m+2-i)

so Delta_m^2 is conjugation by P, and Q_i is the product of P's first
i - 1 factors (Q_1 = 1).  On two strands Delta = sigma_1.  It works on
letter tuples, the encoding of :mod:`wirtlab.words`, so the presentation
builders of :mod:`wirtlab.genpres` apply Delta without building a
:class:`~wirtlab.words.Word` per product.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from .words import Letter, Word, invert, product

BraidLetter = Tuple[int, int]


class Braid:
    """A braid word on ``n`` strands (not normalised in any way)."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: Iterable[BraidLetter] = ()):
        self.n = n
        ls = tuple(letters)
        for j, e in ls:
            if not 1 <= j <= n - 1:
                raise ValueError("sigma_%d is not a generator on %d strands" % (j, n))
            if e not in (1, -1):
                raise ValueError("braid letter exponents must be +1 or -1")
        self.letters = ls

    @staticmethod
    def identity(n: int) -> "Braid":
        return Braid(n, ())

    @staticmethod
    def sigma(n: int, j: int, exp: int = 1) -> "Braid":
        if exp == 0:
            return Braid(n)
        letter = (j, 1 if exp > 0 else -1)
        return Braid(n, [letter] * abs(exp))

    def __mul__(self, other: "Braid") -> "Braid":
        if self.n != other.n:
            raise ValueError("cannot compose braids on different strand counts")
        return Braid(self.n, self.letters + other.letters)

    def inverse(self) -> "Braid":
        return Braid(self.n, [(j, -e) for j, e in reversed(self.letters)])

    def __pow__(self, k: int) -> "Braid":
        if k < 0:
            return self.inverse() ** (-k)
        out = Braid(self.n)  # the letters are already checked
        out.letters = self.letters * k
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Braid)
            and self.n == other.n
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.n, self.letters))

    def __repr__(self) -> str:
        if not self.letters:
            return "Braid(%d)" % self.n
        body = "*".join(
            "s%d" % j if e == 1 else "s%d^-1" % j for j, e in self.letters
        )
        return "Braid(%d, %s)" % (self.n, body)

    def permutation(self) -> tuple[int, ...]:
        """``perm[i-1]`` is the final position of the strand starting at i."""
        pos = list(range(1, self.n + 1))
        for j, _ in self.letters:
            a = pos.index(j)
            b = pos.index(j + 1)
            pos[a], pos[b] = pos[b], pos[a]
        out = [0] * self.n
        for final_slot, start in enumerate(pos, start=1):
            out[start - 1] = final_slot
        return tuple(out)


def braid_images(braid: Braid) -> tuple[Word, ...]:
    """The images of ``mu_1 .. mu_n`` under the right action of ``braid``.

    The letters are read from the end: prepending ``sigma_j^e`` to a braid
    with images ``I`` changes only ``I_j`` and ``I_{j+1}``.
    """
    images = [Word.gen(i) for i in range(1, braid.n + 1)]
    for j, e in reversed(braid.letters):
        a, b = images[j - 1], images[j]
        if e == 1:
            images[j - 1], images[j] = b, b * a * b.inverse()
        else:
            images[j - 1], images[j] = a.inverse() * b * a, a
    return tuple(images)


def braid_act(word: Word, braid: Braid) -> Word:
    """Apply the right action of ``braid`` to ``word``."""
    if word.max_generator() > braid.n:
        raise ValueError("word uses generators beyond the braid's strand count")
    return word.substitute(dict(enumerate(braid_images(braid), start=1)))


def half_twist(m: int) -> Braid:
    """The positive half twist Delta_m = (s1)(s2 s1)...(s_{m-1} ... s1)."""
    letters: list[BraidLetter] = []
    for r in range(1, m):
        for j in range(r, 0, -1):
            letters.append((j, 1))
    return Braid(m, letters)


def twist_images(
    words: Sequence[tuple[Letter, ...]], k: int
) -> tuple[tuple[Letter, ...], ...]:
    """The images of ``w_1 .. w_m``, freely reduced letter tuples, under the
    right action of Delta_m^k, for any integer ``k``, in O(m) products of
    letter tuples: with P = w_m ... w_1 and k = 2q + r (floor division,
    r in {0, 1}), w_i goes to P^q D_r(w_i) P^-q, where D_0(w_i) = w_i and
    D_1(w_i) = Q_i w_(m+1-i) Q_i^-1 with Q_i = w_m ... w_(m+2-i), the
    product of P's first i - 1 factors.  It equals
    ``braid_images(half_twist(m) ** k)`` with the words substituted."""
    if k == 0:
        return tuple(words)
    q, r = divmod(k, 2)
    prefixes = [()]  # Q_1 .. Q_(m+1) = P
    for w in reversed(words):
        prefixes.append(product(prefixes[-1], w))
    if r:
        images = [
            product(q_i, w, invert(q_i)) for q_i, w in zip(prefixes, reversed(words))
        ]
    else:
        images = list(words)
    if q:
        p = prefixes[-1] if q > 0 else invert(prefixes[-1])
        pq = product(*[p] * abs(q))
        pq_inv = invert(pq)
        images = [product(pq, w, pq_inv) for w in images]
    return tuple(images)
