"""Exact integer polynomial arithmetic in t and in (q, t).

Both kinds share one sparse core: ``terms`` maps each exponent to its
nonzero int coefficient, and the core holds the validation, hashing and
exact ring arithmetic.  :class:`TPoly` is a polynomial in t keyed by degree,
with ``coeffs`` a read-only dense view in ascending order; :class:`QTPoly`
is a polynomial in q and t keyed by exponent pairs.  Both are immutable and
hashable, and arithmetic never mixes the kinds, so they can be used as
dictionary keys and compared for equality without any tolerance.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from typing import Iterable, Iterator, Mapping


def _text(terms: Iterable[tuple[int, tuple[tuple[str, int], ...]]]) -> str:
    """``a - b + c`` from (coeff, ((var, degree), ...)) terms, leading term
    first, as ``3*q*t^2``; a constant or a unit coefficient alone is shown."""
    out = ""
    for c, powers in terms:
        factors = [var if d == 1 else f"{var}^{d}" for var, d in powers if d]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        if out:
            out += " - " if c < 0 else " + "
        elif c < 0:
            out = "-"
        out += "*".join(factors)
    return out or "0"


def _degree(d) -> int:
    """One degree of an exponent: an int, and nonnegative."""
    d = operator.index(d)
    if d < 0:
        raise ValueError("exponents must be nonnegative")
    return d


class _IntPoly:
    """The core of both kinds: ``terms`` maps each exponent to its int
    coefficient, with no zero terms.  A kind gives ``_exponent``, which
    checks one exponent, and ``_sums``, every sum of an exponent of one
    polynomial and an exponent of another, in the order of their products.
    Input is checked once, where a polynomial is built from it; arithmetic
    builds its results from checked operands and checks nothing again.
    No attribute can be set on a polynomial; two are equal when they are of
    the same kind with the same terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping = {}):  # the default is only read
        """Keeps the nonzero terms, each exponent checked by the kind (a
        negative one raises ``ValueError``) and each coefficient an int (any
        other raises ``TypeError``)."""
        out = {}
        for e, c in terms.items():
            e, c = self._exponent(e), operator.index(c)
            if c:
                out[e] = c
        object.__setattr__(self, "terms", out)

    @classmethod
    def _of(cls, terms: dict):
        """The polynomial of ``terms`` built from checked operands: zero
        terms are dropped and nothing is checked again."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", {e: c for e, c in terms.items() if c})
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self._of, (self.terms,)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(terms={self.terms!r})"

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return self._of(out)

    def __neg__(self):
        return self._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self.terms, other.terms
        out: dict = {}
        for key, (x, y) in zip(self._sums(a, b), itertools.product(a.values(), b.values())):
            out[key] = out.get(key, 0) + x * y
        return self._of(out)


class TPoly(_IntPoly):
    """Polynomial in t with int coefficients, ``terms`` keyed by degree.
    Built from its coefficients in ascending order, any iterable of ints."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[int] = ()):
        super().__init__(dict(enumerate(coeffs)))

    _exponent = staticmethod(_degree)

    @staticmethod
    def _sums(a: Iterable[int], b: Iterable[int]) -> list[int]:
        return [x + y for x in a for y in b]

    @classmethod
    def zero(cls) -> "TPoly":
        return cls()

    @classmethod
    def one(cls) -> "TPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int) -> "TPoly":
        return cls.from_counts({degree: 1})

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "TPoly":
        """The polynomial whose t^d coefficient is ``counts[d]`` (zero when
        d is absent)."""
        out = cls.__new__(cls)
        _IntPoly.__init__(out, counts)  # checked like any input; TPoly() takes a sequence
        return out

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficients in ascending order up to the degree, zeros
        included: a read-only dense view of ``terms``."""
        out = [0] * (self.degree + 1)
        for d, c in self.terms.items():
            out[d] = c
        return tuple(out)

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return max(self.terms, default=-1)

    def __call__(self, t: int) -> int:
        return sum(c * t**d for d, c in self.terms.items())

    def __str__(self) -> str:
        return _text((self.terms[d], (("t", d),)) for d in sorted(self.terms, reverse=True))

    def to_json(self) -> dict:
        return {"var": "t", "coeffs": list(self.coeffs)}


class QTPoly(_IntPoly):
    """Polynomial in q and t with int coefficients, ``terms`` keyed by
    exponent pairs (q_deg, t_deg).  Built from any such mapping."""

    __slots__ = ()

    @staticmethod
    def _exponent(pair) -> tuple[int, int]:
        dq, dt = pair
        return _degree(dq), _degree(dt)

    @staticmethod
    def _sums(a: Iterable, b: Iterable) -> list[tuple[int, int]]:
        return [(xq + yq, xt + yt) for xq, xt in a for yq, yt in b]

    @classmethod
    def monomial(cls, q_deg: int, t_deg: int) -> "QTPoly":
        return cls({(q_deg, t_deg): 1})

    def eval_q(self, q: int) -> TPoly:
        """Substitute an integer for q, leaving a polynomial in t."""
        out: dict[int, int] = {}
        for (dq, dt), c in self.terms.items():
            out[dt] = out.get(dt, 0) + c * q**dq
        return TPoly._of(out)

    def sorted_terms(self) -> Iterator[tuple[int, int, int]]:
        return ((dq, dt, c) for (dq, dt), c in sorted(self.terms.items()))

    def __str__(self) -> str:
        return _text((c, (("q", dq), ("t", dt))) for dq, dt, c in self.sorted_terms())

    def to_json(self) -> dict:
        return {"vars": ["q", "t"], "terms": [list(t) for t in self.sorted_terms()]}


def t_analog(n: int) -> TPoly:
    """[n]_t = 1 + t + ... + t^(n-1); [0]_t = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return TPoly._of(dict.fromkeys(range(n), 1))


def t_factorial(n: int) -> TPoly:
    """[n]_t! = [1]_t [2]_t ... [n]_t, with [0]_t! = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = TPoly.one()
    for m in range(1, n + 1):
        out = out * t_analog(m)
    return out


def q_analog(n: int) -> QTPoly:
    """[n]_q = 1 + q + ... + q^(n-1) as a QTPoly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return QTPoly._of({(d, 0): 1 for d in range(n)})


def euler_t(n: int) -> TPoly:
    """Generating polynomial of down-up alternating permutations of size n.

    Permutations with s1 > s2 < s3 > s4 < ... are weighted by t to the number
    of occurrences of the dashed pattern whose middle and largest letters are
    adjacent (large immediately before small, with a mid-valued letter later).
    Evaluating at t = 1 gives the alternating-permutation numbers
    1, 1, 2, 5, 16, 61, 272, ...

    Builds the permutation right to left.  Prepending a letter of rank r
    (0..L) to a suffix of length L whose first letter has rank f makes
    position n - L a descent when r > f, with the r - f - 1 suffix letters of
    rank strictly between f and r as new pattern occurrences, and an ascent
    when r <= f.  The state maps f to the polynomial of the suffixes so far,
    and the next state is a running sum of the old one: after a descent,
    new[r] is the sum over f < r of t^(r - f - 1) old[f], so
    new[r + 1] = t new[r] + old[r]; after an ascent, new[r] is the sum over
    f >= r of old[f], so new[r] = new[r + 1] + old[r].
    Checked against :func:`_euler_t_by_sweep` in the tests.
    """
    if n < 1:
        raise ValueError("n must be positive")
    t = TPoly.monomial(1)
    by_first = [TPoly.one()]  # suffix of length 1
    for length in range(1, n):
        new = [TPoly()]
        if (n - length) % 2:  # an odd position is a descent
            for old in by_first:
                new.append(t * new[-1] + old)
        else:
            for old in reversed(by_first):
                new.append(new[-1] + old)
            new.reverse()
        by_first = new
    return sum(by_first, TPoly())


def _is_alternating(perm: tuple[int, ...]) -> bool:
    # starts with a descent, then strictly alternates
    return all(
        (perm[i] > perm[i + 1]) == (i % 2 == 0) for i in range(len(perm) - 1)
    )


def _pattern_count(perm: tuple[int, ...]) -> int:
    # occurrences (i, j) with 1 < i+1 < j <= n and perm[i+1] < perm[j] < perm[i],
    # in 1-based indexing: the middle letter is adjacent to the large one.
    n = len(perm)
    count = 0
    for i in range(n - 1):  # 0-based position of the large letter
        lo, hi = perm[i + 1], perm[i]
        if lo < hi:
            count += sum(lo < perm[j] < hi for j in range(i + 2, n))
    return count


def _euler_t_by_sweep(n: int) -> TPoly:
    """Test-only oracle for :func:`euler_t`: sweeps all n! permutations."""
    return TPoly.from_counts(
        Counter(
            _pattern_count(perm)
            for perm in itertools.permutations(range(1, n + 1))
            if _is_alternating(perm)
        )
    )
