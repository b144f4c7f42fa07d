"""Exact integer polynomial arithmetic in t and in (q, t).

Two small immutable wrappers: :class:`TPoly` is a dense univariate polynomial
in t with integer coefficients (ascending order, trailing zeros trimmed), and
:class:`QTPoly` is a sparse bivariate polynomial in q and t keyed by exponent
pairs.  Both are hashable and support exact arithmetic with integer
coefficients between polynomials of the same kind, so they can be used as
dictionary keys and compared for equality without any tolerance.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _join_terms(parts: list[tuple[str, str]]) -> str:
    """Join (sign, body) terms, leading term first, as ``a - b + c``."""
    if not parts:
        return "0"
    (first_sign, first_body), rest = parts[0], parts[1:]
    lead = ("-" if first_sign == "-" else "") + first_body
    return lead + "".join(f" {sign} {body}" for sign, body in rest)


@dataclass(frozen=True, slots=True)
class TPoly:
    """Polynomial in t with int coefficients, stored densely in ascending order.
    Built from any iterable of ints, kept as a tuple with trailing zeros
    trimmed."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @classmethod
    def zero(cls) -> "TPoly":
        return cls()

    @classmethod
    def one(cls) -> "TPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "TPoly":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "TPoly":
        """The polynomial whose t^d coefficient is ``counts[d]`` (zero when
        d is absent)."""
        coeffs = [0] * (max(counts) + 1 if counts else 0)
        for d, c in counts.items():
            coeffs[d] = c
        return cls(coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other) -> "TPoly":
        if not isinstance(other, TPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return TPoly(
            x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)
        )

    def __neg__(self) -> "TPoly":
        return TPoly(-c for c in self.coeffs)

    def __sub__(self, other) -> "TPoly":
        return self + (-other)

    def __mul__(self, other) -> "TPoly":
        if not isinstance(other, TPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return TPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return TPoly(out)

    def __call__(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __str__(self) -> str:
        parts = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                var = "t" if d == 1 else f"t^{d}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        return _join_terms(parts)

    def to_json(self) -> dict:
        return {"var": "t", "coeffs": list(self.coeffs)}


@dataclass(frozen=True, slots=True)
class QTPoly:
    """Polynomial in q and t, stored sparsely as {(q_deg, t_deg): coeff}.
    Built from any such mapping, kept without its zero terms."""

    terms: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (dq, dt), c in self.terms.items():
            if c:
                if dq < 0 or dt < 0:
                    raise ValueError("exponents must be nonnegative")
                clean[(int(dq), int(dt))] = int(c)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def monomial(cls, q_deg: int, t_deg: int, coeff: int = 1) -> "QTPoly":
        return cls({(q_deg, t_deg): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self) -> int:  # the field is a dict
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "QTPoly":
        if not isinstance(other, QTPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return QTPoly(out)

    def __neg__(self) -> "QTPoly":
        return QTPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "QTPoly":
        return self + (-other)

    def __mul__(self, other) -> "QTPoly":
        if not isinstance(other, QTPoly):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (aq, at), a in self.terms.items():
            for (bq, bt), b in other.terms.items():
                key = (aq + bq, at + bt)
                out[key] = out.get(key, 0) + a * b
        return QTPoly(out)

    def eval_q(self, q: int) -> TPoly:
        """Substitute an integer for q, leaving a polynomial in t."""
        out: dict[int, int] = {}
        for (dq, dt), c in self.terms.items():
            out[dt] = out.get(dt, 0) + c * q**dq
        return TPoly.from_counts(out)

    def sorted_terms(self) -> Iterator[tuple[int, int, int]]:
        for (dq, dt) in sorted(self.terms):
            yield dq, dt, self.terms[(dq, dt)]

    def __str__(self) -> str:
        parts = []
        for dq, dt, c in self.sorted_terms():
            factors = []
            if abs(c) != 1 or (dq == 0 and dt == 0):
                factors.append(str(abs(c)))
            if dq:
                factors.append("q" if dq == 1 else f"q^{dq}")
            if dt:
                factors.append("t" if dt == 1 else f"t^{dt}")
            parts.append(("-" if c < 0 else "+", "*".join(factors)))
        return _join_terms(parts)

    def to_json(self) -> dict:
        return {"vars": ["q", "t"], "terms": [list(t) for t in self.sorted_terms()]}


def t_analog(n: int) -> TPoly:
    """[n]_t = 1 + t + ... + t^(n-1); [0]_t = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return TPoly((1,) * n)


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
    return QTPoly({(d, 0): 1 for d in range(n)})


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
    when r <= f.  The state maps f to the polynomial of the suffixes so far.
    Checked against :func:`_euler_t_by_sweep` in the tests.
    """
    if n < 1:
        raise ValueError("n must be positive")
    by_first = [TPoly.one()]  # suffix of length 1
    for length in range(1, n):
        if (n - length) % 2:  # an odd position is a descent
            by_first = [
                sum(
                    (TPoly.monomial(r - f - 1) * by_first[f] for f in range(r)),
                    TPoly(),
                )
                for r in range(length + 1)
            ]
        else:
            by_first = [sum(by_first[r:], TPoly()) for r in range(length + 1)]
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
