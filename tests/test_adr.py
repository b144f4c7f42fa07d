"""Word-side representatives: decorating algorithms, phi, delta, fast sums."""

from __future__ import annotations

import itertools

import pytest

from pathlab.adr import (
    D_fast,
    NotAnADR,
    S_fast,
    S_recursive,
    all_adrs,
    delta,
    dyck_decorate,
    euler_specialization,
    is_adr,
    is_flat_adr,
    parity_decorate,
    phi,
)
from pathlab.enumeration import D_brute, S_brute
from pathlab.poly import TPoly, t_analog, t_factorial
from pathlab.schedule import make_perm, parse_perm, revmaj

PHI_TABLE = [
    ("1 2 3", "1 2 3"),
    ("2 3 1", "2 3 1"),
    ("1* 3* 2", "1 3* 2"),
    ("3 1 2", "3* 1 2"),
    ("2* 1* 3", "2 1* 3"),
    ("3* 2* 1", "3* 2* 1"),
]

# delta applied to the six smaller Dyck representatives, for every residue m
DELTA_TABLE = {
    "1 2 3": ["1* 2 3 4", "2* 3 4 1", "3* 4 1 2", "4* 1 2 3"],
    "2 3 1": ["1* 3 4 2", "2* 4 1 3", "3* 1 2 4", "4* 2 3 1"],
    "1 3* 2": ["1 2 4* 3", "2 3 1* 4", "3 4 2* 1", "4 1 3* 2"],
    "3* 1 2": ["1 4* 2 3", "2 1* 3 4", "3 2* 4 1", "4 3* 1 2"],
    "2 1* 3": ["1 3 2* 4", "2 4 3* 1", "3 1 4* 2", "4 2 1* 3"],
    "3* 2* 1": ["1* 4* 3* 2", "2* 1* 4* 3", "3* 2* 1* 4", "4* 3* 2* 1"],
}


class TestMembership:
    def test_decorated_example_word(self, big_word):
        witness = is_adr(big_word)
        assert bool(witness)
        assert witness.valid_shifts == frozenset({2, 3})
        assert not is_flat_adr(big_word)  # its shift-0 schedule has a zero

    def test_trivial_word(self):
        witness = is_adr(make_perm((1,)))
        assert witness.valid_shifts == frozenset({0})
        assert is_flat_adr(make_perm((1,)))

    def test_dyck_representative(self):
        word = parse_perm("8 5* 2* 9 6* 1 7* 4* 3")
        assert 0 in is_adr(word).valid_shifts

    def test_all_adrs_counts(self):
        # representatives with an odd number of undecorated letters are in
        # bijection with permutations
        for n in range(1, 6):
            odd = sum(
                len(all_adrs(n, k)) for k in range(n) if (n - k) % 2 == 1
            )
            assert odd == len(list(itertools.permutations(range(n))))


class TestDecoratingAlgorithms:
    def test_dyck_example(self):
        assert dyck_decorate((8, 5, 2, 9, 6, 1, 7, 4, 3)) == parse_perm(
            "8 5* 2* 9 6* 1 7* 4* 3"
        )

    def test_parity_example(self):
        assert parity_decorate((8, 5, 2, 9, 6, 1, 7, 4, 3)) == parse_perm(
            "8* 5* 2* 9 6* 1 7* 4* 3"
        )

    def test_small_cases(self):
        assert dyck_decorate((1, 2, 3)) == make_perm((1, 2, 3))
        assert dyck_decorate((3, 2, 1)) == parse_perm("3* 2* 1")
        assert parity_decorate((2, 1, 3)) == parse_perm("2* 1* 3")
        assert parity_decorate((3, 1, 2)) == make_perm((3, 1, 2))

    def test_parity_dec_examples(self):
        assert len(parity_decorate((8, 5, 2, 9, 6, 1, 7, 4, 3)).decorated) == 6
        assert len(parity_decorate((1, 2, 3)).decorated) == 0
        assert len(parity_decorate((3, 2, 1)).decorated) == 2

    def test_outputs_are_members_with_right_parity(self):
        for values in itertools.permutations(range(1, 6)):
            d = dyck_decorate(values)
            assert 0 in is_adr(d).valid_shifts
            p = parity_decorate(values)
            assert bool(is_adr(p))
            assert p.undecorated_count() % 2 == 1

    def test_uniqueness_exhaustive(self):
        # no other decoration of the same permutation is a Dyck
        # representative, or an odd-undecorated representative
        for values in itertools.permutations(range(1, 5)):
            n = len(values)
            dycks, odds = [], []
            for r in range(n + 1):
                for dec in itertools.combinations(range(1, n + 1), r):
                    word = make_perm(values, dec)
                    witness = is_adr(word)
                    if 0 in witness.valid_shifts:
                        dycks.append(word)
                    if bool(witness) and word.undecorated_count() % 2 == 1:
                        odds.append(word)
            assert dycks == [dyck_decorate(values)]
            assert odds == [parity_decorate(values)]


class TestPhi:
    def test_size_three_table(self):
        for src, dst in PHI_TABLE:
            assert phi(parse_perm(src)) == parse_perm(dst)

    def test_rejects_non_members(self):
        with pytest.raises(NotAnADR):
            phi(parse_perm("2 1 3"))  # even undecorated count

    def test_bijection_preserving_revmaj(self):
        for n in range(1, 6):
            sources = [
                w.word
                for k in range(n)
                if (n - k) % 2 == 1
                for w in all_adrs(n, k)
            ]
            images = [phi(w) for w in sources]
            assert len(set(images)) == len(sources)
            for src, img in zip(sources, images):
                assert img.values == src.values
                assert revmaj(img) == revmaj(src)
                assert 0 in is_adr(img).valid_shifts


class TestDelta:
    def test_table_outputs(self):
        for src, outs in DELTA_TABLE.items():
            word = parse_perm(src)
            for m, out in enumerate(outs, start=1):
                assert delta(m, word) == parse_perm(out)

    def test_revmaj_growth(self):
        for src in DELTA_TABLE:
            word = parse_perm(src)
            n = word.n + 1
            for m in range(1, n + 1):
                assert revmaj(delta(m, word)) == revmaj(word) + n - m

    def test_generates_each_representative_once(self):
        n = 4
        images = [
            delta(m, w.word)
            for m in range(1, n + 1)
            for k in range(n - 1)
            for w in all_adrs(n - 1, k)
            if 0 in w.valid_shifts
        ]
        targets = [
            w.word
            for k in range(n)
            if (n - k) % 2 == 1
            for w in all_adrs(n, k)
        ]
        assert sorted(map(str, images)) == sorted(map(str, targets))


class TestFastSums:
    def test_table_values(self):
        assert S_fast(1, 0) == TPoly.one()
        assert S_fast(2, 0) == TPoly.zero()
        assert S_fast(2, 1) == TPoly([1, 1])
        assert S_fast(3, 0) == TPoly([0, 1, 1, 1])
        assert S_fast(3, 1) == TPoly.zero()
        assert S_fast(3, 2) == TPoly([1, 1, 1])
        assert D_fast(1, 0) == TPoly.one()
        assert D_fast(2, 0) == TPoly([0, 1])
        assert D_fast(2, 1) == TPoly.one()
        assert D_fast(3, 0) == TPoly([0, 0, 1, 1])
        assert D_fast(3, 1) == TPoly([0, 2, 1])
        assert D_fast(3, 2) == TPoly.one()

    def test_matches_brute(self):
        for n in range(1, 5):
            for k in range(n):
                assert S_fast(n, k) == S_brute(n, k)
                assert D_fast(n, k) == D_brute(n, k)

    def test_recursion(self):
        for n in range(1, 7):
            for k in range(n):
                assert S_recursive(n, k) == S_fast(n, k)
        assert S_recursive(3, 0) == t_analog(3) * D_fast(2, 0)

    def test_factorial_identity(self):
        for n in range(1, 7):
            s = TPoly.zero()
            d = TPoly.zero()
            for k in range(n):
                s = s + S_fast(n, k)
                d = d + D_fast(n, k)
            assert s == d == t_factorial(n)

    def test_euler_specialization(self):
        assert euler_specialization(1) == TPoly.one()
        assert euler_specialization(3) == TPoly([0, 1, 1, 1])
        assert euler_specialization(5) == S_fast(5, 0)
        with pytest.raises(ValueError):
            euler_specialization(4)
