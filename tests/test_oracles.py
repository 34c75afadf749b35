import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from sumkit.contacts import partitions
from sumkit.oracles import (
    branch_count_rh,
    divisor_sum,
    hurwitz_oracle,
    kontsevich_oracle,
    node_polynomial,
)


class TestDivisorSum:
    def test_one(self):
        assert divisor_sum(1) == 1

    def test_four(self):
        assert divisor_sum(4) == 7

    def test_twelve(self):
        assert divisor_sum(12) == 28

    def test_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97):
            assert divisor_sum(p) == p + 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisor_sum(0)


class TestHurwitzOracle:
    def test_trivial_cover(self):
        assert hurwitz_oracle(1, 0, (1,)) == 1

    def test_double_cover(self):
        assert hurwitz_oracle(2, 0, (2,)) == Fraction(1, 2)

    def test_unbranched_profile(self):
        assert hurwitz_oracle(2, 0, (1, 1)) == Fraction(1, 2)

    def test_triple_cover(self):
        assert hurwitz_oracle(3, 0, (3,)) == 1

    def test_branch_counts(self):
        assert branch_count_rh(1, 0, (1,)) == 0
        assert branch_count_rh(2, 0, (2,)) == 1
        assert branch_count_rh(2, 0, (1, 1)) == 2

    def test_symmetric_in_partition_order(self):
        for alpha in [(2, 1), (1, 2)]:
            assert hurwitz_oracle(3, 0, alpha) == 4

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            hurwitz_oracle(7, 0, (7,))

    def test_not_a_partition(self):
        with pytest.raises(ValueError):
            hurwitz_oracle(3, 0, (2, 2))


def unreduced_hurwitz_count(d, g, alpha):
    """Every r-tuple of transpositions, no symmetry used: the reference for
    the oracle's count of tuples that start with (0 1)."""
    r = branch_count_rh(d, g, alpha)
    if r < 0:
        return Fraction(0)
    target = tuple(sorted(alpha, reverse=True))
    transpositions = list(itertools.combinations(range(d), 2))
    count = 0
    for tup in itertools.product(transpositions, repeat=r):
        perm = list(range(d))
        for i, j in tup:
            perm[i], perm[j] = perm[j], perm[i]
        cycles, seen = [], set()
        for s in range(d):
            length = 0
            while s not in seen:
                seen.add(s)
                s = perm[s]
                length += 1
            if length:
                cycles.append(length)
        if tuple(sorted(cycles, reverse=True)) != target:
            continue
        orbit, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for i, j in tup:
                y = j if x == i else i if x == j else None
                if y is not None and y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        count += len(orbit) == d
    return Fraction(count, math.factorial(d))


def test_oracle_equals_unreduced_enumeration_up_to_degree_four():
    checked = 0
    for d in range(1, 5):
        for alpha in partitions(d):
            for g in range(0, 4):
                if branch_count_rh(d, g, alpha) > 6:
                    continue
                assert hurwitz_oracle(d, g, alpha) \
                    == unreduced_hurwitz_count(d, g, alpha), (d, g, alpha)
                checked += 1
    assert checked == 25


class TestKontsevichOracle:
    def test_seed(self):
        assert kontsevich_oracle(1) == 1

    def test_first_values(self):
        assert [kontsevich_oracle(d) for d in range(1, 6)] == [
            1, 1, 12, 620, 87304]

    def test_positive(self):
        assert all(kontsevich_oracle(d) > 0 for d in range(1, 8))


class TestNodePolynomial:
    def test_classical_values(self):
        # one-nodal cubics, two-nodal quartics, the 15 triangles through
        # six points, and the 620 rational quartics with 55 cubic + line
        assert node_polynomial(3, 1) == 12
        assert node_polynomial(4, 2) == 225
        assert node_polynomial(3, 3) == 15
        assert node_polynomial(4, 3) == 675

    def test_no_nodal_lines_or_two_nodal_conics(self):
        assert [node_polynomial(d, delta) for d in (1, 2)
                for delta in (1, 2)] == [0, 0, 3, 0]

    def test_halved_forms_are_exact(self):
        for d in range(3, 40):
            assert 2 * node_polynomial(d, 2) \
                == 3 * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11)
            assert 2 * node_polynomial(d, 3) == sum(
                c * d ** k for k, c in enumerate(
                    (1050, -829, -458, 423, 9, -54, 9)))

    @pytest.mark.parametrize("d, delta, message", [
        (0, 1, "needs d >= 1, got 0"),
        (0, 2, "needs d >= 1, got 0"),
        (2, 3, "needs d >= 3, got 2"),
        (5, 0, "delta = 1, 2, 3, not 0"),
        (5, 4, "delta = 1, 2, 3, not 4"),
    ])
    def test_rejects_keys_outside_the_ranges(self, d, delta, message):
        with pytest.raises(ValueError, match=message):
            node_polynomial(d, delta)


def test_import_firewall():
    """The oracle module must not import the engines it validates."""
    source = Path(__file__).resolve().parent.parent \
        / "src" / "sumkit" / "oracles.py"
    tree = ast.parse(source.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.startswith("sumkit") for name in imported), imported
