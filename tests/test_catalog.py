import re
from fractions import Fraction

import pytest

from sumkit import catalog
from sumkit.catalog import CatalogError
from sumkit.contacts import (
    ContactMultiset,
    IntersectionMatrix,
    enumerate_multisets,
)
from sumkit.gluing import (
    GluingError,
    convolve,
    identity_element,
    moduli_dimension,
    riemann_surface_geometry,
    s_matrix,
)
from sumkit.oracles import divisor_sum
from sumkit.series import Series


def end(*pairs):
    """The contact end holding one point per listed ``(a, i)`` pair."""
    return ContactMultiset([(pair, 1) for pair in pairs])


class TestSphereCovers:
    def test_full_multiplicity_cover(self):
        assert catalog.p1_rel(3, 0, end((3, 0)), end((3, 0))) == Fraction(1, 3)

    def test_positive_genus_vanishes(self):
        assert catalog.p1_rel(2, 1, end((2, 0)), end((2, 0))) == 0

    def test_split_contact_vanishes(self):
        assert catalog.p1_rel(2, 0, end((1, 0), (1, 0)), end((2, 0))) == 0

    def test_degree_mismatch_rejected(self):
        with pytest.raises(CatalogError):
            catalog.p1_rel(3, 0, end((2, 0)), end((3, 0)))

    def test_branch_point_three_contacts(self):
        assert catalog.p1_rel_branch(
            2, 0, end((2, 0)), end((1, 0), (1, 0))) == 1

    def test_branch_point_two_contacts_vanishes(self):
        assert catalog.p1_rel_branch(2, 0, end((2, 0)), end((2, 0))) == 0

    def test_branch_point_positive_genus_vanishes(self):
        assert catalog.p1_rel_branch(
            3, 1, end((3, 0)), end((1, 0), (1, 0), (1, 0))) == 0

    def test_values_respect_dimension_count(self):
        geo = riemann_surface_geometry()
        for d in range(1, 7):
            for g in range(0, 3):
                value = catalog.p1_rel(d, g, end((d, 0)), end((d, 0)))
                if value:
                    dim = moduli_dimension(geo, (d,), 2 - 2 * g, 0,
                                           (end((d, 0)), end((d, 0))), 2)
                    assert dim == 0

    def test_branch_point_level_values(self):
        # the one-branch-point cylinder's values on every pair of partition
        # ends; a point is counted once per unit of count, so the end
        # ``1^2(0)`` holds two points though it has one label
        hits = 0
        for d in range(1, 6):
            for top in enumerate_multisets(d, 1):
                for bottom in enumerate_multisets(d, 1):
                    points = sum(n for _, n in top) + sum(n for _, n in bottom)
                    value = catalog.p1_rel_branch(d, 0, top, bottom)
                    assert value == (1 if points == 3 else 0)
                    hits += value
        assert hits == 12


class TestEnds:
    @pytest.mark.parametrize("call, error", [
        (lambda s: catalog.p1_rel(2, 0, s, end((2, 0))), CatalogError),
        (lambda s: catalog.p1_rel_branch(2, 0, end((2, 0)), s), CatalogError),
        (lambda s: catalog.ruled_rel(1, 0, 2, 0, s, end((2, 0))),
         CatalogError),
        (lambda s: moduli_dimension(riemann_surface_geometry(), (2,), 2, 0,
                                    s + s, 2), GluingError),
    ], ids=["p1_rel", "p1_rel_branch", "ruled_rel", "moduli_dimension"])
    def test_a_list_of_pairs_is_rejected(self, call, error):
        with pytest.raises(error, match=re.escape("(2, 0)")
                           + ".* is not a ContactMultiset"):
            call([(2, 0)])


class TestSphereCoverSeries:
    def test_equals_convolution_unit(self):
        q = IntersectionMatrix.point_pairing()
        tw = catalog.p1_tw_series(6)
        assert tw == identity_element(riemann_surface_geometry(), q, 6)

    def test_scattering_is_trivial(self):
        q = IntersectionMatrix.point_pairing()
        tw = catalog.p1_tw_series(5)
        assert s_matrix(tw, q) == tw

    def test_self_gluing(self):
        q = IntersectionMatrix.point_pairing()
        tw = catalog.p1_tw_series(5)
        assert convolve(tw, tw, q) == tw


class TestTorus:
    def test_first_coefficient(self):
        assert catalog.torus_rel_series(4).coefficient({"t": 1}) == 1

    def test_divisor_sum_of_four(self):
        assert catalog.torus_rel_series(6).coefficient({"t": 4}) == 7

    def test_matches_trial_division(self):
        series = catalog.torus_rel_series(30)
        for n in range(1, 31):
            assert series.coefficient({"t": n}) == divisor_sum(n)


class TestProductFibration:
    def test_fiber_absolute_doubles(self):
        assert catalog.t2s2_series("df-absolute", 4).coefficient({"t": 2}) == 6

    def test_fiber_relative(self):
        assert catalog.t2s2_series("df-relF", 4).coefficient({"t": 2}) == 3

    def test_section_series_is_derivative(self):
        got = catalog.t2s2_series("s+df-relF", 6)
        g = catalog.torus_rel_series(7)
        assert got == g.differentiate("t")
        # 3 sigma(3) = 12 sits on the t^2 coefficient of the derivative
        assert got.coefficient({"t": 2}) == 12
        assert got.coefficient({"t": 3}) == 4 * divisor_sum(4)

    def test_section_absolute_doubles(self):
        a = catalog.t2s2_series("s+df-absolute", 8)
        r = catalog.t2s2_series("s+df-relF", 8)
        assert a == r * 2

    def test_unknown_family(self):
        with pytest.raises(CatalogError):
            catalog.t2s2_series("nope", 3)

    def test_two_fiber_family_vanishes(self):
        assert catalog.t2s2_two_fiber("df", "p^2", 5).is_zero()

    def test_two_fiber_section_supported_at_trivial_class(self):
        assert catalog.t2s2_two_fiber("s+df", "p;C1(p)", 5) \
            == catalog.t2s2_series("s+df-relF", 5)

    def test_two_fiber_double_fixed_vanishes(self):
        assert catalog.t2s2_two_fiber("s+df", "C1(p);C1(p)", 5).is_zero()


class TestRuled:
    def test_fiber_class_tensor_value(self):
        value = catalog.ruled_rel(1, 0, 3, 0, end((3, 0)), end((3, 0)), "none")
        assert type(value) is Fraction and value == Fraction(1, 3)

    def test_fiber_class_point_constraint(self):
        assert catalog.ruled_rel(
            1, 0, 2, 0, end((2, 0)), end((2, 0)), "point") == 1

    def test_section_class_fixed_contacts(self):
        assert catalog.ruled_rel(1, 1, 0, 0, end(), end((1, 0)), "point",
                                 contacts_fixed=True) == 1

    def test_section_class_moving_contacts_vanish(self):
        assert catalog.ruled_rel(1, 1, 0, 0, end(), end((1, 0)), "point") == 0

    def test_positive_genus_vanishes(self):
        assert catalog.ruled_rel(
            1, 0, 2, 1, end((2, 0)), end((2, 0)), "none") == 0

    def test_split_contacts_vanish(self):
        assert catalog.ruled_rel(
            0, 0, 2, 0, end((1, 0), (1, 0)), end((2, 0)), "none") == 0

    def test_degree_pairing_enforced(self):
        with pytest.raises(CatalogError):
            catalog.ruled_rel(1, 1, 1, 0, end((1, 0)), end((1, 0)), "point")

    def test_nonzero_values_pass_dimension_filter(self):
        for n in (0, 1, 2):
            for a in (0, 1):
                for b in range(0, 4):
                    for g in (0, 1):
                        if b == 0 and a == 0:
                            continue
                        try:
                            value = catalog.ruled_rel(
                                n, a, b, g, end((b, 0)) if b else end(),
                                end((b + n * a, 0)) if b + n * a else end(),
                                "point", contacts_fixed=True)
                        except CatalogError:
                            continue
                        if value:
                            assert catalog.vanishing_filter(a, g, 1)


class TestVanishingFilter:
    def test_unconstrained_fiber(self):
        assert catalog.vanishing_filter(0, 0, 0)

    def test_section_genus_one_killed(self):
        assert not catalog.vanishing_filter(1, 1, 0)

    def test_section_with_point_allowed(self):
        assert catalog.vanishing_filter(1, 0, 1)


class TestEntries:
    def test_names(self):
        entries = catalog.catalog_entries()
        for name in ("p1", "torus", "t2xs2", "ruled:1"):
            assert name in entries

    def test_producers_run(self):
        entries = catalog.catalog_entries()
        assert isinstance(entries["torus"].producer(4), Series)
        rows = entries["ruled:2"].producer(3)
        assert [(row["class"], row["tensor"]) for row in rows] == [
            ("1F", True), ("2F", True), ("3F", True), ("S", False)]
