import copy
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
import textwrap
import threading
import weakref
from fractions import Fraction

import pytest

from sumkit import catalog, contacts, gluing
from sumkit.contacts import (
    ContactMultiset,
    IntersectionMatrix,
    enumerate_multisets,
    glue_weights,
)
from sumkit.gluing import (
    Geometry,
    GluingError,
    RelKey,
    RelSeries,
    convolve,
    convolve_via_operator,
    gw_from_tw,
    identity_element,
    moduli_dimension,
    neck_geometry,
    neck_identity,
    relseries_to_json,
    riemann_surface_geometry,
    s_matrix,
    tag_mul,
    tw_from_gw,
)

POINT = IntersectionMatrix.point_pairing()
SPHERE = IntersectionMatrix.sphere_pairing()
# a pairing with a fractional entry, so dual weights have denominators
TWISTED = IntersectionMatrix([[0, 1], [1, Fraction(1, 2)]])
# tags as a caller may write them: the unit, atoms, a power, and "q;p",
# which a key stores as "p;q"
TAGS = ("1", "p", "q", "p;q", "q;p", "p^2")


def single(a, i=0):
    return ContactMultiset([((a, i), 1)])


def random_two_ended(rng, geo, cutoff, basis, min_base=0):
    """A random two-ended series with at least one term: a draw in which
    every term drops out (coefficient 0, or beyond the cutoff) is drawn
    again, so no caller tests only the empty series."""
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            d = rng.randint(0, 2)
            b = rng.randint(min_base, max(min_base, 2))
            if d + b > cutoff:
                continue
            options = enumerate_multisets(d, basis)
            key = RelKey((d, b), 2 * rng.randint(-1, 1),
                         (rng.choice(options), rng.choice(options)))
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if c:
                terms[key] = terms.get(key, Fraction(0)) + c
        terms = {k: v for k, v in terms.items() if v}
        if terms:
            break
    assert terms, "no draw kept a term"
    return RelSeries(geo, 2, cutoff, terms)


class TestRelSeries:
    def test_contact_degree_enforced(self):
        geo = riemann_surface_geometry()
        with pytest.raises(GluingError):
            RelSeries(geo, 2, 5, {
                RelKey((2,), 2, (single(1), single(2))): 1})

    def test_grading_cutoff_enforced(self):
        geo = riemann_surface_geometry()
        with pytest.raises(GluingError):
            RelSeries(geo, 2, 3, {
                RelKey((4,), 2, (single(4), single(4))): 1})

    # A term whose class an earlier term already passed is still checked
    # in full.
    @pytest.mark.parametrize("second, message", [
        (RelKey((2,), 0, (single(3), single(2))), "contact degree 3"),
        (RelKey((2,), 0, (single(2), single(1))), "contact degree 1"),
        (RelKey((2,), 0, (single(2),)), "wrong number of ends"),
        (RelKey((3,), 2, (single(3), single(2))), "contact degree 2"),
    ])
    def test_every_term_checked_after_its_class(self, second, message):
        geo = riemann_surface_geometry()
        first = RelKey((2,), 2, (single(2), single(2)))
        with pytest.raises(GluingError, match=message):
            RelSeries(geo, 2, 5, {first: 1, second: 1})

    @pytest.mark.parametrize("contact", [
        ((((1, 0), 1),)), "1^1(0)", None, frozenset(), [((1, 0), 1)]])
    def test_contact_that_is_not_a_multiset_is_rejected(self, contact):
        geo = neck_geometry(base_dim=1)
        with pytest.raises(GluingError, match="not a ContactMultiset"):
            RelSeries(geo, 2, 3, {RelKey((1, 0), 2, (contact,) * 2): 1})

    # a list is unhashable: the key rejects it before its table is read
    @pytest.mark.parametrize("class_key, contacts, message", [
        ([1, 0], (single(1), single(1)), "must hold ints in a tuple"),
        ((1, 0), [single(1), single(1)], "must be a tuple"),
    ], ids=["list-class", "list-contacts"])
    def test_key_fields_of_the_wrong_structure_are_rejected(
            self, class_key, contacts, message):
        before = len(gluing._LIVE_KEYS)
        with pytest.raises(GluingError, match=message):
            RelKey(class_key, 2, contacts)
        assert len(gluing._LIVE_KEYS) == before

    @staticmethod
    def _outside_basis():
        m = ContactMultiset([((1, 5), 1)])
        return neck_geometry(1, 2), {RelKey((1, 1), 0, (m, m)): 1}

    def test_contact_label_outside_the_basis_is_rejected(self):
        geo, terms = self._outside_basis()
        with pytest.raises(GluingError,
                           match=r"label \(1, 5\).*v_basis=2"):
            RelSeries(geo, 2, 4, terms)
        bad = RelSeries._trusted(geo, 2, 4, {k: Fraction(v)
                                             for k, v in terms.items()})
        with pytest.raises(GluingError, match="v_basis=2"):
            pickle.loads(pickle.dumps(bad))

    # such a label stops at the constructor, before either route sees it;
    # a label inside the basis glues alike on both
    @pytest.mark.parametrize("route", [convolve, convolve_via_operator])
    def test_no_glue_route_sees_a_label_outside_the_basis(self, route):
        geo, terms = self._outside_basis()
        with pytest.raises(GluingError, match=r"label \(1, 5\)"):
            x = RelSeries(geo, 2, 4, terms)
            route(x, x, SPHERE)
        inside = {RelKey((1, 1), 0, (single(1, 1), single(1, 1))): 1}
        x = RelSeries(geo, 2, 4, inside)
        assert route(x, x, SPHERE) == convolve(x, x, SPHERE)

    def test_keys_built_apart_are_equal_and_hash_equal(self):
        a = ContactMultiset([((1, 0), 1), ((2, 1), 1), ((1, 0), 1)])
        b = ContactMultiset([((2, 1), 1), ((1, 0), 2)])
        c = ContactMultiset(tuple(a))
        assert a == b == c
        assert hash(a) == hash(b) == hash(c) and a is b is c
        k1 = RelKey((3, 1), -2, (a, ContactMultiset()), "p")
        k2 = RelKey((3, 1), -2, (c, ContactMultiset([])), "p")
        assert k1 == k2 and hash(k1) == hash(k2)
        assert {k1: 1}[k2] == 1
        assert k1 != RelKey((3, 1), -2, (a, ContactMultiset()), "q")

    def test_relkey_fields_repr_and_json(self):
        assert [f.name for f in dataclasses.fields(RelKey)] == \
            ["class_key", "chi", "contacts", "tag"]
        key = RelKey((1, 0), 2, (single(1), single(1, 1)))
        assert repr(key) == (
            "RelKey(class_key=(1, 0), chi=2, contacts=(ContactMultiset("
            "'1^1(0)'), ContactMultiset('1^1(1)')), tag='1')")
        assert key.to_json() == {"class": [1, 0], "chi": 2,
                                 "contacts": ["1^1(0)", "1^1(1)"],
                                 "tag": "1"}
        assert key < RelKey((1, 0), 2, (single(1, 1), single(1)))

    def test_sum_truncates_to_smaller_cutoff(self):
        geo = riemann_surface_geometry()
        low = identity_element(geo, POINT, 2)
        high = identity_element(geo, POINT, 4)
        assert len(high.terms) > len(low.terms)
        for total in (low + high, high + low, high - low.scale(-1)):
            assert total.cutoff == 2
            assert total == low.scale(2)

    def test_json_terms_canonically_ordered(self):
        geo = riemann_surface_geometry()
        series = identity_element(geo, POINT, 4)
        rows = relseries_to_json(series)
        assert rows == sorted(
            rows, key=lambda t: (t["class"], t["chi"],
                                 t["contacts"], t["tag"]))


class TestTags:
    def test_unit(self):
        assert tag_mul("1", "p") == "p"
        assert tag_mul("p", "1") == "p"

    def test_commutative_canonical(self):
        assert tag_mul("p", "C1(p)") == "C1(p);p"
        assert tag_mul("C1(p)", "p") == "C1(p);p"

    def test_powers_accumulate(self):
        assert tag_mul("p", "p") == "p^2"
        assert tag_mul("p^2", "p") == "p^3"

    def test_zero_powers_are_dropped(self):
        # equal tags name one key: p^0 is the unit, and p^0 * p is p
        assert tag_mul("p^0", "1") == "1"
        assert tag_mul("p^0", "p") == "p"

    def test_a_key_stores_its_tag_in_canonical_form(self):
        def key(tag):
            return RelKey((1, 0), 2, (single(1),) * 2, tag)

        assert key("q;p") == key("p;q")
        assert hash(key("q;p")) == hash(key("p;q"))
        for written, canonical in (("q;p", "p;q"), ("p;p", "p^2"),
                                   ("p^1", "p"), ("p^0", "1"), ("1;p", "p"),
                                   ("C1(p);p", "C1(p);p"),
                                   # a superscript digit is no power
                                   ("p^²", "p^²")):
            assert key(written).tag == canonical
            assert pickle.loads(pickle.dumps(key(written))) == key(canonical)
        for tag in (None, 1, b"p", ("p",)):
            with pytest.raises(GluingError, match="tag must be a str"):
                key(tag)

    def test_every_stored_tag_is_its_own_product_with_the_unit(self):
        # a unit atom at any power, a blank atom or base, and a base that
        # reads as a power itself
        for written, canonical in (("1^1;p", "p"), ("1^2", "1"),
                                   ("p;1^3;q", "p;q"), (" ;p; ", "p"),
                                   ("p ^2", "p^2"), ("^1;p", "^1;p"),
                                   ("p^1^1", "p^1^1"), ("p^2^1", "p^2^1"),
                                   ("p^1^2;p^1", "p;p^1^2")):
            assert tag_mul(written, "1") == canonical
            assert RelKey((1, 0), 2, (single(1),) * 2, written).tag == \
                canonical
        rng = random.Random(3)
        pieces = ("p", "q", "1", "^", "0", "2", ";", " ", "²", "^1")
        written = ["".join(rng.choices(pieces, k=rng.randint(0, 8)))
                   for _ in range(3000)]
        for tag in TAGS + ("C1(p);p", "p^x", "^2", *written):
            stored = RelKey((1, 0), 2, (single(1),) * 2, tag).tag
            assert tag_mul(stored, "1") == tag_mul("1", stored) == stored

    # a unit factor on either side, two atoms, a shared atom, and a tag
    # written non-canonically
    @pytest.mark.parametrize("t1, t2", [
        ("1", "p"), ("p", "1"), ("1", "1"), ("p", "q"), ("p;q", "p"),
        ("q;p", "p"), ("1", "q;p"), ("q;p", "1"), ("1^1;p", "1")])
    def test_products_tag_each_key_with_the_product_of_the_tags(self, t1,
                                                                t2):
        geo = neck_geometry(base_dim=1, v_basis=2)
        a, b = single(1, 0), single(1, 1)
        x = RelSeries(geo, 2, 4, {RelKey((1, 1), 0, (a, a), t1): 2})
        y = RelSeries(geo, 2, 4, {RelKey((1, 0), 2, (b, a), t2): 3})
        for product in (convolve(x, y, SPHERE), x.disjoint_mul(y),
                        y.disjoint_mul(x)):
            assert product.terms
            assert {k.tag for k in product.terms} == {tag_mul(t1, t2)}
        assert convolve(x, y, SPHERE) == convolve_via_operator(x, y, SPHERE)

    @pytest.mark.parametrize("tag", ["q;p", "p;p", "p^1"])
    def test_unit_law_and_exp_log_hold_however_a_tag_is_written(self, tag):
        geo = neck_geometry(base_dim=1, v_basis=2)
        x = RelSeries(geo, 2, 3, {
            RelKey((1, 1), 0, (single(1, 0), single(1, 1)), tag): 3})
        ident = identity_element(geo, SPHERE, 3)
        assert convolve(x, ident, SPHERE) == x
        assert convolve(ident, x, SPHERE) == x
        assert gw_from_tw(tw_from_gw(x)) == x


class TestRelSeriesBoundary:
    @pytest.mark.parametrize("end_count", [3, -1, 1.0, True, None])
    def test_end_count_must_be_the_int_0_1_or_2(self, end_count):
        # a float end count passed the constructor, then broke exp and log
        with pytest.raises(GluingError, match="end_count must be"):
            RelSeries(riemann_surface_geometry(), end_count, 3)

    def test_class_key_entry_must_be_an_int(self):
        # exp steps through integer grades, so a term of grade 1.5 was
        # accepted here and then silently dropped by tw_from_gw
        geo = Geometry(class_dim=1, v_degree=(0,), canonical_k=(0,),
                       grading=(1,))
        with pytest.raises(GluingError, match="must hold ints"):
            RelSeries(geo, 1, 3, {RelKey((1.5,), 2, (ContactMultiset(),)): 1})


class TestGeometryBoundary:
    @pytest.mark.parametrize("field, value", [
        ("v_degree", (1.0,)),
        ("canonical_k", (-2.5,)),
        ("grading", (0.5,)),
        ("grading", (True,)),
        ("fiber", (1.0,)),
        ("class_dim", 1.0),
        ("v_basis", 2.0),
    ])
    def test_non_int_entry_is_rejected(self, field, value):
        fields = dict(class_dim=1, v_degree=(1,), canonical_k=(0,),
                      grading=(1,), fiber=(1,))
        fields[field] = value
        with pytest.raises(GluingError, match="must (be an int|hold ints)"):
            Geometry(**fields)


class TestExpLog:
    def test_exp_of_zero_is_unit(self):
        geo = riemann_surface_geometry()
        zero = RelSeries(geo, 1, 5)
        assert tw_from_gw(zero) == RelSeries.one(geo, 1, 5)

    def test_single_term_squares(self):
        # contactless sector: coefficient c becomes c^2/2 at the doubled key
        geo = Geometry(class_dim=1, v_degree=(0,), canonical_k=(0,),
                       grading=(1,), v_basis=1)
        gw = RelSeries(geo, 1, 6, {
            RelKey((2,), -2, (ContactMultiset(),)): Fraction(3)})
        tw = tw_from_gw(gw)
        key = RelKey((4,), -4, (ContactMultiset(),))
        assert tw.coefficient(key) == Fraction(9, 2)

    def test_single_term_squares_with_contacts(self):
        # with contact multisets the divided-power normalization adds the
        # binomial count of ways to split the merged multiset: c^2/2 * C(2,1)
        geo = riemann_surface_geometry()
        gw = RelSeries(geo, 1, 6, {RelKey((2,), 2, (single(2),)): Fraction(3)})
        tw = tw_from_gw(gw)
        key = RelKey((4,), 4, (ContactMultiset([((2, 0), 2)]),))
        assert tw.coefficient(key) == Fraction(9, 2) * 2

    def test_roundtrip(self):
        rng = random.Random(5)
        geo = neck_geometry(base_dim=1, v_basis=2)
        for _ in range(10):
            gw = random_two_ended(rng, geo, 5, 2, min_base=1)
            assert gw_from_tw(tw_from_gw(gw)) == gw

    def test_grading_zero_obstruction(self):
        geo = riemann_surface_geometry()
        gw = RelSeries(geo, 1, 5, {RelKey((0,), 0, (ContactMultiset(),)): 1})
        with pytest.raises(GluingError):
            tw_from_gw(gw)

    @pytest.mark.parametrize("empty", [0, 2, -1, Fraction(1, 2)])
    def test_log_needs_coefficient_one_on_the_empty_key(self, empty):
        tw = RelSeries.one(riemann_surface_geometry(), 1, 5).scale(empty)
        with pytest.raises(GluingError, match="coefficient 1 on the empty"):
            gw_from_tw(tw)


class TestConvolve:
    def test_identity_element_is_identity(self):
        rng = random.Random(11)
        geo = neck_geometry(base_dim=1, v_basis=2)
        ident = identity_element(geo, SPHERE, 4)
        for _ in range(10):
            series = random_two_ended(rng, geo, 4, 2)
            assert convolve(ident, series, SPHERE) == series
            assert convolve(series, ident, SPHERE) == series

    def test_euler_characteristic_gluing(self):
        """Gluing the class-zero point-count terms adds the two counts."""
        geo = Geometry(class_dim=1, v_degree=(0,), canonical_k=(0,),
                       grading=(1,), v_basis=1)
        chi_x, chi_y, chi_v = 24, 46, 2

        def side(value):
            terms = {
                RelKey((0,), 0, (ContactMultiset(),), "chi"): value,
                RelKey((0,), 0, (ContactMultiset(),), "1"): 1,
            }
            return RelSeries(geo, 1, 3, terms)

        glued = convolve(side(chi_x - chi_v), side(chi_y - chi_v), POINT,
                         glue=lambda k1, k2, deg_m: geo.add(k1, k2),
                         out_geometry=geo)
        key = RelKey((0,), 0, (), "chi")
        assert glued.coefficient(key) == chi_x + chi_y - 2 * chi_v

    def test_sphere_self_gluing_reproduces_covers(self):
        geo = riemann_surface_geometry()
        ident = identity_element(geo, POINT, 8)
        glued = convolve(ident, ident, POINT)
        assert glued == ident
        connected = gw_from_tw(glued)
        for d in range(1, 9):
            key = RelKey((d,), 2, (single(d), single(d)))
            assert connected.coefficient(key) == Fraction(1, d)

    def test_chi_and_degree_conservation(self):
        rng = random.Random(23)
        geo = neck_geometry(base_dim=1, v_basis=2)
        x = random_two_ended(rng, geo, 4, 2)
        y = random_two_ended(rng, geo, 4, 2)
        glued = convolve(x, y, SPHERE)
        for key in glued.terms:
            # output contacts pair against the class through the divisor
            for m in key.contacts:
                assert sum(a * n for (a, _), n in m) \
                    == geo.pair_v(key.class_key)
            assert key.chi % 2 == 0

    def test_associative_across_middle_factor(self):
        rng = random.Random(29)
        geo = neck_geometry(base_dim=1, v_basis=2)
        for _ in range(8):
            x = random_two_ended(rng, geo, 4, 2)
            m = random_two_ended(rng, geo, 4, 2)
            y = random_two_ended(rng, geo, 4, 2)
            assert convolve(convolve(x, m, SPHERE), y, SPHERE) \
                == convolve(x, convolve(m, y, SPHERE), SPHERE)

    def test_operator_route_agrees(self):
        rng = random.Random(31)
        geo = neck_geometry(base_dim=1, v_basis=2)
        q = IntersectionMatrix([[0, 1], [1, 1]])
        ident = identity_element(geo, q, 3)
        assert convolve_via_operator(ident, ident, q) == ident
        for _ in range(15):
            x = random_two_ended(rng, geo, 3, 2)
            y = random_two_ended(rng, geo, 3, 2)
            assert convolve(x, y, q) == convolve_via_operator(x, y, q)

    def test_operator_route_agrees_with_tags_and_unmatched_ends(self):
        # y has no fiber degree 2, so every x end of degree 2 meets nothing
        rng = random.Random(47)
        geo = neck_geometry(base_dim=1, v_basis=2)
        q = IntersectionMatrix([[0, 1], [1, Fraction(1, 2)]])

        def tagged(max_fiber):
            terms = {}
            while len(terms) < 5:
                d = rng.randint(0, max_fiber)
                options = enumerate_multisets(d, 2)
                key = RelKey((d, rng.randint(0, 3 - d)),
                             2 * rng.randint(-1, 1),
                             (rng.choice(options), rng.choice(options)),
                             rng.choice(("1", "p", "q;p")))
                terms[key] = Fraction(rng.choice((-3, -1, 1, 2)),
                                      rng.randint(1, 3))
            return RelSeries(geo, 2, 3, terms)

        unmatched = 0
        for _ in range(15):
            x, y = tagged(2), tagged(1)
            unmatched += sum(k.class_key[0] == 2 for k in x.terms)
            glued = convolve(x, y, q)
            assert glued == convolve_via_operator(x, y, q)
        assert unmatched

    def test_x_class_of_a_degree_y_lacks_builds_no_table(self, monkeypatch):
        # y starts only on degree-1 ends, so x's degree-2 class is skipped
        geo = neck_geometry(base_dim=1, v_basis=2)
        x = RelSeries(geo, 2, 4, {
            RelKey((1, 1), 0, (single(1, 0), single(1, 0))): 2,
            RelKey((2, 1), 0, (single(2, 0), single(2, 1))): 3})
        y = RelSeries(geo, 2, 4, {
            RelKey((1, 0), 2, (single(1, 1), single(1, 0))): 5})
        degrees = []

        def recorded(degree, q):
            degrees.append(degree)
            return glue_weights(degree, q)

        monkeypatch.setattr(gluing, "glue_weights", recorded)
        glued = convolve(x, y, SPHERE)
        assert degrees == [1]
        assert glued == convolve_via_operator(x, y, SPHERE)
        assert not glued.is_zero()

    def test_products_over_different_denominators_add_or_cancel(self):
        # x(a) y(b) and x(b) y(a) both land on the class (0, 3): over the
        # denominators 2 and 3 they add to 5/6, over 2 and 6 they cancel
        geo = neck_geometry(base_dim=1, v_basis=2)
        none = (ContactMultiset(), ContactMultiset())
        a, b = RelKey((0, 1), 0, none), RelKey((0, 2), 0, none)
        aa, ab, bb = (RelKey((0, n), 0, none) for n in (2, 3, 4))
        x = RelSeries(geo, 2, 4, {a: Fraction(1, 2), b: Fraction(1, 3)})
        for y_a, cross in ((1, Fraction(5, 6)), (Fraction(-3, 2), 0)):
            y = RelSeries(geo, 2, 4, {a: y_a, b: 1})
            glued = convolve(x, y, SPHERE)
            assert dict(glued.terms) == {
                aa: y_a * Fraction(1, 2), bb: Fraction(1, 3),
                **({ab: cross} if cross else {})}
            assert all(type(c) is Fraction for c in glued.terms.values())
            assert glued == convolve_via_operator(x, y, SPHERE)

    def test_pairing_size_mismatch(self):
        geo = riemann_surface_geometry()
        ident = identity_element(geo, POINT, 3)
        with pytest.raises(GluingError):
            convolve(ident, ident, SPHERE)


def _clear_neck_memos():
    gluing._neck_step.cache_clear()
    gluing._neck_index.cache_clear()


@pytest.fixture
def fresh_neck_steps():
    """Clear the neck step memo and its index memo before and after a
    test."""
    _clear_neck_memos()
    yield
    _clear_neck_memos()


class TestScattering:
    def test_scattering_of_unit_is_unit(self):
        geo = neck_geometry(base_dim=1, v_basis=1)
        ident = identity_element(geo, POINT, 4)
        assert s_matrix(ident, POINT) == ident

    def test_dimension_two_scattering_trivial(self):
        # covers of a sphere: every map is a disjoint union of fiber covers
        geo = riemann_surface_geometry()
        ident = identity_element(geo, POINT, 6)
        assert s_matrix(ident, POINT) == ident

    def test_inverse_property(self):
        rng = random.Random(37)
        geo = neck_geometry(base_dim=1, v_basis=2)
        ident = identity_element(geo, SPHERE, 4)
        for _ in range(15):
            twf = ident + random_two_ended(rng, geo, 4, 2, min_base=1)
            s = s_matrix(twf, SPHERE)
            assert convolve(s, twf, SPHERE) == ident
            assert convolve(twf, s, SPHERE) == ident

    def test_square_nilpotent_neck_sums(self):
        rng = random.Random(41)
        geo = neck_geometry(base_dim=1, v_basis=2)
        cutoff = 4
        ident = identity_element(geo, SPHERE, cutoff)
        for _ in range(5):
            r = random_two_ended(rng, geo, cutoff, 2,
                                 min_base=cutoff // 2 + 1)
            twf = ident + r
            s = s_matrix(twf, SPHERE)
            for n in range(1, 6):
                assert neck_identity(twf, n, SPHERE) == s

    def test_neck_sums_convolve_each_power_once(self, monkeypatch,
                                                fresh_neck_steps):
        rng = random.Random(44)
        geo = neck_geometry(base_dim=1, v_basis=2)
        cutoff = 5
        ident = identity_element(geo, SPHERE, cutoff)
        r = random_two_ended(rng, geo, cutoff, 2, min_base=cutoff // 2 + 1)
        assert r
        twf = ident + r
        powers = [ident]
        for _ in range(9):
            powers.append(convolve(powers[-1], twf, SPHERE))
        calls = []
        combinations = []
        glue_pairs = gluing._glue_pairs
        linear_combination = gluing.linear_combination

        # every convolution, plain or against a prepared index, runs the
        # pair loop once
        def counted(*args):
            calls.append(args)
            return glue_pairs(*args)

        def counted_combination(pairs):
            combinations.append(pairs)
            return linear_combination(pairs)

        monkeypatch.setattr(gluing, "_glue_pairs", counted)
        monkeypatch.setattr(gluing, "linear_combination",
                            counted_combination)
        sums = []
        for n in range(1, 6):
            expected = RelSeries(geo, 2, cutoff)
            for k in range(1, 2 * n + 1):
                expected = expected + powers[k - 1].scale(
                    (-1) ** (k - 1) * math.comb(2 * n, k))
            assert neck_identity(twf, n, SPHERE) == expected
            sums.append(combinations[-1])
        # D_2..D_9 once each (D_1 = twf - unit is a sum), where separate
        # sums would convolve 25 times
        assert len(calls) == 8
        # one combination forms D_1, one D_2 and one reduces each sum; no
        # power T^k is summed up from the steps
        assert len(combinations) == 7
        # each sum is the unit, read once, plus the memoized steps
        for n, pairs in enumerate(sums, 1):
            assert pairs[0] == (1, ident)
            assert len(pairs) == 2 * n
            for i, (_, table) in enumerate(pairs[1:], 1):
                assert table is gluing._neck_step(twf, i, SPHERE), (n, i)
        # D_1 enters only the sums, never a convolution
        d1 = gluing._neck_step(twf, 1, SPHERE)
        assert all(a is not d1 for args in calls for a in args)
        # only T * T is a full product; with r * r = 0 every step D_k is
        # T^(k-1) * r = r, the left factor of each later call
        assert calls[0][0] == twf
        assert all(args[0] == r for args in calls[1:])
        # twf, the right factor of every step, is indexed once
        assert gluing._neck_index.cache_info().misses == 1
        assert all(args[1] is gluing._neck_index(twf) for args in calls)

    @pytest.mark.parametrize("base, doubled", [
        (3, False), (1, False), (1, True), (3, True)])
    def test_powers_equal_repeated_convolution(self, request,
                                               fresh_neck_steps, base,
                                               doubled):
        # base 3 > cutoff / 2 makes the residual square-zero; a doubled
        # degree-1 glue weight keeps convolution linear but breaks the unit
        # law, so steps built from twf - unit would no longer match
        rng = random.Random(47 + base)
        geo = neck_geometry(base_dim=1, v_basis=2)
        cutoff = 5
        ident = identity_element(geo, SPHERE, cutoff)
        r = random_two_ended(rng, geo, cutoff, 2, min_base=base)
        twf = ident + r
        if doubled:
            request.getfixturevalue("doubled_glue_weight")
        powers = [ident, twf]
        for _ in range(8):
            powers.append(convolve(powers[-1], twf, SPHERE))
        assert gluing._neck_step(twf, 1, SPHERE) == twf - ident
        total = ident
        for k in range(1, 10):
            step = gluing._neck_step(twf, k, SPHERE)
            assert step == powers[k] - powers[k - 1], k
            total = total + step
            assert total == powers[k], k
            if base == 3 and not doubled:
                assert step == r, k
        if doubled:
            assert twf + convolve(twf - ident, twf, SPHERE) != powers[2]

    def test_neck_sums_fail_where_the_unit_law_does(self, request):
        # a doubled degree-1 glue weight: s_matrix of a square-zero series
        # is unit - r either way, but every neck sum that convolves (n >= 2)
        # meets unit * unit and moves off it
        rng = random.Random(48)
        geo = neck_geometry(base_dim=1, v_basis=2)
        cutoff = 5
        ident = identity_element(geo, SPHERE, cutoff)
        r = random_two_ended(rng, geo, cutoff, 2, min_base=cutoff // 2 + 1)
        twf = ident + r
        s = s_matrix(twf, SPHERE)
        request.getfixturevalue("doubled_glue_weight")
        assert s_matrix(twf, SPHERE) == s == ident - r
        assert neck_identity(twf, 1, SPHERE) == s
        for n in range(2, 6):
            assert neck_identity(twf, n, SPHERE) != s, n

    @pytest.mark.parametrize("cutoff, base", [
        (4, 3), (5, 3), (6, 4), (4, 2), (6, 2), (4, 1)])
    def test_s_matrix_convolves_once_per_power_past_the_first(
            self, monkeypatch, cutoff, base):
        # every term of r has base grade `base`, so r^(k+1) is the first
        # zero power for k = cutoff // base: R^2..R^(k+1) cost k
        # convolutions, one for a square-zero residual (base > cutoff / 2)
        geo = neck_geometry(base_dim=1, v_basis=2)
        ident = identity_element(geo, SPHERE, cutoff)
        none = (ContactMultiset(), ContactMultiset())
        r = RelSeries(geo, 2, cutoff, {
            RelKey((0, base), 0, none): 5,
            RelKey((1, base), 2, (single(1, 0), single(1, 1))): -2})
        twf = ident + r
        calls = []
        glue_pairs = gluing._glue_pairs

        def counted(*args):
            calls.append(args)
            return glue_pairs(*args)

        monkeypatch.setattr(gluing, "_glue_pairs", counted)
        s = s_matrix(twf, SPHERE)
        assert len(calls) == cutoff // base
        # R is indexed once for all its powers
        assert len({id(args[1]) for args in calls}) == 1
        monkeypatch.undo()
        assert convolve(s, twf, SPHERE) == ident == convolve(twf, s, SPHERE)

    def test_neck_identity_of_unit(self):
        geo = neck_geometry(base_dim=1, v_basis=1)
        ident = identity_element(geo, POINT, 3)
        for n in range(1, 6):
            assert neck_identity(ident, n, POINT) == ident

    @pytest.mark.parametrize("n", [0, 1.5, 1.0, True, "2"])
    def test_neck_count_that_is_not_a_positive_int_is_rejected(self, n):
        ident = identity_element(neck_geometry(base_dim=1), POINT, 3)
        with pytest.raises(GluingError, match="neck count must be an int"):
            neck_identity(ident, n, POINT)

    def test_explicit_square_zero_algebra(self):
        # unit + r with r*r = 0: the single-cut sum is 2*unit - (unit + r)
        geo = neck_geometry(base_dim=1, v_basis=1)
        cutoff = 3
        ident = identity_element(geo, POINT, cutoff)
        r = RelSeries(geo, 2, cutoff, {
            RelKey((0, 2), 0, (ContactMultiset(), ContactMultiset())): 5})
        twf = ident + r
        got = neck_identity(twf, 1, POINT)
        assert got == ident - r
        assert got == s_matrix(twf, POINT)

    def test_rejects_bad_unit_part(self):
        geo = neck_geometry(base_dim=1, v_basis=1)
        bad = RelSeries(geo, 2, 3, {
            RelKey((1, 0), 2, (single(1), single(1))): 7})
        with pytest.raises(GluingError):
            s_matrix(bad, POINT)

    # the empty key, a fiber cover, and a product of two fiber covers
    @pytest.mark.parametrize("class_key, coefficient", [
        ((0, 0), 2), ((0, 0), 0), ((1, 0), 3), ((2, 0), Fraction(1, 7))])
    def test_changed_unit_coefficient_lacks_base_grading(self, class_key,
                                                         coefficient):
        geo = neck_geometry(base_dim=1, v_basis=2)
        ident = identity_element(geo, SPHERE, 4)
        terms = dict(ident.terms)
        key = min(k for k in terms if k.class_key == class_key)
        terms[key] = coefficient
        r = RelSeries(geo, 2, 4, {
            RelKey((0, 3), 0, (ContactMultiset(), ContactMultiset())): 1})
        twf = RelSeries(geo, 2, 4, terms) + r
        with pytest.raises(GluingError, match="lacks positive base grading"):
            s_matrix(twf, SPHERE)


def _neck_series(cutoff, square_zero):
    """Unit plus a random residual: square-zero when every term's base
    grading is above half the cutoff, else with base grading from 1."""
    rng = random.Random(60 + 2 * cutoff + square_zero)
    geo = neck_geometry(base_dim=1, v_basis=2)
    min_base = cutoff // 2 + 1 if square_zero else 1
    return identity_element(geo, SPHERE, cutoff) + random_two_ended(
        rng, geo, cutoff, 2, min_base=min_base)


NECK_SERIES = [pytest.param(cutoff, square_zero, id=f"{cutoff}-{kind}")
               for cutoff in (4, 5, 6)
               for square_zero, kind in ((True, "square-zero"),
                                         (False, "general"))]


class TestPreparedIndex:
    """The ladders that index their fixed right factor once give what
    plain :func:`convolve` gives."""

    @pytest.mark.parametrize("cutoff, square_zero", NECK_SERIES)
    def test_each_step_is_a_plain_convolution(self, fresh_neck_steps,
                                              cutoff, square_zero):
        twf = _neck_series(cutoff, square_zero)
        for k in range(2, 10):
            _clear_neck_memos()
            step = gluing._neck_step(twf, k, SPHERE)
            _clear_neck_memos()
            below = gluing._neck_step(twf, k - 1, SPHERE)
            assert step == convolve(below, twf, SPHERE), k

    @pytest.mark.parametrize("cutoff, square_zero", NECK_SERIES)
    def test_s_matrix_is_the_sum_of_plain_powers(self, cutoff, square_zero):
        twf = _neck_series(cutoff, square_zero)
        ident = identity_element(twf.geometry, SPHERE, cutoff)
        r = twf - ident
        expected, power, sign = ident, r, -1
        while not power.is_zero():
            expected = expected + power.scale(sign)
            power, sign = convolve(power, r, SPHERE), -sign
        assert s_matrix(twf, SPHERE) == expected

    @pytest.mark.parametrize("cutoff, square_zero", NECK_SERIES)
    def test_neck_sums_do_not_depend_on_a_warm_index(self, fresh_neck_steps,
                                                      cutoff, square_zero):
        twf = _neck_series(cutoff, square_zero)
        cold = [neck_identity(twf, n, SPHERE) for n in range(1, 6)]
        # warm the index on an equal series built apart, then rebuild the
        # steps against it
        _clear_neck_memos()
        gluing._neck_index(RelSeries(twf.geometry, 2, cutoff,
                                     dict(twf.terms)))
        warm = [neck_identity(twf, n, SPHERE) for n in range(1, 6)]
        info = gluing._neck_index.cache_info()
        assert (info.misses, info.hits) == (1, 8)
        assert warm == cold
        assert [hash(t) for t in warm] == [hash(t) for t in cold]

    def test_a_warm_index_hides_no_corrupted_weight(self, request,
                                                    monkeypatch):
        # the index holds no glue weight: steps built under the doubled
        # weight against an index warmed under the true ones follow the
        # doubled weight
        twf = _neck_series(5, square_zero=True)
        request.getfixturevalue("doubled_glue_weight")
        with monkeypatch.context() as true_weights:
            true_weights.setattr(gluing, "glue_weights", glue_weights)
            true_steps = [gluing._neck_step(twf, k, SPHERE)
                          for k in range(1, 5)]
        gluing._neck_step.cache_clear()
        assert gluing._neck_index.cache_info().currsize == 1
        below = gluing._neck_step(twf, 1, SPHERE)
        assert below == true_steps[0]
        for k in range(2, 5):
            step = gluing._neck_step(twf, k, SPHERE)
            plain = convolve(twf if k == 2 else below, twf, SPHERE)
            assert step == (plain - twf if k == 2 else plain), k
            assert step != true_steps[k - 1], k
            below = step
        assert gluing._neck_index.cache_info().misses == 1


def _tagged_one_ended(rng, geo, cutoff):
    """A random one-ended series whose keys carry tags, some of them
    written non-canonically."""
    terms = {}
    for _ in range(rng.randint(3, 8)):
        d, b = rng.randint(0, 2), rng.randint(0, 2)
        if d + b > cutoff:
            continue
        key = RelKey((d, b), 2 * rng.randint(-1, 1),
                     (rng.choice(enumerate_multisets(d, 2)),),
                     rng.choice(TAGS))
        terms[key] = terms.get(key, 0) + Fraction(rng.randint(-3, 3),
                                                  rng.randint(1, 3))
    return RelSeries(geo, 1, cutoff, terms)


def _algebra_outputs():
    """The algebra's results on fixed seeded inputs, in a fixed order."""
    geo = neck_geometry(base_dim=1, v_basis=2)
    for cutoff in (4, 5, 6):
        for square_zero in (False, True):
            twf = _neck_series(cutoff, square_zero)
            y = random_two_ended(random.Random(70 + cutoff), geo, cutoff, 2)
            s = s_matrix(twf, SPHERE)
            yield from (s, convolve(s, twf, SPHERE),
                        convolve(twf, s, SPHERE), convolve(twf, y, SPHERE),
                        convolve(y, twf, SPHERE))
            yield from (neck_identity(twf, n, SPHERE) for n in range(1, 6))
    rng = random.Random(80)
    for cutoff in (3, 4, 5):
        for _ in range(4):
            x = _tagged_one_ended(rng, geo, cutoff)
            y = _tagged_one_ended(rng, geo, cutoff)
            yield from (convolve(x, y, TWISTED), convolve(y, x, TWISTED))
            # exp and log need positive grade on every term
            tw = tw_from_gw(RelSeries(geo, 1, cutoff, {
                k: c for k, c in x.terms.items() if sum(k.class_key)}))
            yield from (tw, gw_from_tw(tw))
        gw = random_two_ended(rng, geo, cutoff, 2, min_base=1)
        tw = tw_from_gw(gw)
        yield from (tw, gw_from_tw(tw), gw_from_tw(tw_from_gw(gw.scale(-1))))


class TestExactOutputs:
    """The algebra's outputs do not depend on how its loops are written."""

    def test_outputs_digest(self, fresh_neck_steps):
        digest, count = hashlib.sha256(), 0
        for result in _algebra_outputs():
            digest.update(json.dumps(
                [result.end_count, result.cutoff, relseries_to_json(result)],
                sort_keys=True).encode() + b"\n")
            count += 1
        assert (count, digest.hexdigest()) == (117, "090e069ecfcc1653356a3"
                                               "9b5f194259617ec860f7f1751a5"
                                               "64b17cf1b200ae8f")

    def test_order_of_insertion_does_not_change_a_convolution(self):
        twf = _neck_series(5, square_zero=False)
        y = random_two_ended(random.Random(90), twf.geometry, 5, 2)
        by_class = sorted(twf.terms.items())
        # round-robin over the classes, so each class's terms interleave
        # with the others'
        groups = {}
        for k, c in by_class:
            groups.setdefault(k.class_key, []).append((k, c))
        mixed = [kc for row in itertools.zip_longest(*groups.values())
                 for kc in row if kc]
        classes = [k.class_key for k, _ in mixed]
        assert any(a != b and a in classes[i + 2:]
                   for i, (a, b) in enumerate(zip(classes, classes[1:])))
        first, second = (RelSeries(twf.geometry, 2, 5, dict(items))
                         for items in (by_class, mixed))
        assert list(first.terms) != list(second.terms)
        for a, b in ((convolve(first, y, SPHERE),
                      convolve(second, y, SPHERE)),
                     (convolve(y, first, SPHERE),
                      convolve(y, second, SPHERE))):
            assert a == b and hash(a) == hash(b)
            assert relseries_to_json(a) == relseries_to_json(b)


def _stored_key(series, key):
    """The key object that ``series`` stores under a key equal to ``key``."""
    return {k: k for k in series.terms}[key]


class TestInternedKeys:
    """The algebra's keys are interned; equality never depends on it."""

    def test_separate_convolutions_share_key_objects(self):
        rng = random.Random(45)
        geo = neck_geometry(base_dim=1, v_basis=2)
        ident = identity_element(geo, SPHERE, 4)
        r = random_two_ended(rng, geo, 4, 2, min_base=1)
        left = convolve(ident, r, SPHERE)
        right = convolve(r, ident, SPHERE)
        assert left == right == r
        for key in left.terms:
            assert _stored_key(right, key) is key

    def test_results_after_clearing_the_memo_are_equal(self):
        rng = random.Random(46)
        geo = neck_geometry(base_dim=1, v_basis=2)
        cutoff = 5
        twf = identity_element(geo, SPHERE, cutoff) + random_two_ended(
            rng, geo, cutoff, 2, min_base=cutoff // 2 + 1)

        def compute():
            return [s_matrix(twf, SPHERE)] + [
                neck_identity(twf, n, SPHERE) for n in (1, 3)]

        before = compute()
        for memo in (gluing._neck_step, gluing._neck_index, identity_element):
            memo.cache_clear()
        after = compute()
        assert after == before
        assert [hash(t) for t in after] == [hash(t) for t in before]
        for old, new in zip(before, after):
            for key in new.terms:
                assert _stored_key(old, key) is key

    def test_keys_built_apart_find_their_values(self):
        geo = neck_geometry(base_dim=1, v_basis=2)
        ident = identity_element(geo, SPHERE, 3)
        apart = {
            RelKey(tuple(k.class_key),
                   k.chi,
                   tuple(ContactMultiset(tuple(m)) for m in k.contacts),
                   str(k.tag)): c
            for k, c in ident.terms.items()}
        twin = RelSeries(geo, 2, 3, apart)
        assert twin == ident and ident == twin
        assert hash(twin) == hash(ident)
        for key, c in apart.items():
            assert _stored_key(ident, key) is key
            assert ident.coefficient(key) == c

    def test_odd_chi_raises_and_caches_nothing(self):
        before = len(gluing._LIVE_KEYS)
        with pytest.raises(GluingError, match="must be even"):
            RelKey((1, 0), 3, (single(1), single(1)), "1")
        assert len(gluing._LIVE_KEYS) == before

    @pytest.mark.parametrize("chi", [2.0, "2"])
    def test_chi_that_is_not_an_int_is_rejected(self, chi):
        with pytest.raises(GluingError, match="must be an int, got"):
            RelKey((1, 0), chi, (single(1), single(1)))

    def test_key_that_is_not_a_relkey_is_rejected(self):
        key = ((1, 0), 2, (single(1), single(1)), "1")
        with pytest.raises(GluingError, match="is not a RelKey"):
            RelSeries(neck_geometry(base_dim=1), 2, 3, {key: 1})

    def test_every_construction_returns_the_live_key(self):
        geo = neck_geometry(base_dim=1, v_basis=2)
        ends = (single(1), single(1, 1))
        key = RelKey((1, 1), 0, ends, "q;p")
        assert key.tag == "p;q"
        assert RelKey((1, 1), 0, ends, "p;q") is key
        assert RelKey(class_key=(1, 1), chi=0, tag="q;p",
                      contacts=(single(1), single(1, 1))) is key
        assert gluing._live_key(((1, 1), 0, ends, "p;q")) is key
        assert dataclasses.replace(key) is key
        assert dataclasses.replace(RelKey((1, 1), 0, ends, "p"),
                                   tag="q;p") is key
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(key, protocol)) is key
        assert copy.copy(key) is key and copy.deepcopy(key) is key
        series = RelSeries(geo, 2, 3, {key: 2}) + identity_element(
            geo, SPHERE, 3)
        back = pickle.loads(pickle.dumps(series))
        assert back == series and len(back.terms) > 1
        for k in back.terms:
            assert _stored_key(series, k) is k

    @pytest.mark.parametrize("entry", [1.0, True])
    def test_class_entry_equal_to_an_int_is_rejected(self, entry):
        # the live key of class (1, 0) must not answer for (1.0, 0)
        held = RelKey((1, 0), 2, (single(1), single(1)))
        with pytest.raises(GluingError, match="must hold ints"):
            RelKey((entry, 0), 2, (single(1), single(1)))
        assert held.class_key == (1, 0)

    def test_an_evicted_key_is_found_again_while_a_table_holds_it(self):
        table = catalog.p1_tw_series(20)
        assert len(table.terms) == 2714
        for key in table.terms:
            fields = (key.class_key, key.chi, key.contacts, key.tag)
            assert RelKey(*fields) is key and gluing._live_key(fields) is key

    def test_a_key_nothing_holds_stays_in_the_live_table(self):
        fields = ((5, 3), 4, (single(5), single(5, 1)), "lifetime")
        key = gluing._live_key(fields)
        assert gluing._LIVE_KEYS[fields] is key
        ref = weakref.ref(key)
        del key
        gc.collect()
        assert ref() is gluing._LIVE_KEYS[fields]
        assert RelKey(*fields) is ref() and gluing._live_key(fields) is ref()

    def test_concurrent_builders_get_one_object_per_value(self):
        # 200 values that no other test builds, taken out of the tables
        items = [(((a, 700 + i), 1),) for i in range(100) for a in (1, 2)]
        for fields in [f for f in gluing._LIVE_KEYS if f[3] == "probe"]:
            del gluing._LIVE_KEYS[fields]
        for item in items:
            contacts._LIVE_MULTISETS.pop(item, None)
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def build(index):
            try:
                barrier.wait()
                out = []
                for i, item in enumerate(items):
                    m = ContactMultiset(item)
                    fields = ((m.degree, 0), 0, (m,), "probe")
                    out.append((m, gluing._live_key(fields) if i % 2
                                else RelKey(*fields)))
                results[index] = out
            except Exception as exc:  # reported below, in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=build, args=(i,))
                       for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for i, item in enumerate(items):
            m, key = results[0][i]
            assert ContactMultiset(item) is m
            assert RelKey((m.degree, 0), 0, (m,), "probe") is key
            assert all(out[i][0] is m and out[i][1] is key
                       for out in results)


class TestDimensions:
    def test_sphere_relative_two_points(self):
        geo = riemann_surface_geometry()
        for d in range(1, 6):
            for g in range(0, 3):
                chi = 2 - 2 * g
                contacts = (single(d), single(d))
                dim = moduli_dimension(geo, (d,), chi, 0, contacts, 2)
                assert dim == 2 * (2 * g - 2 + 2)

    def test_degree_one_rigid(self):
        geo = riemann_surface_geometry()
        assert moduli_dimension(geo, (1,), 2, 0, (single(1), single(1)),
                                2) == 0

    # a float or a bool would pass through the arithmetic as a number
    @pytest.mark.parametrize("chi, n_points, dim_x, message", [
        (2.0, 0, 2, "Euler characteristic must be an int, got 2.0"),
        (True, 0, 2, "Euler characteristic must be an int, got True"),
        (1, 0, 2, "Euler characteristic must be even"),
        (2, 0.5, 2, "n_points 0.5 and dim_x 2 must be ints"),
        (2, True, 2, "n_points True and dim_x 2 must be ints"),
        (2, 0, 2.0, "n_points 0 and dim_x 2.0 must be ints"),
    ])
    def test_arguments_that_are_not_ints_are_rejected(self, chi, n_points,
                                                      dim_x, message):
        geo = riemann_surface_geometry()
        with pytest.raises(GluingError, match=message):
            moduli_dimension(geo, (1,), chi, n_points,
                             (single(1), single(1)), dim_x)

    def test_ruled_surface_halved_dimension(self):
        # classes a*S + b*F on the twisted surface, divisor = both sections
        n = 2
        geo = Geometry(class_dim=2, v_degree=(0, 1),
                       canonical_k=(-(n + 2), -2), grading=(1, 1), v_basis=2)
        for a, b, g in [(0, 2, 0), (1, 1, 0), (1, 2, 1)]:
            contacts = [(1, 0)] * b + [(1, 0)] * (b + n * a)
            ends = (ContactMultiset([((1, 0), b)]),
                    ContactMultiset([((1, 0), b + n * a)]))
            chi = 2 - 2 * g
            dim = moduli_dimension(geo, (a, b), chi, 0, ends, 4)
            length = len(contacts)
            assert dim // 2 == 2 * a + g - 1 + length

    def test_glued_dimension_matches_both_sides(self):
        # dimension count of the glued space agrees with the fiber product
        rng = random.Random(43)
        dim_x = 4
        # the neck classes (fiber multiple, base part), base canonical -3
        geo = Geometry(class_dim=2, v_degree=(1, 0), canonical_k=(-2, -3),
                       grading=(1, 1), v_basis=1, fiber=(1, 0))
        for _ in range(25):
            d = rng.randint(0, 3)
            contacts = [(a, 0) for a in _random_partition(rng, d)]
            ends = (ContactMultiset([(pair, 1) for pair in contacts]),)
            b1, b2 = rng.randint(0, 3), rng.randint(0, 3)
            k1, k2 = (d, b1), (d, b2)
            chi1, chi2 = 2 * rng.randint(-2, 1), 2 * rng.randint(-2, 1)
            n1, n2 = rng.randint(0, 2), rng.randint(0, 2)
            length = len(contacts)
            chi = chi1 + chi2 - 2 * length
            glued_k = geo.pair_k(k1) + geo.pair_k(k2) + 2 * d
            lhs = (-2 * glued_k + (chi * (dim_x - 6)) // 2
                   + 2 * (n1 + n2))
            rhs = (moduli_dimension(geo, k1, chi1, n1, ends, dim_x)
                   + moduli_dimension(geo, k2, chi2, n2, ends, dim_x)
                   - length * (dim_x - 2))
            assert lhs == rhs


def _random_partition(rng, n):
    parts = []
    while n > 0:
        p = rng.randint(1, n)
        parts.append(p)
        n -= p
    return parts


# -- results built without revalidation ------------------------------------------

def _empty_contacts_pair():
    """Two contact-free terms whose cross products cancel.

    ``a * b`` and ``b * a`` land on the same key with opposite signs, in
    the disjoint product and in the convolution alike.
    """
    geo = neck_geometry(base_dim=1, v_basis=2)
    none = (ContactMultiset(), ContactMultiset())
    a, b = RelKey((0, 1), 0, none), RelKey((0, 2), 0, none)
    return (RelSeries(geo, 2, 4, {a: 1, b: 1}),
            RelSeries(geo, 2, 4, {a: 1, b: -1}))


def _sums(rng, geo, ident):
    x = random_two_ended(rng, geo, 3, 2)
    y = random_two_ended(rng, geo, 4, 2)
    # the unit at cutoff 4 has terms of grade 4 that a cutoff-3 sum drops
    return [x + y, y + x, ident + x, x + ident, x - x, x + x.scale(-1),
            ident - ident.scale(2)]


def _scalings(rng, geo, ident):
    x = random_two_ended(rng, geo, 4, 2)
    return [x.scale(c) for c in (3, -1, Fraction(-2, 3), 0.5, 0, 0.0,
                                 Fraction(0))] + [ident.scale(2)]


def _disjoint_products(rng, geo, ident):
    x = random_two_ended(rng, geo, 4, 2, min_base=1)
    y = random_two_ended(rng, geo, 3, 2)
    u, v = _empty_contacts_pair()
    return [x.disjoint_mul(y), y.disjoint_mul(x), x.disjoint_mul(ident),
            ident.disjoint_mul(ident), u.disjoint_mul(v)]


def _convolutions(rng, geo, ident):
    x = random_two_ended(rng, geo, 4, 2)
    y = random_two_ended(rng, geo, 4, 2)
    u, v = _empty_contacts_pair()
    return [convolve(x, y, SPHERE), convolve(y, x, SPHERE),
            convolve(ident, x, SPHERE), convolve(ident + x, ident, SPHERE),
            convolve(u, v, SPHERE)]


def _scattering(rng, geo, ident):
    twf = ident + random_two_ended(rng, geo, 4, 2, min_base=1)
    square_zero = ident + random_two_ended(rng, geo, 4, 2, min_base=3)
    return [s_matrix(twf, SPHERE), s_matrix(square_zero, SPHERE)] + \
        [neck_identity(square_zero, n, SPHERE) for n in (1, 2, 3)] + \
        [neck_identity(twf, 2, SPHERE)]


def _exp_log(rng, geo, ident):
    gw = random_two_ended(rng, geo, 4, 2, min_base=1)
    tw = tw_from_gw(gw)
    return [tw, gw_from_tw(tw), tw_from_gw(gw.scale(-1)), gw_from_tw(ident)]


def _overdraw_base(k1, k2, deg_m):
    """Neck gluing that takes 3 more from the base than the factors hold."""
    return (k1[0] + k2[0] - deg_m, k1[1] + k2[1] - 3)


class TestTrustedResults:
    """Algebra results skip revalidation; they must still pass it."""

    @pytest.mark.parametrize("build", [
        _sums, _scalings, _disjoint_products, _convolutions, _scattering,
        _exp_log])
    def test_results_pass_the_validating_constructor(self, build):
        geo = neck_geometry(base_dim=1, v_basis=2)
        ident = identity_element(geo, SPHERE, 4)
        for seed in range(6):
            for r in build(random.Random(seed), geo, ident):
                assert all(type(c) is Fraction and c != 0
                           for c in r.terms.values())
                assert RelSeries(r.geometry, r.end_count, r.cutoff,
                                 r.terms) == r

    def test_cancelling_cross_terms_are_dropped(self):
        u, v = _empty_contacts_pair()
        for product in (RelSeries.disjoint_mul,
                        lambda a, b: convolve(a, b, SPHERE)):
            # the cross class (0, 3) appears when the signs agree
            assert (0, 3) in {k.class_key for k in product(u, u).terms}
            assert (0, 3) not in {k.class_key for k in product(u, v).terms}

    def test_memoized_unit_cannot_be_changed_by_a_caller(self):
        geo, q = neck_geometry(1, 2), SPHERE
        unit = identity_element(geo, q, 3)
        key = next(iter(unit.terms))
        with pytest.raises(AttributeError):
            unit.terms.clear()
        with pytest.raises(TypeError):
            unit.terms[key] = Fraction(5)
        for result in (RelSeries.one(geo, 2, 3), unit + unit, unit.scale(2),
                       unit.disjoint_mul(unit), convolve(unit, unit, q)):
            with pytest.raises(TypeError):
                del result.terms[next(iter(result.terms))]
        again = identity_element(geo, q, 3)
        assert len(again.terms) == 18 and again.terms[key] == unit.terms[key]

    def test_scale_by_zero_is_the_zero_series(self):
        geo = neck_geometry(base_dim=1, v_basis=2)
        x = identity_element(geo, SPHERE, 3)
        for zero in (0, 0.0, Fraction(0)):
            assert x.scale(zero) == RelSeries(geo, 2, 3)

    def test_scale_by_float_stores_exact_fractions(self):
        geo = neck_geometry(base_dim=1, v_basis=2)
        x = identity_element(geo, SPHERE, 3)
        half = x.scale(0.5)
        assert half == x.scale(Fraction(1, 2))
        assert all(type(c) is Fraction for c in half.terms.values())

    @staticmethod
    def _two_ended_pair():
        geo = neck_geometry(base_dim=1, v_basis=1)
        x = RelSeries(geo, 2, 4, {RelKey((1, 1), 0, (single(1), single(1))): 2})
        y = RelSeries(geo, 2, 4, {RelKey((1, 0), 2, (single(1), single(1))): 3})
        return x, y

    def test_custom_glue_with_wrong_divisor_degree_raises(self):
        x, y = self._two_ended_pair()

        def keep_one_fiber(k1, k2, deg_m):
            # absorbs one fiber fewer than the neck glue: pairs to deg_m + 1
            return (k1[0] + k2[0] - deg_m + 1, k1[1] + k2[1])

        with pytest.raises(GluingError, match="contact degree 1 != class "
                                              "pairing 2"):
            convolve(x, y, POINT, glue=keep_one_fiber)

    def test_custom_glue_with_negative_grade_raises(self):
        x, y = self._two_ended_pair()

        def overdraw_base(k1, k2, deg_m):
            return (k1[0] + k2[0] - deg_m, k1[1] + k2[1] - 3)

        with pytest.raises(GluingError, match="negative grading"):
            convolve(x, y, POINT, glue=overdraw_base)

    @pytest.mark.parametrize("entry", [float, bool])
    def test_custom_glue_with_a_class_not_of_ints_raises(self, entry):
        # stored, a key of class (1.0, 1) would answer for (1, 1)
        x, y = self._two_ended_pair()

        def glue(k1, k2, deg_m):
            return (entry(k1[0] + k2[0] - deg_m), k1[1] + k2[1])

        before = dict(gluing._LIVE_KEYS)
        with pytest.raises(GluingError, match="must hold ints"):
            convolve(x, y, POINT, glue=glue)
        assert gluing._LIVE_KEYS == before

    @staticmethod
    def _pair_meeting(meets):
        # x's last end (1, 0) pairs under SPHERE only with a first end (1, 1)
        geo = neck_geometry(base_dim=1, v_basis=2)
        first = single(1, 1) if meets else single(1, 0)
        x = RelSeries(geo, 2, 4, {
            RelKey((1, 1), 0, (single(1, 0), single(1, 0))): 2})
        y = RelSeries(geo, 2, 4, {RelKey((1, 0), 2, (first, single(1, 0))): 3})
        return x, y

    @pytest.mark.parametrize("glue, message", [
        (_overdraw_base, "negative grading"),
        (lambda k1, k2, deg_m: (k1[1] + k2[1],), "wrong dimension"),
    ])
    def test_invalid_glued_class_raises_only_where_terms_meet(self, glue,
                                                              message):
        x, y = self._pair_meeting(meets=False)
        assert convolve(x, y, SPHERE, glue=glue).is_zero()
        x, y = self._pair_meeting(meets=True)
        with pytest.raises(GluingError, match=message):
            convolve(x, y, SPHERE, glue=glue)

    def test_invalid_glued_class_whose_terms_cancel_does_not_raise(self):
        # x(a) y(b) and x(b) y(a) land on one key with opposite signs
        geo = neck_geometry(base_dim=1, v_basis=2)
        a, b = single(1, 0), single(1, 1)
        x = RelSeries(geo, 2, 4, {RelKey((1, 1), 0, (a, a)): 1,
                                  RelKey((1, 1), 0, (a, b)): 1})
        y = RelSeries(geo, 2, 4, {RelKey((1, 0), 0, (b, a)): 1,
                                  RelKey((1, 0), 0, (a, a)): -1})
        assert convolve(x, y, SPHERE, glue=_overdraw_base).is_zero()
        # without the cancelling term, the surviving term raises
        y_one = RelSeries(geo, 2, 4, {RelKey((1, 0), 0, (b, a)): 1})
        with pytest.raises(GluingError, match="negative grading"):
            convolve(x, y_one, SPHERE, glue=_overdraw_base)


# -- pickling and copying --------------------------------------------------------

def _pickle_samples():
    m = ContactMultiset([((1, 0), 1), ((2, 1), 1)])
    key = RelKey((3, 1), 2, (m, m), "p;q")
    series = RelSeries(neck_geometry(base_dim=1, v_basis=2), 2, 4,
                       {key: Fraction(-2, 3)})
    return [m, SPHERE, key, series]


class TestInternedCoefficients:
    def test_two_convolutions_share_their_coefficient_objects(self):
        geo = neck_geometry(base_dim=1, v_basis=2)
        rng = random.Random(7)
        x = identity_element(geo, SPHERE, 4) + random_two_ended(
            rng, geo, 4, 2, min_base=1)
        first, second = convolve(x, x, SPHERE), convolve(x, x, SPHERE)
        assert first is not second and first == second
        assert len(first.terms) > len(set(map(id, first.terms.values())))
        assert all(second.terms[k] is c for k, c in first.terms.items())

    def test_a_pickled_convolution_round_trips_equal(self):
        geo = neck_geometry(base_dim=1, v_basis=2)
        x = identity_element(geo, SPHERE, 3) + random_two_ended(
            random.Random(3), geo, 3, 2, min_base=1)
        glued = convolve(x, x, SPHERE)
        twin = pickle.loads(pickle.dumps(glued))
        assert twin == glued and hash(twin) == hash(glued)
        assert twin == convolve_via_operator(x, x, SPHERE)


class TestPickling:
    @pytest.mark.parametrize("duplicate", [
        lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy, copy.copy])
    def test_roundtrip_equal_and_hash_equal(self, duplicate):
        for obj in _pickle_samples():
            twin = duplicate(obj)
            assert type(twin) is type(obj)
            assert twin == obj and hash(twin) == hash(obj)

    def test_unpickled_series_is_revalidated(self):
        geo = riemann_surface_geometry()
        beyond = RelKey((4,), 2, (single(4), single(4)))
        bad = RelSeries._trusted(geo, 2, 3, {beyond: Fraction(1)})
        with pytest.raises(GluingError, match="term beyond cutoff"):
            pickle.loads(pickle.dumps(bad))

    def test_keys_found_by_fresh_twins_under_another_hash_seed(self, tmp_path):
        # a string tag hashes differently per PYTHONHASHSEED: the unpickled
        # key must hash like a key built in the loading process
        src = os.path.dirname(os.path.dirname(
            sys.modules[RelKey.__module__].__file__))
        blob = tmp_path / "samples.pickle"
        dump = textwrap.dedent(f"""
            import pickle, sys
            sys.path.insert(0, {os.path.dirname(__file__)!r})
            from test_gluing import _pickle_samples
            with open({str(blob)!r}, "wb") as fh:
                pickle.dump(_pickle_samples(), fh)
        """)
        load = textwrap.dedent(f"""
            import pickle, sys
            sys.path.insert(0, {os.path.dirname(__file__)!r})
            from test_gluing import _pickle_samples
            with open({str(blob)!r}, "rb") as fh:
                loaded = pickle.load(fh)
            fresh = _pickle_samples()
            for old, new in zip(loaded, fresh):
                assert old == new and hash(old) == hash(new), old
                assert {{new: 1}}[old] == 1 and {{old: 1}}[new] == 1, old
            key, series = fresh[2], loaded[3]
            assert series.coefficient(key) == series.terms[key] != 0
            print("ok")
        """)
        for code, seed in ((dump, "1"), (load, "2")):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"
