"""Rational rendering and the human view of report documents."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, strategies as st

from symcover.report import rat, render_human


class TestRat:
    def test_integers_stay_integers(self):
        assert rat(3) == 3
        assert rat(Fraction(6, 2)) == 3
        assert rat(Fraction(0)) == 0

    def test_fractions_become_reduced_strings(self):
        assert rat(Fraction(3, 2)) == "3/2"
        assert rat(Fraction(2, 4)) == "1/2"
        assert rat(Fraction(-1, 3)) == "-1/3"

    @given(st.fractions())
    def test_round_trip(self, f):
        assert Fraction(rat(f)) == f


class TestRenderHuman:
    def test_scalars_and_nesting(self):
        doc = {"value": 2, "ratio": "5/2", "inner": {"holds": True}}
        text = render_human(doc)
        assert "value: 2" in text
        assert "ratio: 5/2" in text
        assert "inner:" in text
        assert "  holds: True" in text

    def test_list_of_dicts(self):
        doc = {"orbits": [{"orbit": 0, "ok": True}, {"orbit": 1, "ok": False}]}
        text = render_human(doc)
        assert text.count("  -") == 2
        assert "orbit: 1" in text

    def test_scalar_list_stays_inline(self):
        assert render_human({"marked": [0, 2, 4]}) == "marked: [0, 2, 4]"

    def test_list_of_tuples(self):
        text = render_human({"footprints": [(0, 1), (2, 3)]})
        assert "- [0, 1]" in text
