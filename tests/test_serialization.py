"""JSON encoding round trips for every CLI-facing structure."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tricut.core import (
    Color,
    Segment,
    arcset,
    circle_point,
    full_circle,
    int_line,
    int_points,
    line,
    pt,
)
from tricut.cells import build_arrangement
from tricut.errors import PreconditionViolated
from tricut.generators import GenKind, GenSpec, generate
from tricut.llines import LatticePointSet, RayDir, lline
from tricut.serialization import (
    _circle_of_rows,
    _lattice_of_rows,
    _lines_of_rows,
    dec_arcset,
    dec_circle_rows,
    dec_face,
    dec_lattice_rows,
    dec_line_rows,
    dec_lline,
    dec_point_rows,
    dec_rat,
    dec_segment,
    dec_wedge,
    dec_xy,
    enc_arcset,
    enc_circle_point,
    enc_face,
    enc_instance,
    enc_lattice_set,
    enc_line,
    enc_lline,
    enc_point,
    enc_rat,
    enc_segment,
    enc_wedge,
    enc_xy,
    unwrap_instance,
)
from tricut.wedges import DoubleWedge, _points_of_rows, find_111_wedge

from payload_reference import (
    dec_circle_payload,
    dec_lattice_payload,
    dec_lines_payload,
    dec_points_payload,
)

R, G, B = Color.R, Color.G, Color.B


class TestRat:
    def test_round_trip(self):
        for x in (0, 5, -7, Fraction(3, 2), Fraction(-22, 7), Fraction(10, 5)):
            assert dec_rat(enc_rat(x)) == Fraction(x)

    def test_integer_string_form(self):
        assert enc_rat(Fraction(4, 2)) == "2"
        assert enc_rat(Fraction(-1, 3)) == "-1/3"

    def test_accepts_plain_int(self):
        assert dec_rat(7) == 7

    def test_rejects_garbage(self):
        for bad in ("x", "1/0", None, 1.5, True, [1]):
            with pytest.raises(PreconditionViolated):
                dec_rat(bad)

    @pytest.mark.parametrize(
        "s",
        ["3/-4", "+1/2", " 1/2", "1_0/3", "\u0663/4", "1/0", "-0/7", "007/010", "1.5", "-",
         "/3", "-12/18", "5", "-5", str(Fraction(-(10**30), 7**20)), "1e5", "2.5e-3",
         "-3.25E+2", "1_0e2", "0e5000", "-0.0e99999", "0_0.0e-5000", "0e5_", "0e1__2", "e5",
         ".e5", "-.0e7", "0.e+3 "],
    )
    def test_string_forms_as_fraction(self, s):
        # canonical "-?digits(/digits)?" strings are read by int(); every
        # string must come out as Fraction(s) does, errors included
        try:
            want = Fraction(s)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(PreconditionViolated) as err:
                dec_rat(s)
            assert str(err.value) == f"not a rational: {s!r}"
            return
        got = dec_rat(s)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


    @pytest.mark.parametrize(
        "s", ["1e10000000", "1e-10000000", "2.5E+9_999_999", "\u0661e10000000",
              "0." + "1" * 5000, "1" * 4000 + "." + "1" * 400],
    )
    def test_oversized_decimal_forms_rejected_at_once(self, s):
        # Fraction(s) would first build 10**exp, which takes seconds here
        t0 = time.process_time()
        with pytest.raises(PreconditionViolated) as err:
            dec_rat(s)
        assert time.process_time() - t0 < 0.5
        assert str(err.value) == f"not a rational: {s!r}"

    @pytest.mark.parametrize("s", ["0e10000000", "-0.000e10000000", ".0E-10000000"])
    def test_zero_mantissa_is_zero_at_once(self, s):
        # Fraction(s) would build 10**exp only to multiply it by 0
        t0 = time.process_time()
        got = dec_rat(s)
        assert time.process_time() - t0 < 0.5
        assert type(got) is Fraction and got == 0


class TestGeometry:
    def test_point_round_trip(self):
        p = pt(Fraction(1, 3), -2, "G")
        assert _points_of_rows(*dec_point_rows({"points": [enc_point(p)]})) == (p,)

    def test_line_round_trip(self):
        l = line(2, Fraction(-3, 5), 1, "B")
        assert _lines_of_rows(*dec_line_rows({"lines": [enc_line(l)]})) == (l,)

    def test_xy_round_trip(self):
        assert dec_xy(enc_xy((Fraction(5, 2), -3))) == (Fraction(5, 2), -3)

    def test_segment_round_trip(self):
        s = Segment((0, 0), (Fraction(1, 2), 3))
        assert dec_segment(enc_segment(s)) == s

    def test_circle_point_round_trip(self):
        p = circle_point(Fraction(3, 7), "R")
        d = enc_circle_point(p)
        assert d == {"t": "3/7", "color": "R"}
        assert dec_circle_rows({"points": [d]}) == ([(3, 7)], [R])
        assert _circle_of_rows(*dec_circle_rows({"points": [d]})) == (p,)

    def test_arcset_round_trip(self):
        a = arcset([(Fraction(1, 8), Fraction(1, 4)), (Fraction(7, 8), Fraction(9, 8))])
        assert dec_arcset(enc_arcset(a)) == a
        assert dec_arcset(enc_arcset(full_circle())) == full_circle()

    def test_arcset_encoding_is_sorted_pairs(self):
        a = arcset([(Fraction(1, 2), Fraction(3, 4)), (0, Fraction(1, 4))])
        enc = enc_arcset(a)
        assert enc == sorted(enc)
        assert all(len(pair) == 2 for pair in enc)

    def test_lline_round_trip(self):
        l = lline(Fraction(3, 2), Fraction(-1, 2), (RayDir.UP, RayDir.LEFT))
        d = enc_lline(l)
        assert d == {"corner": ["3/2", "-1/2"], "rays": ["up", "left"]}
        assert dec_lline(d) == l

    def test_lattice_set_round_trip(self):
        s = LatticePointSet(
            (pt(0, 0, R), pt(2, 1, G), pt(1, 2, B), pt(5, 4, R), pt(4, 5, G), pt(3, 3, B))
        )
        enc = enc_lattice_set(s)
        assert all(isinstance(d["x"], int) for d in enc)
        assert _lattice_of_rows(*dec_lattice_rows({"points": enc})) == s

    def test_wedge_round_trip(self):
        points = generate(GenSpec(GenKind.Points3C, 9, 1))
        w = find_111_wedge(points)
        assert dec_wedge(enc_wedge(w)) == w


class TestFacesAndArrangements:
    def test_face_and_arrangement_shapes(self):
        lines = (line(0, 1, 0, "R"), line(1, -1, 0, "G"), line(1, 1, -4, "B"))
        arr = build_arrangement(lines)
        for face in arr.faces:
            f = enc_face(face)
            assert set(f) == {"bounded", "vertices", "boundary_lines", "boundary_colors"}
            assert dec_face(f) == face


class TestPayloads:
    def test_unwrap_passthrough_and_envelope(self):
        body = {"lines": []}
        assert unwrap_instance(body) is body
        assert unwrap_instance({"kind": "x", "instance": body}) is body

    def test_lines_payload(self):
        ls = generate(GenSpec(GenKind.SimpleLines3C, 5, 3))
        env = enc_instance("SimpleLines3C", 5, 3, ls)
        assert _lines_of_rows(*dec_line_rows(env)) == ls
        with pytest.raises(PreconditionViolated):
            dec_line_rows({"points": []})

    def test_points_payload(self):
        ps = generate(GenSpec(GenKind.Points3C, 7, 3))
        env = enc_instance("Points3C", 7, 3, ps)
        assert _points_of_rows(*dec_point_rows(env)) == ps
        with pytest.raises(PreconditionViolated):
            dec_point_rows({"lines": []})

    def test_circle_payload(self):
        ps = generate(GenSpec(GenKind.CirclePoints3C, 4, 3))
        env = enc_instance("CirclePoints3C", 4, 3, ps)
        assert _circle_of_rows(*dec_circle_rows(env)) == ps
        with pytest.raises(PreconditionViolated):
            dec_circle_rows({"points": [{"x": "1", "y": "2", "color": "R"}]})

    def test_lattice_payload(self):
        s = generate(GenSpec(GenKind.LatticeRedHull, 4, 3))
        env = enc_instance("LatticeRedHull", 4, 3, s)
        assert _lattice_of_rows(*dec_lattice_rows(env)) == s

    @pytest.mark.parametrize(
        "decode,body",
        [
            (dec_lines_payload, {"lines": [{"a": "1", "b": "1", "color": "R"}]}),
            (dec_points_payload, {"points": [{"x": "1", "y": "2", "color": "Q"}]}),
            (dec_circle_payload, {"points": [{"t": "1/2"}]}),
            (dec_circle_payload, {"points": [{"t": ["1/2"], "color": "R"}]}),
            (dec_lattice_payload, {"points": [5]}),
        ],
    )
    def test_malformed_element(self, decode, body):
        # elements are decoded inside the payload decoder's one guard; the
        # row decoder of the payload's shape fails alike
        with pytest.raises(PreconditionViolated, match="malformed input|not a rational"):
            decode(body)
        rows = {dec_lines_payload: dec_line_rows, dec_points_payload: dec_point_rows,
                dec_circle_payload: dec_circle_rows, dec_lattice_payload: dec_lattice_rows}
        assert _outcome(rows[decode], body) == _outcome(decode, body)

    def test_gen_envelope_fields(self):
        s = generate(GenSpec(GenKind.LatticeRedHull, 4, 3))
        env = enc_instance("LatticeRedHull", 4, 3, s)
        assert env["kind"] == "LatticeRedHull"
        assert env["n"] == 4 and env["seed"] == 3


# -- integer rows against the dataclass decoders -------------------------------------
# (the dataclass decoders are the references in tests/payload_reference.py)


@st.composite
def forms_of(draw, value: Fraction):
    """`value` as a JSON value in one of the forms the rational parser
    reads: a JSON integer, "-0", canonical, zero-padded and unreduced "p/q",
    decimal and exponent forms, a zero mantissa with a huge exponent."""
    sgn = "-" if value < 0 else ""
    p, q = abs(value.numerator), value.denominator
    k = draw(st.integers(1, 12))
    forms = [str(value), f"{sgn}{p * k}/{q * k}", f"{sgn}00{p}/0{q}"]  # "6/4", "007/014"
    if q == 1:
        forms += [value.numerator, f"{sgn}{p}.0", f"{sgn}{p}e0", f"{sgn}{p * 1000}e-3"]
        if p % 1000 == 0 and p:
            forms.append(f"{sgn}{p // 1000}e3")  # "2e3"
    if value == 0:
        forms += ["-0", "0e5000", "-0.0e999"]
    if q in (2, 4, 5, 10) and p < 10**6:
        forms.append(f"{sgn}{p / q}")  # "1.5"
    return draw(st.sampled_from(forms))


# numerators up to about 10**300, and mixed denominators
NUMERATORS = st.integers(-50, 50) | st.integers(-(10**300), 10**300) | st.just(2000)
RATIONALS = st.builds(
    Fraction, NUMERATORS, st.sampled_from([1, 2, 3, 4, 7, 10, 10**6 + 3]) | st.integers(1, 10**9)
)


def _outcome(decode, payload):
    """decode(payload), or the type and message of what it raised."""
    try:
        return decode(payload)
    except PreconditionViolated as e:
        return type(e), str(e)


class TestRowDecoders:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(*[RATIONALS.flatmap(forms_of)] * 3, st.sampled_from("RGBK")),
        min_size=1, max_size=6,
    ))
    def test_line_rows_are_int_lines(self, rows):
        payload = {"lines": [{"a": a, "b": b, "c": c, "color": col} for a, b, c, col in rows]}
        want = _outcome(dec_lines_payload, payload)
        got = _outcome(dec_line_rows, payload)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
            return
        triples, colors = got
        assert triples == [int_line(l) for l in want]
        assert colors == [l.color for l in want]
        assert all(type(v) is int for t in triples for v in t)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(*[RATIONALS.flatmap(forms_of)] * 2, st.sampled_from("RGBK")),
        min_size=1, max_size=6,
    ))
    def test_point_rows_are_int_points(self, rows):
        payload = {"points": [{"x": x, "y": y, "color": col} for x, y, col in rows]}
        want = _outcome(dec_points_payload, payload)
        got = _outcome(dec_point_rows, payload)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
            return
        triples, colors = got
        assert triples == int_points(want)
        assert colors == [p.color for p in want]
        assert all(type(v) is int for t in triples for v in t)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_lattice_rows_are_int_coordinates(self, data):
        n = data.draw(st.integers(1, 5))
        coord = st.integers(-(10**300), 10**300) | st.integers(-20, 20)
        xs = data.draw(st.lists(coord, min_size=3 * n, max_size=3 * n, unique=True))
        ys = data.draw(st.lists(coord, min_size=3 * n, max_size=3 * n, unique=True))
        colors = data.draw(st.permutations("RGB" * n))
        payload = {"points": [
            {"x": data.draw(forms_of(Fraction(x))), "y": data.draw(forms_of(Fraction(y))), "color": c}
            for x, y, c in zip(xs, ys, colors)
        ]}
        s = dec_lattice_payload(payload)
        got = dec_lattice_rows(payload)
        assert got == ([int(p.x) for p in s.points], [int(p.y) for p in s.points],
                       [p.color for p in s.points])
        assert all(type(v) is int for v in got[0] + got[1])

    LINES = [{"a": "1", "b": "2", "c": "3", "color": "R"}, {"a": "-1/2", "b": "1", "c": "0", "color": "G"},
             {"a": "0", "b": "5", "c": "-1", "color": "B"}]
    LATTICE = [{"x": 0, "y": 1, "color": "R"}, {"x": 1, "y": 0, "color": "G"},
               {"x": 2, "y": 3, "color": "B"}]

    @pytest.mark.parametrize("key,item,change", [
        ("lines", 0, {"a": True}), ("points", 1, {"x": True}),
        ("lines", 1, {"b": 5.0}), ("points", 0, {"y": 5.0}),
        ("lines", 2, {"c": "1/0"}), ("points", 2, {"x": "1/0"}),
        ("lines", 0, {"a": "1/-2"}), ("points", 1, {"y": "1/-2"}),
        ("points", 1, {"x": "3/2"}),
        ("points", 2, {"x": 0}),  # a repeated x
        ("points", 0, {"color": "K"}),
        ("lines", 1, {"color": "X"}), ("points", 2, {"color": "X"}),
        ("lines", 2, {"c": None}), ("points", 1, {"y": None}),  # None: the key is missing
        ("lines", 1, {"a": "0", "b": "0"}),
    ])
    def test_malformed_payloads_fail_alike(self, key, item, change):
        items = [dict(e) for e in (self.LINES if key == "lines" else self.LATTICE)]
        for field, value in change.items():
            if value is None:
                del items[item][field]
            else:
                items[item][field] = value
        rows, dataclasses = ((dec_line_rows, dec_lines_payload) if key == "lines"
                             else (dec_lattice_rows, dec_lattice_payload))
        want = _outcome(dataclasses, {key: items})
        assert isinstance(want, tuple) and issubclass(want[0], PreconditionViolated)
        assert _outcome(rows, {key: items}) == want

    POINTS = [{"x": "1", "y": "2", "color": "R"}, {"x": "-1/2", "y": "7/3", "color": "G"},
              {"x": "0", "y": "-5", "color": "B"}]

    @pytest.mark.parametrize("change", [
        {"x": True}, {"y": 5.0}, {"x": "1/0"}, {"y": "1/-2"}, {"x": ["1"]},
        {"y": "1e99999"},  # more digits than int() reads
        {"x": "abc"}, {"color": "X"}, {"color": 5},
        {"x": None}, {"y": None}, {"color": None},  # None: the key is missing
    ])
    @pytest.mark.parametrize("item", [0, 2])
    def test_malformed_point_payloads_fail_alike(self, item, change):
        items = [dict(e) for e in self.POINTS]
        for field, value in change.items():
            if value is None:
                del items[item][field]
            else:
                items[item][field] = value
        want = _outcome(dec_points_payload, {"points": items})
        assert isinstance(want, tuple) and issubclass(want[0], PreconditionViolated)
        assert _outcome(dec_point_rows, {"points": items}) == want

    @pytest.mark.parametrize("payload", [
        {"lines": []}, {"points": 5}, {"points": [5]}, {"points": [{"y": "1", "color": "R"}]}, [],
    ])
    def test_malformed_point_instances_fail_alike(self, payload):
        want = _outcome(dec_points_payload, payload)
        assert isinstance(want, tuple) and issubclass(want[0], PreconditionViolated)
        assert _outcome(dec_point_rows, payload) == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["0", "1/2", "007/014", "0.25", "2.5e-1", "0e5000"])
            | st.builds(Fraction, st.integers(0, 10**6), st.integers(10**5, 10**6)
                        ).filter(lambda t: t < 1).flatmap(forms_of)
            | RATIONALS.flatmap(forms_of),
            st.sampled_from("RGBK"),
        ),
        min_size=1, max_size=6,
    ))
    def test_circle_rows_are_parameter_pairs(self, rows):
        payload = {"points": [{"t": t, "color": col} for t, col in rows]}
        want = _outcome(dec_circle_payload, payload)
        got = _outcome(dec_circle_rows, payload)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
            return
        pairs, colors = got
        assert pairs == [(p.t.numerator, p.t.denominator) for p in want]
        assert colors == [p.color for p in want]
        assert all(type(v) is int for t in pairs for v in t)

    CIRCLE = [{"t": "0", "color": "R"}, {"t": "1/3", "color": "G"}, {"t": "2/3", "color": "B"}]

    @pytest.mark.parametrize("change", [
        {"t": "1"}, {"t": "-1/2"}, {"t": "1/0"}, {"t": ["1/2"]},
        {"color": None}, {"color": "Q"}, {"t": None},  # None: the key is missing
    ])
    @pytest.mark.parametrize("item", [0, 2])
    def test_malformed_circle_payloads_fail_alike(self, item, change):
        items = [dict(e) for e in self.CIRCLE]
        for field, value in change.items():
            if value is None:
                del items[item][field]
            else:
                items[item][field] = value
        want = _outcome(dec_circle_payload, {"points": items})
        assert isinstance(want, tuple) and issubclass(want[0], PreconditionViolated)
        assert _outcome(dec_circle_rows, {"points": items}) == want
