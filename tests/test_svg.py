"""SVG rendering: well-formed output, 6-digit presentation rounding."""

import dataclasses
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

from tricut.core import Color, arcset, circle_point, empty_arcset, full_circle, line, pt
from tricut.cells import build_arrangement, find_complete_face, is_complete
from tricut.generators import GenKind, GenSpec, generate
from tricut.llines import RayDir, find_balanced_lline, lline
from tricut.svg import render_arcset, render_arrangement, render_lline, render_wedge
from tricut.wedges import find_111_wedge, wedge_color_counts

R, G, B = Color.R, Color.G, Color.B

COORD_ATTRS = ("cx", "cy", "r", "x1", "y1", "x2", "y2", "width", "height", "points", "d")


def well_formed(doc: str) -> ET.Element:
    assert doc.startswith("<svg ")
    assert doc.rstrip().endswith("</svg>")
    return ET.fromstring(doc)


def all_numbers_six_digits(doc: str):
    # every coordinate number carries exactly 6 decimals (presentation
    # rounding); bare integers appear only as SVG arc flags inside "d"
    root = ET.fromstring(doc)
    seen = 0
    for el in root.iter():
        for attr in COORD_ATTRS:
            v = el.get(attr)
            if v is None:
                continue
            for m in re.finditer(r"-?\d+\.(\d+)", v):
                seen += 1
                assert len(m.group(1)) == 6, (attr, m.group(0))
    assert seen > 0


class TestArrangement:
    def lines(self):
        return generate(GenSpec(GenKind.SimpleLines3C, 6, 11))

    def test_plain(self):
        arr = build_arrangement(self.lines())
        doc = render_arrangement(arr)
        root = well_formed(doc)
        assert len(root.findall(".//{http://www.w3.org/2000/svg}line")) == 6
        all_numbers_six_digits(doc)

    def test_highlighted_face(self):
        ls = self.lines()
        arr = build_arrangement(ls)
        face = find_complete_face(ls)
        assert is_complete(face)
        doc = render_arrangement(arr, face)
        root = well_formed(doc)
        polys = root.findall(".//{http://www.w3.org/2000/svg}polygon")
        assert len(polys) == 1
        assert len(polys[0].get("points").split()) == len(face.vertices)

    def test_line_missing_the_box_is_skipped(self):
        arr = build_arrangement(
            (line(0, 1, 0, "R"), line(1, 0, 0, "G"), line(1, 1, 1, "B"))
        )
        far = line(1, 0, 10**9, "R")  # x = -1e9, far outside the box
        doc = render_arrangement(dataclasses.replace(arr, lines=arr.lines + (far,)))
        root = well_formed(doc)
        assert len(root.findall(".//{http://www.w3.org/2000/svg}line")) == 3


class TestWedge:
    def test_membership_styling(self):
        points = generate(GenSpec(GenKind.Points3C, 9, 5))
        w = find_111_wedge(points)
        doc = render_wedge(points, w)
        root = well_formed(doc)
        inside = sum(wedge_color_counts(w, points).values())
        hollow = doc.count('fill="#ffffff"')
        # one white rect background; the rest are non-member points
        assert hollow - 1 == len(points) - inside
        assert len(root.findall(".//{http://www.w3.org/2000/svg}line")) == 2
        all_numbers_six_digits(doc)


class TestArcset:
    def points(self):
        return generate(GenSpec(GenKind.CirclePoints3C, 4, 2))

    def test_two_arc_picture(self):
        a = arcset([(Fraction(1, 4), Fraction(3, 8)), (Fraction(1, 2), Fraction(9, 8))])
        doc = render_arcset(self.points(), a)
        well_formed(doc)
        assert doc.count("<path ") == 2
        # the wrapping arc spans more than half the circle
        assert ' 1 0 ' in doc and ' 0 0 ' in doc
        all_numbers_six_digits(doc)

    def test_empty_and_full(self):
        assert render_arcset(self.points(), empty_arcset()).count("<path ") == 0
        full = render_arcset(self.points(), full_circle())
        # full circle drawn as a highlighted ring, not a path
        assert full.count("<path ") == 0
        assert full.count('stroke-width="7.0"') == 1


class TestLLine:
    def test_corner_case_has_corner_dot(self):
        s = generate(GenSpec(GenKind.LatticeRedHull, 4, 8))
        l, _ = find_balanced_lline(s)
        doc = render_lline(s, l)
        root = well_formed(doc)
        drawn = len(root.findall(".//{http://www.w3.org/2000/svg}line"))
        assert drawn == 2
        all_numbers_six_digits(doc)

    def test_bent_lline_has_one_corner_dot_where_its_rays_start(self):
        s = generate(GenSpec(GenKind.LatticeRedHull, 4, 8))
        l = lline(Fraction(1, 2), Fraction(1, 2), (RayDir.UP, RayDir.RIGHT))
        assert not l.is_straight
        doc = render_lline(s, l)
        assert doc.count('r="3.000000" fill="#111111"') == 1
        root = well_formed(doc)
        ns = "{http://www.w3.org/2000/svg}"
        (dot,) = [c for c in root.iter(f"{ns}circle") if c.get("fill") == "#111111"]
        rays = root.findall(f".//{ns}line")
        assert len(rays) == 2
        assert {(r.get("x1"), r.get("y1")) for r in rays} == {(dot.get("cx"), dot.get("cy"))}
        all_numbers_six_digits(doc)

    def test_straight_case_no_corner_dot(self):
        s = generate(GenSpec(GenKind.LatticeRedHull, 4, 8))
        l = lline(Fraction(1, 2), Fraction(1, 2), (RayDir.LEFT, RayDir.RIGHT))
        doc = render_lline(s, l)
        assert doc.count('r="3.000000" fill="#111111"') == 0
