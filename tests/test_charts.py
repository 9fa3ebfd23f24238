import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tamperscan import charts
from tamperscan.charts import sweep_chart_svg, write_sweep_chart
from tamperscan.errors import ConfigError
from tamperscan.scenarios import Direction, SweepCurve

SVG_NS = "{http://www.w3.org/2000/svg}"


def make_curve(fips="13121", county="Fulton", state="GA", direction=Direction.R_TO_D,
               sigmas=(0.0, 1.0, 3.0, 5.0), k_detect=3000):
    ks = tuple(1000 * i for i in range(len(sigmas)))
    return SweepCurve(
        fips=fips, county=county, state=state, direction=direction,
        margin=2500, flip_threshold=1251,
        ks=ks, sigmas=sigmas, k_detect=k_detect,
    )


@pytest.fixture()
def curves():
    return [
        make_curve(),
        make_curve(fips="13067", county="Cobb", direction=Direction.D_TO_R,
                   sigmas=(0.0, 0.5, 1.5, 2.5), k_detect=None),
    ]


def test_parses_as_xml(curves):
    root = ET.fromstring(sweep_chart_svg(curves, "GA"))
    assert root.tag == f"{SVG_NS}svg"


def test_one_polyline_per_curve_with_county_tooltip(curves):
    root = ET.fromstring(sweep_chart_svg(curves, "GA"))
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 2
    titles = sorted(p.find(f"{SVG_NS}title").text for p in polylines)
    assert titles == ["Cobb (D_to_R)", "Fulton (R_to_D)"]


def test_directions_get_distinct_colors(curves):
    root = ET.fromstring(sweep_chart_svg(curves, "GA"))
    strokes = {p.get("stroke") for p in root.findall(f"{SVG_NS}polyline")}
    assert len(strokes) == 2


def test_guides_and_legend(curves):
    svg = sweep_chart_svg(curves, "GA")
    assert svg.count("stroke-dasharray") == 2  # 4 sigma line plus margin line
    assert "4 sigma" in svg
    assert "margin 2,500" in svg
    assert "flip R to D" in svg
    assert "flip D to R" in svg
    assert "GA: detectability of flipped votes" in svg


def test_comment_embedded_and_escaped():
    svg = sweep_chart_svg([make_curve()], "GA", comment="manifest_sha256=abc123")
    assert "<!-- manifest_sha256=abc123 -->" in svg
    hostile = sweep_chart_svg([make_curve()], "GA", comment="a<b>&c")
    assert "<!-- a&lt;b&gt;&amp;c -->" in hostile
    ET.fromstring(hostile)


def test_filters_to_requested_state():
    mixed = [make_curve(), make_curve(fips="42101", county="Philadelphia", state="PA")]
    root = ET.fromstring(sweep_chart_svg(mixed, "PA"))
    assert len(root.findall(f"{SVG_NS}polyline")) == 1


def test_no_curves_for_state_raises():
    with pytest.raises(ConfigError, match="no sweep curves for state MI"):
        sweep_chart_svg([make_curve()], "MI")


def test_identical_input_gives_identical_bytes(curves, tmp_path):
    write_sweep_chart(curves, "GA", tmp_path / "a.svg", comment="x")
    write_sweep_chart(curves, "GA", tmp_path / "b.svg", comment="x")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


@pytest.mark.parametrize("margin", [2500, 40_000])
def test_polyline_points_match_per_sample_formatting(margin, kernel_path):
    rng = np.random.default_rng(5)
    curves = []
    for i, (n, top) in enumerate(((40, 3.7), (57, 8.123456789), (3, 0.1 + 0.2))):
        ks = tuple(range(0, 7 * n, 7)) + (7 * n + 3,)
        sigmas = tuple(np.sort(rng.uniform(0.0, top, len(ks))).tolist())
        curves.append(SweepCurve(
            fips=f"1312{i}", county=f"County {i}", state="GA",
            direction=Direction.R_TO_D if i % 2 else Direction.D_TO_R,
            margin=margin, flip_threshold=margin // 2 + 1,
            ks=ks, sigmas=sigmas, k_detect=None,
        ))
    root = ET.fromstring(sweep_chart_svg(curves, "GA"))

    # the reference: the per-sample coordinate functions, one point at a time
    k_max = max(max(max(c.ks.tolist()) for c in curves), margin)
    sigma_max = max(6.0, max(max(c.sigmas.tolist()) for c in curves) + 0.5)
    plot_w = charts.WIDTH - charts.MARGIN_LEFT - charts.MARGIN_RIGHT
    plot_h = charts.HEIGHT - charts.MARGIN_TOP - charts.MARGIN_BOTTOM

    def sx(k):
        return charts.MARGIN_LEFT + plot_w * (k / k_max)

    def sy(sigma):
        return charts.MARGIN_TOP + plot_h * (1.0 - sigma / sigma_max)

    expected = [
        " ".join(
            f"{charts._fmt(sx(k))},{charts._fmt(sy(s))}"
            for k, s in zip(c.ks.tolist(), c.sigmas.tolist())
        )
        for c in curves
    ]
    assert [p.get("points") for p in root.findall(f"{SVG_NS}polyline")] == expected
