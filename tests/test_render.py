import re

from hypfield import render

ODD_FILL, EVEN_FILL = "#deebf7", "#9ecae1"


def test_tessellation_svg_is_deterministic(tess344_small):
    svg = render.tessellation_svg(tess344_small)
    assert svg == render.tessellation_svg(tess344_small)
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    assert svg.count("<path") == len(tess344_small)


def test_tile_fill_follows_word_parity(tess344_small):
    # det g = (-1)^len(word) for a product of reflections
    fills = re.findall(r'<path d="[^"]*" fill="(#[0-9a-f]{6})"', render.tessellation_svg(tess344_small))
    assert len(fills) == len(tess344_small)
    want = [ODD_FILL if len(t.word) % 2 else EVEN_FILL for t in tess344_small.tiles]
    assert fills == want
    assert {ODD_FILL, EVEN_FILL} == set(fills)


def test_decay_svg_is_deterministic():
    qs, us = [1, 2, 3, 4], [-0.4, -0.75, -1.2, -1.5]
    svg = render.decay_svg(qs, us, 0.37, 0.36)
    assert svg == render.decay_svg(qs, us, 0.37, 0.36)
    assert svg.count("<circle") == len(qs)
    assert "eps_hat = 0.37 (95% lower bound 0.36)" in svg


def test_decay_svg_empty_input_is_a_stub():
    assert render.decay_svg([], [], 0.0, 0.0) == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/>'
    )
