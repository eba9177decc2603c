import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab.data import gen_gaussian_clusters
from driftlab.harness import MethodConfig, run_sequence, split_tasks
from driftlab.prototypes import PrototypeBook
from driftlab.svgplot import (
    _text,
    confusion_figure,
    curves_figure,
    embedding_figure,
    embedding_transform,
)


def named(root, tag):
    return [e for e in root.iter() if e.tag.split("}")[-1] == tag]


@pytest.fixture(scope="module")
def sdc_record():
    ds = gen_gaussian_clusters(4, 30, 6, spread=0.25, seed=0)
    seq = split_tasks(ds, 2, seed=0)
    cfg = MethodConfig("E-FT", sdc=True, epochs=10, batch_size=16, lr=3e-3,
                       embedding_dim=2, hidden=(32,), seed=0)
    return run_sequence(cfg, seq), seq


def test_embedding_figure_is_valid_xml(sdc_record):
    rec, _ = sdc_record
    svg = embedding_figure(rec.embed2d[2], title="after task 2")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_embedding_figure_deterministic(sdc_record):
    rec, _ = sdc_record
    a = embedding_figure(rec.embed2d[2])
    b = embedding_figure(rec.embed2d[2])
    assert a == b


def test_embedding_marker_census(sdc_record):
    rec, seq = sdc_record
    payload = rec.embed2d[2]
    root = ET.fromstring(embedding_figure(payload))
    dots = [c for c in named(root, "circle") if "fill-opacity" in c.attrib]
    assert len(dots) == len(payload["points"])
    saved = [c for c in named(root, "circle")
             if c.get("data-role") == "saved"]
    assert len(saved) == 4  # one per class seen so far
    stars = [p for p in named(root, "polygon")
             if p.get("data-role") == "true-mean"]
    assert sorted(int(p.get("data-class")) for p in stars) == \
        sorted(seq.tasks[0].classes)


def test_arrow_endpoints_match_serialized_prototypes(sdc_record):
    # the drawn arrow must join (vector - compensation) to vector, using
    # the prototypes as they come back off disk
    rec, seq = sdc_record
    payload = rec.embed2d[2]
    book = PrototypeBook.from_json(rec.book.to_json())
    sx, ox, sy, oy = embedding_transform(payload)
    root = ET.fromstring(embedding_figure(payload))

    lines = {int(l.get("data-class")): l for l in named(root, "line")
             if l.get("data-class")}
    corrected = {int(p.get("data-class")): p for p in named(root, "polygon")
                 if p.get("data-role") == "corrected"}
    assert set(lines) == set(seq.tasks[0].classes)
    assert set(corrected) == set(lines)

    for c, line in lines.items():
        e = book.entries[c]
        start = e.vector - e.compensation
        assert float(line.get("x1")) == pytest.approx(sx * start[0] + ox, abs=6e-3)
        assert float(line.get("y1")) == pytest.approx(sy * start[1] + oy, abs=6e-3)
        assert float(line.get("x2")) == pytest.approx(sx * e.vector[0] + ox, abs=6e-3)
        assert float(line.get("y2")) == pytest.approx(sy * e.vector[1] + oy, abs=6e-3)


def test_embedding_payload_survives_json_keys(sdc_record):
    # record.json round trip turns dict keys into strings; the figure
    # must render identically from either form
    import json

    rec, _ = sdc_record
    payload = rec.embed2d[2]
    stringly = json.loads(json.dumps(payload))
    assert embedding_figure(stringly) == embedding_figure(payload)


def test_embedding_transform_uniform_scale(sdc_record):
    rec, _ = sdc_record
    sx, _, sy, _ = embedding_transform(rec.embed2d[2])
    assert sx == pytest.approx(-sy)
    assert sx > 0


def test_embedding_empty_payload():
    with pytest.raises(ValueError):
        embedding_transform({"points": [], "prototypes": {}})


def test_curves_figure_series_and_labels():
    series = [
        ("E-FT", [(1, 0.9), (2, 0.7), (3, 0.6)]),
        ("E-FT+SDC", [(1, 0.9), (2, 0.8), (3, 0.75)]),
        ("Joint", [(3, 0.95)]),
    ]
    svg = curves_figure(series, title="synthetic")
    root = ET.fromstring(svg)
    assert len(named(root, "polyline")) == 2  # single-point series has no line
    texts = [t.text for t in named(root, "text")]
    for label, _ in series:
        assert label in texts
    assert svg == curves_figure(series, title="synthetic")


def test_curves_y_positions_monotone():
    svg = curves_figure([("m", [(1, 0.2), (2, 0.9)])])
    root = ET.fromstring(svg)
    marks = [c for c in named(root, "circle") if c.get("r") == "3.5"]
    ys = {float(c.get("cx")): float(c.get("cy")) for c in marks}
    xs = sorted(ys)
    assert ys[xs[0]] > ys[xs[1]]  # higher accuracy sits higher on screen


def test_curves_empty():
    with pytest.raises(ValueError):
        curves_figure([])


def test_confusion_figure_cells_and_shading():
    classes = [0, 1, 3]
    counts = np.array([[8, 1, 1], [0, 10, 0], [2, 0, 8]])
    svg = confusion_figure(classes, counts, title="after task 2")
    root = ET.fromstring(svg)
    cells = [r for r in named(root, "rect") if r.get("fill", "").startswith("rgb")]
    assert len(cells) == 9
    # diagonal cell is darker than its off-diagonal neighbor
    def red(cell):
        return int(cell.get("fill").split("(")[1].split(",")[0])
    assert red(cells[0]) < red(cells[1])
    texts = [t.text for t in named(root, "text")]
    assert "10" in texts and "3" in texts


def test_confusion_empty():
    with pytest.raises(ValueError):
        confusion_figure([], [])


@given(st.lists(st.one_of(st.sampled_from(["&", "<", ">", "&amp;", '"', "'", "]]>"]),
                          st.text(max_size=4)), max_size=8).map("".join))
def test_text_escapes_as_saxutils(s):
    """Figure text is escaped as ``xml.sax.saxutils.escape`` does, without
    importing it: ``&`` first, then ``>`` and ``<``; quotes pass."""
    assert _text(1, 2, s).endswith(f">{escape(s)}</text>")
    assert _text(1, 2, s).count("<") == 2  # only the tags' own
