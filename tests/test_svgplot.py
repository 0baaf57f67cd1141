"""The boundary report of ``region`` lists the polygon's vertices, then one
edge midpoint per edge in ``edges()`` order, and ``region_svg`` reads the
edge verdicts from it by position: the same SVG text as the keyed midpoint
lookup kept in ``svgplot_oracle``."""

import functools
import importlib.util
from pathlib import Path

import hrnr
from hrnr import presets
from hrnr.svgplot import region_svg

import svgplot_oracle as oracle


@functools.cache
def _estimates():
    """Region estimates of the presets (the Hermitian one at k = 2 is a
    segment, at k = 3 a point, at k = 4 empty) and of the region_wu model
    pools of seeds 1-3, at a coarse and at the benchmark's angle grid."""
    path = Path(__file__).resolve().parent.parent / "hrnrbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("hrnrbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    models = [
        (presets.durszt_model(2), 2),
        (presets.square_region_model(2), 2),
        (presets.bilateral_shift_model(), 1),
        (presets.infinity_empty_model(), 1),
    ]
    models += [(presets.hermitian_model(), k) for k in (1, 2, 3, 4)]
    for seed in (1, 2, 3):
        models += workloads.RegionWu(seed).build(hrnr)[0]
    return [hrnr.region(model, k, n) for model, k in models for n in (16, 96)]


def test_report_lists_vertices_then_edge_midpoints():
    shapes = set()
    for est in _estimates():
        poly = est.polygon
        mids = [0.5 * (a + b) for a, b in poly.edges()]
        assert [z for z, _ in est.boundary_report] == list(poly.vertices) + mids
        shapes.add(min(len(poly.vertices), 3))
    assert shapes == {0, 1, 2, 3}  # empty, point, segment and polygon


def test_svg_matches_the_keyed_lookup():
    estimates = _estimates()
    assert len(estimates) == 2 * (8 + 3 * 48)
    for est in estimates:
        assert region_svg(est) == oracle.region_svg(est)
