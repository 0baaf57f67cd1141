"""JSON wire formats for models, matrices, regions and dilation artifacts."""

from __future__ import annotations

import json
import math

import numpy as np

from .core import RegionEstimate
from .errors import ModelFormatError
from .geometry import ConvexPolygon
from .spectral import INF, Arc, Atom, Region, Segment, SequenceFamily, SpectralMeasureModel


def _num(val, what: str) -> float:
    """A finite JSON number; booleans, strings and non-finite or overflowing
    values are malformed."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ModelFormatError(f"{what} must be a number, got {val!r}")
    try:
        x = float(val)
    except OverflowError as exc:
        raise ModelFormatError(f"{what} too large for a float") from exc
    if not math.isfinite(x):
        raise ModelFormatError(f"non-finite {what} {val!r}")
    return x


def _pt(val) -> complex:
    try:
        x, y = val[0], val[1]
    except (TypeError, IndexError, KeyError) as exc:
        raise ModelFormatError(f"expected a [x, y] pair, got {val!r}") from exc
    return complex(_num(x, "coordinate"), _num(y, "coordinate"))


def _count(val) -> int:
    """A finite multiplicity: a JSON integer >= 1 or an integral float such
    as 2.0; booleans, strings and fractions are malformed."""
    x = _num(val, "multiplicity")  # weights are summed as floats
    if not x.is_integer():
        raise ModelFormatError(f"multiplicity must be an integer, got {val!r}")
    if x < 1:
        raise ModelFormatError(f"multiplicity must be at least 1, got {val!r}")
    return int(val)


def _mult(val) -> float:
    """An atom multiplicity: a finite count or "inf"."""
    return INF if val == "inf" else float(_count(val))


def _objects(doc: dict, key: str) -> list[dict]:
    """The list of JSON objects under doc[key] (absent: empty)."""
    entries = doc.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ModelFormatError(f'"{key}" must be a list of objects')
    return entries


def parse_document(text: str):
    """Parse a model or matrix JSON document.

    Returns a SpectralMeasureModel for kind "model" and a complex ndarray for
    kind "matrix".
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ModelFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ModelFormatError('document must be an object with a "kind" field')
    if doc["kind"] == "matrix":
        return matrix_from_obj(doc)
    if doc["kind"] == "model":
        return model_from_obj(doc)
    raise ModelFormatError(f'unknown kind {doc["kind"]!r}')


def matrix_from_obj(doc: dict) -> np.ndarray:
    data = doc.get("data")
    if not isinstance(data, list) or not data:
        raise ModelFormatError('"matrix" document needs a nonempty "data" array')
    try:
        M = np.asarray([[_pt(e) for e in row] for row in data], dtype=complex)
    except (TypeError, ValueError) as exc:  # a row that is not a list, or ragged rows
        raise ModelFormatError("matrix rows must be lists of [re, im] pairs") from exc
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ModelFormatError("matrix must be square")
    return M


def model_from_obj(doc: dict) -> SpectralMeasureModel:
    if "support_radius" not in doc:
        raise ModelFormatError('"model" document needs a numeric "support_radius"')
    radius = _num(doc["support_radius"], "support_radius")
    atoms = []
    for a in _objects(doc, "atoms"):
        try:
            atoms.append(Atom(_pt(a["point"]), _mult(a["mult"])))
        except KeyError as exc:
            raise ModelFormatError(f"atom {a!r} lacks {exc}") from exc
    pieces = []
    for p in _objects(doc, "pieces"):
        kind = p.get("type")
        try:
            if kind == "segment":
                pieces.append(Segment(_pt(p["a"]), _pt(p["b"])))
            elif kind == "arc":
                pieces.append(
                    Arc(
                        _pt(p["center"]),
                        _num(p["radius"], "radius"),
                        _num(p["theta0"], "theta0"),
                        _num(p["theta1"], "theta1"),
                    )
                )
            elif kind == "polygon":
                pieces.append(Region(ConvexPolygon(tuple(_pt(v) for v in p["vertices"]))))
            else:
                raise ModelFormatError(f"unknown piece type {kind!r}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelFormatError(f"bad piece {p!r}: {exc}") from exc
    families = []
    for f in _objects(doc, "families"):
        try:
            prefix = tuple((_pt(e["point"]), _count(e["mult"])) for e in f.get("prefix", []))
            families.append(
                SequenceFamily(
                    prefix,
                    _pt(f["limit"]),
                    _num(f["approach_angle"], "approach_angle"),
                    str(f["approach_side"]),
                    _count(f.get("tail_mult", 1)),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelFormatError(f"bad family {f!r}: {exc}") from exc
    try:
        return SpectralMeasureModel(tuple(atoms), tuple(pieces), tuple(families), radius)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


def region_to_obj(est: RegionEstimate) -> dict:
    return {
        "k": est.k,
        "support": [{"xi": xi, "h": h} for xi, h in est.support_samples],
        "polygon": [[v.real, v.imag] for v in est.polygon.vertices],
        "boundary": [
            {"point": [z.real, z.imag], "verdict": v.value} for z, v in est.boundary_report
        ],
    }


def dilation_to_obj(art) -> dict:
    return {
        "alpha": art.alpha,
        "unitarity_residual": art.unitarity_residual,
        "compression_residual": art.compression_residual,
        "defect_rank": art.defect_rank,
        "matrix": [[[z.real, z.imag] for z in row] for row in np.asarray(art.matrix)],
    }


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)
