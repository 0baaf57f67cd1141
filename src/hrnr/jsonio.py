"""JSON wire formats for models, matrices, regions and dilation artifacts."""

from __future__ import annotations

import json
import math

import numpy as np

from .core import RegionEstimate
from .errors import ModelFormatError
from .geometry import ConvexPolygon, require_finite_real
from .spectral import INF, Arc, Atom, Region, Segment, SequenceFamily, SpectralMeasureModel


def _pt(val) -> complex:
    """An [x, y] pair of finite reals; ValueError otherwise."""
    if not (isinstance(val, list) and len(val) == 2):
        raise ValueError(f"expected a [x, y] pair, got {val!r}")
    return complex(*(require_finite_real(x, "coordinate") for x in val))


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
    except (TypeError, ValueError) as exc:  # a bad entry, a row that is not a list, ragged rows
        raise ModelFormatError(f"matrix rows must be lists of [re, im] pairs: {exc}") from exc
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ModelFormatError("matrix must be square")
    return M


def _atom(a: dict) -> Atom:
    mult = a["mult"]
    if isinstance(mult, float) and not math.isfinite(mult):
        raise ValueError(f'multiplicity must be a finite number or "inf", got {mult!r}')
    return Atom(_pt(a["point"]), INF if mult == "inf" else mult)


def _piece(p: dict):
    kind = p.get("type")
    if kind == "segment":
        return Segment(_pt(p["a"]), _pt(p["b"]))
    if kind == "arc":
        return Arc(_pt(p["center"]), p["radius"], p["theta0"], p["theta1"])
    if kind == "polygon":
        return Region(ConvexPolygon(tuple(_pt(v) for v in p["vertices"])))
    raise ValueError(f"unknown piece type {kind!r}")


def _family(f: dict) -> SequenceFamily:
    prefix = tuple((_pt(e["point"]), e["mult"]) for e in f.get("prefix", []))
    return SequenceFamily(
        prefix, _pt(f["limit"]), f["approach_angle"], f["approach_side"], f.get("tail_mult", 1)
    )


def _components(doc: dict, key: str, build) -> tuple:
    """The model components in the list of objects doc[key] (absent: none).
    The constructors check every number, and their ValueError, like a
    missing or mistyped field, makes the document malformed."""
    entries = doc.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ModelFormatError(f'"{key}" must be a list of objects')
    parts = []
    for obj in entries:
        try:
            parts.append(build(obj))
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"bad {key} entry {obj!r}: {exc}") from exc
    return tuple(parts)


def model_from_obj(doc: dict) -> SpectralMeasureModel:
    if "support_radius" not in doc:
        raise ModelFormatError('"model" document needs a numeric "support_radius"')
    atoms = _components(doc, "atoms", _atom)
    pieces = _components(doc, "pieces", _piece)
    families = _components(doc, "families", _family)
    try:
        return SpectralMeasureModel(atoms, pieces, families, doc["support_radius"])
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
