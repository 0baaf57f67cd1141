"""Writers of the JSON input formats that ``hrnr.jsonio`` parses: models
and matrices.  Only tests write input files, so these live here; the
round-trip tests read what they write back through the package parser."""

from __future__ import annotations

import numpy as np

from hrnr.spectral import INF, Arc, Segment, SpectralMeasureModel


def model_to_obj(model: SpectralMeasureModel) -> dict:
    def pt(z: complex):
        return [z.real, z.imag]

    pieces = []
    for p in model.pieces:
        if isinstance(p, Segment):
            pieces.append({"type": "segment", "a": pt(p.a), "b": pt(p.b)})
        elif isinstance(p, Arc):
            pieces.append(
                {
                    "type": "arc",
                    "center": pt(p.center),
                    "radius": p.radius,
                    "theta0": p.theta0,
                    "theta1": p.theta1,
                }
            )
        else:
            pieces.append({"type": "polygon", "vertices": [pt(v) for v in p.polygon.vertices]})
    return {
        "kind": "model",
        "support_radius": model.support_radius,
        "atoms": [
            {"point": pt(a.location), "mult": "inf" if a.mult == INF else int(a.mult)}
            for a in model.atoms
        ],
        "pieces": pieces,
        "families": [
            {
                "prefix": [{"point": pt(p), "mult": int(m)} for p, m in f.prefix],
                "limit": pt(f.limit),
                "approach_angle": f.approach_angle,
                "approach_side": f.approach_side,
                "tail_mult": f.tail_mult,
            }
            for f in model.families
        ],
    }


def matrix_to_obj(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    return {
        "kind": "matrix",
        "data": [[[z.real, z.imag] for z in row] for row in M],
    }
