"""Built-in models for the reproduction pipelines.

These are the classical normal operators whose rank-k ranges have known
closed forms: the semicircle-plus-eigenvalue contraction (Durszt), the
bilateral shift, a two-sequence operator with empty rank-infinity range, a
real five-atom matrix, and a filled square with two boundary eigenvalues.
"""

from __future__ import annotations

import math

from .geometry import ConvexPolygon
from .spectral import Arc, Atom, Region, SequenceFamily, SpectralMeasureModel


def durszt_model(k: int = 2) -> SpectralMeasureModel:
    """Upper unit semicircle of continuous mass plus a rank-k atom at 0.

    Its rank-k range is the open upper half disk together with {0}; every
    unitary dilation's range also contains the real diameter, so the
    dilation intersection is strictly larger.
    """
    if not k >= 1:
        raise ValueError("k must be >= 1")
    return SpectralMeasureModel(
        atoms=(Atom(0j, k),),
        pieces=(Arc(0j, 1.0, 0.0, math.pi),),
        support_radius=1.0,
    )


def bilateral_shift_model() -> SpectralMeasureModel:
    """Full unit circle of continuous mass, no eigenvalues: every rank-k
    range (k finite or infinite) is the open unit disk."""
    return SpectralMeasureModel(
        pieces=(Arc(0j, 1.0, 0.0, 2.0 * math.pi),),
        support_radius=1.0,
    )


def infinity_empty_model() -> SpectralMeasureModel:
    """Two eigenvalue sequences accumulating at 0 from different directions:
    -1/n on the real axis and e^{i pi/n}/n from above, each listed for
    n = 2..101.  Every finite-rank range is nonempty while the rank-infinity
    range is empty."""
    neg = tuple((complex(-1.0 / n, 0.0), 1) for n in range(2, 102))
    spiral = tuple(
        (complex(math.cos(math.pi / n) / n, math.sin(math.pi / n) / n), 1)
        for n in range(2, 102)
    )
    fam_neg = SequenceFamily(neg, 0j, math.pi, "on", 1)
    fam_spiral = SequenceFamily(spiral, 0j, 0.0, "above", 1)
    return SpectralMeasureModel(families=(fam_neg, fam_spiral), support_radius=1.0)


HERMITIAN_VALUES = (1.0, 0.5, 0.0, -0.2, -1.0)


def hermitian_model() -> SpectralMeasureModel:
    """Five simple real atoms; rank-k range is a real interval."""
    return SpectralMeasureModel(
        atoms=tuple(Atom(complex(x, 0.0), 1) for x in HERMITIAN_VALUES),
        support_radius=2.0,
    )


def square_region_model(k: int = 2) -> SpectralMeasureModel:
    """Filled square [-1/2,1/2]^2 plus atoms 1/2 +- i/4 of multiplicities
    (k-1, 1): the rank-k range is the open square, yet no closed half plane
    through 1/2 is deficient, so dilation-range equality fails."""
    if not k >= 2:
        raise ValueError("the square model needs k >= 2")
    square = ConvexPolygon(
        (
            complex(-0.5, -0.5),
            complex(0.5, -0.5),
            complex(0.5, 0.5),
            complex(-0.5, 0.5),
        )
    )
    return SpectralMeasureModel(
        atoms=(Atom(complex(0.5, 0.25), k - 1), Atom(complex(0.5, -0.25), 1)),
        pieces=(Region(square),),
        support_radius=1.0,
    )
