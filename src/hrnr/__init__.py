"""Rank-k numerical ranges of normal operators, computed from finitely
described spectral measures, plus construction and verification of unitary
dilations of contractions."""

from .errors import (
    AtomNotStrictContraction,
    CoincidentEndpoints,
    EigFailure,
    HrnrError,
    InvariantViolation,
    ModelFormatError,
    NoSeparatingAngle,
    NotContraction,
    NotNormal,
    NotOnSegment,
    NotSelfAdjoint,
    NotStrictContraction,
    NoWuWitness,
    RankExceedsDimension,
    UncertainGeometry,
)
from .geometry import (
    DEFAULT_TOL,
    ClosedHalfPlane,
    ConvexPolygon,
    HalfClosedHalfPlane,
    Verdict,
    convex_hull,
    halfplane_intersection,
)
from .spectral import (
    INF,
    Arc,
    Atom,
    Region,
    Segment,
    SequenceFamily,
    SpectralMeasureModel,
    dim_ran_closed,
    dim_ran_hchp,
    dim_ran_open,
    from_normal_matrix,
    support_levels,
    transform_model,
)
from .core import (
    RANK_INF,
    BoundaryKind,
    MembershipVerdict,
    RegionEstimate,
    is_boundary,
    member,
    member_many,
    region,
    selfadjoint_interval,
)
from .dilation import (
    DilationArtifact,
    ExclusionCertificate,
    WuReport,
    WuVerdict,
    dilation_intersection,
    excluding_certificate,
    excluding_dilation_matrix,
    halmos,
    scalar_dilation,
    wu_check,
)
from . import presets

__version__ = "0.1.0"
