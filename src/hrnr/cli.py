"""Command-line front end.

Exit codes: 0 success, 1 malformed input (usage errors included), 2
precondition violation (non-normal matrix, non-contraction, rank/dimension
mismatch, failed dilation check, ...), 3 uncertain-dominated result.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import jsonio, presets
from .core import (
    RANK_INF,
    member,
    member_many,
    region,
    selfadjoint_interval,
)
from .dilation import (
    WuVerdict,
    conjecture_check,
    dilation_intersection,
    halmos,
    wu_check,
)
from .errors import HrnrError, ModelFormatError, UncertainGeometry
from .geometry import Verdict, require_finite
from .spectral import from_normal_matrix
from .svgplot import write_region_svg


def _parse_point(text: str) -> complex:
    try:
        x, y = text.split(",")
        return require_finite(complex(float(x), float(y)))
    except ValueError as exc:
        raise ModelFormatError(f'point must be "x,y" finite decimals, got {text!r}') from exc


def _parse_alpha(text: str) -> float:
    try:
        return require_finite(float(text), "alpha").real
    except ValueError as exc:
        raise ModelFormatError(f"alpha must be a finite decimal, got {text!r}") from exc


def _parse_rank(text: str):
    if text.strip().lower() == "inf":
        return RANK_INF
    try:
        return int(text)
    except ValueError as exc:
        raise ModelFormatError(f"rank must be an integer or 'inf', got {text!r}") from exc


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return jsonio.parse_document(fh.read())
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc


def _as_model(doc):
    if isinstance(doc, np.ndarray):
        return from_normal_matrix(doc)
    return doc


def _as_matrix(doc) -> np.ndarray:
    if not isinstance(doc, np.ndarray):
        raise ModelFormatError('this command needs a {"kind":"matrix"} input')
    return doc


def _cmd_region(args) -> int:
    model = _as_model(_load(args.input))
    est = region(model, args.k, args.angles)
    obj = jsonio.region_to_obj(est)
    text = jsonio.dumps(obj)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.svg:
        write_region_svg(est, args.svg)
    print(text)
    return 0


def _cmd_member(args) -> int:
    model = _as_model(_load(args.input))
    z = _parse_point(args.point)
    k = _parse_rank(args.k)
    mv = member(model, k, z)
    out = {"point": [z.real, z.imag], "verdict": mv.value.value}
    if mv.witness is not None:
        out["witness"] = {
            "anchor": [mv.witness.anchor.real, mv.witness.anchor.imag],
            "normal_angle": mv.witness.normal_angle,
            "ray_sign": mv.witness.ray_sign,
            "dim": mv.witness_dim,
        }
    print(jsonio.dumps(out))
    return 3 if mv.value is Verdict.UNCERTAIN else 0


def _cmd_selfadjoint(args) -> int:
    model = _as_model(_load(args.input))
    interval = selfadjoint_interval(model, args.k)  # None: the levels cross
    print(jsonio.dumps({"k": args.k, "interval": None if interval is None else list(interval)}))
    return 0


def _cmd_dilate(args) -> int:
    T = _as_matrix(_load(args.input))
    art = halmos(T, _parse_alpha(args.alpha))
    print(jsonio.dumps(jsonio.dilation_to_obj(art)))
    return 0


def _cmd_wu_check(args) -> int:
    model = _as_model(_load(args.input))
    est = region(model, args.k, args.angles)
    report = wu_check(model, args.k, est)
    obj = {
        "verdict": report.verdict.value,
        "evidence": [
            {
                "point": [e.point.real, e.point.imag],
                "witness": None
                if e.witness is None
                else {
                    "anchor": [e.witness.anchor.real, e.witness.anchor.imag],
                    "normal_angle": e.witness.normal_angle,
                },
                "dim": e.dim,
                "note": e.note,
            }
            for e in report.evidence
        ],
        "skipped_near_eigenvalue": report.skipped_near_eigenvalue,
        "uncertain_samples": report.uncertain_samples,
    }
    print(jsonio.dumps(obj))
    return 3 if report.verdict is WuVerdict.INCONCLUSIVE else 0


def _cmd_conjecture(args) -> int:
    T = _as_matrix(_load(args.input))
    z = _parse_point(args.point)
    res = conjecture_check(T, args.k, z, args.thetas)
    print(
        jsonio.dumps(
            {"condition_holds": res.condition_holds, "theta": res.theta}
        )
    )
    return 0


def _cmd_intersect(args) -> int:
    T = _as_matrix(_load(args.input))
    poly = dilation_intersection(T, args.k)
    print(jsonio.dumps({"polygon": [[v.real, v.imag] for v in poly.vertices]}))
    return 0


# ---------------------------------------------------------------------------
# reproduce: built-in models checked against their known ranges
# ---------------------------------------------------------------------------


def _report(checks) -> int:
    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}: {name}")
        ok = ok and passed
    return 0 if ok else 1


def _reproduce_durszt(k: int) -> int:
    model = presets.durszt_model(k)
    expected = {
        0j: Verdict.IN,
        0.5 + 0j: Verdict.OUT,
        -0.5 + 0j: Verdict.OUT,
        0.3 + 0.4j: Verdict.IN,
        1j: Verdict.OUT,
    }
    verdicts = member_many(model, k, list(expected))
    checks = [
        (f"member({z}) = {v.value}", mv.value is v)
        for (z, v), mv in zip(expected.items(), verdicts)
    ]
    est = region(model, k, 64)
    report = wu_check(model, k, est)
    checks.append(
        (
            "wu-check strict containment",
            report.verdict is WuVerdict.STRICT_CONTAINMENT_PREDICTED,
        )
    )
    checks.append(
        (
            "failure note on the real axis",
            any(
                e.note is not None and abs(e.point.imag) < 1e-9
                for e in report.evidence
            ),
        )
    )
    return _report(checks)


def _reproduce_bilateral(k: int) -> int:
    model = presets.bilateral_shift_model()
    ranks = [1, 2, k, RANK_INF] if k not in (1, 2) else [1, 2, 5, RANK_INF]
    pts_in = [
        r * complex(math.cos(t), math.sin(t))
        for r in (0.0, 0.4, 0.8, 0.995)
        for t in np.linspace(0.1, 2 * math.pi, 8)
    ]
    pts_out = [
        r * complex(math.cos(t), math.sin(t))
        for r in (1.0, 1.05, 1.4)
        for t in np.linspace(0.1, 2 * math.pi, 8)
    ]
    checks = []
    for kk in ranks:
        label = "inf" if kk == RANK_INF else kk
        verdicts = [mv.value for mv in member_many(model, kk, pts_in + pts_out)]
        ok_in = all(v is Verdict.IN for v in verdicts[: len(pts_in)])
        ok_out = all(v is Verdict.OUT for v in verdicts[len(pts_in) :])
        checks.append((f"k={label}: open disk in, circle and beyond out", ok_in and ok_out))
    return _report(checks)


def _reproduce_infinity_empty(k: int) -> int:
    model = presets.infinity_empty_model()
    grid = [
        complex(x, y)
        for x in np.linspace(-1, 1, 20)
        for y in np.linspace(-1, 1, 20)
    ]
    some_in = any(mv.value is Verdict.IN for mv in member_many(model, k, grid))  # checks k first
    all_out = all(mv.value is Verdict.OUT for mv in member_many(model, RANK_INF, grid))
    return _report(
        [
            ("rank-inf range empty on the grid", all_out),
            (f"rank-{k} range nonempty on the grid", some_in),
        ]
    )


def _reproduce_hermitian(k: int) -> int:
    model = presets.hermitian_model()
    interval = selfadjoint_interval(model, k)  # checks k before it indexes vals
    est = region(model, k, 64)
    vals = sorted(presets.HERMITIAN_VALUES, reverse=True)
    lo, hi = vals[len(vals) - k], vals[k - 1]
    if lo > hi:
        # the levels cross: the range of simple eigenvalues is empty
        return _report(
            [
                ("interval is empty", interval is None),
                ("region is empty", est.polygon.is_empty),
            ]
        )
    a, b = interval
    flat = all(abs(v.imag) < 1e-8 for v in est.polygon.vertices)
    xs = [v.real for v in est.polygon.vertices]
    checks = [
        (f"interval endpoints = [{lo}, {hi}]", abs(a - lo) < 1e-9 and abs(b - hi) < 1e-9),
        ("region degenerates to the same real segment", flat
         and abs(min(xs) - lo) < 1e-8 and abs(max(xs) - hi) < 1e-8),
    ]
    return _report(checks)


def _reproduce_square(k: int) -> int:
    model = presets.square_region_model(k)
    est = region(model, k, 64)
    report = wu_check(model, k, est)
    checks = [
        (
            "wu-check strict containment",
            report.verdict is WuVerdict.STRICT_CONTAINMENT_PREDICTED,
        ),
        (
            "failure note on the right edge",
            any(
                e.note is not None and abs(e.point.real - 0.5) < 1e-9
                for e in report.evidence
            ),
        ),
        ("interior point is a member", member(model, k, 0j).value is Verdict.IN),
    ]
    return _report(checks)


_REPRODUCTIONS = {
    "durszt": (_reproduce_durszt, 2),
    "bilateral-shift": (_reproduce_bilateral, 5),
    "infinity-empty": (_reproduce_infinity_empty, 1),
    "hermitian": (_reproduce_hermitian, 2),
    "square-region": (_reproduce_square, 2),
}


def _cmd_reproduce(args) -> int:
    fn, default_k = _REPRODUCTIONS[args.name]
    return fn(args.k if args.k is not None else default_k)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ModelFormatError, so they exit 1 like any other
    malformed input; subparsers inherit the class."""

    def error(self, message):
        raise ModelFormatError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="hrnr",
        description="Rank-k numerical ranges of normal operators and unitary dilations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, rank=True):
        sp.add_argument("--input", required=True, help="model or matrix JSON file")
        if rank:
            sp.add_argument("-k", type=int, required=True, help="rank (positive integer)")

    sp = sub.add_parser("region", help="support sweep, polygon and boundary report")
    add_common(sp)
    sp.add_argument("--angles", type=int, default=96)
    sp.add_argument("--svg", help="write an SVG rendering to this path")
    sp.add_argument("--json", help="also write the JSON report to this path")
    sp.set_defaults(fn=_cmd_region)

    sp = sub.add_parser("member", help="pointwise membership with witness")
    sp.add_argument("--input", required=True)
    sp.add_argument("-k", required=True, help="rank (integer or 'inf')")
    sp.add_argument("--point", required=True, help='query point "x,y"')
    sp.set_defaults(fn=_cmd_member)

    sp = sub.add_parser("selfadjoint", help="interval range of a real-supported model")
    add_common(sp)
    sp.set_defaults(fn=_cmd_selfadjoint)

    sp = sub.add_parser("dilate", help="rotated Halmos dilation of a matrix")
    sp.add_argument("--input", required=True)
    sp.add_argument("--alpha", default="0", help="rotation phase (finite decimal)")
    sp.set_defaults(fn=_cmd_dilate)

    sp = sub.add_parser("wu-check", help="dilation-range equality prediction")
    add_common(sp)
    sp.add_argument("--angles", type=int, default=96)
    sp.set_defaults(fn=_cmd_wu_check)

    sp = sub.add_parser("conjecture", help="scan the spectral exclusion condition")
    add_common(sp)
    sp.add_argument("--point", required=True)
    sp.add_argument("--thetas", type=int, default=360)
    sp.set_defaults(fn=_cmd_conjecture)

    sp = sub.add_parser(
        "intersect",
        help="intersection of dilation ranges",
        description=(
            "Polygon of the intersection of the rank-k ranges of the unitary dilations of "
            "a normal contraction T.  Its support planes are exact, at the normals where "
            "two eigenvalues tie at the k-th level, and the polygon equals the rank-k range "
            "of T up to rounding.  A T that is not normal exits 2."
        ),
    )
    add_common(sp)
    sp.set_defaults(fn=_cmd_intersect)

    sp = sub.add_parser("reproduce", help="built-in reproduction pipelines")
    sp.add_argument("name", choices=sorted(_REPRODUCTIONS))
    sp.add_argument("-k", type=int, default=None)
    sp.set_defaults(fn=_cmd_reproduce)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UncertainGeometry as exc:
        print(f"uncertain: {exc}", file=sys.stderr)
        return 3
    except (HrnrError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
