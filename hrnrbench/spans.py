"""Per-layer spans recorded from outside the library.

Each traced layer is a public function of ``hrnr`` (or ``numpy.linalg``).
:class:`SpanRecorder` replaces that function, under every module attribute
through which a caller looks it up, with a wrapper that times the call and
charges it to the span on top of a stack.  A span's self time is its
duration minus the time its child spans cover, so the self times of all
spans plus the untraced remainder of an operation add up to the operation's
traced wall time.

Nothing inside the library changes; the wrappers are removed again by
:meth:`SpanRecorder.uninstall`.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

LINALG = ("eigvals", "eigvalsh", "eig", "eigh", "svd", "qr")


def _kernel_pairs(rec, args, kwargs, result):
    # atom_side_sweep(px, py, w, vx, vy, eps): one pair per point and direction
    rec.counts["kernels.atom_side_sweep.pairs"] += len(args[0]) * len(args[3])


def _directions(rec, args, kwargs, result):
    rec.counts["core.critical_directions.directions"] += len(result[0])


def _member_candidates(rec, args, kwargs, result):
    if any(name == "dilation.excluding_dilation_matrix" for name, _ in rec.stack):
        rec.counts["dilation.excluding_dilation_matrix.candidates"] += 1


def _wu_samples(rec, args, kwargs, result):
    # wu_check samples every polygon vertex plus samples_per_edge (default 9)
    # interior points of every edge; evidence entries are the samples that
    # were not skipped as unresolvable or as members
    region_est = args[2] if len(args) > 2 else kwargs["region_est"]
    per_edge = args[4] if len(args) > 4 else kwargs.get("samples_per_edge", 9)
    poly = region_est.polygon
    rec.counts["dilation.wu_check.samples"] += len(poly.vertices) + len(poly.edges()) * per_edge
    rec.counts["dilation.wu_check.evidence"] += len(result.evidence)


def layer_table(hrnr, linalg):
    """(span name, [(module, attribute), ...], count hook) for every layer."""
    core, spectral, dilation, geometry, kernels = (
        getattr(hrnr, m, None) for m in ("core", "spectral", "dilation", "geometry", "kernels")
    )
    return [
        ("kernels.atom_side_sweep", [(kernels, "atom_side_sweep")], _kernel_pairs),
        (
            "core.critical_directions",
            [(core, "critical_directions"), (dilation, "critical_directions")],
            _directions,
        ),
        (
            "spectral.direction_sweep",
            [(spectral, "direction_sweep"), (core, "direction_sweep"), (dilation, "direction_sweep")],
            None,
        ),
        ("core.member", [(hrnr, "member"), (core, "member"), (dilation, "member")], _member_candidates),
        ("core.region", [(hrnr, "region"), (core, "region")], None),
        (
            "spectral.pushforward",
            [(hrnr, "pushforward"), (core, "pushforward"), (spectral, "pushforward")],
            None,
        ),
        (
            "spectral.lambda_k_sup",
            [(hrnr, "lambda_k_sup"), (core, "lambda_k_sup"), (spectral, "lambda_k_sup")],
            None,
        ),
        (
            "geometry.halfplane_intersection",
            [
                (hrnr, "halfplane_intersection"),
                (geometry, "halfplane_intersection"),
                (core, "halfplane_intersection"),
                (dilation, "halfplane_intersection"),
            ],
            None,
        ),
        ("dilation.wu_check", [(hrnr, "wu_check"), (dilation, "wu_check")], _wu_samples),
        (
            "dilation.excluding_dilation_matrix",
            [(hrnr, "excluding_dilation_matrix"), (dilation, "excluding_dilation_matrix")],
            None,
        ),
        (
            "dilation.dilation_intersection",
            [(hrnr, "dilation_intersection"), (dilation, "dilation_intersection")],
            None,
        ),
        ("dilation.halmos", [(hrnr, "halmos"), (dilation, "halmos")], None),
        (
            "spectral.from_normal_matrix",
            [
                (hrnr, "from_normal_matrix"),
                (core, "from_normal_matrix"),
                (dilation, "from_normal_matrix"),
                (spectral, "from_normal_matrix"),
            ],
            None,
        ),
    ] + [(f"linalg.{name}", [(linalg, name)], None) for name in LINALG]


class SpanRecorder:
    """Stack of open spans plus per-span totals, for one benchmark process.

    Wrappers pass straight through while ``enabled`` is false, so output
    checks that call the library between operations are not recorded.
    """

    def __init__(self):
        self.enabled = False
        self.stack: list[tuple[str, list[float]]] = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.ops = 0
        self.op_s = 0.0
        self.untraced_s = 0.0
        self.last_op_s = 0.0
        self._saved: list[tuple[object, str, object]] = []

    def install(self, table) -> None:
        """Wrap every lookup site of every layer; a site whose module or
        attribute does not exist (a layer moved by a later refactor) is
        skipped, and that layer then reports zero."""
        for name, sites, hook in table:
            for module, attr in sites:
                if not hasattr(module, attr):
                    continue
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, hook):
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            child = [0.0]
            rec.stack.append((name, child))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec.stack.pop()
                rec.calls[name] += 1
                rec.total_s[name] += dt
                rec.self_s[name] += dt - child[0]
                rec.stack[-1][1][0] += dt
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        return wrapper

    def run_op(self, fn):
        """Run one operation as the root span and return its result.

        The operation's wall time is left in ``last_op_s``, also when it
        raises.
        """
        child = [0.0]
        self.stack.append(("op", child))
        self.enabled = True
        t0 = perf_counter()
        try:
            return fn()
        finally:
            dt = perf_counter() - t0
            self.enabled = False
            self.stack.pop()
            self.last_op_s = dt
            self.ops += 1
            self.op_s += dt
            self.untraced_s += dt - child[0]
