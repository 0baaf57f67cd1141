"""The three benchmark workloads: inputs, operations and output checks.

Every workload draws its inputs from the seed alone, with numpy, before the
library is imported; the library only ever sees the generated matrices,
models and points.  Operation ``i`` is a pure function of the seed and
``i``, so a traced replay runs exactly the operations of the untraced run.

Each workload provides

* ``build(hrnr)``: turn the generated data into library inputs (timed as
  part of ``setup_s``);
* ``warmup(hrnr, state)``: untimed-in-the-loop operations, also in
  ``setup_s``;
* ``op(hrnr, state, i)``: one closed-loop operation (timed);
* ``check(hrnr, state, i, out)``: the output check, returning
  ``(ok, verdicts, uncertain, note)``;
* ``period``: the operations repeat their mix of kinds, ranks and models
  every ``period`` operations, and a run ends on a multiple of it, so the
  mix a run times does not depend on how fast the machine was.

Only public names of ``hrnr`` are used.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# --- shared generators --------------------------------------------------------


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def normal_matrix(eigs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    q = haar_unitary(len(eigs), rng)
    return (q * eigs) @ q.conj().T


def support_levels(eigs: np.ndarray, k: int, thetas: np.ndarray) -> np.ndarray:
    """k-th largest of Re(e^{i theta} mu_j), counting multiplicity, per theta."""
    out = np.empty(len(thetas))
    n = len(eigs)
    for s in range(0, len(thetas), 512):
        th = thetas[s : s + 512]
        proj = np.cos(th)[:, None] * eigs.real - np.sin(th)[:, None] * eigs.imag
        out[s : s + 512] = np.partition(proj, n - k, axis=1)[:, n - k]
    return out


def rank_k_polygon(eigs: np.ndarray, k: int) -> np.ndarray:
    """Vertices of the rank-k range of the normal matrix with eigenvalues
    ``eigs``: the intersection over theta of Re(e^{i theta} z) <= (k-th
    largest Re(e^{i theta} mu_j)).

    Between the normals of lines through two eigenvalues the k-th level
    follows a single eigenvalue, so those normals (plus a uniform grid) give
    the exact polygon.  Its support function is the level itself for k = 1
    and can lie below it for k >= 2.
    """
    d = (eigs[:, None] - eigs[None, :])[np.triu_indices(len(eigs), 1)]
    d = d[d != 0]
    base = np.pi / 2 - np.angle(d)
    thetas = np.concatenate([base, base + np.pi, 2 * np.pi * np.arange(180) / 180])
    levels = support_levels(eigs, k, thetas)
    b = 2.0 * float(np.max(np.abs(eigs))) + 1.0
    poly = [complex(-b, -b), complex(b, -b), complex(b, b), complex(-b, b)]
    for t, h in zip(thetas, levels):
        c, s = math.cos(t), math.sin(t)
        out, prev = [], poly[-1]
        fp = h - (c * prev.real - s * prev.imag)
        for cur in poly:
            fc = h - (c * cur.real - s * cur.imag)
            if fc >= 0:
                if fp < 0:
                    out.append(prev + (fp / (fp - fc)) * (cur - prev))
                out.append(cur)
            elif fp >= 0:
                out.append(prev + (fp / (fp - fc)) * (cur - prev))
            prev, fp = cur, fc
        poly = out
        if not poly:
            break
    return np.array(poly, dtype=complex)


def support(vertices: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """max over the vertices of Re(e^{i xi} v), per xi."""
    return np.max(np.real(np.exp(1j * xis)[:, None] * vertices[None, :]), axis=1)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# --- member_matrix -------------------------------------------------------------


class MemberMatrix:
    """Single ``member(model, k, z)`` calls on one large normal matrix model.

    The O(m n) sweep kernel dominates the operation; the eigensolve and the
    clustering in ``from_normal_matrix`` are paid once, in set-up.  Queries
    rotate through uniform points in the disk, points exactly at eigenvalues
    (anchor bucket) and midpoints of eigenvalue pairs (exact-ray and eps-band
    buckets).
    """

    name = "member_matrix"
    ranks = (1, 2, 3)
    period = 9  # three query kinds times three ranks
    margin = 5e-3  # verdicts are checked only this far from the boundary
    n_theta = 4096  # oracle grid; its discretisation error is below 2e-3

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng([seed, 1])
        n = 60 if smoke else 800
        n_repeat = 4 if smoke else 12  # extra copies of a few eigenvalues
        distinct = n - n_repeat
        eigs = np.sqrt(rng.uniform(0.0, 1.0, distinct)) * np.exp(2j * np.pi * rng.uniform(size=distinct))
        reps = eigs[rng.choice(distinct, size=n_repeat // 2, replace=False)]
        self.eigs = np.concatenate([eigs, reps, reps])
        self.matrix = normal_matrix(self.eigs, rng)
        pool = 1024
        r = 1.05 * np.sqrt(rng.uniform(0.0, 1.0, pool))
        self.uniform = r * np.exp(2j * np.pi * rng.uniform(size=pool))
        self.atom_pick = rng.integers(0, 1 << 30, size=(pool, 2))
        thetas = 2 * np.pi * np.arange(self.n_theta) / self.n_theta
        self.cos, self.sin = np.cos(thetas), np.sin(thetas)
        self.levels = {k: support_levels(self.eigs, k, thetas) for k in self.ranks}
        self.inputs_digest = digest(self.matrix, self.uniform, self.atom_pick)

    def build(self, hrnr):
        return hrnr.from_normal_matrix(self.matrix)

    def query(self, model, i: int):
        kind, j = i % 3, (i // 3) % len(self.uniform)
        k = self.ranks[(i // 3) % len(self.ranks)]
        atoms = model.atoms
        a, b = (atoms[int(p) % len(atoms)].location for p in self.atom_pick[j])
        z = (complex(self.uniform[j]), a, 0.5 * (a + b))[kind]
        return k, z

    def warmup(self, hrnr, model):
        for i in range(3):
            self.op(hrnr, model, i)

    def op(self, hrnr, model, i: int):
        k, z = self.query(model, i)
        return hrnr.member(model, k, z)

    def gap(self, k: int, z: complex) -> float:
        """Distance of z from the boundary of the rank-k range when z is
        inside; negative, and no larger in size than the distance, when z is
        outside.  From the support levels of the raw eigenvalues."""
        return float(np.min(self.levels[k] - (self.cos * z.real - self.sin * z.imag)))

    def check(self, hrnr, model, i: int, out):
        k, z = self.query(model, i)
        v = out.value
        if v is hrnr.Verdict.UNCERTAIN:
            return True, 1, 1, None
        g = self.gap(k, z)
        if v is hrnr.Verdict.IN and g < -self.margin:
            return False, 1, 0, f"member(k={k}, {z}) = in, oracle gap {g:.3e}"
        if v is hrnr.Verdict.OUT and g > self.margin:
            return False, 1, 0, f"member(k={k}, {z}) = out, oracle gap {g:.3e}"
        return True, 1, 0, None


# --- region_wu -----------------------------------------------------------------


class RegionWu:
    """``region(model, k, 96)`` followed by ``wu_check`` on small models.

    Thousands of tiny kernel calls per operation make per-query Python the
    cost: direction generation, piece and tail masks, witness choice and
    half-plane clipping.  Each cycle of ten operations takes eight models
    from a pool of 48 seeded unit-disk models, then the Durszt and
    square-region presets at k = 2.
    """

    name = "region_wu"
    n_angles = 96
    cycle = 10  # eight stream models, then durszt, then square-region

    def __init__(self, seed: int, smoke: bool = False):
        self.rng = np.random.default_rng([seed, 2])
        self.n_models = 8 if smoke else 48
        self.period = self.n_models // (self.cycle - 2) * self.cycle  # one pass over the models
        if smoke:
            self.n_angles = 16
        # The models are generated from plain numbers here and only turned
        # into library objects in build().  Their shape is fixed (three
        # atoms, one piece, a 20-term family on every other model, arcs of
        # a quarter to a half turn), so the mix of cheap and expensive
        # operations, and with it the median, varies little from seed to
        # seed: the wu-check cost grows with the number of polygon vertices,
        # which long arcs and long prefixes multiply.
        self.specs = [self._spec(i) for i in range(self.n_models)]
        self.inputs_digest = hashlib.sha256(repr(self.specs).encode()).hexdigest()[:16]

    def _spec(self, i: int) -> dict:
        rng = self.rng
        atoms = []
        for _ in range(3):
            mult = math.inf if rng.uniform() < 0.08 else int(rng.integers(1, 3))
            atoms.append((complex(*rng.uniform(-0.6, 0.6, 2)), mult))
        kind = ("segment", "arc", "region")[i % 3]
        if kind == "segment":
            piece = (kind, complex(*rng.uniform(-0.6, 0.6, 2)), complex(*rng.uniform(-0.6, 0.6, 2)))
        elif kind == "arc":
            t0 = rng.uniform(0, 2 * math.pi)
            piece = (kind, complex(*rng.uniform(-0.2, 0.2, 2)), rng.uniform(0.3, 0.45), t0, t0 + rng.uniform(0.5 * math.pi, math.pi))
        else:
            # five points on a circle are in convex position in angle order
            while True:
                c = complex(*rng.uniform(-0.15, 0.15, 2))
                r = rng.uniform(0.25, 0.45)
                pts = [c + r * complex(math.cos(t), math.sin(t)) for t in np.sort(rng.uniform(0, 2 * math.pi, 5))]
                if _area(pts) > 0.05:
                    break
            piece = (kind, pts)
        family = self._family_spec() if i % 2 == 1 else None
        return {"atoms": atoms, "piece": piece, "family": family, "k": 1 + i % 2}

    def _family_spec(self, n_prefix: int = 20):
        rng = self.rng
        lim = complex(*rng.uniform(-0.4, 0.4, 2))
        phi = rng.uniform(0, 2 * math.pi)
        side = ("above", "below", "on")[int(rng.integers(3))]
        q, rr = rng.uniform(0.75, 0.92), rng.uniform(0.1, 0.3)
        prefix = []
        for j in range(n_prefix):
            off = 0.0 if side == "on" else (0.3 * rr) / (j + 2) * (1 if side == "above" else -1)
            p = lim + rr * complex(math.cos(phi), math.sin(phi)) + off * complex(-math.sin(phi), math.cos(phi))
            prefix.append((p, 1))
            rr *= q
        return (tuple(prefix), lim, phi, side)

    def _model(self, hrnr, spec):
        atoms = tuple(hrnr.Atom(loc, m) for loc, m in spec["atoms"])
        kind, *args = spec["piece"]
        if kind == "segment":
            piece = hrnr.Segment(*args)
        elif kind == "arc":
            piece = hrnr.Arc(*args)
        else:
            piece = hrnr.Region(hrnr.ConvexPolygon(tuple(args[0])))
        fams = (hrnr.SequenceFamily(*spec["family"], 1),) if spec["family"] else ()
        return hrnr.SpectralMeasureModel(atoms, (piece,), fams, 1.0)

    def build(self, hrnr):
        stream = [(self._model(hrnr, s), s["k"]) for s in self.specs]
        presets = [
            ("durszt", hrnr.presets.durszt_model(2), 2),
            ("square-region", hrnr.presets.square_region_model(2), 2),
        ]
        return stream, presets

    def target(self, state, i: int):
        stream, presets = state
        pos = i % self.cycle
        if pos >= self.cycle - 2:
            name, model, k = presets[pos - (self.cycle - 2)]
            return name, model, k
        model, k = stream[((i // self.cycle) * (self.cycle - 2) + pos) % len(stream)]
        return None, model, k

    def warmup(self, hrnr, state):
        # the presets do not depend on the seed, so set-up work is the same
        # for every seed
        for i in (self.cycle - 2, self.cycle - 1):
            self.op(hrnr, state, i)

    def op(self, hrnr, state, i: int):
        _, model, k = self.target(state, i)
        est = hrnr.region(model, k, self.n_angles)
        return est, hrnr.wu_check(model, k, est)

    def check(self, hrnr, state, i: int, out):
        name, model, k = self.target(state, i)
        est, rep = out
        verdicts = len(est.boundary_report) + 1
        uncertain = sum(v is hrnr.Verdict.UNCERTAIN for _, v in est.boundary_report)
        uncertain += rep.verdict is hrnr.WuVerdict.INCONCLUSIVE
        poly = est.polygon
        if len(est.boundary_report) != len(poly.vertices) + len(poly.edges()):
            return False, verdicts, uncertain, "boundary report does not cover the polygon"
        for xi, h in est.support_samples:
            c, s = math.cos(xi), math.sin(xi)
            if any(c * v.real - s * v.imag > h + 1e-7 for v in poly.vertices):
                return False, verdicts, uncertain, f"polygon leaves its support plane at xi={xi:.4f}"
        if name is not None:
            failed = [label for label, ok in _preset_checks(hrnr, name, model, k, rep) if not ok]
            if failed:
                return False, verdicts, uncertain, f"{name}: " + "; ".join(failed)
        return True, verdicts, uncertain, None


def _area(pts) -> float:
    return 0.5 * sum(a.real * b.imag - b.real * a.imag for a, b in zip(pts, pts[1:] + pts[:1]))


def _preset_checks(hrnr, name, model, k, rep):
    """The checks ``hrnr reproduce durszt`` / ``square-region`` make."""
    V, strict = hrnr.Verdict, hrnr.WuVerdict.STRICT_CONTAINMENT_PREDICTED
    if name == "durszt":
        expected = {0j: V.IN, 0.5 + 0j: V.OUT, -0.5 + 0j: V.OUT, 0.3 + 0.4j: V.IN, 1j: V.OUT}
        checks = [(f"member({z}) = {v.value}", hrnr.member(model, k, z).value is v) for z, v in expected.items()]
        checks.append(("wu-check strict containment", rep.verdict is strict))
        checks.append((
            "failure note on the real axis",
            any(e.note is not None and abs(e.point.imag) < 1e-9 for e in rep.evidence),
        ))
        return checks
    return [
        ("wu-check strict containment", rep.verdict is strict),
        (
            "failure note on the right edge",
            any(e.note is not None and abs(e.point.real - 0.5) < 1e-9 for e in rep.evidence),
        ),
        ("interior point is a member", hrnr.member(model, k, 0j).value is V.IN),
    ]


# --- dilation_lab ----------------------------------------------------------------


class DilationLab:
    """Per-operation eigendecomposition work on a random normal contraction.

    Each operation builds a verified excluding dilation for a point just
    outside the rank-k support level and samples the dilation-range
    intersection.  LAPACK eigensolves, Halmos construction and the
    per-candidate ``from_normal_matrix`` dominate; the sweep kernel is small.
    """

    name = "dilation_lab"
    n_samples = 4
    n_alpha = 16
    n_angles = 180  # dilation_intersection's default direction grid
    offset = 0.05  # distance of lambda beyond the support level

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng([seed, 3])
        self.n = 8 if smoke else 16  # the rank-3 range is nonempty for n >= 7
        # a multiple of the rank cycle, so matrix j always has rank 1 + j % 3
        n_mats = 6 if smoke else 27
        self.period = n_mats
        self.eigs = [
            rng.uniform(0.05, 0.85, self.n) * np.exp(2j * np.pi * rng.uniform(size=self.n))
            for _ in range(n_mats)
        ]
        self.mats = [normal_matrix(e, rng) for e in self.eigs]
        self.xi = rng.uniform(0, 2 * np.pi, size=1024)
        self.inputs_digest = digest(*self.mats, self.xi)
        # seed-independent matrix for the warm-up, so set-up is the same work
        # for every seed
        wrng = np.random.default_rng(0)
        self.warm_eigs = wrng.uniform(0.05, 0.85, self.n) * np.exp(2j * np.pi * wrng.uniform(size=self.n))
        self.warm = normal_matrix(self.warm_eigs, wrng)

    def build(self, hrnr):
        return None

    def query(self, i: int):
        j = i % len(self.mats)
        k = 1 + i % 3
        xi = float(self.xi[i % len(self.xi)])
        h = support_levels(self.eigs[j], k, np.array([xi]))[0]
        lam = complex(np.exp(-1j * xi) * (h + self.offset))
        return self.mats[j], k, lam

    def warmup(self, hrnr, state):
        k, xi = 2, 0.3
        h = support_levels(self.warm_eigs, k, np.array([xi]))[0]
        hrnr.excluding_dilation_matrix(self.warm, k, complex(np.exp(-1j * xi) * (h + self.offset)))
        hrnr.dilation_intersection(self.warm, k, self.n_samples, self.n_alpha)

    def op(self, hrnr, state, i: int):
        T, k, lam = self.query(i)
        art = hrnr.excluding_dilation_matrix(T, k, lam)
        poly = hrnr.dilation_intersection(T, k, self.n_samples, self.n_alpha)
        return art, poly

    def check(self, hrnr, state, i: int, out):
        T, k, lam = self.query(i)
        art, poly = out
        n, U, eps = self.n, art.matrix, hrnr.DEFAULT_TOL.eps_unitary
        unit = np.linalg.norm(U.conj().T @ U - np.eye(2 * n), "fro")
        comp = np.linalg.norm(U[:n, :n] - T, "fro")
        if not (unit <= eps and comp <= eps):
            return False, 0, 0, f"dilation residuals {unit:.2e} / {comp:.2e} exceed {eps:.0e}"
        if hrnr.member(hrnr.from_normal_matrix(U), k, lam).value is not hrnr.Verdict.OUT:
            return False, 0, 0, f"dilation's own model does not exclude {lam}"
        # every dilation range contains the rank-k range of T, so the sampled
        # intersection's support function dominates that of T's rank-k range
        # (matrix_lambda_k(T, k, xi) bounds the latter only from above when
        # k >= 2, so it cannot serve as the lower bound)
        verts = np.array(poly.vertices, dtype=complex)
        if verts.size == 0:
            return False, 0, 0, "empty dilation intersection"
        xis = 2 * np.pi * np.arange(self.n_angles) / self.n_angles
        inner = rank_k_polygon(self.eigs[i % len(self.mats)], k)
        worst = float(np.min(support(verts, xis) - support(inner, xis)))
        if worst < -1e-8:
            return False, 0, 0, f"intersection support below the rank-{k} range of T by {-worst:.2e}"
        return True, 0, 0, None


WORKLOADS = {w.name: w for w in (MemberMatrix, RegionWu, DilationLab)}
