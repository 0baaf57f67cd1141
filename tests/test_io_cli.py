import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrnr
from hrnr import jsonio
from hrnr.cli import main
from hrnr.errors import ModelFormatError
from hrnr.presets import durszt_model, infinity_empty_model, square_region_model


class TestModelJson:
    def test_model_roundtrip(self):
        model = square_region_model(3)
        text = jsonio.dumps(jsonio.model_to_obj(model))
        back = jsonio.parse_document(text)
        assert back == model

    def test_family_roundtrip(self):
        model = infinity_empty_model(20)
        back = jsonio.parse_document(jsonio.dumps(jsonio.model_to_obj(model)))
        assert back == model

    def test_matrix_roundtrip(self):
        M = np.array([[0.5, 1j], [0, -0.25]], dtype=complex)
        back = jsonio.parse_document(jsonio.dumps(jsonio.matrix_to_obj(M)))
        assert np.array_equal(back, M)

    def test_infinite_multiplicity(self):
        doc = {
            "kind": "model",
            "support_radius": 1.0,
            "atoms": [{"point": [0, 0], "mult": "inf"}],
        }
        model = jsonio.parse_document(json.dumps(doc))
        assert model.atoms[0].mult == hrnr.INF

    def test_certificate_json(self):
        model = hrnr.SpectralMeasureModel(
            atoms=(hrnr.Atom(0.5 + 0j, 1),),
            pieces=(hrnr.Segment(-0.9j, -0.1j),),
            support_radius=1.0,
        )
        cert = hrnr.excluding_certificate(
            model, 2, 0.5 + 0j, plane=hrnr.ClosedHalfPlane(0.5 + 0j, 0.0)
        )
        obj = jsonio.certificate_to_obj(cert)
        assert obj["certified_dim"] == 1
        assert obj["scalar_dilations"][0]["t"] == pytest.approx(0.75)
        json.dumps(obj)  # serializable

    def test_dilation_json(self):
        art = hrnr.halmos(np.array([[0.5 + 0j]]), 0.25)
        obj = jsonio.dilation_to_obj(art)
        assert obj["alpha"] == 0.25
        assert len(obj["matrix"]) == 2
        json.dumps(obj)

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            '{"no_kind": 1}',
            '{"kind": "model"}',
            '{"kind": "matrix", "data": [[[0, 0]], [[0, 0]]]}',
            '{"kind": "matrix", "data": [[["nan", 0]]]}',
            '{"kind": "model", "support_radius": 1.0, "pieces": [{"type": "blob"}]}',
            '{"kind": "model", "support_radius": 1.0, "atoms": [{"point": [0], "mult": 1}]}',
            '{"kind": "matrix", "data": [[{}]]}',
            '{"kind": "matrix", "data": [[["0.5", 0]]]}',
            pytest.param(
                '{"kind": "matrix", "data": [[[1%s, 0]]]}' % ("0" * 400), id="huge-matrix-entry"
            ),
            pytest.param(
                '{"kind": "model", "support_radius": 1%s}' % ("0" * 400), id="huge-support-radius"
            ),
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ModelFormatError):
            jsonio.parse_document(text)


def _family(mult=1, tail_mult=1):
    return {
        "prefix": [{"point": [0.5, 0], "mult": mult}],
        "limit": [0, 0],
        "approach_angle": 0.0,
        "approach_side": "on",
        "tail_mult": tail_mult,
    }


# diag(0.5, -0.5) as a matrix document: a strict normal contraction
_HALF_DIAG = {"kind": "matrix", "data": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}
_JORDAN = {"kind": "matrix", "data": [[[0, 0], [0.5, 0]], [[0, 0], [0, 0]]]}  # not normal


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    M = np.diag([0.5, -0.5, 0.3j]).astype(complex)
    path.write_text(jsonio.dumps(jsonio.matrix_to_obj(M)))
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(jsonio.dumps(jsonio.model_to_obj(durszt_model(2))))
    return str(path)


class TestCli:
    def test_member_in(self, capsys, matrix_file):
        assert main(["member", "--input", matrix_file, "-k", "1", "--point", "0.1,0.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "in"

    def test_member_out_with_witness(self, capsys, model_file):
        assert main(["member", "--input", model_file, "-k", "2", "--point", "0.5,0.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "out"
        assert out["witness"]["dim"] == 0

    def test_member_inf(self, capsys, model_file):
        assert main(["member", "--input", model_file, "-k", "inf", "--point", "0.2,0.3"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "in"

    def test_member_uncertain_exit3(self, capsys, tmp_path):
        # the rank-2 range is the segment [1, -1+1e-12j]; the origin sits
        # within tolerance of it, so no verdict can be certified
        doc = {
            "kind": "model",
            "support_radius": 2.0,
            "atoms": [
                {"point": [1, 0], "mult": 2},
                {"point": [-1, 1e-12], "mult": 2},
            ],
        }
        path = tmp_path / "borderline.json"
        path.write_text(json.dumps(doc))
        rc = main(["member", "--input", str(path), "-k", "2", "--point", "0,0"])
        assert rc == 3

    def test_region_json_roundtrip(self, capsys, matrix_file, tmp_path):
        out1 = tmp_path / "r1.json"
        assert main(
            ["region", "--input", matrix_file, "-k", "1", "--angles", "32",
             "--json", str(out1)]
        ) == 0
        first = capsys.readouterr().out
        assert main(
            ["region", "--input", matrix_file, "-k", "1", "--angles", "32"]
        ) == 0
        second = capsys.readouterr().out
        assert first == second
        obj = json.loads(out1.read_text())
        assert obj["k"] == 1 and len(obj["support"]) == 32
        assert obj["polygon"]

    def test_region_svg(self, matrix_file, tmp_path, capsys):
        svg = tmp_path / "out.svg"
        assert main(
            ["region", "--input", matrix_file, "-k", "1", "--angles", "32",
             "--svg", str(svg)]
        ) == 0
        capsys.readouterr()
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "<line" in text

    def test_region_svg_durszt_dashes(self, model_file, tmp_path, capsys):
        svg = tmp_path / "d.svg"
        assert main(
            ["region", "--input", model_file, "-k", "2", "--angles", "32",
             "--svg", str(svg)]
        ) == 0
        capsys.readouterr()
        # excluded boundary stretches are dashed
        assert "stroke-dasharray" in svg.read_text()

    def test_selfadjoint(self, capsys, tmp_path):
        path = tmp_path / "herm.json"
        M = np.diag([1.0, 0.5, 0.0, -0.2, -1.0]).astype(complex)
        path.write_text(jsonio.dumps(jsonio.matrix_to_obj(M)))
        assert main(["selfadjoint", "--input", str(path), "-k", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["interval"] == pytest.approx([-0.2, 0.5])

    def test_dilate(self, capsys, matrix_file):
        assert main(["dilate", "--input", matrix_file, "--alpha", "0.3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["unitarity_residual"] <= 1e-10
        assert len(out["matrix"]) == 6

    def test_wu_check(self, capsys, model_file):
        assert main(["wu-check", "--input", model_file, "-k", "2", "--angles", "48"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "strict-containment-predicted"
        report = hrnr.wu_check(durszt_model(2), 2, hrnr.region(durszt_model(2), 2, 48))
        assert out["skipped_near_eigenvalue"] == report.skipped_near_eigenvalue == 1
        assert out["uncertain_samples"] == report.uncertain_samples

    def test_conjecture(self, capsys, matrix_file):
        assert main(
            ["conjecture", "--input", matrix_file, "-k", "1", "--point", "0.9,0.0",
             "--thetas", "90"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["condition_holds"] is True

    def test_intersect(self, capsys, matrix_file):
        assert main(
            ["intersect", "--input", matrix_file, "-k", "1"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["polygon"]) >= 3

    def test_intersect_normal_prints_the_eigenvalue_triangle(self, capsys, matrix_file):
        # exact planes: the rank-1 range of diag(0.5, -0.5, 0.3i) is the
        # triangle of its eigenvalues, with no grid corners beside them
        assert main(["intersect", "--input", matrix_file, "-k", "1"]) == 0
        verts = [complex(x, y) for x, y in json.loads(capsys.readouterr().out)["polygon"]]
        assert len(verts) == 3
        for d in (0.5, -0.5, 0.3j):
            assert min(abs(v - d) for v in verts) <= 1e-12

    def test_exit_code_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["member", "--input", str(bad), "-k", "1", "--point", "0,0"]) == 1
        assert main(["member", "--input", str(bad), "-k", "1", "--point", "zzz"]) == 1

    def test_exit_code_precondition(self, tmp_path, capsys):
        path = tmp_path / "nonnormal.json"
        path.write_text(jsonio.dumps(jsonio.matrix_to_obj(np.array([[0, 1], [0, 0]]))))
        assert main(["member", "--input", str(path), "-k", "1", "--point", "0,0"]) == 2
        path2 = tmp_path / "expansive.json"
        path2.write_text(jsonio.dumps(jsonio.matrix_to_obj(np.diag([2.0, 0.0]))))
        assert main(["dilate", "--input", str(path2)]) == 2

    @pytest.mark.parametrize(
        "command,doc,code",
        [
            # levels cross: selfadjoint_interval reports the empty range
            (
                ["selfadjoint", "-k", "2"],
                {"atoms": [{"point": [0, 0], "mult": 1}, {"point": [1, 0], "mult": 1}]},
                0,
            ),
            (["member", "-k", "1", "--point", "0,0"], {"atoms": [{"mult": 1}]}, 1),
            (["member", "-k", "1", "--point", "0,0"], {"pieces": [5]}, 1),
            (["member", "-k", "1", "--point", "0,0"], {"atoms": [{"point": [0, 0], "mult": 0}]}, 1),
            # multiplicities are JSON integers (or integral floats), never
            # truncated fractions, booleans or numeric strings
            (["member", "-k", "1", "--point", "0,0"], {"atoms": [{"point": [0, 0], "mult": 1.5}]}, 1),
            (["member", "-k", "1", "--point", "0,0"], {"atoms": [{"point": [0, 0], "mult": True}]}, 1),
            (["member", "-k", "1", "--point", "0,0"], {"atoms": [{"point": [0, 0], "mult": "2"}]}, 1),
            (["member", "-k", "1", "--point", "0,0"], {"families": [_family(mult=2.7)]}, 1),
            (["member", "-k", "1", "--point", "0,0"], {"families": [_family(tail_mult=1.9)]}, 1),
            (["member", "-k", "1", "--point", "0,0"], {"families": [_family(mult="inf")]}, 1),
            # numeric fields are JSON numbers, never booleans or numeric strings
            (
                ["member", "-k", "1", "--point", "0,0"],
                {"support_radius": True, "atoms": [{"point": [0, 0], "mult": 1}]},
                1,
            ),
            (
                ["member", "-k", "1", "--point", "0,0"],
                {"support_radius": "2", "atoms": [{"point": [0, 0], "mult": 1}]},
                1,
            ),
            (
                ["member", "-k", "1", "--point", "0,0"],
                {"atoms": [{"point": ["0.1", False], "mult": 1}]},
                1,
            ),
            (
                ["member", "-k", "1", "--point", "0,0"],
                {
                    "pieces": [
                        {"type": "arc", "center": [0, 0], "radius": "0.5", "theta0": "0",
                         "theta1": 1.0}
                    ]
                },
                1,
            ),
            (
                ["member", "-k", "1", "--point", "0,0"],
                {"families": [dict(_family(), approach_angle="0")]},
                1,
            ),
            # n < k <= 2n: the block dilations split off every eigenvalue
            (
                ["intersect", "-k", "3"],
                _HALF_DIAG,
                0,
            ),
            # finite multiplicities totalling 2**53 or more: kernel sums would be inexact
            (
                ["member", "-k", "1", "--point", "0,0"],
                {"atoms": [{"point": [0, 0], "mult": 2**52}, {"point": [0.5, 0], "mult": 2**52}]},
                1,
            ),
            (
                ["member", "-k", "1", "--point", "0,0"],
                {"atoms": [{"point": [0, 0], "mult": 2**52}], "families": [_family(mult=2**52)]},
                1,
            ),
            # rank and grid sizes out of range are precondition violations
            (["conjecture", "-k", "0", "--point", "0,0"], _HALF_DIAG, 2),
            (["conjecture", "-k", "1", "--point", "0,0", "--thetas", "0"], _HALF_DIAG, 2),
            (["conjecture", "-k", "1", "--point", "0,0", "--thetas", "-4"], _HALF_DIAG, 2),
            (["intersect", "-k", "5"], _HALF_DIAG, 2),
            # a matrix that is not normal has no dilation intersection here
            (["intersect", "-k", "1"], _JORDAN, 2),
            # non-finite query points are malformed input
            (["member", "-k", "1", "--point", "nan,0"], {"atoms": [{"point": [0, 0], "mult": 1}]}, 1),
            (["member", "-k", "1", "--point", "0,inf"], {"atoms": [{"point": [0, 0], "mult": 1}]}, 1),
            (["member", "-k", "1", "--point=-inf,nan"], {"atoms": [{"point": [0, 0], "mult": 1}]}, 1),
            (["conjecture", "-k", "1", "--point", "nan,0"], _HALF_DIAG, 1),
            (["dilate", "--alpha", "nan"], _HALF_DIAG, 1),
            (["dilate", "--alpha", "inf"], _HALF_DIAG, 1),
            # usage errors are malformed input too
            (["intersect", "-k", "abc"], _HALF_DIAG, 1),
            (["region", "-k", "1", "--angles", "x"], {"atoms": [{"point": [0, 0], "mult": 1}]}, 1),
            (["region", "-k", "1", "--bogus"], {"atoms": [{"point": [0, 0], "mult": 1}]}, 1),
            (["member", "-k", "1"], {"atoms": [{"point": [0, 0], "mult": 1}]}, 1),
            # the sampled path's options are gone: unknown flags
            (["intersect", "-k", "1", "--seed", "1"], _HALF_DIAG, 1),
        ],
    )
    def test_exit_code_contract(self, tmp_path, capsys, command, doc, code):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"kind": "model", "support_radius": 2.0, **doc}))
        assert main([command[0], "--input", str(path), *command[1:]]) == code
        out = capsys.readouterr()
        if code == 0:
            result = json.loads(out.out)
            if command[0] == "selfadjoint":
                assert result["interval"] is None
        else:
            assert out.err.startswith("error: ")

    def test_integral_float_multiplicities(self):
        doc = {
            "kind": "model",
            "support_radius": 2.0,
            "atoms": [{"point": [0, 0], "mult": 2.0}],
            "families": [_family(mult=3.0, tail_mult=2.0)],
        }
        model = jsonio.parse_document(json.dumps(doc))
        assert model.atoms[0].mult == 2
        assert model.families[0].prefix[0][1] == 3
        assert model.families[0].tail_mult == 2

    def test_dilate_check_failure(self, monkeypatch, matrix_file, capsys):
        # halmos checks its own residuals
        monkeypatch.setattr("hrnr.dilation._residuals", lambda U, T: (1.0, 0.0))
        assert main(["dilate", "--input", matrix_file]) == 2
        assert capsys.readouterr().err.startswith("error: dilation residuals too large")

    def test_usage_errors_exit_1(self, capsys):
        for argv in ([], ["member", "-k", "1", "--point", "0,0"], ["reproduce", "nope"]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
        with pytest.raises(SystemExit) as exc:
            main(["intersect", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--input" in out and "--alphas" not in out

    def test_matrix_required(self, model_file, capsys):
        assert main(["dilate", "--input", model_file]) == 1

    @pytest.mark.parametrize(
        "name,k",
        [
            ("durszt", "2"),
            ("hermitian", "2"),
            ("square-region", "2"),
        ],
    )
    def test_reproduce_fast(self, capsys, name, k):
        assert main(["reproduce", name, "-k", k]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out

    def test_reproduce_bilateral(self, capsys):
        assert main(["reproduce", "bilateral-shift", "-k", "5"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_reproduce_infinity_empty(self, capsys):
        assert main(["reproduce", "infinity-empty"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS: rank-1 range nonempty on the grid" in out

    def test_reproduce_infinity_empty_takes_the_rank(self, capsys):
        assert main(["reproduce", "infinity-empty", "-k", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: rank must be a positive integer")
        assert main(["reproduce", "infinity-empty", "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS: rank-2 range nonempty on the grid" in out

    @pytest.mark.parametrize("k", ["0", "1", "4", "6"])
    @pytest.mark.parametrize(
        "name", ["bilateral-shift", "durszt", "hermitian", "infinity-empty", "square-region"]
    )
    def test_reproduce_any_rank_exits_cleanly(self, capsys, name, k):
        code = main(["reproduce", name, "-k", k])
        captured = capsys.readouterr()
        assert code in (0, 2)
        assert "Traceback" not in captured.err
        if code == 2:
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if (name, k) == ("hermitian", "4"):
            # rank 4 of five simple eigenvalues: the empty range
            assert code == 0
            lines = captured.out.splitlines()
            assert lines and all(line.startswith("PASS: ") for line in lines)


# ---------------------------------------------------------------------------
# Fuzz of the exit-code contract: every document, however malformed, exits
# with 0, 1, 2 or 3 and never raises out of main
# ---------------------------------------------------------------------------

_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["", "x", "inf", "nan", "1"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.sampled_from([10**400, 1.5, 2.7, [], [0], [0, 0, 0], {"a": 0}]),
)


def _or_junk(good, odds):
    """good, replaced by a junk value about once in ``odds`` draws"""
    return st.integers(1, odds).flatmap(lambda i: _junk if i == odds else good)


_x = st.floats(-0.9, 0.9)
_xy = st.lists(_x, min_size=2, max_size=2)


@st.composite
def _model_doc(draw):
    """A well-formed model document, or (half the time) one whose fields
    may each be replaced by a value of the wrong type or range."""
    bad = draw(st.booleans())

    def v(good):
        return draw(_or_junk(good, 3) if bad else good)

    mult = st.one_of(st.integers(1, 3), st.just(2.0))
    atoms = [
        {"point": v(_xy), "mult": v(st.one_of(mult, st.just("inf")))}
        for _ in range(draw(st.integers(0, 4)))
    ]
    pieces = []
    for kind in draw(st.lists(st.sampled_from(["segment", "arc", "polygon"]), max_size=2)):
        if kind == "segment":
            pieces.append({"type": kind, "a": v(_xy), "b": v(_xy)})
        elif kind == "arc":
            t0 = draw(st.floats(0, 6.2))
            pieces.append(
                {
                    "type": kind,
                    "center": v(st.lists(st.floats(-0.3, 0.3), min_size=2, max_size=2)),
                    "radius": v(st.floats(0.1, 0.5)),
                    "theta0": v(st.just(t0)),
                    "theta1": v(st.floats(0.1, 6.2).map(lambda w: t0 + w)),
                }
            )
        else:
            r, c = draw(st.floats(0.1, 0.5)), draw(st.floats(-0.3, 0.3))
            ts = sorted(draw(st.lists(st.floats(0, 6.2), min_size=3, max_size=5)))
            vertices = [[c + r * math.cos(t), r * math.sin(t)] for t in ts]
            pieces.append({"type": kind, "vertices": v(st.just(vertices))})
    families = []
    if draw(st.booleans()):
        lim = draw(_xy.map(lambda p: [0.5 * p[0], 0.5 * p[1]]))
        phi = draw(st.floats(0, 6.2))
        radii = [0.3 * 0.8**j for j in range(draw(st.integers(0, 3)))]
        prefix = [
            {
                "point": v(st.just([lim[0] + r * math.cos(phi), lim[1] + r * math.sin(phi)])),
                "mult": v(mult),
            }
            for r in radii
        ]
        families.append(
            {
                "prefix": prefix,
                "limit": v(st.just(lim)),
                "approach_angle": v(st.just(phi)),
                "approach_side": v(st.sampled_from(["above", "below", "on", "sideways"])),
                "tail_mult": v(mult),
            }
        )
    return {
        "kind": "model",
        "support_radius": v(st.floats(1.0, 2.0)),
        "atoms": v(st.just(atoms)),
        "pieces": v(st.just(pieces)),
        "families": v(st.just(families)),
    }


@st.composite
def _matrix_doc(draw):
    """Diagonal (normal) or dense matrices, square or not, with entries that
    may be malformed or non-finite."""
    n = draw(st.integers(1, 3))
    entry = _or_junk(_xy, 8)
    if draw(st.booleans()):
        z = draw(st.lists(entry, min_size=n, max_size=n))
        data = [[z[i] if i == j else [0, 0] for j in range(n)] for i in range(n)]
    else:
        rows = draw(st.integers(1, 3))
        data = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=rows, max_size=rows))
    return {"kind": "matrix", "data": draw(_or_junk(st.just(data), 4))}


_COMMANDS = [
    ["member", "-k", "1", "--point", "0.1,0.2"],
    ["member", "-k", "2", "--point", "0,0"],
    ["member", "-k", "inf", "--point", "0.3,0"],
    ["region", "-k", "1", "--angles", "8"],
    ["selfadjoint", "-k", "1"],
    ["dilate", "--alpha", "0.3"],
    ["wu-check", "-k", "1", "--angles", "8"],
    ["conjecture", "-k", "1", "--point", "0.5,0", "--thetas", "8"],
    ["intersect", "-k", "1"],
]


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(doc=st.one_of(_model_doc(), _matrix_doc()), command=st.sampled_from(_COMMANDS))
def test_exit_code_contract_fuzz(fuzz_file, doc, command):
    fuzz_file.write_text(json.dumps(doc))
    assert main([command[0], "--input", str(fuzz_file), *command[1:]]) in (0, 1, 2, 3)


_BAD_VALUES = {
    "int": ["abc", "1.5", "", "1e3", "nan", "x1", "2j"],
    "--point": ["0", "a,b", "1,2,3", "nan,0", "", "0;0", "inf,inf"],
    "--alpha": ["nan", "inf", "x", "", "1,2"],
}


@st.composite
def _bad_command_line(draw):
    """A command of ``_COMMANDS`` on a valid file (``None`` stands for its
    path) with one usage error: an unknown flag, a non-integer rank or
    count, a missing required option, or a malformed point or phase."""
    command = draw(st.sampled_from(_COMMANDS))
    argv = [command[0], "--input", None, *command[1:]]
    ints = [i for i, a in enumerate(argv) if a in ("-k", "--angles", "--thetas")]
    values = [i for i, a in enumerate(argv) if a in ("--point", "--alpha")]
    kind = draw(st.sampled_from(["flag", "missing"] + ["int"] * bool(ints) + ["value"] * bool(values)))
    if kind == "flag":
        flag = draw(st.sampled_from(["--bogus", "--zz", "-z", "--samplesx"]))
        argv.insert(draw(st.integers(1, len(argv))), flag)
    elif kind == "missing":
        i = draw(st.sampled_from([i for i, a in enumerate(argv) if a in ("--input", "-k", "--point")]))
        del argv[i : i + 2]
    elif kind == "int":
        argv[draw(st.sampled_from(ints)) + 1] = draw(st.sampled_from(_BAD_VALUES["int"]))
    else:
        i = draw(st.sampled_from(values))
        argv[i + 1] = draw(st.sampled_from(_BAD_VALUES[argv[i]]))
    return argv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argv=_bad_command_line())
def test_exit_code_contract_argv_fuzz(fuzz_file, argv):
    # usage errors exit 1 with one error line, never a traceback or an
    # argparse exit status
    fuzz_file.write_text(json.dumps(_HALF_DIAG))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(fuzz_file) if a is None else a for a in argv])
    assert code == 1
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
