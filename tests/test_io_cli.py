import dataclasses
import json
import math

import numpy as np
import pytest

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
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ModelFormatError):
            jsonio.parse_document(text)


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
        assert main(["dilate", "--input", matrix_file, "--alpha", "0.3", "--check"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["unitarity_residual"] <= 1e-10
        assert len(out["matrix"]) == 6

    def test_wu_check(self, capsys, model_file):
        assert main(["wu-check", "--input", model_file, "-k", "2", "--angles", "48"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "strict-containment-predicted"

    def test_conjecture(self, capsys, matrix_file):
        assert main(
            ["conjecture", "--input", matrix_file, "-k", "1", "--point", "0.9,0.0",
             "--thetas", "90"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["condition_holds"] is True

    def test_intersect(self, capsys, matrix_file):
        assert main(
            ["intersect", "--input", matrix_file, "-k", "1", "--alphas", "90",
             "--samples", "5", "--seed", "7"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["polygon"]) >= 3

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
        ],
    )
    def test_exit_code_contract(self, tmp_path, capsys, command, doc, code):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"kind": "model", "support_radius": 2.0, **doc}))
        assert main([command[0], "--input", str(path), *command[1:]]) == code
        out = capsys.readouterr()
        if code == 0:
            assert json.loads(out.out)["interval"] is None
        else:
            assert out.err.startswith("error: ")

    def test_dilate_check_failure(self, monkeypatch, matrix_file, capsys):
        def broken(T, alpha):
            art = hrnr.halmos(T, alpha)
            return dataclasses.replace(art, matrix=2 * art.matrix)

        monkeypatch.setattr("hrnr.cli.halmos", broken)
        assert main(["dilate", "--input", matrix_file, "--check"]) == 2
        assert capsys.readouterr().err.startswith("error: dilation is not unitary")

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
        assert "FAIL" not in capsys.readouterr().out
