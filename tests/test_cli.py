import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import varconn
from varconn import MeasureKind, MeasureResult, NumericalError, fixture, load_model, random_stable_model, save_model
from varconn import measures, oracles
from varconn.cli import main

DOCS = Path(__file__).resolve().parents[1] / "docs"


@pytest.fixture()
def two_channel_model_path(tmp_path):
    path = tmp_path / "two_var_alpha.json"
    save_model(fixture("two_var_alpha", alpha=0.5).model, path, name="two_var_alpha")
    return path


class TestMeasureCommand:
    def test_measure_writes_expected_magnitudes(self, tmp_path, two_channel_model_path):
        out = tmp_path / "result.json"
        status = main(
            [
                "measure",
                "--model",
                str(two_channel_model_path),
                "--measures",
                "ipdc",
                "--nfreq",
                "8",
                "--mag-sq",
                "--out",
                str(out),
            ]
        )
        assert status == 0
        document = json.loads(out.read_text())
        mag_sq = np.asarray(document["measures"]["ipdc"]["mag_sq"])
        assert mag_sq.shape == (8, 2, 2)
        assert float(np.max(np.abs(mag_sq[:, 1, 0] - 0.2))) < 1e-12
        assert float(np.max(mag_sq[:, 0, 1])) < 1e-15
        assert document["grid"]["n_points"] == 8

    def test_unknown_measure_name(self, capsys, two_channel_model_path):
        status = main(["measure", "--model", str(two_channel_model_path), "--measures", "granger"])
        assert status == 2
        assert "E_CONFIG" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["measure", "mir"])
    def test_unstable_model_refused(self, command, tmp_path, capsys):
        from varconn import VarModel

        path = tmp_path / "unstable.json"
        save_model(VarModel([[[1.1, 0.0], [0.0, 0.5]]], np.eye(2)), path)
        status = main([command, "--model", str(path)])
        assert status == 3
        assert "E_NUMERIC" in capsys.readouterr().err

    @pytest.mark.parametrize("command, kinds", [("measure", "coh,idtf"), ("mir", "ipdc,idtf")])
    @pytest.mark.parametrize("to_file", [True, False])
    def test_refusal_mid_request_writes_nothing(self, monkeypatch, tmp_path, capsys, two_channel_model_path, command, kinds, to_file):
        def refuse(spectra):
            raise NumericalError("refused after the first measure")

        monkeypatch.setitem(measures._MEASURES, MeasureKind.IDTF, refuse)
        out = tmp_path / "result.json"
        option = "--measures" if command == "measure" else "--kinds"
        argv = [command, "--model", str(two_channel_model_path), option, kinds]
        status = main([*argv, "--out", str(out)] if to_file else argv)
        captured = capsys.readouterr()
        assert status == 3
        assert captured.err.startswith("E_NUMERIC")
        assert captured.out == ""
        assert not out.exists()

    def test_non_finite_value_is_a_numerical_refusal(self, monkeypatch, tmp_path, capsys, two_channel_model_path):
        def nan_pdc(spectra):
            values = np.zeros((spectra.grid.n_points, spectra.K, spectra.K), dtype=complex)
            values[2, 1, 0] = np.nan
            return MeasureResult(MeasureKind.PDC, values)

        monkeypatch.setitem(measures._MEASURES, MeasureKind.PDC, nan_pdc)
        out = tmp_path / "result.json"
        status = main(["measure", "--model", str(two_channel_model_path), "--measures", "pdc", "--out", str(out)])
        captured = capsys.readouterr()
        assert status == 3
        assert captured.err == "E_NUMERIC: Out of range float values are not JSON compliant: nan\n"
        assert captured.out == ""
        assert not out.exists()

    def test_missing_model_file(self, tmp_path, capsys):
        status = main(["measure", "--model", str(tmp_path / "absent.json")])
        assert status == 2

    def test_non_utf8_model_fails_with_parse_code(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff{}")
        status = main(["mir", "--model", str(path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith(f"E_PARSE: {path}: not UTF-8: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_stdout_when_no_out(self, capsys, two_channel_model_path):
        status = main(
            ["measure", "--model", str(two_channel_model_path), "--measures", "coh", "--nfreq", "4"]
        )
        assert status == 0
        document = json.loads(capsys.readouterr().out)
        assert "coh" in document["measures"]

    def test_identical_invocations_are_byte_identical(self, tmp_path, two_channel_model_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            args = ["measure", "--model", str(two_channel_model_path), "--nfreq", "16", "--out", str(out)]
            assert main(args) == 0
        assert a.read_bytes() == b.read_bytes()


class TestMirCommand:
    def test_rates_in_nats(self, tmp_path, two_channel_model_path):
        out = tmp_path / "mir.json"
        status = main(["mir", "--model", str(two_channel_model_path), "--out", str(out)])
        assert status == 0
        document = json.loads(out.read_text())
        values = np.asarray(document["mir"]["ipdc"]["values"])
        assert abs(values[1][0] - 0.5 * math.log(1.25)) < 1e-8
        assert values[0][1] == 0.0
        assert document["mir"]["ipdc"]["units"] == "nats_per_sample"
        assert "idtf" in document["mir"]

    def test_rates_in_bits(self, tmp_path, two_channel_model_path):
        out = tmp_path / "mir.json"
        status = main(
            ["mir", "--model", str(two_channel_model_path), "--units", "bits", "--out", str(out)]
        )
        assert status == 0
        document = json.loads(out.read_text())
        values = np.asarray(document["mir"]["ipdc"]["values"])
        assert abs(values[1][0] - 0.5 * math.log(1.25) / math.log(2.0)) < 1e-8

    def test_one_spectral_evaluation_per_request(self, monkeypatch, tmp_path, two_channel_model_path):
        calls = {"evaluate_spectra": 0, "validate": 0}
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "varconn"]
        for name in calls:
            original = getattr(varconn, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        requests = {"mir": ["--kinds", "ipdc,idtf,coh"], "measure": []}
        for command, options in requests.items():
            calls.update(dict.fromkeys(calls, 0))
            argv = [command, "--model", str(two_channel_model_path), *options, "--out", str(tmp_path / f"{command}.json")]
            assert main(argv) == 0
            assert calls == {"evaluate_spectra": 1, "validate": 1}, command
        assert sorted(json.loads((tmp_path / "mir.json").read_text())["mir"]) == ["coh", "idtf", "ipdc"]

    def test_wide_model_matches_recorded_digest(self, tmp_path):
        # 1001 points span many frequency blocks at K = 16 and are not a
        # multiple of the block size; digest recorded with numpy 2.4 on x86-64
        model, out = tmp_path / "k16.json", tmp_path / "mir.json"
        save_model(random_stable_model(np.random.default_rng(16), 16, p=3), model)
        argv = ["mir", "--model", str(model), "--kinds", "ipdc,idtf,coh", "--units", "bits", "--nfreq", "1001", "--out", str(out)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == "f041cfc613ec2c5b1a5d12ab0384668d9a4ef405a0e627a415441c71bd55b7a7"

    def test_unknown_kind(self, capsys, two_channel_model_path):
        status = main(["mir", "--model", str(two_channel_model_path), "--kinds", "pdc"])
        assert status == 2
        assert "E_CONFIG" in capsys.readouterr().err

    def test_one_point_grid_refused(self, capsys, two_channel_model_path):
        status = main(["mir", "--model", str(two_channel_model_path), "--nfreq", "1"])
        assert status == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "E_CONFIG: rates need a grid of at least 2 points, got 1\n"
        # measures are defined at a single frequency
        assert main(["measure", "--model", str(two_channel_model_path), "--nfreq", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["grid"]["n_points"] == 1


class TestSchemaConformance:
    """CLI documents validate against the schemas in docs/."""

    @staticmethod
    def validate(path, schema_name):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((DOCS / schema_name).read_text())
        jsonschema.validate(json.loads(path.read_text()), schema)

    def test_result_documents(self, tmp_path, two_channel_model_path):
        model = str(two_channel_model_path)
        requests = {
            "measure": ["measure", "--model", model, "--nfreq", "8", "--mag-sq", "--fs", "100"],
            "mir": ["mir", "--model", model, "--kinds", "ipdc,idtf,coh", "--units", "bits"],
        }
        for name, argv in requests.items():
            out = tmp_path / f"{name}.json"
            assert main([*argv, "--out", str(out)]) == 0
            self.validate(out, "result.schema.json")

    def test_fitted_model_document(self, tmp_path, two_channel_model_path):
        samples = tmp_path / "samples.csv"
        fitted = tmp_path / "fitted.json"
        assert main(["simulate", "--model", str(two_channel_model_path), "--n", "500", "--out", str(samples)]) == 0
        assert main(["fit", "--data", str(samples), "--order", "1", "--name", "fitted", "--out", str(fitted)]) == 0
        self.validate(fitted, "model.schema.json")


class TestReadmeExamples:
    """The README's measure and mir examples write the bytes recorded here.

    Digests recorded with numpy 2.4 on x86-64. A change to either
    document's bytes has to be deliberate and has to update them.
    """

    DIGESTS = {
        "measure": "51f93aa99328b5354015dcb8a749bdc1b5669b657d65235c188407273549b6dd",
        "mir": "86a0208282a9ddb54b52040e081e42880e4805726caeca2ffb1e803c94b51d20",
    }

    def test_outputs_match_recorded_digests(self, tmp_path):
        model = tmp_path / "two_var_alpha.json"
        save_model(fixture("two_var_alpha", alpha=0.5).model, model)
        examples = {
            "measure": ["--measures", "ipdc", "--nfreq", "8", "--mag-sq"],
            "mir": ["--kinds", "ipdc,idtf", "--units", "nats"],
        }
        for command, options in examples.items():
            out = tmp_path / f"{command}.json"
            assert main([command, "--model", str(model), *options, "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[command], command


class TestVerifyDigest:
    """``verify --seed 7 --models 12 --nfreq 48`` prints the bytes recorded here.

    Digest recorded with numpy 2.4 on x86-64. A change to the printed
    deviations has to be deliberate and has to update it.
    """

    DIGEST = "a353505352dfe32fca408e90942fde64e5da93ac42ee84296a6937feb287bdf4"

    def test_stdout_matches_recorded_digest(self, capsys):
        assert main(["verify", "--seed", "7", "--models", "12", "--nfreq", "48"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == self.DIGEST


class TestSimulateAndFit:
    def test_simulate_then_fit_recovers_model(self, tmp_path, two_channel_model_path):
        csv_path = tmp_path / "samples.csv"
        status = main(
            [
                "simulate",
                "--model",
                str(two_channel_model_path),
                "--n",
                "20000",
                "--seed",
                "42",
                "--out",
                str(csv_path),
            ]
        )
        assert status == 0
        fitted_path = tmp_path / "fitted.json"
        status = main(
            ["fit", "--data", str(csv_path), "--order", "1", "--out", str(fitted_path)]
        )
        assert status == 0
        fitted = load_model(fitted_path)
        assert abs(fitted.coeffs[0, 1, 0] - 0.5) < 0.03

    def test_fit_with_order_selection(self, tmp_path, two_channel_model_path, capsys):
        csv_path = tmp_path / "samples.csv"
        main(
            [
                "simulate",
                "--model",
                str(two_channel_model_path),
                "--n",
                "5000",
                "--seed",
                "3",
                "--out",
                str(csv_path),
            ]
        )
        fitted_path = tmp_path / "fitted.json"
        status = main(
            [
                "fit",
                "--data",
                str(csv_path),
                "--max-order",
                "4",
                "--criterion",
                "bic",
                "--out",
                str(fitted_path),
            ]
        )
        assert status == 0
        assert "selected order 1" in capsys.readouterr().out
        assert load_model(fitted_path).p == 1

    def test_simulate_deterministic_bytes(self, tmp_path, two_channel_model_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            main(
                [
                    "simulate",
                    "--model",
                    str(two_channel_model_path),
                    "--n",
                    "100",
                    "--seed",
                    "5",
                    "--out",
                    str(out),
                ]
            )
        assert a.read_bytes() == b.read_bytes()

    def test_fit_ragged_csv_fails_with_parse_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
        status = main(["fit", "--data", str(path), "--order", "1", "--out", str(tmp_path / "m.json")])
        assert status == 2
        assert "E_PARSE" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"\xff1.0,2.0\n3.0,4.0\n", b"ch1,ch2\n1.0,2.0\n3.0,4.0\xff\n"])
    def test_fit_non_utf8_csv_fails_with_parse_code(self, tmp_path, capsys, content):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        status = main(["fit", "--data", str(path), "--order", "1", "--out", str(tmp_path / "m.json")])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith(f"E_PARSE: {path}: not UTF-8: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    def test_fit_nan_csv_fails_with_data_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,nan\n", encoding="utf-8")
        status = main(["fit", "--data", str(path), "--order", "1", "--out", str(tmp_path / "m.json")])
        assert status == 2
        assert "E_DATA" in capsys.readouterr().err

    def test_simulate_unstable_model(self, tmp_path, capsys):
        from varconn import VarModel

        path = tmp_path / "unstable.json"
        save_model(VarModel([[[1.2]]], np.eye(1)), path)
        status = main(
            ["simulate", "--model", str(path), "--n", "10", "--out", str(tmp_path / "x.csv")]
        )
        assert status == 3
        assert "E_NUMERIC" in capsys.readouterr().err


class TestVerifyCommand:
    def test_verify_passes_and_prints_checks(self, capsys):
        status = main(["verify", "--seed", "7", "--models", "6", "--nfreq", "48"])
        out = capsys.readouterr().out
        assert status == 0
        assert "verification passed" in out
        assert out.count("ok") >= 7

    @pytest.mark.parametrize(
        "refused, failing",
        [
            pytest.param(
                "ipdc",
                ["iPDC equals innovation/partialized-process coherence"],
                id="ipdc-iPDC equals innovation/partialized-process coherence",
            ),
            pytest.param(
                "idtf",
                ["iDTF equals signal/partialized-innovation coherence"],
                id="idtf-iDTF equals signal/partialized-innovation coherence",
            ),
            # without spectra no model reaches any check, and a check that ran on no model fails
            pytest.param(
                "evaluate_spectra",
                [
                    "iPDC equals innovation/partialized-process coherence",
                    "iDTF equals signal/partialized-innovation coherence",
                    "partial spectrum: block elimination vs quadratic form",
                    "A_bar equals partialized cross-spectral ratio",
                    "partialized-process orthogonality",
                    "inverse reconstruction: A_bar H_bar = I and S S^-1 = I",
                ],
                id="evaluate_spectra-inverse reconstruction: A_bar H_bar = I and S S^-1 = I",
            ),
        ],
    )
    def test_refusal_inside_a_check_fails_that_check(self, monkeypatch, capsys, refused, failing):
        def refuse(*args):
            raise NumericalError("non-positive column quadratic form")

        # rebind the name run_verification calls
        monkeypatch.setattr(oracles, refused, refuse)
        status = main(["verify", "--seed", "7", "--models", "6", "--nfreq", "48"])
        captured = capsys.readouterr()
        assert status == 4
        assert captured.err == "E_VERIFY: at least one identity check failed\n"
        lines = captured.out.splitlines()
        failed = [line for line in lines if not line.startswith("ok")]
        # the fixtures feed every refused quantity into their closed-form check
        assert failed == [
            "FAIL fixture closed forms: max deviation inf (bound 1e-12)",
            *(f"FAIL {name}: max deviation inf (bound 1e-10)" for name in failing),
        ]
        assert len(lines) == 7
