import contextlib
import errno
import hashlib
import io
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import varconn
from varconn import EPS_CLIP, MeasureKind, MeasureResult, NumericalError, VarModel, fixture, load_model, save_model, validate
from varconn import save_timeseries, simulate
from varconn import infotheory, measures, oracles
from varconn.cli import main
from varconn.oracles import random_stable_model
from varconn.spectral import _block_size

DOCS = Path(__file__).resolve().parents[1] / "docs"


@pytest.fixture()
def two_channel_model_path(tmp_path):
    path = tmp_path / "two_var_alpha.json"
    save_model(fixture("two_var_alpha", alpha=0.5).model, path, name="two_var_alpha")
    return path


def spy_walks(patch) -> list:
    """Record the grid of each walk that measure or mir starts (a call of ``_spectral_blocks``)."""
    walks = []
    for module in (varconn.cli, infotheory):

        def spy(model, grid, size, original=module._spectral_blocks):
            walks.append(grid.n_points)
            return original(model, grid, size)

        patch.setattr(module, "_spectral_blocks", spy)
    return walks


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
        path = tmp_path / "unstable.json"
        save_model(VarModel([[[1.1, 0.0], [0.0, 0.5]]], np.eye(2)), path)
        status = main([command, "--model", str(path)])
        assert status == 3
        assert "E_NUMERIC" in capsys.readouterr().err

    @pytest.mark.parametrize("command, kinds", [("measure", "coh,idtf"), ("mir", "ipdc,idtf")])
    @pytest.mark.parametrize("to_file", [True, False])
    def test_refusal_mid_request_writes_nothing(self, monkeypatch, tmp_path, capsys, two_channel_model_path, command, kinds, to_file):
        def refuse(*args):
            raise NumericalError("refused after the first measure")

        # measure draws its measures from _MEASURES, mir its squared magnitudes from _RATES
        table = measures._MEASURES if command == "measure" else infotheory._RATES
        monkeypatch.setitem(table, MeasureKind.IDTF, refuse)
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
            values = np.zeros((spectra.a_bar.shape[0], spectra.K, spectra.K), dtype=complex)
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

    @pytest.mark.parametrize("fs", ["inf", "1e308"])
    def test_unrenderable_sample_rate_refused(self, tmp_path, capsys, two_channel_model_path, fs):
        # pi * fs overflows, so the frequencies in Hz could not be written
        out = tmp_path / "result.json"
        status = main(["measure", "--model", str(two_channel_model_path), "--nfreq", "8", "--fs", fs, "--out", str(out)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err == f"E_CONFIG: sample_rate_hz must be positive with pi * sample_rate_hz finite, got {float(fs)}\n"
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


class TestMeasureBlocks:
    """measure walks the grid in blocks: its bytes and its refusals do not depend on the block size."""

    #: 17 points: walks in blocks of 1, 2, 7, 8, 9 and 17 end in blocks of 1 (8 and 1),
    #: 2, 3 and 8 rows, or take the grid whole; _block_size(3) takes it whole too
    N_POINTS = 17
    SIZES = (1, 2, 7, 8, 9, 17)

    @pytest.fixture()
    def model_path(self, tmp_path):
        path = tmp_path / "k3.json"
        save_model(random_stable_model(np.random.default_rng(3), 3, p=3), path)
        return path

    @pytest.mark.parametrize("options", [[], ["--mag-sq", "--fs", "250"]])
    def test_same_bytes_at_any_block_size(self, monkeypatch, tmp_path, model_path, options):
        assert _block_size(3) > self.N_POINTS
        argv = ["measure", "--model", str(model_path), "--nfreq", str(self.N_POINTS), *options, "--out"]
        whole = tmp_path / "whole.json"
        assert main([*argv, str(whole)]) == 0
        for size in self.SIZES:
            monkeypatch.setattr(varconn.cli, "_block_size", lambda k, size=size: size)
            out = tmp_path / f"blocks{size}.json"
            assert main([*argv, str(out)]) == 0
            assert out.read_bytes() == whole.read_bytes(), size

    @staticmethod
    def install_faults(patch, measure_faults, singular_row):
        """Patch measures (kind -> (grid row, "refuse" or a value for entry (1, 0))) and A_bar's inverse."""
        for name, (row, fault) in measure_faults.items():
            kind = MeasureKind(name)
            original, seen = measures._MEASURES[kind], [0]

            def faulty(spectra, kind=kind, original=original, seen=seen, row=row, fault=fault):
                start = seen[0]
                seen[0] += len(spectra.a_bar)
                result = original(spectra)
                if not start <= row < seen[0]:
                    return result
                if fault == "refuse":
                    raise NumericalError(f"{kind.value} refused at row {row}")
                values = result.values.copy()
                values[row - start, 1, 0] = fault
                return MeasureResult(kind, values)

            patch.setitem(measures._MEASURES, kind, faulty)
        if singular_row is not None:  # a zero pivot in the walk's inverse at that grid row
            inv, seen = np.linalg.inv, [0]

            def broken(a):
                if a.ndim == 3:
                    start = seen[0]
                    seen[0] += len(a)
                    if start <= singular_row < seen[0]:
                        a[singular_row - start] = 0.0
                return inv(a)

            patch.setattr(np.linalg, "inv", broken)

    @pytest.mark.parametrize(
        "kinds, measure_faults, singular_row, options, refusal",
        [
            # a measure that refuses in the first block loses to a singular A_bar in a later one
            ("pdc", {"pdc": (0, "refuse")}, 16, [], "E_NUMERIC: A_bar is numerically singular at omega = 3.14159 "),
            # the first measure in request order that refuses anywhere, not the first block's
            ("coh,pdc", {"pdc": (0, "refuse"), "coh": (16, "refuse")}, None, [], "E_NUMERIC: coh refused at row 16\n"),
            # no refusal of the walk is met after an unwritable sample rate, which is refused before it
            ("coh,pdc", {"pdc": (0, "refuse")}, None, ["--fs", "inf"], "E_CONFIG: sample_rate_hz must be positive"),
            ("coh", {"coh": (3, complex(math.nan, 0.0))}, None, ["--fs", "inf"], "E_CONFIG: sample_rate_hz must be positive"),
            # after the walk, the first array in request order holding a non-finite value
            ("coh,pdc", {"pdc": (0, complex(math.nan, 0.0)), "coh": (16, complex(0.0, math.inf))}, None, [], "E_NUMERIC: Out of range float values are not JSON compliant: inf\n"),
            ("pdc,coh", {"pdc": (16, complex(1e200, 0.0)), "coh": (0, complex(-math.inf, 0.0))}, None, ["--mag-sq"], "E_NUMERIC: Out of range float values are not JSON compliant: inf\n"),
        ],
    )
    @pytest.mark.parametrize("to_file", [True, False])
    def test_same_refusal_at_any_block_size(self, monkeypatch, tmp_path, capsys, model_path, kinds, measure_faults, singular_row, options, refusal, to_file):
        out = tmp_path / "result.json"
        argv = ["measure", "--model", str(model_path), "--measures", kinds, "--nfreq", str(self.N_POINTS), *options]
        argv += ["--out", str(out)] if to_file else []
        reports = {}
        for size in (None, *self.SIZES):
            with monkeypatch.context() as patch:
                if size is not None:
                    patch.setattr(varconn.cli, "_block_size", lambda k, size=size: size)
                self.install_faults(patch, measure_faults, singular_row)
                status = main(argv)
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists(), size
            reports[size] = (status, captured.err)
        assert reports[None][1].startswith(refusal), reports[None]
        assert all(report == reports[None] for report in reports.values()), reports

    @staticmethod
    def count_float_text(patch):
        """Record the shape of each array fileio renders from here on, one float_text call each."""
        calls, float_text = [], varconn.fileio.float_text

        def counted(*args):
            calls.append(args[0].shape)
            return float_text(*args)

        patch.setattr(varconn.fileio, "float_text", counted)
        return calls

    def test_unwritable_sample_rate_refused_before_the_unstable_model(self, monkeypatch, tmp_path, capsys):
        # every argument is judged before the model is touched, so no walk starts
        path = tmp_path / "unstable.json"
        save_model(VarModel([[[1.2]]], np.eye(1)), path)
        walks = spy_walks(monkeypatch)
        assert main(["measure", "--model", str(path), "--mag-sq", "--fs", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "E_CONFIG: sample_rate_hz must be positive with pi * sample_rate_hz finite, got inf\n"
        assert walks == []

    def test_unwritable_sample_rate_renders_nothing(self, monkeypatch, tmp_path, capsys):
        # the refusal is certain before the walk, so no block is rendered into a spill
        model = tmp_path / "k8.json"
        save_model(random_stable_model(np.random.default_rng(8), 8, p=3), model)
        calls = self.count_float_text(monkeypatch)
        assert main(["measure", "--model", str(model), "--mag-sq", "--fs", "inf", "--nfreq", "512"]) == 2
        assert capsys.readouterr().err.startswith("E_CONFIG: sample_rate_hz must be positive")
        assert calls == []

    def test_nothing_is_rendered_after_a_draw_refusal(self, monkeypatch, capsys, model_path):
        # in blocks of one frequency pdc refuses in block 1; coh is still drawn in every
        # later block, since it could yet refuse first, and nothing is rendered at all:
        # the blocks go to the spills as values, and the document is rendered after the checks
        monkeypatch.setattr(varconn.cli, "_block_size", lambda k: 1)
        self.install_faults(monkeypatch, {"pdc": (1, "refuse")}, None)
        calls = self.count_float_text(monkeypatch)
        assert main(["measure", "--model", str(model_path), "--measures", "coh,pdc", "--nfreq", str(self.N_POINTS)]) == 3
        assert capsys.readouterr().err == "E_NUMERIC: pdc refused at row 1\n"
        assert calls == []

    def test_one_spill_of_values_per_measure(self, monkeypatch, tmp_path, model_path):
        # with --mag-sq, each array a measure prints has a spill of its own, holding exactly the
        # float64 values printed, 8 B per (omega, i, j) entry, whatever the block size
        temporary_file = tempfile.TemporaryFile

        class CountedSpill:
            def __init__(self, *args, **kwargs):
                self.file, self.written = temporary_file(*args, **kwargs), bytearray()
                spills.append(self)

            def write(self, data):
                self.written += memoryview(data).cast("B")
                return self.file.write(data)

            def __getattr__(self, name):
                return getattr(self.file, name)

        monkeypatch.setattr(tempfile, "TemporaryFile", CountedSpill)
        out = tmp_path / "result.json"
        for size in (1, 2, None):
            spills = []
            with monkeypatch.context() as patch:
                if size is not None:
                    patch.setattr(varconn.cli, "_block_size", lambda k, size=size: size)
                assert main(["measure", "--model", str(model_path), "--mag-sq", "--nfreq", str(self.N_POINTS), "--out", str(out)]) == 0
            measures = json.loads(out.read_text())["measures"]
            assert all(sorted(arrays) == ["im", "mag_sq", "re"] for arrays in measures.values())
            printed = [np.array(array).tobytes() for arrays in measures.values() for array in arrays.values()]
            assert len(spills) == len(printed) == 3 * len(MeasureKind)
            assert [len(spill.written) for spill in spills] == [8 * self.N_POINTS * 3 * 3] * len(spills)
            assert sorted(bytes(spill.written) for spill in spills) == sorted(printed), size

    def test_peak_does_not_grow_with_the_grid(self, tmp_path):
        # the whole-grid route peaked here at 9.6 MiB (1,024 points) and 34.9 MiB (4,096 points);
        # S and S^-1 (coh, ipdc and idtf) set a block's peak, and three measures keep the spills small
        model = tmp_path / "k8.json"
        save_model(random_stable_model(np.random.default_rng(8), 8, p=3), model)
        peaks = {}
        for n_points in (1024, 4096):
            argv = ["measure", "--model", str(model), "--measures", "coh,ipdc,idtf", "--mag-sq", "--nfreq", str(n_points), "--out", os.devnull]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[n_points] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[4096] - peaks[1024]) < 0.5 * 2**20, peaks

    def test_stdout_without_a_byte_buffer(self, monkeypatch, tmp_path, two_channel_model_path):
        argv = ["measure", "--model", str(two_channel_model_path), "--nfreq", "5", "--mag-sq"]
        out = tmp_path / "result.json"
        assert main([*argv, "--out", str(out)]) == 0
        text = io.StringIO()
        monkeypatch.setattr(sys, "stdout", text)
        assert main(argv) == 0
        assert text.getvalue().encode("ascii") == out.read_bytes()

    @pytest.mark.parametrize("to_file", [True, False])
    def test_spill_error_is_an_io_refusal(self, monkeypatch, tmp_path, capsys, two_channel_model_path, to_file):
        class FullSpill(io.BytesIO):
            def write(self, values):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(tempfile, "TemporaryFile", FullSpill)
        out = tmp_path / "result.json"
        argv = ["measure", "--model", str(two_channel_model_path)]
        assert main([*argv, "--out", str(out)] if to_file else argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"E_IO: [Errno 28] No space left on device: {tempfile.gettempdir()!r}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("to_file", [True, False])
    def test_spill_error_met_on_flush_writes_nothing(self, monkeypatch, tmp_path, capsys, two_channel_model_path, to_file):
        # a spill's last buffered text reaches the disk only when it is flushed; that must happen before the first byte
        class FullOnFlush(io.BytesIO):
            def flush(self):
                raise OSError(errno.ENOSPC, "No space left on device")

            def seek(self, *args):
                self.flush()
                return super().seek(*args)

        monkeypatch.setattr(tempfile, "TemporaryFile", FullOnFlush)
        out = tmp_path / "result.json"
        argv = ["measure", "--model", str(two_channel_model_path)]
        assert main([*argv, "--out", str(out)] if to_file else argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"E_IO: [Errno 28] No space left on device: {tempfile.gettempdir()!r}\n"
        assert captured.out == ""
        assert not out.exists()


class TestRefusedInputs:
    """A model document, a request or a fit that is refused, or only warned about, with its exit status and stderr line."""

    @pytest.mark.parametrize("command", ["measure", "mir"])
    def test_sigma_not_positive_definite(self, tmp_path, capsys, command):
        path, out = tmp_path / "model.json", tmp_path / "result.json"
        save_model(VarModel(np.zeros((1, 2, 2)), [[1.0, 2.0], [2.0, 1.0]]), path)  # symmetric, eigenvalues 3 and -1
        assert main([command, "--model", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "E_NUMERIC: innovation covariance is not positive definite\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["measure", "mir", "simulate"])
    def test_sigma_singular_to_rounding_is_refused_by_every_command(self, tmp_path, capsys, command):
        # rank 2 in exact arithmetic: LAPACK's Cholesky factors it on x86-64, simulate's
        # column-by-column one leaves its last pivot at 0 or below, and validate asks the latter
        sigma = [[16.11111111111111, -3.75, 2.6666666666666665], [-3.75, 1.5625, -1.5], [2.6666666666666665, -1.5, 1.5625]]
        path, out = tmp_path / "model.json", tmp_path / "out"
        save_model(VarModel(np.zeros((1, 3, 3)), sigma), path)
        extra = ["--n", "10"] if command == "simulate" else []
        assert main([command, "--model", str(path), *extra, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "E_NUMERIC: innovation covariance is not positive definite\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "document, refusal",
        [
            ([], "model document must be a JSON object"),
            ({"schema_version": 1, "K": 2, "p": 0, "coeffs": [], "sigma": np.eye(3).tolist()}, "sigma has shape (3, 3), declared (K, K) = (2, 2)"),
        ],
        ids=["list", "sigma-shape"],
    )
    def test_malformed_model_document(self, tmp_path, capsys, document, refusal):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(document))
        assert main(["measure", "--model", str(path)]) == 2
        assert capsys.readouterr().err == f"E_PARSE: {refusal}\n"

    @pytest.mark.parametrize("command, option, what", [("measure", "--measures", "measure"), ("mir", "--kinds", "rate kind")])
    def test_empty_kind_list(self, capsys, two_channel_model_path, command, option, what):
        assert main([command, "--model", str(two_channel_model_path), option, ","]) == 2
        assert capsys.readouterr().err == f"E_CONFIG: no {what} requested\n"

    def test_unstable_fit_is_written_with_a_warning(self, tmp_path, capsys):
        # x_t = 1.02 x_{t-1} + w_t grows without bound, and least squares finds a root outside the unit circle
        noise, x = np.random.default_rng(0).standard_normal(400), np.zeros(400)
        for t in range(1, 400):
            x[t] = 1.02 * x[t - 1] + noise[t]
        data, out = tmp_path / "explosive.csv", tmp_path / "fitted.json"
        data.write_text("x\n" + "".join(f"{value!r}\n" for value in x.tolist()))
        assert main(["fit", "--data", str(data), "--order", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == "warning: fitted model is unstable; spectra and measures will be refused\n"
        assert not validate(load_model(out)).stable


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
        # every spectral evaluation enters the block walker; neither command evaluates the whole grid
        originals = {
            "evaluate_spectra": varconn.spectral.evaluate_spectra,
            "_spectral_blocks": varconn.spectral._spectral_blocks,
            "validate": varconn.var_model.validate,
        }
        calls = dict.fromkeys(originals, 0)
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "varconn"]
        for name, original in originals.items():

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        requests = {"mir": (["--kinds", "ipdc,idtf,coh"], 0), "measure": ([], 0)}
        for command, (options, whole_grid) in requests.items():
            calls.update(dict.fromkeys(calls, 0))
            argv = [command, "--model", str(two_channel_model_path), *options, "--out", str(tmp_path / f"{command}.json")]
            assert main(argv) == 0
            assert calls == {"evaluate_spectra": whole_grid, "_spectral_blocks": 1, "validate": 1}, command
        assert sorted(json.loads((tmp_path / "mir.json").read_text())["mir"]) == ["coh", "idtf", "ipdc"]

    def test_wide_model_matches_recorded_digest(self, tmp_path):
        # 1001 points span many frequency blocks at K = 16 and are not a
        # multiple of the block size; digest recorded with numpy 2.4 on x86-64,
        # re-pinned when rates became the uniform weighted sum in grid order
        # rather than np.trapezoid's terms (rates moved by <= 4e-15 relative),
        # and again when they came from real squared magnitudes rather than
        # |complex measure|^2 (<= 7.7e-16 relative, every n_clipped unchanged)
        model, out = tmp_path / "k16.json", tmp_path / "mir.json"
        save_model(random_stable_model(np.random.default_rng(16), 16, p=3), model)
        argv = ["mir", "--model", str(model), "--kinds", "ipdc,idtf,coh", "--units", "bits", "--nfreq", "1001", "--out", str(out)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == "1c73083e8c80c969e761aa2b214fc535404fb217e04cd2c9e15855c26904d2d3"

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

    def test_grid_size_refused_before_the_unstable_model(self, monkeypatch, tmp_path, capsys):
        # every argument is judged before the model is touched, so no walk starts
        path = tmp_path / "unstable.json"
        save_model(VarModel([[[1.2]]], np.eye(1)), path)
        walks = spy_walks(monkeypatch)
        assert main(["mir", "--model", str(path), "--nfreq", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "E_CONFIG: rates need a grid of at least 2 points, got 1\n"
        assert walks == []

    def test_resident_peak_stays_near_the_import_floor(self, tmp_path):
        # tracemalloc misses BLAS/LAPACK workspace and allocator slack, so read the
        # process's resident high-water mark around one wide request instead; the
        # whole-grid (2048, 16, 16) A_bar and H_bar alone would take 16 MiB
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status")
        model, out = tmp_path / "k16.json", tmp_path / "mir.json"
        save_model(random_stable_model(np.random.default_rng(0), 16, p=4), model)
        script = (
            "import re, sys\n"
            "import varconn.cli\n"
            "def hwm():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return int(re.search(r'VmHWM:\\s+(\\d+) kB', status.read())[1])\n"
            "before = hwm()\n"
            "assert varconn.cli.main(sys.argv[1:]) == 0\n"
            "print(hwm() - before)\n"
        )
        argv = ["mir", "--model", str(model), "--kinds", "ipdc,idtf,coh", "--nfreq", "2048", "--out", str(out)]
        src = str(Path(varconn.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        growth_kib = int(done.stdout.split()[-1])
        assert growth_kib <= 12 * 1024

    def test_page_faults_do_not_grow_with_the_grid(self, tmp_path):
        # a walk reuses one workspace for every block: arrays allocated per block
        # would be handed back to the kernel by glibc's heap trim and faulted in
        # again by the next block, so the faults would grow with the block count
        pytest.importorskip("resource")
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("the fault count depends on glibc's heap trim")
        model = tmp_path / "k16.json"
        save_model(random_stable_model(np.random.default_rng(0), 16, p=4), model)
        script = (
            "import resource, sys\n"
            "import varconn.cli\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "assert varconn.cli.main(sys.argv[1:]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(varconn.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        faults = {}
        for n_points in (129, 2048):
            out = tmp_path / f"mir{n_points}.json"
            argv = ["mir", "--model", str(model), "--kinds", "ipdc,idtf,coh", "--nfreq", str(n_points), "--out", str(out)]
            done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            faults[n_points] = int(done.stdout.split()[-1])
        assert faults[2048] - faults[129] <= 500, faults


class TestWhiteNoiseChannel:
    """K = 1, p = 0: one white-noise channel, drawn as any other random model."""

    @pytest.fixture()
    def model_path(self, tmp_path):
        path = tmp_path / "white.json"
        save_model(random_stable_model(np.random.default_rng(1), 1, p=0), path)
        return path

    def test_mir(self, tmp_path, model_path):
        out = tmp_path / "mir.json"
        assert main(["mir", "--model", str(model_path), "--kinds", "ipdc,idtf,coh", "--nfreq", "65", "--out", str(out)]) == 0
        rates = json.loads(out.read_text())["mir"]
        # a channel's own coherence is left out; its own |iPDC|^2 and |iDTF|^2
        # are 1 at every frequency, clipped to 1 - EPS_CLIP
        assert rates["coh"] == {"n_clipped": 0, "units": "nats_per_sample", "values": [[0.0]]}
        for kind in ("ipdc", "idtf"):
            assert rates[kind]["n_clipped"] == 65, kind
            assert rates[kind]["values"][0][0] == pytest.approx(-math.log1p(EPS_CLIP - 1.0) / 2.0, rel=1e-12), kind

    def test_measure(self, tmp_path, model_path):
        out = tmp_path / "measure.json"
        assert main(["measure", "--model", str(model_path), "--nfreq", "9", "--mag-sq", "--out", str(out)]) == 0
        measures = json.loads(out.read_text())["measures"]
        assert sorted(measures) == sorted(kind.value for kind in MeasureKind)
        for kind, values in measures.items():
            assert np.asarray(values["mag_sq"]) == pytest.approx(np.ones((9, 1, 1)), abs=1e-15), kind


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
        # re-pinned when rates became the uniform weighted sum in grid order
        # rather than np.trapezoid's terms (rates moved by <= 6.1e-15 relative),
        # and again when they came from real squared magnitudes rather than
        # |complex measure|^2 (<= 1.3e-16 relative, every n_clipped unchanged)
        "mir": "5f27c5d338c00e5538b93555b35fefbe41aa144910d78c70e1f0eb8b4fccc36f",
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

    # re-pinned when the partial spectrum check moved to the normaliser that
    # measure and mir share (SpectralSet.inverse_autospectra); only that line
    # moved, from 1.732e-14 to 1.776e-14
    DIGEST = "6cddc3b635e8a1368518dd541b41802db26f5eec1bb2cc4412b3192d959bc264"

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

    def test_innovations_match_recorded_digest(self, tmp_path, two_channel_model_path):
        # the draws do not depend on how the recursion is summed; digest
        # recorded with numpy 2.4 on x86-64
        innovations = tmp_path / "w.csv"
        argv = ["simulate", "--model", str(two_channel_model_path), "--n", "100", "--seed", "5"]
        assert main([*argv, "--out", str(tmp_path / "x.csv"), "--innovations-out", str(innovations)]) == 0
        digest = hashlib.sha256(innovations.read_bytes()).hexdigest()
        assert digest == "cd23f843cacd66d433251dc613e8eb3976bb8147182965d43dd65ba934eaf393"

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

    @pytest.mark.parametrize("order", [["--order", "1"], ["--max-order", "4"]], ids=["order", "max-order"])
    def test_fit_too_few_samples_is_a_numerical_refusal(self, tmp_path, capsys, order):
        path = tmp_path / "short.csv"
        path.write_text("1.0,2.0\n3.0,4.5\n", encoding="utf-8")
        status = main(["fit", "--data", str(path), *order, "--out", str(tmp_path / "m.json")])
        assert status == 3
        assert capsys.readouterr().err.startswith("E_NUMERIC: need ")
        assert not (tmp_path / "m.json").exists()

    def test_fit_nan_csv_fails_with_data_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,nan\n", encoding="utf-8")
        status = main(["fit", "--data", str(path), "--order", "1", "--out", str(tmp_path / "m.json")])
        assert status == 2
        assert "E_DATA" in capsys.readouterr().err

    def test_simulate_unstable_model(self, tmp_path, capsys):
        path = tmp_path / "unstable.json"
        save_model(VarModel([[[1.2]]], np.eye(1)), path)
        (tmp_path / "x.csv").write_bytes(b"ch1\r\n1.0\r\n")  # a refusal before the walk leaves it untouched
        status = main(
            ["simulate", "--model", str(path), "--n", "10", "--out", str(tmp_path / "x.csv")]
        )
        assert status == 3
        assert "E_NUMERIC" in capsys.readouterr().err
        assert (tmp_path / "x.csv").read_bytes() == b"ch1\r\n1.0\r\n"


class TestSimulateChunks:
    """``simulate`` writes each chunk of the walk to both CSVs, and a refusal leaves no file behind."""

    @pytest.fixture()
    def k5_model_path(self, tmp_path):
        path = tmp_path / "k5.json"
        save_model(random_stable_model(np.random.default_rng(5), 5, p=3), path)
        return path

    @pytest.mark.parametrize("n, burn_in", [(9000, 1000), (12_000, 5120), (1, 0)])
    def test_bytes_equal_the_library_arrays(self, tmp_path, k5_model_path, n, burn_in):
        # 10,000 rows are chunks of 1,024, 4,096, 4,096 and 784 at K = 5; 5,120 ends on a chunk edge
        out, extra = tmp_path / "x.csv", tmp_path / "w.csv"
        argv = ["simulate", "--model", str(k5_model_path), "--n", str(n), "--burn-in", str(burn_in), "--seed", "9"]
        assert main([*argv, "--out", str(out), "--innovations-out", str(extra)]) == 0
        samples, innovations = simulate(load_model(k5_model_path), n, burn_in=burn_in, seed=9)
        assert out.read_bytes() == save_timeseries(samples, tmp_path / "ref_x.csv").read_bytes()
        assert extra.read_bytes() == save_timeseries(innovations, tmp_path / "ref_w.csv").read_bytes()

    @pytest.mark.parametrize(
        "k, p, n, digest",
        [
            (5, 3, 9000, "e009823d02cd7155096b4477f412d0998694d38158cac9841e36adf089cc86b2"),
            (64, 2, 1200, "0d73538a17b92f74513cdbec9ce4cf8e502807d70cbeeac600d026ebe14c19a3"),
        ],
    )
    def test_innovations_match_recorded_digest_on_every_host(self, tmp_path, k, p, n, digest):
        # Cholesky factor and product are summed without BLAS, so these bytes do not move
        # with the kernels or the thread count: the simulated-host CI job checks the same
        # digests. Both totals span three chunks; recorded with numpy 2.4 on x86-64
        model, innovations = tmp_path / "model.json", tmp_path / "w.csv"
        save_model(random_stable_model(np.random.default_rng(k), k, p=p), model)
        argv = ["simulate", "--model", str(model), "--n", str(n), "--burn-in", "100", "--seed", "9", "--out", str(tmp_path / "x.csv")]
        assert main([*argv, "--innovations-out", str(innovations)]) == 0
        assert hashlib.sha256(innovations.read_bytes()).hexdigest() == digest

    def test_unopenable_innovations_file_leaves_no_output(self, tmp_path, capsys, two_channel_model_path):
        out = tmp_path / "x.csv"
        argv = ["simulate", "--model", str(two_channel_model_path), "--n", "100"]
        status = main([*argv, "--out", str(out), "--innovations-out", str(tmp_path / "missing_dir" / "w.csv")])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith("E_IO: ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("innovations", [False, True])
    @pytest.mark.parametrize("fault", ["inf", "nan", "full disk"])
    def test_refusal_in_the_second_chunk_leaves_no_files(self, monkeypatch, tmp_path, capsys, k5_model_path, fault, innovations):
        chunks = varconn.cli._simulation_chunks
        if fault == "full disk":

            def add(self, rows, calls=itertools.count()):
                if next(calls) == 1 + innovations:  # the second chunk's first file
                    raise OSError(errno.ENOSPC, "No space left on device")
                write(self, rows)

            write = varconn.fileio.TimeseriesWriter.add
            monkeypatch.setattr(varconn.fileio.TimeseriesWriter, "add", add)
        else:

            def faulty(*args):
                for index, (samples, noise) in enumerate(chunks(*args)):
                    if index == 1:
                        samples[-1, 2] = float(fault)
                    yield samples, noise

            monkeypatch.setattr(varconn.cli, "_simulation_chunks", faulty)
        out, extra = tmp_path / "x.csv", tmp_path / "w.csv"
        argv = ["simulate", "--model", str(k5_model_path), "--n", "9000", "--out", str(out)]
        status = main([*argv, *(["--innovations-out", str(extra)] if innovations else [])])
        captured = capsys.readouterr()
        assert status == 2
        if fault == "full disk":
            assert captured.err == f"E_IO: [Errno {errno.ENOSPC}] No space left on device\n"
        else:
            assert captured.err == "E_CONFIG: samples must be finite\n"
        assert captured.out == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == ["k5.json"]

    @pytest.mark.parametrize("alias", ["same path", "hard link"])
    def test_one_file_for_both_outputs_is_refused(self, tmp_path, capsys, two_channel_model_path, alias):
        out = tmp_path / "x.csv"
        if alias == "same path":
            other = tmp_path / "." / "x.csv"
        else:
            out.write_bytes(b"old")
            other = tmp_path / "w.csv"
            os.link(out, other)
        argv = ["simulate", "--model", str(two_channel_model_path), "--n", "10", "--out", str(out)]
        assert main([*argv, "--innovations-out", str(other)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "E_CONFIG: --out and --innovations-out name the same file\n"
        assert captured.out == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == ["two_var_alpha.json"]

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a null device")
    def test_one_device_for_both_outputs_is_written(self, capsys, two_channel_model_path):
        # a device is never one file that the two streams could corrupt, and is never removed
        argv = ["simulate", "--model", str(two_channel_model_path), "--n", "10", "--out", os.devnull]
        assert main([*argv, "--innovations-out", os.devnull]) == 0
        assert capsys.readouterr().out == f"wrote {os.devnull} (10 samples x 2 channels)\nwrote {os.devnull}\n"
        assert os.path.exists(os.devnull)

    def test_refusal_removes_the_file_behind_a_link(self, monkeypatch, tmp_path, capsys, k5_model_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"old")
        link.symlink_to(target)
        chunks = varconn.cli._simulation_chunks

        def faulty(*args):
            for index, (samples, noise) in enumerate(chunks(*args)):
                if index == 1:
                    samples[0, 0] = np.inf
                yield samples, noise

        monkeypatch.setattr(varconn.cli, "_simulation_chunks", faulty)
        assert main(["simulate", "--model", str(k5_model_path), "--n", "9000", "--out", str(link)]) == 2
        assert capsys.readouterr().err == "E_CONFIG: samples must be finite\n"
        assert not target.exists()  # opening it had truncated it; no partial CSV is left behind the link

    @pytest.mark.parametrize("innovations", [False, True])
    def test_simulate_writes_in_bounded_memory(self, tmp_path, k5_model_path, innovations):
        # the command counterpart of TestTimeseriesCsv.test_save_writes_in_bounded_memory:
        # one chunk of the draw at a time, so the peak does not grow with the sample count
        extra = ["--innovations-out", str(tmp_path / "w.csv")] if innovations else []

        def run(n):
            argv = ["simulate", "--model", str(k5_model_path), "--n", str(n), "--seed", "1", "--out", str(tmp_path / "x.csv")]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, *extra]) == 0

        run(1000)  # warm-up: the float-text tables and first-use imports
        peaks = {}
        for n in (20_000, 200_000):
            tracemalloc.start()
            try:
                run(n)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) < 1.5 * 2**20, peaks
        assert abs(peaks[200_000] - peaks[20_000]) < 0.25 * 2**20, peaks


class TestFailedWrites:
    """Every command's --out is written one way: a write that fails leaves no file, and a refusal before it leaves an old one."""

    @pytest.fixture()
    def model_path(self, tmp_path):
        path = tmp_path / "k3.json"
        save_model(random_stable_model(np.random.default_rng(3), 3, p=2), path)
        return path

    @pytest.mark.parametrize("command", ["measure", "mir", "fit", "simulate"])
    def test_write_failing_after_the_first_byte_leaves_no_file(self, tmp_path, run_with_file_limit, model_path, command):
        out = tmp_path / "out"
        if command == "fit":
            data = tmp_path / "data.csv"
            save_timeseries(simulate(load_model(model_path), 500, seed=0)[0], data)
            argv, limit = ["fit", "--data", str(data), "--order", "2"], 100
        elif command == "simulate":  # the guard: its CSV was removed before one class wrote every file
            argv, limit = ["simulate", "--model", str(model_path), "--n", "1000"], 1000
        elif command == "mir":
            argv, limit = ["mir", "--model", str(model_path)], 100
        else:
            argv = ["measure", "--model", str(model_path), "--nfreq", "256"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--out", str(out)]) == 0
            # above each of the 7 spills' sizes, below the document's: the spills are
            # written, and the copy into --out fails
            limit = out.stat().st_size // 2
            out.unlink()
        inputs = sorted(path.name for path in tmp_path.iterdir())
        done = run_with_file_limit(limit, "sys.exit(varconn.cli.main(sys.argv[1:]))\n", *argv, "--out", str(out))
        assert done.returncode == 2, done.stderr
        assert done.stderr == f"E_IO: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
        assert done.stdout == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("command", ["measure", "mir", "fit"])
    def test_refusal_before_the_file_is_opened_leaves_it_untouched(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.write_bytes(b"old")
        if command == "fit":
            data = tmp_path / "short.csv"
            data.write_text("1.0,2.0\n3.0,4.5\n", encoding="utf-8")
            argv = ["fit", "--data", str(data), "--order", "1"]
        else:
            model = tmp_path / "unstable.json"
            save_model(VarModel([[[1.2]]], np.eye(1)), model)
            argv = [command, "--model", str(model)]
        assert main([*argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("E_NUMERIC: ")
        assert out.read_bytes() == b"old"


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


class TestModuleEntryPoint:
    """``python -m varconn.cli`` exits with the status that ``main`` returns."""

    @staticmethod
    def run(*argv: str) -> subprocess.CompletedProcess:
        src = str(Path(varconn.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-m", "varconn.cli", *argv], env=env, capture_output=True, text=True, timeout=120)

    def test_passing_verification_exits_0(self):
        done = self.run("verify", "--models", "1", "--nfreq", "2")
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith("verification passed\n")

    def test_missing_model_file_exits_2(self, tmp_path):
        path = tmp_path / "absent.json"
        done = self.run("measure", "--model", str(path))
        assert done.returncode == 2
        assert done.stderr == f"E_IO: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(path)!r}\n"
        assert done.stdout == ""
