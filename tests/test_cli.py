import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bibeta
from bibeta.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_corr(self, capsys):
        code, out, _ = run_cli(capsys, "corr", "--alpha", "5,1,1,2")
        assert code == 0
        assert out == "0.5\n"

    def test_pdf(self, capsys):
        code, out, _ = run_cli(capsys, "pdf", "--alpha", "1,1,1,1",
                               "--point", "0.5,0.5")
        assert code == 0
        assert float(out) == pytest.approx(3.0, rel=1e-12)

    def test_pdf_rejects_zero_tol_at_the_center(self, capsys):
        code, out, _ = run_cli(capsys, "pdf", "--alpha", "2,3,4,5",
                               "--point", "0.5,0.5", "--tol", "0")
        assert code == 3
        assert out == ""

    def test_pdf_prints_inf_on_divergence(self, capsys):
        code, out, _ = run_cli(capsys, "pdf", "--alpha", "0.5,0.5,0.5,0.5",
                               "--point", "0.3,0.3")
        assert code == 0
        assert out.strip() == "inf"

    def test_moments_json(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--alpha", "4.7,3.5,2.1,3.7")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["m10", "m01", "m20", "m02", "m11"]
        assert payload["m10"] == pytest.approx(8.2 / 14.0, rel=1e-14)

    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("a11,a10,a01,corr_a00_10,corr_a00_5,corr_a00_2,"
                            "corr_a00_1,corr_a00_0.5,corr_a00_0.1")
        assert len(lines) == 29
        row = next(l for l in lines if l.startswith("5,1,1,"))
        cells = row.split(",")
        assert float(cells[5]) == pytest.approx(0.5, abs=1e-12)

    def test_determinism_is_byte_exact(self, capsys):
        args = ("sample", "--alpha", "2,3,1.5,2.5", "--n", "200", "--seed", "42")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_distinct_seeds_differ(self, capsys):
        _, a, _ = run_cli(capsys, "sample", "--alpha", "1,1,1,1", "--n", "5", "--seed", "1")
        _, b, _ = run_cli(capsys, "sample", "--alpha", "1,1,1,1", "--n", "5", "--seed", "2")
        assert a != b


class TestSampleAndGrid:
    def test_sample_bivariate_csv(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--alpha", "1,1,1,1", "--n", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,y"
        assert len(lines) == 11
        for line in lines[1:]:
            x, y = map(float, line.split(","))
            assert 0.0 < x < 1.0 and 0.0 < y < 1.0

    def test_sample_trivariate_csv(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "4",
                               "--alpha", "1,1,1,1,1,1,1,1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,y,z"
        assert len(lines) == 5

    def test_grid(self, capsys):
        code, out, _ = run_cli(capsys, "grid", "--alpha", "2,2,2,2",
                               "--resolution", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,y,density"
        assert len(lines) == 26
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.1)

    def test_grid_passes_tol(self, capsys, monkeypatch):
        import bibeta.cli
        seen = {}
        real = bibeta.cli.pdf_grid

        def spy(alpha, resolution=100, tol=None):
            seen["tol"] = tol
            return real(alpha, resolution=resolution, tol=tol)

        monkeypatch.setattr(bibeta.cli, "pdf_grid", spy)
        code, _, _ = run_cli(capsys, "grid", "--alpha", "2,2,2,2",
                             "--resolution", "3", "--tol", "1e-7")
        assert code == 0
        assert seen["tol"] == 1e-7

    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "draws.csv"
        code, out, _ = run_cli(capsys, "sample", "--alpha", "1,1,1,1",
                               "--n", "3", "--output", str(target))
        assert code == 0
        assert out == ""
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "x,y"
        assert len(lines) == 4


class TestFitCommand:
    def test_round_trip(self, capsys, tmp_path):
        data_path = tmp_path / "data.csv"
        code, _, _ = run_cli(capsys, "sample", "--alpha", "4.7,3.5,2.1,3.7",
                             "--n", "200000", "--seed", "8",
                             "--output", str(data_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "fit", "--input", str(data_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        got = np.array([payload[k] for k in ("a11", "a10", "a01", "a00")])
        assert np.max(np.abs(got - np.array([4.7, 3.5, 2.1, 3.7]))) < 0.2
        assert payload["objective_value"] < 1e-8
        assert isinstance(payload["restarts_used"], int)

    def test_unconverged_fit_emits_json_and_exit_5(self, capsys, tmp_path):
        data_path = tmp_path / "data.csv"
        run_cli(capsys, "sample", "--alpha", "1,1,1,1", "--n", "500",
                "--seed", "3", "--output", str(data_path))
        code, out, _ = run_cli(capsys, "fit", "--input", str(data_path),
                               "--restarts", "1", "--max-iterations", "1")
        assert code == 5
        payload = json.loads(out)
        assert payload["converged"] is False

    @pytest.mark.parametrize("flag", ["--restarts", "--max-iterations"])
    def test_zero_count_is_usage_error(self, capsys, tmp_path, flag):
        code, out, err = run_cli(capsys, "fit", "--input", str(tmp_path / "unread.csv"),
                                 flag, "0")
        assert code == 2
        assert out == ""
        assert flag in err

    def test_import_leaves_scipy_unloaded(self):
        src = os.path.dirname(os.path.dirname(bibeta.__file__))
        probe = "import sys, bibeta.cli; print('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "False"

    def test_degenerate_input_exit_4(self, capsys, tmp_path):
        data_path = tmp_path / "flat.csv"
        data_path.write_text("x,y\n" + "0.4,0.6\n" * 50)
        code, out, err = run_cli(capsys, "fit", "--input", str(data_path))
        assert code == 4
        assert "error" in err


class TestBaselineCommand:
    def test_three_param_pdf(self, capsys):
        code, out, _ = run_cli(capsys, "baseline", "--family", "three-param",
                               "--shapes", "1,1,1", "--pdf-at", "0.5,0.5")
        assert code == 0
        assert float(out) == pytest.approx(32.0 / 27.0, rel=1e-12)

    def test_libby_novick_pdf_default_rates(self, capsys):
        code, out, _ = run_cli(capsys, "baseline", "--family", "libby-novick",
                               "--shapes", "2,3,4", "--pdf-at", "0.4,0.6")
        assert code == 0
        _, out2, _ = run_cli(capsys, "baseline", "--family", "three-param",
                             "--shapes", "2,3,4", "--pdf-at", "0.4,0.6")
        assert float(out) == pytest.approx(float(out2), rel=1e-12)

    def test_libby_novick_sample(self, capsys):
        code, out, _ = run_cli(capsys, "baseline", "--family", "libby-novick",
                               "--shapes", "2,3,4", "--rates", "1,1.5,0.7",
                               "--n", "6", "--seed", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,y"
        assert len(lines) == 7

    def test_arnold_sample(self, capsys):
        code, out, _ = run_cli(capsys, "baseline", "--family", "arnold",
                               "--shapes", "1,1,1,1,1", "--n", "5")
        assert code == 0
        assert len(out.strip().split("\n")) == 6


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_wrong_alpha_arity(self, capsys):
        assert run_cli(capsys, "corr", "--alpha", "1,2,3")[0] == 2

    def test_arnold_rejects_pdf_at(self, capsys):
        code, _, _ = run_cli(capsys, "baseline", "--family", "arnold",
                             "--shapes", "1,1,1,1,1", "--pdf-at", "0.5,0.5")
        assert code == 2

    def test_wrong_shape_count(self, capsys):
        code, _, _ = run_cli(capsys, "baseline", "--family", "three-param",
                             "--shapes", "1,1,1,1,1")
        assert code == 2

    def test_point_outside_domain(self, capsys):
        code, _, err = run_cli(capsys, "pdf", "--alpha", "1,1,1,1",
                               "--point", "1.5,0.5")
        assert code == 3
        assert "error" in err

    def test_negative_alpha(self, capsys):
        # equals form keeps argparse from reading the value as an option
        assert run_cli(capsys, "corr", "--alpha=-1,1,1,1")[0] == 3

    def test_malformed_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0.2,oops\n0.3,0.4\n0.5,0.6\n")
        assert run_cli(capsys, "fit", "--input", str(bad))[0] == 3

    def test_grid_resolution_too_small(self, capsys):
        code, _, _ = run_cli(capsys, "grid", "--alpha", "1,1,1,1",
                             "--resolution", "1")
        assert code == 2
