import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bibeta
from bibeta.baselines import LibbyNovickParams, pdf_three_param, sample_libby_novick
from bibeta.cli import _read_pairs, main
from bibeta.construction import (AlphaBivariate, AlphaTrivariate, RandomStream,
                                 sample_bivariate, sample_trivariate)
from bibeta.density import pdf_grid
from bibeta.moments import correlation_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_csv(header, rows) -> str:
    """CSV text from ``csv.writer`` with 17 significant digits per value,
    one row at a time: the reference for the CLI's block formatter."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" for v in row])
    return buf.getvalue()


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

    @pytest.mark.parametrize("command", [
        ("sample", "--alpha", "1,1,1,1", "--n", "2"),
        ("grid", "--alpha", "2,2,2,2", "--resolution", "3"),
    ])
    def test_unwritable_output_is_a_domain_error(self, capsys, tmp_path, command):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, *command, "--output", str(target))
        assert code == 3
        assert out == "" and err.startswith("error: cannot write output file:")
        assert not target.parent.exists()


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
        assert list(payload) == ["a11", "a10", "a01", "a00", "objective_value",
                                 "converged", "restarts_used"]
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

    def test_fit_run_leaves_scipy_unloaded(self, tmp_path):
        data_path = tmp_path / "data.csv"
        draws = sample_bivariate(AlphaBivariate(2, 3, 4, 5), 500, RandomStream(1))
        data_path.write_text(reference_csv(("x", "y"), draws))
        src = os.path.dirname(os.path.dirname(bibeta.__file__))
        probe = ("import sys; from bibeta.cli import main; "
                 f"code = main(['fit', '--input', {str(data_path)!r}, "
                 f"'--output', {str(tmp_path / 'fit.json')!r}]); "
                 "print(code, 'scipy' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.split() == ["0", "False"]

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

    @pytest.mark.parametrize("draw_args, n, seed", [
        ((), 1000, 0),
        (("--n", "5"), 5, 0),
        (("--seed", "3"), 1000, 3),
        (("--n", "5", "--seed", "3"), 5, 3),
    ])
    def test_three_param_sample_defaults(self, capsys, draw_args, n, seed):
        code, out, _ = run_cli(capsys, "baseline", "--family", "three-param",
                               "--shapes", "2,3,4", *draw_args)
        assert code == 0
        draws = sample_libby_novick(LibbyNovickParams(2, 3, 4), n, RandomStream(seed))
        assert out == reference_csv(("x", "y"), draws)

    def test_three_param_pdf_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "baseline", "--family", "three-param",
                               "--shapes", "2,3,4", "--pdf-at", "0.4,0.6")
        assert code == 0
        assert out == f"{pdf_three_param(2, 3, 4, 0.4, 0.6):.17g}\n"

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

    @pytest.mark.parametrize("argv", [
        ("pdf", "--point", "0.5,0.5"),
        ("grid", "--resolution", "3"),
        ("moments",),
        ("corr",),
    ])
    def test_trivariate_alpha_on_a_bivariate_subcommand(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--alpha", "2,3,4,5,6,7,8,9")
        assert code == 2
        assert "--alpha" in err

    def test_arnold_rejects_pdf_at(self, capsys):
        code, _, _ = run_cli(capsys, "baseline", "--family", "arnold",
                             "--shapes", "1,1,1,1,1", "--pdf-at", "0.5,0.5")
        assert code == 2

    @pytest.mark.parametrize("family", ["three-param", "libby-novick"])
    @pytest.mark.parametrize("draw_flag", [("--n", "5"), ("--seed", "3"), ("--n", "1000")])
    def test_pdf_at_refuses_draw_flags(self, capsys, family, draw_flag):
        code, out, err = run_cli(capsys, "baseline", "--family", family, "--shapes", "2,3,4",
                                 "--pdf-at", "0.4,0.6", *draw_flag)
        assert code == 2
        assert out == ""
        assert err.endswith(f"error: {draw_flag[0]} does not combine with --pdf-at\n")

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

    @pytest.mark.parametrize("argv", [
        ("sample",),
        ("pdf", "--point", "0.5,0.5"),
        ("grid",),
        ("moments",),
    ])
    def test_negative_alpha_on_every_subcommand(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--alpha=-1,1,1,1")
        assert code == 3
        assert out == "" and err.startswith("error: a11 must be")

    def test_bad_fit_option_precedes_a_missing_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "fit", "--input", str(tmp_path / "missing.csv"),
                                 "--seed", "-1")
        assert code == 3
        assert out == "" and err.startswith("error: seed must be")

    @pytest.mark.parametrize("family, rates", [
        ("three-param", "1,1,1"),
        ("libby-novick", "1,1"),
    ])
    def test_bad_rates_are_usage_errors(self, capsys, family, rates):
        code, out, err = run_cli(capsys, "baseline", "--family", family,
                                 "--shapes", "2,3,4", "--rates", rates)
        assert code == 2
        assert out == "" and "--rates" in err

    @pytest.mark.parametrize("subcommand", ["sample", "pdf", "grid", "moments", "corr",
                                            "table", "fit", "baseline"])
    def test_help(self, capsys, subcommand):
        code, out, _ = run_cli(capsys, subcommand, "--help")
        assert code == 0
        assert out.startswith(f"usage: bibeta {subcommand}")

    def test_malformed_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0.2,oops\n0.3,0.4\n0.5,0.6\n")
        assert run_cli(capsys, "fit", "--input", str(bad))[0] == 3

    def test_grid_resolution_too_small(self, capsys):
        code, _, _ = run_cli(capsys, "grid", "--alpha", "1,1,1,1",
                             "--resolution", "1")
        assert code == 2


class TestCsvWriter:
    @pytest.mark.parametrize("block", [7, 1 << 16])
    def test_bivariate_sample(self, capsys, monkeypatch, block):
        # a small block size crosses block boundaries, with a partial last one
        monkeypatch.setattr(bibeta.cli, "_CSV_BLOCK", block)
        code, out, _ = run_cli(capsys, "sample", "--alpha", "2,3,4,5", "--n", "500",
                               "--seed", "7")
        assert code == 0
        draws = sample_bivariate(AlphaBivariate(2, 3, 4, 5), 500, RandomStream(7))
        assert out == reference_csv(("x", "y"), draws)

    def test_trivariate_sample(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--alpha", "1,2,3,4,5,6,7,8",
                               "--n", "300", "--seed", "3")
        assert code == 0
        draws = sample_trivariate(AlphaTrivariate(1, 2, 3, 4, 5, 6, 7, 8), 300,
                                  RandomStream(3))
        assert out == reference_csv(("x", "y", "z"), draws)

    def test_empty_sample_is_the_header(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--alpha", "1,1,1,1", "--n", "0")
        assert code == 0
        assert out == "x,y\n" == reference_csv(("x", "y"), [])

    def test_grid_with_inf_cells(self, capsys):
        code, out, _ = run_cli(capsys, "grid", "--alpha", "0.5,0.5,0.5,0.5",
                               "--resolution", "5")
        assert code == 0
        grid = pdf_grid(AlphaBivariate(0.5, 0.5, 0.5, 0.5), resolution=5)
        assert np.isinf(grid[:, 2]).any()
        assert out == reference_csv(("x", "y", "density"), grid)
        assert ",inf\n" in out

    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        header = ("a11", "a10", "a01", "corr_a00_10", "corr_a00_5", "corr_a00_2",
                  "corr_a00_1", "corr_a00_0.5", "corr_a00_0.1")
        assert out == reference_csv(header, correlation_table())


class TestCsvReader:
    @pytest.mark.parametrize("text", [
        "y,x\n0.2,0.1\n0.4,0.3\n",
        "id,x,y\nfirst,0.1,0.2\nsecond,0.3,0.4\n",
        "X,Y\n0.1,0.2\n0.3,0.4\n",
        " x , Y \n0.1, 0.2 \n 0.3,0.4\n",
        'x,y,note\n"0.1","0.2","a,b"\n0.3,"0.4",c\n',
        "x,y\n\n0.1,0.2\n\n\n0.3,0.4\n\n",
        "x,y\r\n0.1,0.2\r\n\r\n0.3,0.4\r\n",
    ], ids=["y-first", "extra-column", "upper-case", "padded", "quoted", "blank-lines",
            "crlf"])
    def test_accepts(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        data = _read_pairs(str(path))
        assert data.shape == (2, 2)
        assert data.tolist() == [[0.1, 0.2], [0.3, 0.4]]

    def test_rejects_non_utf8_input(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"x,y\n0.1,0.2\n0.3,\xff\n0.5,0.6\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 3
        assert out == "" and err.startswith("error: cannot read input file:")

    @pytest.mark.parametrize("text, message", [
        ("x,y\n0.1,0.2\n0.3,oops\n", "bad row 3 in input CSV: ['0.3', 'oops']"),
        ("x,y\n0.1,0.2\n0.3\n0.5,0.6\n", "bad row 3 in input CSV: ['0.3']"),
        ("x,y\n0.1,0.2\n   \n0.3,0.4\n", "bad row 3 in input CSV: ['   ']"),
        ("x,y\n0.1,0.2#c\n0.3,0.4\n", "bad row 2 in input CSV: ['0.1', '0.2#c']"),
        ("x,y\n0.1,0.2\n# note\n0.3,0.4\n", "bad row 3 in input CSV: ['# note']"),
        ("x,y\n\n", "input CSV has no data rows"),
    ], ids=["non-numeric", "short-row", "whitespace-row", "hash-in-cell", "hash-row",
            "header-only"])
    def test_rejects_with_exit_3(self, capsys, tmp_path, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 3
        assert out == ""
        assert err == f"error: {message}\n"
