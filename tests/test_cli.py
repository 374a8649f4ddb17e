"""Command-line surface: formats, exit codes, byte stability."""


import json
import sys

import pytest

from mmcut.cli import main

C6 = "p tw 6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n"
K3 = "p tw 3 3\n1 2\n2 3\n1 3\n"
PACKING = "3 2 2\n0\n1 2\n"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c6(tmp_path):
    path = tmp_path / "c6.gr"
    path.write_text(C6)
    return str(path)


@pytest.fixture
def k3(tmp_path):
    path = tmp_path / "k3.gr"
    path.write_text(K3)
    return str(path)


class TestSolve:
    def test_yes_witness(self, c6, capsys):
        code, out, _ = run_cli(
            ["solve", "--engine", "branching", "--ell", "3", c6], capsys
        )
        assert code == 0
        assert out.startswith("part 1:")
        assert len(out.strip().splitlines()) == 3

    def test_no_exit_one(self, k3, capsys):
        code, out, _ = run_cli(
            ["solve", "--engine", "treewidth", "--ell", "2", k3], capsys
        )
        assert code == 1 and out == "NO\n"

    def test_all_engines_agree(self, c6, capsys):
        outs = set()
        for engine in ("branching", "treewidth", "oracle"):
            code, out, _ = run_cli(
                ["solve", "--engine", engine, "--ell", "3", c6], capsys
            )
            assert code == 0
            outs.add(bool(out))
        assert outs == {True}

    def test_missing_file(self, capsys):
        code, _out, err = run_cli(
            ["solve", "--ell", "2", "/nonexistent.gr"], capsys
        )
        assert code == 2 and "error" in err

    def test_usage_error_exit_two(self, c6):
        with pytest.raises(SystemExit) as err:
            main(["solve", c6, "--engine", "quantum", "--ell", "2"])
        assert err.value.code == 2


class TestMaxparts:
    def test_reports_value_and_witness(self, c6, capsys):
        code, out, _ = run_cli(["maxparts", "--engine", "oracle", c6], capsys)
        assert code == 0
        assert out.splitlines()[0] == "maxparts 3"

    def test_with_td_file(self, c6, tmp_path, capsys):
        td = tmp_path / "c6.td"
        td.write_text(
            "s td 4 3 6\nb 1 1 2 6\nb 2 2 3 6\nb 3 3 4 6\nb 4 4 5 6\n"
            "1 2\n2 3\n3 4\n"
        )
        code, out, _ = run_cli(
            ["maxparts", "--engine", "treewidth", "--td", str(td), c6], capsys
        )
        assert code == 0 and out.splitlines()[0] == "maxparts 3"

    def test_bad_td_file_exit_two(self, tmp_path, capsys):
        graph = tmp_path / "two-edges.gr"
        graph.write_text("p tw 4 2\n1 2\n3 4\n")
        td = tmp_path / "forest.td"
        td.write_text("s td 4 2 4\nb 1 1 2\nb 2 1 2\nb 3 3 4\nb 4 3 4\n1 2\n2 1\n3 4\n")
        code, out, err = run_cli(
            ["maxparts", "--engine", "treewidth", "--td", str(td), str(graph)], capsys
        )
        assert code == 2 and out == "" and err.startswith("error:")


class TestEnumerate:
    def test_json_lines(self, c6, capsys):
        code, out, _ = run_cli(
            ["enumerate", "--param", "cluster", "--ell", "2", c6], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 11
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"parts", "cut_edges"}

    def test_empty_stream_exit_one(self, k3, capsys):
        code, out, _ = run_cli(
            ["enumerate", "--param", "vc", "--ell", "2", k3], capsys
        )
        assert code == 1 and out == ""

    def test_stats_on_stderr(self, c6, capsys):
        code, out, err = run_cli(
            ["enumerate", "--param", "cluster", "--ell", "2", "--stats", c6],
            capsys,
        )
        assert code == 0
        assert err.count("delay") == len(out.strip().splitlines())

    def test_byte_stable(self, c6, capsys):
        runs = []
        for _ in range(2):
            _code, out, _ = run_cli(
                ["enumerate", "--param", "cocluster", "--ell", "1", c6], capsys
            )
            runs.append(out)
        assert runs[0] == runs[1]

    def test_explicit_modulator(self, c6, capsys):
        code, out, _ = run_cli(
            ["enumerate", "--param", "cluster", "--ell", "2",
             "--modulator", "1 4", c6],
            capsys,
        )
        assert code == 0 and len(out.strip().splitlines()) == 11

    def test_bad_modulator_rejected(self, c6, capsys):
        code, _out, err = run_cli(
            ["enumerate", "--param", "vc", "--ell", "2",
             "--modulator", "1", c6],
            capsys,
        )
        assert code == 2 and "modulator" in err


class TestKernelize:
    def test_solved_path(self, tmp_path, capsys):
        path = tmp_path / "p100.gr"
        path.write_text(
            "p tw 100 99\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 100))
        )
        code, out, _ = run_cli(
            ["kernelize", "--subcubic", "--ell", "4", str(path)], capsys
        )
        assert code == 0 and out.startswith("SOLVED")

    def test_kernel_path(self, tmp_path, capsys):
        path = tmp_path / "k4.gr"
        path.write_text("p tw 4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
        out_path = tmp_path / "kernel.gr"
        code, out, _ = run_cli(
            ["kernelize", "--subcubic", "--ell", "2", str(path),
             "--output", str(out_path)],
            capsys,
        )
        assert code == 0 and out.startswith("KERNEL n<")
        assert out_path.read_text().startswith("p tw 4 6")


class TestGenerateVerify:
    def test_is2mmc_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "k4.gr"
        src.write_text("p tw 4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
        out_path = tmp_path / "target.gr"
        cert_path = tmp_path / "cert.json"
        code, out, _ = run_cli(
            ["generate", "is2mmc", str(src), "-k", "1",
             "-o", str(out_path), "--cert", str(cert_path)],
            capsys,
        )
        assert code == 0 and out == "ell 14\n"
        assert out_path.read_text().splitlines()[0].startswith("#")
        cert = json.loads(cert_path.read_text())
        assert cert["kind"] == "is-to-mmc"
        code, out, _ = run_cli(["verify", "is2mmc", str(src), "-k", "1"], capsys)
        assert code == 0 and out.strip().endswith("PASS")

    def test_sp2mmc_and_verify(self, tmp_path, capsys):
        src = tmp_path / "inst.sp"
        src.write_text(PACKING)
        code, out, _ = run_cli(["generate", "sp2mmc", str(src)], capsys)
        assert code == 0 and "p tw" in out
        code, out, _ = run_cli(["verify", "sp2mmc", str(src)], capsys)
        assert code == 0 and out.strip().endswith("PASS")

    def test_xcompose_and_verify(self, tmp_path, capsys):
        a = tmp_path / "a.sp"
        b = tmp_path / "b.sp"
        a.write_text("2 2 2\n0\n1\n")
        b.write_text("2 2 2\n0 1\n0 1\n")
        out_path = tmp_path / "composed.sp"
        code, out, _ = run_cli(
            ["generate", "xcompose", str(a), str(b), "-o", str(out_path)],
            capsys,
        )
        assert code == 0 and "composed 2 instances" in out
        code, out, _ = run_cli(
            ["verify", "xcompose", str(a), str(b)], capsys
        )
        assert code == 0 and out.strip().endswith("PASS")

    def test_verify_agreement(self, c6, capsys):
        code, out, _ = run_cli(["verify", "agreement", c6, "--ell", "1"], capsys)
        assert code == 0
        assert out.strip().endswith("PASS")
        assert "AGREE" in out


class TestConsoleScript:
    def test_main_module_entry(self, k3):
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-m", "mmcut.cli", "solve", "--ell", "1", k3],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("part 1:")


class TestBundledCorpus:
    def test_engine_agreement_on_every_instance(self, capsys):
        import pathlib

        corpus = sorted(
            pathlib.Path(__file__).resolve().parents[1].glob("instances/*.gr")
        )
        assert corpus, "bundled instances missing"
        for path in corpus:
            code, out, _ = run_cli(
                ["verify", "agreement", str(path), "--ell", "1"], capsys
            )
            assert code == 0, (path.name, out)
            assert out.strip().endswith("PASS")
