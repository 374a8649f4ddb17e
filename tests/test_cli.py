"""Command-line surface: formats, exit codes, byte stability."""


import contextlib
import io
import json
import pathlib
import shlex
import sys
import tempfile

import pytest

from mmcut import cli
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

    @pytest.mark.parametrize("text, message", [
        ("s td 1 5 4\nb 0 1 2 3 4\n", "bag 0 is outside 1..1"),
        ("s td 2 3 4\nb 1 1 2\nb 1 3 4\n1 2\n", "bag 1 given twice"),
    ], ids=["bag-zero", "bag-twice"])
    def test_bad_bag_id_exit_two(self, tmp_path, capsys, text, message):
        graph = tmp_path / "two-edges.gr"
        graph.write_text("p tw 4 2\n1 2\n3 4\n")
        td = tmp_path / "bad.td"
        td.write_text(text)
        code, out, err = run_cli(
            ["maxparts", "--engine", "treewidth", "--td", str(td), str(graph)], capsys
        )
        assert code == 2 and out == "" and message in err


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

    def test_agreement_builds_no_witness(self, c6, capsys, monkeypatch):
        # The engines' counts are compared; no decision witness is needed.
        def refuse(graph, ell):
            raise RuntimeError("agreement asked for a witness")

        monkeypatch.setattr(cli, "solve_decision", refuse)
        code, out, _ = run_cli(["verify", "agreement", c6, "--ell", "2"], capsys)
        assert code == 0 and out.strip().endswith("PASS")


class TestMalformedArguments:
    """A malformed ``--ell`` or ``--modulator`` is a usage error: exit 2
    from argparse, before any engine runs."""

    def usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2, err
        assert "error:" in err and "Traceback" not in err
        return err

    @pytest.mark.parametrize("ell", ["0", "-1", "two"])
    @pytest.mark.parametrize("command", [
        ["solve"],
        ["solve", "--engine", "treewidth"],
        ["enumerate", "--param", "vc"],
        ["enumerate", "--param", "cocluster"],
        ["enumerate", "--param", "cluster"],
        ["kernelize", "--subcubic"],
        ["verify", "agreement"],
    ])
    def test_ell_below_one(self, command, ell, c6, capsys):
        err = self.usage_error(command + ["--ell", ell, c6], capsys)
        assert "--ell" in err

    @pytest.mark.parametrize("ids", ["1 x", "0 3", "-1", "1.5"])
    @pytest.mark.parametrize("param", ["vc", "cocluster", "cluster"])
    def test_modulator_not_vertex_ids(self, param, ids, c6, capsys):
        err = self.usage_error(
            ["enumerate", "--param", param, "--ell", "2", "--modulator", ids, c6],
            capsys,
        )
        assert "--modulator" in err

    def test_modulator_vertex_outside_graph(self, c6, capsys):
        code, out, err = run_cli(
            ["enumerate", "--param", "vc", "--ell", "2",
             "--modulator", "1 3 5 7", c6],
            capsys,
        )
        assert code == 2 and out == "" and err.startswith("error:")

    def test_empty_modulator_checked(self, c6, k3, capsys):
        # An empty --modulator is checked like any other, not replaced by
        # the approximation: no vertex cover of C6, but the cluster
        # modulator of a triangle.
        code, out, err = run_cli(
            ["enumerate", "--param", "vc", "--ell", "2", "--modulator", "", c6],
            capsys,
        )
        assert code == 2 and out == "" and "not a vertex-cover modulator" in err
        code, out, _ = run_cli(
            ["enumerate", "--param", "cluster", "--ell", "1", "--modulator", "", k3],
            capsys,
        )
        assert code == 0 and out == '{"parts":[[1,2,3]],"cut_edges":[]}\n'

    def test_console_script_prints_no_traceback(self, c6):
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-m", "mmcut.cli", "enumerate", "--param", "vc",
             "--ell", "2", "--modulator", "1 x", c6],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and "--modulator" in proc.stderr

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


INSTANCES = pathlib.Path(__file__).resolve().parents[1] / "instances"
GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "cli_golden.json"

# Fixed invocations on the bundled instances.  "{I}" is the instances
# directory, "{T}" a fresh empty directory for the files a command writes.
GOLDEN_CASES = {
    "solve-branching": "solve --engine branching --ell 3 {I}/c6.gr",
    "solve-branching-trace": "solve --ell 4 --trace {T}/trace.jsonl {I}/caterpillar.gr",
    "solve-branching-trace-no": "solve --ell 3 --trace {T}/trace.jsonl {I}/k4.gr",
    "solve-treewidth": "solve --engine treewidth --ell 4 {I}/p8.gr",
    "solve-treewidth-td": "solve --engine treewidth --td {I}/c6.td --ell 3 {I}/c6.gr",
    "solve-treewidth-no": "solve --engine treewidth --ell 2 {I}/k4.gr",
    "solve-oracle": "solve --engine oracle --ell 3 {I}/two_triangles.gr",
    "solve-oracle-no": "solve --engine oracle --ell 2 {I}/k4.gr",
    "solve-format": "solve --format pace-gr --ell 5 {I}/isolated.gr",
    "maxparts-branching": "maxparts --engine branching {I}/petersen.gr",
    "maxparts-branching-trace": "maxparts --trace {T}/trace.jsonl {I}/caterpillar.gr",
    "maxparts-treewidth": "maxparts --engine treewidth {I}/caterpillar.gr",
    "maxparts-treewidth-td": "maxparts --engine treewidth --td {I}/c6.td {I}/c6.gr",
    "maxparts-oracle": "maxparts --engine oracle {I}/two_triangles.gr",
    "maxparts-isolated": "maxparts --engine treewidth {I}/isolated.gr",
    "enumerate-vc": "enumerate --param vc --ell 2 {I}/caterpillar.gr",
    "enumerate-vc-modulator": "enumerate --param vc --ell 3 --modulator '2 4 6 8' {I}/p8.gr",
    "enumerate-vc-isolated": "enumerate --param vc --ell 4 {I}/isolated.gr",
    "enumerate-vc-isolated-cover":
        "enumerate --param vc --ell 2 --modulator '2 3 5 6 7' {I}/isolated.gr",
    "enumerate-vc-empty": "enumerate --param vc --ell 2 {I}/k4.gr",
    "enumerate-cocluster": "enumerate --param cocluster --ell 1 {I}/two_triangles.gr",
    "enumerate-cocluster-modulator":
        "enumerate --param cocluster --ell 2 --modulator '1 2 4 5' {I}/c6.gr",
    "enumerate-cocluster-isolated": "enumerate --param cocluster --ell 3 {I}/isolated.gr",
    "enumerate-cluster": "enumerate --param cluster --ell 2 --stats {I}/c6.gr",
    "enumerate-cluster-modulator":
        "enumerate --ell 3 --modulator '1 2 3 4 5' {I}/caterpillar.gr",
    "enumerate-cluster-isolated": "enumerate --ell 4 {I}/isolated.gr",
    "enumerate-cluster-twin":
        "enumerate --param cluster --modulator '1 2' --ell 1 {I}/matched_triangles.gr",
    "enumerate-cluster-empty": "enumerate --param cluster --ell 3 {I}/petersen.gr",
    "enumerate-not-a-modulator": "enumerate --param vc --ell 2 --modulator 1 {I}/c6.gr",
    "kernelize-solved": "kernelize --subcubic --ell 3 --output {T}/kernel.gr {I}/isolated.gr",
    "kernelize-kernel": "kernelize --subcubic --ell 2 --output {T}/kernel.gr {I}/petersen.gr",
    "kernelize-kernel-stdout": "kernelize --subcubic --ell 3 {I}/c6.gr",
    "generate-is2mmc": "generate is2mmc {I}/k4.gr -k 1 -o {T}/target.gr --cert {T}/cert.json",
    "generate-is2mmc-stdout": "generate is2mmc {I}/petersen.gr -k 2 --variant cubic",
    "generate-sp2mmc": "generate sp2mmc {I}/tiny.sp --output {T}/target.gr --cert {T}/cert.json",
    "generate-sp2mmc-stdout": "generate sp2mmc {I}/chain.sp",
    "generate-xcompose":
        "generate xcompose {I}/tiny.sp {I}/chain.sp -o {T}/composed.sp --cert {T}/cert.json",
    "generate-xcompose-stdout": "generate xcompose {I}/chain.sp {I}/tiny.sp",
    "verify-agreement": "verify agreement {I}/c6.gr",
    "verify-agreement-ell": "verify agreement --ell 2 {I}/isolated.gr",
    "verify-is2mmc": "verify is2mmc {I}/k4.gr -k 1",
    "verify-is2mmc-no": "verify is2mmc {I}/k4.gr -k 2",
    "verify-is2mmc-cubic": "verify is2mmc {I}/k4.gr -k 1 --variant cubic",
    "verify-sp2mmc": "verify sp2mmc {I}/chain.sp",
    "verify-xcompose": "verify xcompose {I}/tiny.sp {I}/chain.sp",
    "missing-file": "solve --ell 2 {I}/missing.gr",
}


def capture_golden(command: str, tmp: pathlib.Path) -> dict:
    """Exit code, stdout and every file written of one invocation; ``tmp``
    must be an empty directory.  A usage error records argparse's exit
    code."""
    argv = [
        arg.replace("{I}", str(INSTANCES)).replace("{T}", str(tmp))
        for arg in shlex.split(command)
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    files = {path.name: path.read_text() for path in sorted(tmp.iterdir())}
    return {"code": code, "stdout": out.getvalue(), "files": files}


class TestGolden:
    """Byte-level behaviour of the CLI, pinned by a fixture that
    ``python tests/test_cli.py`` rewrites from the current code."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_matches_fixture(self, name, tmp_path):
        want = json.loads(GOLDEN.read_text())[name]
        assert capture_golden(GOLDEN_CASES[name], tmp_path) == want

    def test_fixture_covers_every_case(self):
        assert set(json.loads(GOLDEN.read_text())) == set(GOLDEN_CASES)


if __name__ == "__main__":
    golden = {}
    for name, command in sorted(GOLDEN_CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            golden[name] = capture_golden(command, pathlib.Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
