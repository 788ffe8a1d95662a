"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.sketches import load_histogram, load_sketch


@pytest.fixture
def workspace(tmp_path):
    """Generate a small stream + sketch + histogram pipeline on disk."""
    stream_path = tmp_path / "stream.txt"
    sketch_path = tmp_path / "sketch.json"
    histogram_path = tmp_path / "hist.json"
    assert main(["generate", "--dataset", "zipf", "-n", "3000", "--universe", "300",
                 "--seed", "1", "--out", str(stream_path)]) == 0
    assert main(["sketch", "--stream", str(stream_path), "-k", "32",
                 "--out", str(sketch_path)]) == 0
    assert main(["release", "--sketch", str(sketch_path), "--epsilon", "1.0",
                 "--delta", "1e-6", "--seed", "0", "--out", str(histogram_path)]) == 0
    return tmp_path, stream_path, sketch_path, histogram_path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("generate", "sketch", "release", "merge", "heavy-hitters", "evaluate"):
            assert command in parser.format_help()


class TestPipeline:
    def test_generate_writes_stream(self, tmp_path):
        out = tmp_path / "s.txt"
        assert main(["generate", "--dataset", "uniform", "-n", "100", "--universe", "10",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 100

    def test_generate_named_dataset(self, tmp_path):
        out = tmp_path / "flows.txt"
        assert main(["generate", "--dataset", "network_flows", "-n", "500",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 500

    def test_sketch_and_release(self, workspace):
        _, _, sketch_path, histogram_path = workspace
        sketch = load_sketch(sketch_path)
        assert sketch.size == 32
        histogram = load_histogram(histogram_path)
        assert histogram.metadata.mechanism == "PMG"
        assert len(histogram) >= 1

    def test_release_to_stdout(self, workspace, capsys):
        _, _, sketch_path, _ = workspace
        assert main(["release", "--sketch", str(sketch_path), "--epsilon", "1.0",
                     "--delta", "1e-6", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "private_histogram"

    def test_release_stdout_and_out_file_hold_the_same_json(self, workspace,
                                                             capsys):
        tmp_path, _, sketch_path, _ = workspace
        release = ["release", "--sketch", str(sketch_path), "--epsilon", "1.0",
                   "--delta", "1e-6", "--seed", "3"]
        out = tmp_path / "again.json"
        assert main(release + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(release) == 0
        assert capsys.readouterr().out == out.read_text() + "\n"

    def test_pure_dp_release_requires_universe(self, workspace, capsys):
        _, _, sketch_path, _ = workspace
        assert main(["release", "--sketch", str(sketch_path), "--epsilon", "1.0"]) == 2
        assert main(["release", "--sketch", str(sketch_path), "--epsilon", "1.0",
                     "--universe", "300", "--seed", "2"]) == 0

    def test_heavy_hitters_output(self, workspace, capsys):
        _, _, _, histogram_path = workspace
        assert main(["heavy-hitters", "--histogram", str(histogram_path),
                     "--phi", "0.02", "--top", "3"]) == 0
        output = capsys.readouterr().out
        assert "heavy hitters" in output
        assert "element" in output

    def test_evaluate_output(self, workspace, capsys):
        _, stream_path, _, histogram_path = workspace
        assert main(["evaluate", "--histogram", str(histogram_path),
                     "--stream", str(stream_path)]) == 0
        assert "max_error" in capsys.readouterr().out

    def test_merge_command(self, workspace, tmp_path):
        _, _, sketch_path, _ = workspace
        merged_path = tmp_path / "merged.json"
        assert main(["merge", "--epsilon", "1.0", "--delta", "1e-6", "-k", "32",
                     "--seed", "3", "--out", str(merged_path),
                     str(sketch_path), str(sketch_path)]) == 0
        merged = load_histogram(merged_path)
        assert "Merged" in merged.metadata.mechanism

    def test_missing_file_reports_error(self, tmp_path, capsys):
        assert main(["sketch", "--stream", str(tmp_path / "missing.txt"), "-k", "4",
                     "--out", str(tmp_path / "x.json")]) == 1
        assert "error" in capsys.readouterr().err


class TestListBackends:
    def test_backends_listing_reports_the_kernel_tier(self, capsys):
        from repro import kernels

        assert main(["list", "--backends"]) == 0
        output = capsys.readouterr().out
        info = kernels.kernel_info()
        assert f"resolved backend: {info['backend']}" in output
        for provider in ("cc", "python"):
            assert provider in output
        for kernel in kernels.KERNEL_NAMES:
            assert kernel in output

    def test_backends_listing_honours_the_env_override(self, monkeypatch, capsys):
        from repro import kernels

        monkeypatch.setenv(kernels.ENV_VAR, "python")
        assert main(["list", "--backends"]) == 0
        assert "resolved backend: python" in capsys.readouterr().out

    def test_backends_listing_shows_a_refused_env_value(self, monkeypatch, capsys):
        from repro import kernels

        monkeypatch.setenv(kernels.ENV_VAR, "compiled")
        assert main(["list", "--backends"]) == 0
        output = capsys.readouterr().out
        assert "refused: kernel backend must be one of" in output
