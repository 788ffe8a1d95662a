"""End-to-end CLI pipelines: generate -> sketch -> release -> merge -> query.

Parameterized over every registered mechanism name, so the full operational
loop is exercised for the paper's releases and every baseline, plus
cross-reads of v1 files (written by the frozen v1 writer) with v2 files.
"""

import json

import numpy as np
import pytest
from _frozen_v1 import save_v1

from repro.api import list_mechanisms, mechanism_entry
from repro.cli import main
from repro.sketches import MisraGriesSketch, load_histogram, load_sketch
from repro.sketches.merge import merge_many
from repro.streams.io import read_stream


def _sketch_of(stream_file, k):
    """The sketch `repro sketch -k k` builds from ``stream_file``."""
    return MisraGriesSketch.from_stream(k, read_stream(stream_file))


@pytest.fixture(scope="module")
def flat_workspace(tmp_path_factory):
    """A generated element stream plus two sketch shards, as the CLI makes them."""
    root = tmp_path_factory.mktemp("cli-flat")
    stream = root / "stream.txt"
    assert main(["generate", "--dataset", "zipf", "-n", "4000", "--universe", "64",
                 "--seed", "1", "--out", str(stream)]) == 0
    first, second = root / "first.sketch.json", root / "second.sketch.json"
    assert main(["sketch", "--stream", str(stream), "-k", "16", "--out", str(first)]) == 0
    assert main(["sketch", "--stream", str(stream), "-k", "16", "--out", str(second)]) == 0
    return root, stream, first, second


@pytest.fixture(scope="module")
def user_workspace(tmp_path_factory):
    """A generated user-level stream (one comma-separated set per line)."""
    root = tmp_path_factory.mktemp("cli-users")
    stream = root / "users.txt"
    assert main(["generate", "--dataset", "user_purchases", "-n", "300",
                 "--seed", "2", "--out", str(stream)]) == 0
    return root, stream


def _release_args(name, flat_workspace, user_workspace, out):
    """CLI arguments that run mechanism ``name`` on the right kind of input."""
    _, stream, sketch, second = flat_workspace
    _, users = user_workspace
    base = ["release", "--mechanism", name, "--epsilon", "1.0", "--seed", "3",
            "--out", str(out)]
    consumes = mechanism_entry(name).consumes
    if consumes == "user_stream":
        return base + ["--stream", str(users), "--user-level", "--delta", "1e-6",
                       "-k", "32", "-m", "8"]
    if consumes == "stream":
        return base + ["--stream", str(stream), "--delta", "1e-6",
                       "--universe", "64", "--phi", "0.02"]
    if consumes == "checkpointed_stream":
        return base + ["--stream", str(stream), "--delta", "1e-6", "-k", "16",
                       "--block-size", "500"]
    if consumes == "sketch_list":
        return base + ["--sketch", str(sketch), "--sketch", str(second),
                       "--delta", "1e-6", "-k", "16"]
    if name == "pure_dp":
        return base + ["--sketch", str(sketch), "--universe", "64"]
    return base + ["--sketch", str(sketch), "--delta", "1e-6", "-k", "16",
                   "--universe", "64"]


@pytest.mark.parametrize("name", sorted(list_mechanisms()))
def test_every_mechanism_runs_end_to_end(name, flat_workspace, user_workspace, tmp_path):
    """generate -> sketch -> release --mechanism <name> -> heavy-hitters."""
    out = tmp_path / f"{name}.hist.json"
    assert main(_release_args(name, flat_workspace, user_workspace, out)) == 0
    histogram = load_histogram(out)
    assert histogram.metadata.epsilon > 0
    assert main(["heavy-hitters", "--histogram", str(out), "--phi", "0.05"]) == 0


def test_merge_v2_routes_through_columnar_path(flat_workspace, tmp_path, monkeypatch):
    """repro merge over v2 files must hand merge_many the wire arrays."""
    _, _, first, second = flat_workspace
    assert json.loads(first.read_text())["format"] == 2
    calls = []

    def spy(sketches, k):
        assert all(isinstance(sketch, tuple)
                   and all(isinstance(column, np.ndarray) for column in sketch)
                   for sketch in sketches)
        calls.append((len(sketches), k))
        return merge_many(sketches, k)

    import repro.core.merging as merging

    monkeypatch.setattr(merging, "merge_many", spy)
    out = tmp_path / "merged.hist.json"
    assert main(["merge", "--epsilon", "1.0", "--delta", "1e-6", "-k", "16",
                 "--seed", "4", "--out", str(out), str(first), str(second)]) == 0
    assert calls == [(2, 16)]
    merged = load_histogram(out)
    assert "Merged" in merged.metadata.mechanism
    assert merged.metadata.stream_length == 8000


def test_merged_release_infers_k_from_envelopes(flat_workspace, tmp_path):
    """release --mechanism merged without -k must use the payloads' k, not a default."""
    _, _, first, second = flat_workspace
    out = tmp_path / "merged-nok.hist.json"
    assert main(["release", "--mechanism", "merged", "--sketch", str(first),
                 "--sketch", str(second), "--epsilon", "1.0", "--delta", "1e-6",
                 "--seed", "7", "--out", str(out)]) == 0
    histogram = load_histogram(out)
    assert histogram.metadata.sketch_size == 16  # from the envelopes, not k=64
    assert "l=k=16" in histogram.metadata.notes


@pytest.mark.parametrize("name", ["chan", "bohler_kerschbaum"])
def test_k_calibrated_mechanisms_take_k_from_envelope(name, flat_workspace, tmp_path):
    """Without -k, the noise must be calibrated to the sketch's real k, not a default."""
    _, _, sketch, _ = flat_workspace
    out = tmp_path / f"{name}-nok.hist.json"
    assert main(["release", "--mechanism", name, "--sketch", str(sketch),
                 "--epsilon", "1.0", "--delta", "1e-6", "--seed", "9",
                 "--out", str(out)]) == 0
    metadata = load_histogram(out).metadata
    assert metadata.sketch_size == 16
    assert metadata.noise_scale == 16.0  # k/epsilon for the fitted k, not k=64


def test_merged_release_rejects_disagreeing_k(flat_workspace, tmp_path, capsys):
    _, stream, first, _ = flat_workspace
    other = tmp_path / "other-k.sketch.json"
    assert main(["sketch", "--stream", str(stream), "-k", "8", "--out", str(other)]) == 0
    assert main(["release", "--mechanism", "merged", "--sketch", str(first),
                 "--sketch", str(other), "--epsilon", "1.0", "--delta", "1e-6"]) == 2
    assert "-k" in capsys.readouterr().err


def test_non_mg_sketch_type_roundtrips_through_release(flat_workspace, tmp_path, capsys):
    """count_min sketches save as counters envelopes and release via the CLI."""
    _, stream, _, _ = flat_workspace
    path = tmp_path / "cm.sketch.json"
    assert main(["sketch", "--stream", str(stream), "--type", "count_min", "-k", "64",
                 "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["kind"] == "counters"
    assert payload["k"] == 64  # -k survives into the envelope
    out = tmp_path / "cm.hist.json"
    assert main(["release", "--mechanism", "gshm", "--sketch", str(path),
                 "--epsilon", "1.0", "--delta", "1e-6", "-k", "64",
                 "--seed", "8", "--out", str(out)]) == 0
    assert load_histogram(out).metadata.mechanism == "GSHM"
    # Files are written in one format only: there is no --format option.
    with pytest.raises(SystemExit) as exited:
        main(["sketch", "--stream", str(stream), "--type", "count_min", "-k", "64",
              "--format", "v1", "--out", str(tmp_path / "cm.v1.json")])
    assert exited.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_merge_accepts_mixed_v1_v2_files(flat_workspace, tmp_path):
    """A v1 sketch file merges with a v2 sketch file (cross-read)."""
    _, stream, first, _ = flat_workspace
    old = save_v1(_sketch_of(stream, 16), tmp_path / "old.sketch.json")
    assert json.loads(old.read_text())["format_version"] == 1
    out = tmp_path / "mixed.hist.json"
    assert main(["merge", "--epsilon", "1.0", "--delta", "1e-6", "-k", "16",
                 "--seed", "5", "--out", str(out), str(first), str(old)]) == 0
    assert len(load_histogram(out)) >= 1


def test_v1_and_v2_sketch_files_decode_identically(flat_workspace, tmp_path):
    """Cross-read: the same sketch saved as v1 and v2 restores identical state."""
    _, stream, _, _ = flat_workspace
    v1 = save_v1(_sketch_of(stream, 16), tmp_path / "a.v1.json")
    v2 = tmp_path / "a.v2.json"
    assert main(["sketch", "--stream", str(stream), "-k", "16",
                 "--out", str(v2)]) == 0
    one, two = load_sketch(v1), load_sketch(v2)
    assert one.raw_counters() == two.raw_counters()
    assert one.stream_length == two.stream_length


def test_list_command_enumerates_registry(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    for name in list_mechanisms():
        assert name in output
    assert "misra_gries" in output


def test_stream_mechanism_requires_stream(flat_workspace, capsys):
    _, _, sketch, _ = flat_workspace
    assert main(["release", "--mechanism", "local_dp", "--sketch", str(sketch),
                 "--epsilon", "1.0", "--universe", "64"]) == 2
    assert "raw stream" in capsys.readouterr().err


def test_sketch_mechanism_requires_sketch(flat_workspace, capsys):
    _, stream, _, _ = flat_workspace
    assert main(["release", "--mechanism", "pmg", "--epsilon", "1.0",
                 "--delta", "1e-6"]) == 2
    assert "--sketch" in capsys.readouterr().err


class TestFramedPipeline:
    """pack -> merge --framed: streaming aggregation through the CLI."""

    def test_pack_then_framed_merge_matches_buffered_merge(self, flat_workspace,
                                                           tmp_path):
        _, _, first, second = flat_workspace
        frames = tmp_path / "exports.frames"
        assert main(["pack", "--out", str(frames), str(first), str(second)]) == 0
        framed_out = tmp_path / "framed.hist.json"
        buffered_out = tmp_path / "buffered.hist.json"
        assert main(["merge", "--framed", "--epsilon", "1.0", "--delta", "1e-6",
                     "--seed", "4", "--out", str(framed_out), str(frames)]) == 0
        assert main(["merge", "--epsilon", "1.0", "--delta", "1e-6", "-k", "16",
                     "--seed", "4", "--out", str(buffered_out),
                     str(first), str(second)]) == 0
        framed = load_histogram(framed_out)
        buffered = load_histogram(buffered_out)
        assert framed.as_dict() == buffered.as_dict()
        assert "streams=2" in framed.metadata.notes

    def test_pack_records_k_from_inputs(self, flat_workspace, tmp_path):
        _, _, first, second = flat_workspace
        frames = tmp_path / "exports.frames"
        assert main(["pack", "--out", str(frames), str(first), str(second)]) == 0
        from repro.api.framing import FrameReader

        with frames.open("rb") as fileobj:
            assert FrameReader(fileobj).header.k == 16

    def test_pack_accepts_v1_inputs(self, flat_workspace, tmp_path):
        _, stream, _, _ = flat_workspace
        old = save_v1(_sketch_of(stream, 16), tmp_path / "old.sketch.json")
        frames = tmp_path / "exports.frames"
        assert main(["pack", "--out", str(frames), str(old)]) == 0
        assert main(["merge", "--framed", "--epsilon", "1.0", "--delta", "1e-6",
                     "--seed", "1", "--out", str(tmp_path / "h.json"),
                     str(frames)]) == 0

    def test_framed_merge_rejects_non_streamable_strategy(self, flat_workspace,
                                                          tmp_path, capsys):
        _, _, first, _ = flat_workspace
        frames = tmp_path / "exports.frames"
        assert main(["pack", "--out", str(frames), str(first)]) == 0
        assert main(["merge", "--framed", "--strategy", "trusted_sum",
                     "--epsilon", "1.0", "--delta", "1e-6",
                     str(frames)]) == 2
        assert "trusted_merged" in capsys.readouterr().err

    def test_framed_merge_reports_truncation_cleanly(self, flat_workspace,
                                                     tmp_path, capsys):
        _, _, first, second = flat_workspace
        frames = tmp_path / "exports.frames"
        assert main(["pack", "--out", str(frames), str(first), str(second)]) == 0
        truncated = tmp_path / "truncated.frames"
        truncated.write_bytes(frames.read_bytes()[:-10])
        assert main(["merge", "--framed", "--epsilon", "1.0", "--delta", "1e-6",
                     str(truncated)]) == 1
        assert "truncated" in capsys.readouterr().err


def test_continual_release_reports_timeline_metadata(flat_workspace, tmp_path):
    _, stream, _, _ = flat_workspace
    out = tmp_path / "continual.hist.json"
    assert main(["release", "--mechanism", "continual", "--stream", str(stream),
                 "--epsilon", "1.0", "--delta", "1e-6", "-k", "16",
                 "--block-size", "1000", "--seed", "3", "--out", str(out)]) == 0
    histogram = load_histogram(out)
    assert histogram.metadata.mechanism == "ContinualMG"
    assert "blocks=4" in histogram.metadata.notes
    assert histogram.metadata.stream_length == 4000


def test_framed_merge_rejects_disagreeing_header_k(flat_workspace, tmp_path, capsys):
    _, stream, first, _ = flat_workspace
    other = tmp_path / "other-k.sketch.json"
    assert main(["sketch", "--stream", str(stream), "-k", "8", "--out", str(other)]) == 0
    frames_a = tmp_path / "a.frames"
    frames_b = tmp_path / "b.frames"
    assert main(["pack", "--out", str(frames_a), str(first)]) == 0
    assert main(["pack", "--out", str(frames_b), str(other)]) == 0
    assert main(["merge", "--framed", "--epsilon", "1.0", "--delta", "1e-6",
                 str(frames_a), str(frames_b)]) == 2
    assert "pass -k" in capsys.readouterr().err
    # An explicit -k overrides, like the buffered path.
    assert main(["merge", "--framed", "--epsilon", "1.0", "--delta", "1e-6",
                 "-k", "16", "--out", str(tmp_path / "h.json"),
                 str(frames_a), str(frames_b)]) == 0


def test_pack_declares_frame_count_so_truncation_is_detected(flat_workspace,
                                                             tmp_path, capsys):
    """A framed stream cut exactly at a frame boundary must not merge cleanly."""
    import struct

    from repro.api.framing import MAGIC

    _, _, first, second = flat_workspace
    frames = tmp_path / "exports.frames"
    assert main(["pack", "--out", str(frames), str(first), str(second)]) == 0
    data = frames.read_bytes()
    # Walk the frames and drop the last one, ending on a clean boundary.
    offset = len(MAGIC) + 1
    boundaries = []
    while offset < len(data):
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4 + length
        boundaries.append(offset)
    truncated = tmp_path / "boundary-cut.frames"
    truncated.write_bytes(data[:boundaries[-2]])
    assert main(["merge", "--framed", "--epsilon", "1.0", "--delta", "1e-6",
                 str(truncated)]) == 1
    assert "declared 2" in capsys.readouterr().err


def test_pack_rejects_disagreeing_k(flat_workspace, tmp_path, capsys):
    _, stream, first, _ = flat_workspace
    other = tmp_path / "other-k.sketch.json"
    assert main(["sketch", "--stream", str(stream), "-k", "8", "--out", str(other)]) == 0
    assert main(["pack", "--out", str(tmp_path / "x.frames"),
                 str(first), str(other)]) == 2
    assert "pass -k" in capsys.readouterr().err
