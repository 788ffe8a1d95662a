"""End-to-end: `repro serve` + concurrent `repro push` + `repro request-release`.

The acceptance loop of the network subsystem, driven through the real CLI:
a server subprocess on an ephemeral port, N pushing clients running
concurrently, one release request — and the resulting DP histogram must be
bit-identical (keys, values, dict order) to ``repro merge --framed`` over
the same framed files with the same seed.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.cli import main
from repro.net import fetch_stats

pytestmark = pytest.mark.net(seconds=120)

K = 24


@pytest.fixture
def packed_files(tmp_path):
    """Four framed single-sketch files over distinct Zipf streams."""
    files = []
    for index in range(4):
        stream = tmp_path / f"s{index}.txt"
        sketch = tmp_path / f"s{index}.json"
        frames = tmp_path / f"c{index}.frames"
        assert main(["generate", "--dataset", "zipf", "-n", "6000",
                     "--universe", "400", "--seed", str(10 + index),
                     "--out", str(stream)]) == 0
        assert main(["sketch", "--stream", str(stream), "-k", str(K),
                     "--out", str(sketch)]) == 0
        assert main(["pack", "--out", str(frames), str(sketch)]) == 0
        files.append(frames)
    return files


def _serve_subprocess(tmp_path, extra=()):
    """Start `repro serve` in a subprocess; returns (process, address)."""
    ready = tmp_path / "ready.addr"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--listen", "127.0.0.1:0", "--epsilon", "1.0", "--delta", "1e-6",
         "-k", str(K), "--ready-file", str(ready), *extra],
        env={**__import__("os").environ,
             "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[2] / "src")},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    deadline = time.time() + 30
    while time.time() < deadline:
        if ready.exists() and ready.read_text().strip():
            return process, ready.read_text().strip()
        if process.poll() is not None:
            raise AssertionError(f"serve died early: {process.stderr.read()}")
        time.sleep(0.05)
    process.kill()
    raise AssertionError("serve never wrote its ready file")


def _load(path):
    return json.loads(pathlib.Path(path).read_text())


@pytest.mark.slow
@pytest.mark.parametrize("clients", [1, 2, 4])
def test_cli_network_release_matches_offline_framed_merge(packed_files,
                                                          tmp_path, clients):
    files = packed_files[:clients] if clients < 4 else packed_files
    process, address = _serve_subprocess(tmp_path, extra=["--releases", "1"])
    try:
        results = [None] * len(files)

        def push(ordinal):
            results[ordinal] = main(["push", "--to", address,
                                     "--ordinal", str(ordinal),
                                     str(files[ordinal])])

        threads = [threading.Thread(target=push, args=(ordinal,))
                   for ordinal in range(len(files))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [0] * len(files)

        net_out = tmp_path / "net.hist.json"
        assert main(["request-release", "--to", address, "--seed", "21",
                     "--out", str(net_out)]) == 0
        assert process.wait(timeout=30) == 0  # --releases 1 drains and exits
    finally:
        if process.poll() is None:
            process.kill()

    offline_out = tmp_path / "offline.hist.json"
    assert main(["merge", "--framed", "--epsilon", "1.0", "--delta", "1e-6",
                 "--seed", "21", "--out", str(offline_out),
                 *[str(path) for path in files]]) == 0

    networked, offline = _load(net_out), _load(offline_out)
    assert networked["keys"] == offline["keys"]          # same keys, same order
    assert networked["values"] == offline["values"]      # bit-equal noisy counts
    assert networked["meta"]["notes"] == offline["meta"]["notes"]


@pytest.mark.slow
def test_cli_push_declares_input_k_and_gets_rejected_on_mismatch(tmp_path):
    """`repro push` without -k declares the inputs' k; a server running at a
    different size rejects the session instead of folding miscalibrated
    sketches (regression: this used to slip through silently)."""
    stream = tmp_path / "s.txt"
    sketch = tmp_path / "s8.json"
    frames = tmp_path / "s8.frames"
    assert main(["generate", "--dataset", "zipf", "-n", "2000",
                 "--universe", "200", "--seed", "1", "--out", str(stream)]) == 0
    assert main(["sketch", "--stream", str(stream), "-k", "8",
                 "--out", str(sketch)]) == 0
    assert main(["pack", "--out", str(frames), str(sketch)]) == 0
    process, address = _serve_subprocess(tmp_path)  # server runs at k=K
    try:
        assert main(["push", "--to", address, str(frames)]) == 1  # k=8 vs K
        stats = fetch_stats(address)
        assert stats["frames"] == 0 and stats["sessions_committed"] == 0
        assert stats["sessions_rejected"] == 1
    finally:
        process.terminate()
        process.wait(timeout=30)


@pytest.mark.slow
def test_cli_push_accepts_sketch_json_and_unix_socket(tmp_path):
    stream = tmp_path / "s.txt"
    sketch = tmp_path / "s.json"
    assert main(["generate", "--dataset", "zipf", "-n", "4000",
                 "--universe", "300", "--seed", "3", "--out", str(stream)]) == 0
    assert main(["sketch", "--stream", str(stream), "-k", str(K),
                 "--out", str(sketch)]) == 0
    # Unix sockets have a ~100-char path limit; use a short mkdtemp path.
    sockdir = tempfile.mkdtemp(prefix="repro-net-")
    socket_path = f"{sockdir}/agg.sock"
    ready = tmp_path / "ready.addr"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--listen", f"unix:{socket_path}", "--epsilon", "1.0",
         "--delta", "1e-6", "-k", str(K), "--releases", "1",
         "--ready-file", str(ready)],
        env={**__import__("os").environ,
             "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[2] / "src")},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.time() + 30
        while not (ready.exists() and ready.read_text().strip()):
            assert time.time() < deadline, "serve never became ready"
            assert process.poll() is None, process.stderr.read()
            time.sleep(0.05)
        address = ready.read_text().strip()
        assert address == f"unix:{socket_path}"
        # A bare sketch JSON (not packed) pushes too.
        assert main(["push", "--to", address, "--ordinal", "0",
                     str(sketch)]) == 0
        stats = fetch_stats(address)
        assert stats["frames"] == 1 and stats["k"] == K
        out = tmp_path / "h.json"
        assert main(["request-release", "--to", address, "--seed", "2",
                     "--out", str(out)]) == 0
        assert process.wait(timeout=30) == 0
        payload = _load(out)
        assert payload["kind"] == "private_histogram"
    finally:
        if process.poll() is None:
            process.kill()


@pytest.mark.slow
def test_cli_push_resume_claims_no_durability_from_a_plain_server(
        packed_files, tmp_path, capsys):
    """The BYE ack proves a commit, not durability: against a server
    without ``--wal-dir`` the message must not say "durably"."""
    process, address = _serve_subprocess(tmp_path)
    try:
        capsys.readouterr()
        assert main(["push", "--to", address, "--resume", "--ordinal", "3",
                     str(packed_files[0])]) == 0
        out = capsys.readouterr().out
        assert "(committed)" in out
        assert "durabl" not in out
        assert fetch_stats(address)["sessions_committed"] == 1
    finally:
        process.terminate()
        process.wait(timeout=30)


def test_pipeline_serve_and_connect_conveniences():
    """Pipeline.serve()/.connect() wire the facade into repro.net."""
    import asyncio

    import numpy as np

    from repro.api import Pipeline

    pipe = Pipeline(mechanism="merged", k=K, epsilon=1.0, delta=1e-6)

    async def scenario():
        server = pipe.serve()
        assert server.epsilon == 1.0 and server.k == K
        await server.start("127.0.0.1:0")
        async with server:
            exporter = Pipeline(sketch="misra_gries", mechanism="pmg", k=K,
                                epsilon=1.0, delta=1e-6)
            exporter.fit(np.asarray([1, 1, 2, 3, 1, 2] * 500, dtype=np.int64))
            async with exporter.connect(server.address, ordinal=0) as client:
                assert client._k == K
                await client.push([exporter.to_wire()])
            async with pipe.connect(server.address) as client:
                return await client.request_release(seed=8)

    histogram = asyncio.run(scenario())
    assert histogram.metadata.mechanism == "MergedMG-TrustedMerged"
    assert histogram.metadata.sketch_size == K


def test_pipeline_serve_requires_privacy_parameters():
    from repro.api import Pipeline
    from repro.exceptions import ParameterError

    with pytest.raises(ParameterError, match="delta"):
        Pipeline(mechanism="pure_dp", epsilon=1.0, universe_size=16).serve()
