"""The CLI's cache of sorted samples: a warm read prints what a cold one
prints, a changed file is read anew, and a broken entry or cache directory
is ignored without a word."""

import gc
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lossq.ecdf
from lossq.cli import main
from lossq.ecdf import _CACHE_FLOOR, _block_size, read_ecdf, read_sample_file

SRC = Path(__file__).resolve().parents[1] / "src"

ESTIMATE = ["estimate", "--system", "mg1n", "--characteristic", "busy", "--rate", "0.8",
            "--mean-service", "1.25", "--n", "12"]


def _write(path, n, seed=2024):
    values = np.random.default_rng(seed).exponential(1.0, n)
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    assert path.stat().st_size >= _CACHE_FLOOR
    return path


@pytest.fixture()
def sample(tmp_path):
    return _write(tmp_path / "obs.txt", 60_000)


@pytest.fixture()
def cache_dir():
    return Path(os.environ["XDG_CACHE_HOME"]) / "lossq"


def _entries(cache_dir):
    return sorted(cache_dir.iterdir()) if cache_dir.exists() else []


def _stdout(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    return out.out


def _warm_run_must_not_parse(monkeypatch):
    def refuse(*args):
        raise AssertionError("a warm run parsed the file")
    monkeypatch.setattr(lossq.ecdf, "_read", refuse)


def _plain(path):
    return np.sort(read_sample_file(path).values)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("interval", [
    (), ("--confidence", "0.95", "--method", "two-sided"),
    ("--confidence", "0.9", "--method", "one-sided"),
], ids=["points", "two-sided", "one-sided"])
def test_warm_and_cold_estimates_print_the_same_bytes(monkeypatch, capsys, sample, cache_dir,
                                                      fmt, interval):
    argv = [*ESTIMATE, "--input", str(sample), "--format", fmt, *interval]
    cold = _stdout(capsys, argv)
    assert len(_entries(cache_dir)) == 1
    _warm_run_must_not_parse(monkeypatch)
    assert _stdout(capsys, argv) == cold


def test_warm_and_cold_moments_print_the_same_bytes(monkeypatch, capsys, sample, cache_dir):
    argv = ["moments", "--input", str(sample), "--rate", "1.5", "--order", "30"]
    cold = _stdout(capsys, argv)
    assert len(_entries(cache_dir)) == 1
    _warm_run_must_not_parse(monkeypatch)
    assert _stdout(capsys, argv) == cold


def test_a_hit_is_the_plain_read_bit_for_bit(sample, cache_dir):
    want = _plain(sample)
    for _ in range(2):
        ecdf = read_ecdf(sample, cache_dir)
        assert ecdf.sorted_values.tobytes() == want.tobytes()
        assert not ecdf.sorted_values.flags.writeable


def test_a_read_without_a_cache_writes_nothing(sample, cache_dir):
    read_ecdf(sample)
    assert not cache_dir.exists()


def test_a_file_rewritten_at_the_same_size_and_mtime_is_read_anew(sample, cache_dir):
    first = read_ecdf(sample, cache_dir).sorted_values.copy()
    st = sample.stat()
    text = sample.read_text()
    cut = text.index("\n", len(text) // 2) + 1  # a row starts here
    changed = text[:cut] + ("2" if text[cut] == "1" else "1") + text[cut + 1:]
    sample.write_text(changed)
    os.utime(sample, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert sample.stat().st_size == st.st_size
    assert sample.stat().st_mtime_ns == st.st_mtime_ns
    again = read_ecdf(sample, cache_dir).sorted_values
    assert again.tobytes() == _plain(sample).tobytes()
    assert again.tobytes() != first.tobytes()
    assert len(_entries(cache_dir)) == 2


def test_a_file_that_changes_while_it_is_read_writes_no_entry(monkeypatch, sample, cache_dir):
    read = lossq.ecdf._read

    def read_then_touch(fh, path, *args):
        out = read(fh, path, *args)
        st = os.stat(path)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        return out

    monkeypatch.setattr(lossq.ecdf, "_read", read_then_touch)
    assert read_ecdf(sample, cache_dir).sorted_values.tobytes() == _plain(sample).tobytes()
    assert _entries(cache_dir) == []


def test_a_file_below_the_floor_writes_no_entry(tmp_path, cache_dir):
    small = tmp_path / "small.txt"
    small.write_text("".join(f"{0.5 + i}\n" for i in range(1000)))
    assert small.stat().st_size < _CACHE_FLOOR
    assert read_ecdf(small, cache_dir).sorted_values.tolist() == _plain(small).tolist()
    assert _entries(cache_dir) == []


def test_a_fifo_writes_no_entry(tmp_path, sample, cache_dir):
    fifo = tmp_path / "obs.fifo"
    os.mkfifo(fifo)
    data = sample.read_bytes()

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        ecdf = read_ecdf(fifo, cache_dir)
    finally:
        writer.join(timeout=60)
    assert ecdf.sorted_values.tobytes() == _plain(sample).tobytes()
    assert _entries(cache_dir) == []


def test_a_file_the_line_scan_reads_writes_no_entry(tmp_path, cache_dir):
    # the scan's float() reads non-ASCII digits by the running Python's
    # Unicode tables, which the key does not cover
    p = _write(tmp_path / "obs.txt", 60_000)
    p.write_text(p.read_text() + "1_000\n")
    assert read_ecdf(p, cache_dir).sorted_values.tobytes() == _plain(p).tobytes()
    assert _entries(cache_dir) == []


def test_a_hit_holds_one_copy_of_the_sample(tmp_path, cache_dir):
    n = 200_000
    path = _write(tmp_path / "large.txt", n)
    read_ecdf(path, cache_dir)
    assert len(_entries(cache_dir)) == 1
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ecdf = read_ecdf(path, cache_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ecdf.n_obs == n
    assert peak <= 1.25 * 8 * n, peak / (8 * n)


def _save(entry, array):
    with open(entry, "wb") as fh:
        np.lib.format.write_array(fh, array, (1, 0), allow_pickle=False)


def _spoil(kind, entry):
    good = np.load(entry, allow_pickle=False)
    if kind == "truncated":
        entry.write_bytes(entry.read_bytes()[:-8])
    elif kind == "not-npy":
        entry.write_bytes(b"\x00" * 256)
    elif kind == "python2-header":
        # NumPy's own reader takes this header with a UserWarning, an error
        # under -W error
        header = f"{{'descr': '<f8', 'fortran_order': False, 'shape': ({good.size}L,), }}"
        header = header.ljust(128 - 10 - 1) + "\n"
        entry.write_bytes(b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little")
                          + header.encode() + good.tobytes())
    elif kind == "float32":
        _save(entry, good.astype(np.float32))
    elif kind == "int64":
        _save(entry, good.view(np.int64))
    elif kind == "big-endian":
        _save(entry, good.astype(">f8"))
    elif kind == "2-d":
        _save(entry, good[:-(good.size % 2) or None].reshape(2, -1))
    elif kind == "empty":
        _save(entry, good[:0])
    elif kind == "unsorted":
        _save(entry, good[::-1])
    elif kind == "nan":
        _save(entry, np.append(good[:-1], np.nan))
    elif kind == "nan-inside":
        spoilt = good.copy()
        spoilt[good.size // 2] = np.nan
        _save(entry, spoilt)
    elif kind == "inf":
        _save(entry, np.append(good[:-1], np.inf))
    elif kind == "zero":
        _save(entry, np.append(0.0, good[1:]))
    else:
        raise AssertionError(kind)


@pytest.mark.parametrize("kind", ["truncated", "not-npy", "python2-header", "float32", "int64",
                                  "big-endian", "2-d", "empty", "unsorted", "nan", "nan-inside",
                                  "inf", "zero"])
def test_a_broken_entry_is_ignored_and_replaced(capsys, sample, cache_dir, kind):
    argv = [*ESTIMATE, "--input", str(sample), "--confidence", "0.95", "--format", "json"]
    cold = _stdout(capsys, argv)
    [entry] = _entries(cache_dir)
    _spoil(kind, entry)
    assert _stdout(capsys, argv) == cold
    assert _entries(cache_dir) == [entry]
    replaced = np.load(entry, allow_pickle=False)
    assert replaced.dtype == np.float64
    assert replaced.tobytes() == _plain(sample).tobytes()


def _env(**overrides):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, **overrides, "PYTHONPATH": path}


def _cli(argv, env, *flags):
    return subprocess.run([sys.executable, *flags, "-m", "lossq.cli", *argv], env=_env(**env),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("blocked", ["lossq", "home"],
                         ids=["a-file-at-the-cache", "a-file-at-the-cache-home"])
@pytest.mark.parametrize("flags", [(), ("-W", "error")], ids=["plain", "warnings-as-errors"])
def test_a_cache_that_cannot_be_created_changes_nothing(tmp_path, sample, blocked, flags):
    argv = [*ESTIMATE, "--input", str(sample), "--confidence", "0.95", "--format", "csv"]
    want = _cli(argv, {"XDG_CACHE_HOME": str(tmp_path / "fresh")}, *flags)
    assert want.returncode == 0 and want.stderr == ""
    home = tmp_path / "home"
    if blocked == "lossq":
        home.mkdir()
        (home / "lossq").write_text("not a directory\n")
    else:
        home.write_text("not a directory\n")
    for _ in range(2):
        got = _cli(argv, {"XDG_CACHE_HOME": str(home)}, *flags)
        assert (got.returncode, got.stdout, got.stderr) == (0, want.stdout, "")


def test_two_processes_on_one_new_file_leave_one_valid_entry(tmp_path, cache_dir):
    path = _write(tmp_path / "obs.txt", 200_000)
    argv = [*ESTIMATE, "--input", str(path), "--confidence", "0.95", "--format", "json"]
    procs = [subprocess.Popen([sys.executable, "-m", "lossq.cli", *argv], env=_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    try:
        outs = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outs[0] == outs[1] and outs[0][1] == ""
    [entry] = _entries(cache_dir)
    assert entry.suffix == ".npy"
    assert np.load(entry, allow_pickle=False).tobytes() == _plain(path).tobytes()
    warm = _cli(argv, {})
    assert (warm.returncode, warm.stdout, warm.stderr) == (0, outs[0][0], "")


def test_trimming_keeps_the_cache_within_its_budget(monkeypatch, tmp_path, cache_dir):
    paths = [_write(tmp_path / f"obs{i}.txt", 60_000, seed=i) for i in range(4)]
    entry_size = 128 + 8 * 60_000
    monkeypatch.setattr(lossq.ecdf, "_CACHE_BUDGET", int(2.5 * entry_size))
    entries = []
    for i, path in enumerate(paths):
        read_ecdf(path, cache_dir)
        [new] = set(_entries(cache_dir)) - set(entries)
        assert new.stat().st_size == entry_size
        # oldest first, whatever the file system's mtime resolution
        os.utime(new, ns=(i * 10**9, i * 10**9))
        entries.append(new)
        assert sum(e.stat().st_size for e in _entries(cache_dir)) <= lossq.ecdf._CACHE_BUDGET
    assert _entries(cache_dir) == sorted(entries[2:])
    # a hit refreshes its entry's mtime, so a store drops the entry that was
    # newer before the hit
    read_ecdf(paths[2], cache_dir)
    monkeypatch.setattr(lossq.ecdf, "_CACHE_BUDGET", 2 * entry_size)
    read_ecdf(paths[0], cache_dir)
    assert _entries(cache_dir) == sorted([entries[0], entries[2]])


def test_a_sample_past_the_budget_writes_no_entry_and_evicts_none(monkeypatch, tmp_path,
                                                                 cache_dir):
    small = _write(tmp_path / "small.txt", 60_000, seed=1)
    read_ecdf(small, cache_dir)
    [kept] = _entries(cache_dir)
    large = _write(tmp_path / "large.txt", 120_000, seed=2)
    monkeypatch.setattr(lossq.ecdf, "_CACHE_BUDGET", 128 + 8 * 120_000 - 1)
    for _ in range(2):
        got = read_ecdf(large, cache_dir).sorted_values
        assert got.tobytes() == _plain(large).tobytes()
        assert _entries(cache_dir) == [kept]


def _planted(cache_dir, path):
    """The entry ``path`` would take, holding twice its values: sorted,
    positive and finite, so only where it lies can reject it."""
    read_ecdf(path, cache_dir)
    [entry] = _entries(cache_dir)
    _save(entry, 2.0 * _plain(path))
    assert read_ecdf(path, cache_dir).sorted_values.tobytes() == (2.0 * _plain(path)).tobytes()
    return entry


@pytest.mark.parametrize("mode", [0o777, 0o1777, 0o720, 0o702], ids=oct)
def test_a_cache_others_may_write_to_is_not_used(sample, cache_dir, mode):
    entry = _planted(cache_dir, sample)
    cache_dir.chmod(mode)
    for _ in range(2):
        assert read_ecdf(sample, cache_dir).sorted_values.tobytes() == _plain(sample).tobytes()
    assert _entries(cache_dir) == [entry]
    assert np.load(entry).tobytes() == (2.0 * _plain(sample)).tobytes()


@pytest.mark.skipif(os.geteuid() != 0, reason="only root can give a directory away")
def test_a_cache_another_user_owns_is_not_used(sample, cache_dir):
    _planted(cache_dir, sample)
    os.chown(cache_dir, os.geteuid() + 4242, -1)
    assert read_ecdf(sample, cache_dir).sorted_values.tobytes() == _plain(sample).tobytes()


def test_a_cache_reached_by_a_symlink_is_not_used(tmp_path, sample, cache_dir):
    _planted(cache_dir, sample)
    link = tmp_path / "link"
    link.symlink_to(cache_dir, target_is_directory=True)
    assert read_ecdf(sample, link).sorted_values.tobytes() == _plain(sample).tobytes()


@pytest.mark.parametrize("size, block", [
    (0, 1 << 15), (_CACHE_FLOOR, 1 << 15), (3_800_000, 1 << 15), (9_000_000, 1 << 16),
    (19_000_000, 1 << 17), (1 << 25, 1 << 18), (1 << 40, 1 << 18),
])
def test_the_reader_block_is_a_128th_of_the_file_within_its_clamp(size, block):
    assert _block_size(size) == block
