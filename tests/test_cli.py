"""Command line contract: exit codes, pinned examples, cache determinism."""

import csv
import hashlib
import io
import json
import os
import re
import stat
import sys
import threading
from pathlib import Path

import pytest

from so5cg import cache
from so5cg.cli import _json_doc, main
from so5cg.exactnum import SqrtSum
from so5cg.labels import IrrepLabel, channels_present


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_trivial_embedding(capsys):
    code, out, _ = run(capsys, "eval", "--source", "0,0", "--channel=+1,+1",
                       "--source-so4", "0,0", "--entry", "+1,+1",
                       "--part", "1,1")
    assert code == 0
    assert out.splitlines() == ["1", "1.0"]


def test_eval_absent_channel_exits_3(capsys):
    code, _, err = run(capsys, "eval", "--source", "1,1",
                       "--channel=+1/2,+1/2", "--source-so4", "1,1",
                       "--entry", "+1/2,+1/2", "--part", "1/2,1/2")
    assert code == 3
    assert "absent" in err


def test_eval_lowering_absence_names_the_transposed_source(capsys):
    # A lowering channel is evaluated through its transpose, a raising
    # channel of the target, so its absence names that channel's shift and
    # the target as source. The golden table digests hash this stderr.
    code, out, err = run(capsys, "eval", "--source", "2,1",
                         "--channel=-1/2,+1/2", "--source-so4", "3/2,1/2",
                         "--entry=+1/2,+1/2", "--part", "1/2,1/2")
    assert (code, out) == (3, "")
    assert err == ("channel absent: channel with shift (1, -1) absent at "
                   "source (3/2,3/2): normalization factor 0 <= 0\n")


def test_eval_malformed_label_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--source", "0,-1", "--channel=+1,+1",
                       "--source-so4", "0,0", "--entry", "+1,+1",
                       "--part", "1,1")
    assert code == 2
    assert "malformed" in err


def test_eval_full_coefficient(capsys):
    code, out, _ = run(capsys, "eval", "--source", "1/2,0",
                       "--channel=+1/2,+1/2", "--source-so4", "1/2,0",
                       "--entry", "+1/2,+1/2", "--part", "1/2,1/2",
                       "--m", "1/2,0", "--part-m", "1/2,1/2")
    assert code == 0
    assert out.splitlines()[0] == "1/7*sqrt(7)"


FULL_KEY = {"--source": "1/2,0", "--channel": "+1/2,+1/2",
            "--source-so4": "1/2,0", "--entry": "+1/2,+1/2",
            "--part": "1/2,1/2", "--m": "1/2,0", "--part-m": "1/2,1/2"}


@pytest.mark.parametrize("flag,value,message", [
    ("--part", "1/2,0", "not a 14-part: 1/2,0"),
    ("--m", "7/2,0", "magnetic label 7/2 invalid for source spin 1/2"),
    ("--m", "1/2", "expected 'm1,m2' as 'a,b', got '1/2'"),
    ("--part-m", "1,1,1", "expected 'pm1,pm2' as 'a,b', got '1,1,1'"),
    ("--entry", "+1", "expected 'entry shift' as 'a,b', got '+1'"),
    ("--channel", "+1", "expected 'dj1,dj2', got '+1'"),
    ("--source-so4", "1/2", "expected 'j1,j2', got '1/2'"),
])
def test_eval_malformed_field_exits_2(capsys, flag, value, message):
    # Every "a,b" field goes through the one splitter in labels, and the
    # 14-part through EntryShift.
    key = dict(FULL_KEY, **{flag: value})
    code, out, err = run(capsys, "eval",
                         *(f"{k}={v}" for k, v in key.items()))
    assert (code, out, err) == (2, "", f"malformed key: {message}\n")


@pytest.mark.parametrize("text", ["1_0", "\u0661\u0660"])
def test_eval_source_spelled_for_int_alone_exits_2(capsys, text):
    # int() reads "1_0" and Arabic-Indic "10" as 10. Spelled "10" the key is
    # valid and exits 0; spelled so it is malformed, not the source (10,0).
    key = ("--channel=+1,+1", "--source-so4", "5,5", "--entry=+1,+1",
           "--part", "1,1")
    assert run(capsys, "eval", "--source", "10,0", *key)[:2] == (0, "1\n1.0\n")
    code, out, err = run(capsys, "eval", "--source", f"{text},0", *key)
    assert (code, out, err) == (
        2, "", f"malformed key: cannot parse half-integer {text!r}\n")


@pytest.mark.parametrize("copy", ["\u0662", "1_0"])
def test_eval_copy_spelled_for_int_alone_exits_2(capsys, copy):
    # int() reads Arabic-Indic "2" as copy 2, absent here (exit 3), and
    # "1_0" as copy 10; the copy takes ASCII digits only, as a label does.
    channel = f"0,0#{copy}"
    code, out, err = run(capsys, "eval", "--source", "0,0",
                         f"--channel={channel}", "--source-so4", "0,0",
                         "--entry", "0,0", "--part", "0,0")
    assert (code, out, err) == (
        2, "", f"malformed key: channel copy must be an integer, "
               f"got {channel!r}\n")


@pytest.mark.parametrize("bound", ["0_3", "\u0663"])
def test_verify_bound_spelled_for_int_alone_exits_2(capsys, bound):
    # int() reads both as 3, and the sweep ran with that bound and exit 0.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "su2", "--max-twice-j", bound])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: so5cg verify ")
    assert err.splitlines()[-1] == (
        "so5cg verify: error: argument --max-twice-j: invalid int value: "
        f"{bound!r}")


def test_eval_copy2_channel(capsys):
    code, out, _ = run(capsys, "eval", "--source", "3/2,1/2",
                       "--channel", "0,0#2", "--source-so4", "1,1",
                       "--entry", "0,0", "--part", "0,0")
    assert code == 0
    assert "sqrt" in out


def test_table_trivial_source(capsys):
    code, out, _ = run(capsys, "table", "--source", "0,0",
                       "--channel", "+1,+1", "--no-cache")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 15  # header + 14 rows
    values = [line.split(",")[-1] for line in lines[1:]]
    assert all(v in ("0", "1", "-1") for v in values)


def test_decompose_1_1(capsys):
    code, out, _ = run(capsys, "decompose", "1,1", "--format", "json",
                       "--no-cache")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "so5cg/1"
    assert len(doc["entries"]) == 6
    assert doc["total_dim"] == 196


def test_branch_1_1(capsys):
    code, out, _ = run(capsys, "branch", "1,1", "--no-cache")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tj1,tj2,so3_dim"
    assert len(lines) == 4


def test_verify_report_and_exit(capsys):
    code, out, _ = run(capsys, "verify", "symmetry", "--max-twice-j", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "verify_report"
    assert doc["pass"] is True
    assert all(c["pass"] for c in doc["checks"])


def test_cache_roundtrip_and_byte_identity(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    args = ("table", "--source", "1/2,0", "--channel", "+1/2,+1/2",
            "--format", "json")
    code1, cold, _ = run(capsys, *args)
    assert code1 == 0
    assert len(list(tmp_path.glob("*.json"))) == 1
    code2, warm, _ = run(capsys, *args)
    assert code2 == 0
    assert warm == cold
    code3, uncached, _ = run(capsys, *args, "--no-cache")
    assert code3 == 0
    assert uncached == cold


def test_cache_entry_schema(tmp_path, monkeypatch):
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    key = cache.cache_key("table", "1,0", "+1,0", "csv")
    text = "s_tj1\n\u00e9\n"
    cache.store(key, text)
    raw = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert raw["schema"] == "so5cg/1"
    assert raw["kind"] == "cache_entry"
    assert raw["key"] == key
    assert raw["engine"] == cache.engine_fingerprint()
    assert "created_at" in raw
    assert raw["payload"] == text
    # the digest is over the UTF-8 bytes of the text
    assert raw["sha256"] == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert cache.load(key) == text


def test_cache_entry_mode_follows_the_umask(tmp_path, monkeypatch):
    # A plain open() gives 0o666 less the umask; a cache shared between
    # users needs entries the others can read.
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    key = cache.cache_key("table", "1,0", "+1,0", "csv")
    old = os.umask(0o022)
    try:
        cache.store(key, "x\n")
    finally:
        os.umask(old)
    entries = list(tmp_path.iterdir())
    assert [p.name for p in entries] == [f"{key}.json"]
    assert stat.S_IMODE(entries[0].stat().st_mode) == 0o644


def test_cache_disabled_without_env(monkeypatch):
    monkeypatch.delenv("SO5CG_CACHE", raising=False)
    key = cache.cache_key("table", "1,0", "+1,0", "csv")
    cache.store(key, "x\n")
    assert cache.load(key) is None


def test_cache_key_depends_on_request_and_format():
    k1 = cache.cache_key("table", "1,0", "+1,0", "csv")
    k2 = cache.cache_key("table", "1,0", "+1,+1", "csv")
    k3 = cache.cache_key("decompose", "1,0", "csv")
    k4 = cache.cache_key("table", "1,0", "+1,0", "json")
    assert len({k1, k2, k3, k4}) == 4
    assert k1 == cache.cache_key("table", "1,0", "+1,0", "csv")


def test_cache_keeps_one_entry_per_request_across_engines(capsys, tmp_path,
                                                          monkeypatch):
    # A key names the request and format only; the entry records the engine
    # that wrote it. Another engine's entry is a miss, and the store that
    # follows overwrites it, so two engines leave one file and neither
    # replays the other's text.
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    argv = ("table", "--source", "1,0", "--channel", "+1,+1",
            "--format", "csv")
    key = cache.cache_key("table", "1,0", "+1,+1", "csv")
    code, uncached, _ = run(capsys, *argv, "--no-cache")
    assert code == 0
    monkeypatch.setattr(cache, "engine_fingerprint", lambda: "a" * 64)
    cache.store(key, "engine a\n")
    assert cache.load(key) == "engine a\n"
    monkeypatch.setattr(cache, "engine_fingerprint", lambda: "b" * 64)
    assert cache.cache_key("table", "1,0", "+1,+1", "csv") == key
    assert cache.load(key) is None
    assert run(capsys, *argv) == (0, uncached, "")
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]
    entry = json.loads((tmp_path / f"{key}.json").read_text(encoding="utf-8"))
    assert (entry["engine"], entry["payload"]) == ("b" * 64, uncached)
    assert run(capsys, *argv) == (0, uncached, "")
    monkeypatch.setattr(cache, "engine_fingerprint", lambda: "a" * 64)
    assert cache.load(key) is None


def test_out_file_and_io_error(capsys, tmp_path):
    out_file = tmp_path / "t.csv"
    code, _, _ = run(capsys, "decompose", "1,1", "--no-cache",
                     "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("target_tj1")
    code, _, err = run(capsys, "decompose", "1,1", "--no-cache",
                       "--out", str(tmp_path / "missing" / "t.csv"))
    assert code == 4
    assert "i/o" in err


def test_bad_channel_strings(capsys):
    code, _, _ = run(capsys, "table", "--source", "1,0", "--channel", "+2,0",
                     "--no-cache")
    assert code == 2
    code, _, _ = run(capsys, "table", "--source", "1,0",
                     "--channel", "+1,0#2", "--no-cache")
    assert code == 2
    with pytest.raises(SystemExit) as exc:  # --channel is required
        main(["eval", "--source", "1,0", "--source-so4", "1,0",
              "--entry", "0,0", "--part", "0,0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("channel,message", [
    ("0,0#x", "channel copy must be an integer, got '0,0#x'"),
    ("0,0#", "channel copy must be an integer, got '0,0#'"),
    ("0,0#1.0", "channel copy must be an integer, got '0,0#1.0'"),
    ("0,0#3", "copy must be 1 or 2, got 3"),
])
def test_channel_copy_text_is_malformed_and_its_range_is_channels(
        capsys, channel, message):
    # The CLI reads the copy after "#" as an integer and leaves its range to
    # Channel, the one check of a channel; text that is no integer is a
    # malformed key too, not a traceback.
    code, out, err = run(capsys, "table", "--source", "1,0",
                         f"--channel={channel}", "--no-cache")
    assert (code, out) == (2, "")
    assert err == f"malformed key: {message}\n"


def test_eval_target_without_coupling_shift_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--source", "1,0", "--channel=+2,0",
                       "--source-so4", "1,0", "--entry", "0,0",
                       "--part", "0,0")
    assert code == 2
    assert "not a coupling shift" in err


def test_half_integer_syntax_round_trip(capsys):
    code, out, _ = run(capsys, "branch", "3/2,1/2", "--no-cache",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "3/2,1/2"
    assert len(doc["blocks"]) == 6


def test_domain_error_exits_5(capsys):
    # The numeric oracle caps its dimension; (20,20) is far past the cap.
    code, out, err = run(capsys, "verify", "oracle", "--source", "20,20")
    assert code == 5
    assert out == ""
    assert err.startswith("outside supported domain: DimensionCap")
    assert len(err.splitlines()) == 1


# (argv, cache request) of one export of each kind; the key adds --format.
EXPORTS = [
    (("table", "--source", "1,0", "--channel", "+1,+1"),
     ("table", "1,0", "+1,+1")),
    (("table", "--source", "1,1", "--channel", "aux"),
     ("table", "1,1", "aux")),
    (("decompose", "3/2,1/2"), ("decompose", "3/2,1/2")),
    (("branch", "1,0"), ("branch", "1,0")),
]
FORMATS = ("csv", "json")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv,request_", EXPORTS,
                         ids=[" ".join(a) for a, _ in EXPORTS])
def test_cache_entry_holds_the_exported_bytes(capsys, tmp_path, monkeypatch,
                                              argv, request_, fmt):
    # An entry is the document itself, keyed by request and format: a hit
    # prints the stored bytes, which are the cold run's bytes.
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    code, cold, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    (path,) = tmp_path.glob("*.json")
    assert path.name == cache.cache_key(*request_, fmt) + ".json"
    entry = json.loads(path.read_text(encoding="utf-8"))
    assert entry["payload"] == cold
    assert entry["sha256"] == hashlib.sha256(cold.encode("utf-8")).hexdigest()
    assert run(capsys, *argv, "--format", fmt) == (0, cold, "")
    assert run(capsys, *argv, "--format", fmt, "--no-cache") == (0, cold, "")
    assert list(tmp_path.glob("*.json")) == [path]


def _corrupt_entries(capsys, tmp_path, monkeypatch, corrupt):
    """For every export in both formats: corrupt its cache entry, then check
    that the next run prints the uncached bytes and overwrites the entry."""
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    for argv, request_ in EXPORTS:
        for fmt in FORMATS:
            _, uncached, _ = run(capsys, *argv, "--format", fmt, "--no-cache")
            run(capsys, *argv, "--format", fmt)
            key = cache.cache_key(*request_, fmt)
            path = tmp_path / f"{key}.json"
            corrupt(path, uncached)
            assert cache.load(key) is None
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, out, err) == (0, uncached, "")
            # the corrupt entry was recomputed and overwritten
            assert cache.load(key) == uncached


def test_cache_non_dict_entry_is_a_miss(capsys, tmp_path, monkeypatch):
    _corrupt_entries(capsys, tmp_path, monkeypatch,
                     lambda path, _: path.write_text("[]"))


def _rewrite(path, edit) -> None:
    entry = json.loads(path.read_text(encoding="utf-8"))
    edit(entry)
    path.write_text(json.dumps(entry), encoding="utf-8")


@pytest.mark.parametrize("engine", ["0" * 64, None], ids=["other", "none"])
def test_cache_entry_of_another_engine_is_a_miss(capsys, tmp_path,
                                                 monkeypatch, engine):
    # Another engine's entry, or one that names none, is never replayed.
    def corrupt(path, _):
        _rewrite(path, lambda entry: entry.update(engine=engine))

    _corrupt_entries(capsys, tmp_path, monkeypatch, corrupt)


def test_cache_wrong_payload_shape_is_a_miss(capsys, tmp_path, monkeypatch):
    # A payload that is not a string is no document, whatever its digest.
    for payload in ({"x": 1}, ["a"], 7, None):
        def corrupt(path, _):
            def edit(entry):
                entry["payload"] = payload
                entry["sha256"] = hashlib.sha256(
                    json.dumps(payload).encode("utf-8")).hexdigest()
            _rewrite(path, edit)

        _corrupt_entries(capsys, tmp_path, monkeypatch, corrupt)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_cache_any_changed_byte_is_a_miss(capsys, tmp_path, monkeypatch,
                                          where):
    def corrupt(path, text):
        i = {"first": 0, "middle": len(text) // 2, "last": len(text) - 1}[where]
        changed = text[:i] + ("%" if text[i] == "#" else "#") + text[i + 1:]
        _rewrite(path, lambda entry: entry.update(payload=changed))

    _corrupt_entries(capsys, tmp_path, monkeypatch, corrupt)


def test_cache_text_that_does_not_encode_is_a_miss(capsys, tmp_path,
                                                   monkeypatch):
    # A lone surrogate decodes from a JSON escape but has no UTF-8 bytes.
    _corrupt_entries(capsys, tmp_path, monkeypatch, lambda path, _: _rewrite(
        path, lambda entry: entry.update(payload=entry["payload"] + "\ud800")))


def test_cache_directory_at_an_entry_path_is_a_miss(capsys, tmp_path,
                                                   monkeypatch):
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    key = cache.cache_key("branch", "1,1", "csv")
    (tmp_path / f"{key}.json").mkdir()
    assert cache.load(key) is None
    # The store that follows cannot replace a directory and still fails
    # loudly, with the I/O exit code and nothing printed.
    code, out, err = run(capsys, "branch", "1,1")
    assert (code, out) == (4, "")
    assert err.startswith("i/o error:")


def test_cache_entry_that_cannot_be_opened_is_a_miss(capsys, tmp_path,
                                                     monkeypatch):
    # As a permission-denied entry does for a user who is not its owner.
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    _, uncached, _ = run(capsys, "branch", "1,1", "--no-cache")
    run(capsys, "branch", "1,1")
    key = cache.cache_key("branch", "1,1", "csv")
    path_open = Path.open

    def denied(self, *args, **kwargs):
        if self.name == f"{key}.json":
            raise PermissionError(13, "Permission denied", str(self))
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", denied)
    assert cache.load(key) is None
    assert run(capsys, "branch", "1,1") == (0, uncached, "")
    monkeypatch.setattr(Path, "open", path_open)
    assert cache.load(key) == uncached


@pytest.mark.parametrize("cache_off", ["--no-cache", "SO5CG_CACHE unset"])
def test_export_without_the_cache_computes_no_key(capsys, tmp_path,
                                                  monkeypatch, cache_off):
    # An entry records a hash of every engine source file; an export that
    # neither reads nor writes the cache has no use for it, nor for a key.
    expected = [run(capsys, *argv, "--format", fmt, "--no-cache")
                for argv, _ in EXPORTS for fmt in FORMATS]

    def fingerprint():
        raise AssertionError("engine_fingerprint called")

    monkeypatch.setattr(cache, "engine_fingerprint", fingerprint)
    if cache_off == "--no-cache":
        monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
        extra = ("--no-cache",)
    else:
        monkeypatch.delenv("SO5CG_CACHE", raising=False)
        extra = ()
    got = [run(capsys, *argv, "--format", fmt, *extra)
           for argv, _ in EXPORTS for fmt in FORMATS]
    assert got == expected
    assert all(code == 0 for code, _, _ in got)
    assert list(tmp_path.iterdir()) == []


def test_cache_concurrent_writers_of_one_key(tmp_path, monkeypatch):
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    key = cache.cache_key("table", "1,0", "+1,0", "csv")
    texts = {(n, i): f"writer {n} text {i}\n" * (1 + 500 * (i % 3))
             for n in range(4) for i in range(50)}
    errors = []

    def writer(n):
        try:
            for i in range(50):
                cache.store(key, texts[(n, i)])
        except Exception as exc:  # collected so the main thread sees it
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # one whole entry, whose digest matches: one writer's text, entire
    assert cache.load(key) in texts.values()
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]


def test_cache_undecodable_value_is_a_miss(capsys, tmp_path, monkeypatch):
    # A stored table whose value no longer reads as a number is a miss.
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    args = ("table", "--source", "1,0", "--channel", "+1,+1")
    for fmt in FORMATS:
        _, uncached, _ = run(capsys, *args, "--format", fmt, "--no-cache")
        run(capsys, *args, "--format", fmt)
        key = cache.cache_key("table", "1,0", "+1,+1", fmt)
        path = tmp_path / f"{key}.json"
        _rewrite(path, lambda entry: entry.update(
            payload=entry["payload"].replace("sqrt(105)", "sqrt(x)", 1)))
        code, out, err = run(capsys, *args, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == uncached
        # the corrupt entry was recomputed and overwritten
        assert cache.load(key) == uncached


def _alter_one_numerator(text: str, fmt: str) -> str:
    """text with one numerator 1 made 3, over a denominator prime to 3: one
    byte changed, and still a document of canonical values."""
    if fmt == "json":
        pattern, digit, den = r'"den": "(\d+)",\n *"num": "(1)"', 2, 1
    else:
        pattern, digit, den = r",(1)/(\d+)\*sqrt", 1, 2
    match = next(m for m in re.finditer(pattern, text) if int(m[den]) % 3)
    i = match.start(digit)
    return text[:i] + "3" + text[i + 1:]


def test_cache_altered_canonical_value_is_a_miss(capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    args = ("table", "--source", "1,0", "--channel", "+1,+1")
    for fmt in FORMATS:
        _, uncached, _ = run(capsys, *args, "--format", fmt, "--no-cache")
        run(capsys, *args, "--format", fmt)
        key = cache.cache_key("table", "1,0", "+1,+1", fmt)
        path = tmp_path / f"{key}.json"
        altered = _alter_one_numerator(uncached, fmt)
        # still a document of canonical values, only a different one
        assert altered != uncached and len(altered) == len(uncached)
        if fmt == "json":
            for row in json.loads(altered)["rows"]:
                value = row["value"]
                assert SqrtSum.from_json_dict(value).to_json_dict() == value
        else:
            rows = list(csv.reader(io.StringIO(altered)))
            assert [len(r) for r in rows] == [9] * len(rows)
        _rewrite(path, lambda entry: entry.update(payload=altered))
        code, out, err = run(capsys, *args, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == uncached
        # the altered entry was recomputed and overwritten
        assert cache.load(key) == uncached


def test_table_lowering_channel_with_equals_form(capsys):
    code, out, err = run(capsys, "table", "--source", "1,1",
                         "--channel=-1,-1", "--no-cache")
    assert (code, err) == (0, "")
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 3 * 14  # header + 3 SO(4) blocks x 14 entries
    assert any(line.split(",")[-1] != "0" for line in lines[1:])


def test_eval_aux_entry_to_negative_spin_is_zero(capsys):
    code, out, err = run(capsys, "eval", "--source", "1,1", "--channel", "aux",
                         "--source-so4", "0,0", "--entry=-1/2,-1/2",
                         "--part", "1/2,1/2")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["0", "0.0"]


def test_absent_channel_table_stores_nothing(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    code, out, err = run(capsys, "table", "--source", "1,1",
                         "--channel", "+1/2,+1/2")
    assert (code, out) == (3, "")
    assert err.startswith("channel absent:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("eval", "--source", "0,0", "--channel=+1,0", "--source-so4", "0,0",
     "--entry=+1,+1", "--part", "1,1"),
    ("eval", "--source", "0,0", "--channel=+1,0", "--source-so4", "0,0",
     "--entry=+1,0", "--part", "1,1"),
    ("eval", "--source", "1/2,1/2", "--channel=-1/2,-1/2", "--source-so4",
     "0,0", "--entry=+1,+1", "--part", "1,1"),
    ("table", "--source", "0,0", "--channel=+1,0", "--no-cache"),
], ids=["unreached-entry", "reached-entry", "lowering", "table"])
def test_absent_channel_exits_3_for_every_key(capsys, argv):
    # A zero always means a zero: a key of an absent channel exits 3 also
    # when its entry reaches no block of the target.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("channel absent:")


NO_TARGET_KEY = ("eval", "--source", "0,0", "--channel=-1,-1",
                 "--source-so4", "0,0", "--entry", "0,0", "--part", "0,0")


@pytest.mark.parametrize("magnetic", [(), ("--m", "0,0", "--part-m", "0,0")],
                         ids=["reduced", "full"])
def test_eval_channel_with_no_valid_target_exits_3(capsys, magnetic):
    # The full path reports the missing target as the reduced path does.
    code, out, err = run(capsys, *NO_TARGET_KEY, *magnetic)
    assert (code, out) == (3, "")
    assert err == ("channel absent: channel -1,-1 leaves no valid target "
                   "for source 0,0\n")


@pytest.mark.parametrize("magnetic", [(), ("--m", "0,0", "--part-m", "0,0")],
                         ids=["reduced", "full"])
def test_eval_block_outside_the_source_exits_2_before_an_absent_channel(
        capsys, magnetic):
    # Both paths check the source block before the channel's target.
    key = list(NO_TARGET_KEY)
    key[key.index("--source-so4") + 1] = "1,1"
    code, out, err = run(capsys, *key, *magnetic)
    assert (code, out) == (2, "")
    assert err == "malformed key: SO(4) label 1,1 is not a block of source 0,0\n"


@pytest.mark.parametrize("magnetic", [("--m", "1,1"), ("--part-m", "0,0"),
                                      ("--m", "1,1", "--part-m", "0,0")],
                         ids=["m", "part-m", "both"])
def test_eval_aux_rejects_magnetic_labels(capsys, magnetic):
    # The aux companion has no full coefficient to evaluate.
    code, out, err = run(capsys, "eval", "--source", "1,1", "--channel", "aux",
                         "--source-so4", "1,1", "--entry", "0,0",
                         "--part", "0,0", *magnetic)
    assert (code, out) == (2, "")
    assert err.startswith("malformed key:")


@pytest.mark.parametrize("key", [
    ("--source-so4", "5,0", "--entry=-1,-1"),
], ids=["negative-target-spin"])
def test_eval_full_rejects_a_block_outside_the_source(capsys, key):
    # A zero always means a zero: a key whose source block is not a block
    # of the source exits 2 on the full path too, also when its entry takes
    # that block to a negative spin.
    code, out, err = run(capsys, "eval", "--source", "0,0", "--channel=+1,+1",
                         "--part", "1,1", "--m", "0,0", "--part-m", "1,1",
                         *key)
    block = key[1]
    assert (code, out) == (2, "")
    assert err == (f"malformed key: SO(4) label {block} is not a block of "
                   f"source 0,0\n")


@pytest.mark.parametrize("magnetic,message", [
    (("--m", "7,7", "--part-m", "0,0"),
     "magnetic label 7 invalid for source spin 0"),
    (("--m", "0,0", "--part-m", "5,0"),
     "magnetic label 5 invalid for part spin 1"),
], ids=["source-m", "part-m"])
def test_eval_full_rejects_an_invalid_magnetic_label(capsys, magnetic,
                                                     message):
    # The magnetic labels of the product state are checked before an entry
    # that takes the source block to a negative spin gives 0.
    code, out, err = run(capsys, "eval", "--source", "1,1", "--channel=+1,+1",
                         "--source-so4", "0,0", "--entry=-1,-1",
                         "--part", "1,1", *magnetic)
    assert (code, out) == (2, "")
    assert err == f"malformed key: {message}\n"


TABLE_JSON_CASES = [(source, channel)
                    for source in ("3,1", "5/2,3/2")
                    for channel in [str(c) for c in channels_present(
                        IrrepLabel.parse(source))] + ["aux"]]


@pytest.mark.parametrize("source,channel", TABLE_JSON_CASES)
def test_table_json_renders_like_json_dumps(capsys, source, channel):
    # Table documents are filled in from fixed templates; they must be the
    # bytes json.dumps(doc, sort_keys=True, indent=2) writes.
    code, out, err = run(capsys, "table", "--source", source,
                         f"--channel={channel}", "--format", "json",
                         "--no-cache")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    rows = doc["rows"]
    assert any(row["t"] is None for row in rows)
    assert any(row["value"]["terms"] == [] for row in rows)
    assert any(row["value"]["terms"] for row in rows)
    fields = {k: v for k, v in doc.items() if k not in ("schema", "kind")}
    assert out == _json_doc("table", fields)


def test_table_json_of_a_cached_payload(capsys, tmp_path, monkeypatch):
    # The cached payload of a table is its JSON document, bytes and all.
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    args = ("table", "--source", "5/2,3/2", "--channel=-1/2,-1/2",
            "--format", "json")
    code, cold, _ = run(capsys, *args)
    assert code == 0
    payload = cache.load(cache.cache_key("table", "5/2,3/2", "-1/2,-1/2",
                                         "json"))
    assert payload == cold
    doc = json.loads(payload)
    fields = {k: v for k, v in doc.items() if k not in ("schema", "kind")}
    assert _json_doc("table", fields) == cold
    code, hit, _ = run(capsys, *args)
    assert (code, hit) == (0, cold)


@pytest.mark.parametrize("use_cache", [False, True], ids=["no-cache", "cache"])
def test_table_export_builds_no_json_value_dicts(capsys, tmp_path,
                                                 monkeypatch, use_cache):
    # A table renders straight from its rows' (rad, num, den) terms: no
    # value goes through the SqrtSum JSON encoding on the way to the bytes,
    # cold or from the cache.
    args = ("table", "--source", "3/2,1/2", "--channel=0,0#2")
    want = {fmt: run(capsys, *args, "--format", fmt, "--no-cache")
            for fmt in FORMATS}

    def refuse(*_):
        raise AssertionError("SqrtSum JSON encoding used by a table export")

    monkeypatch.setattr(SqrtSum, "to_json_dict", refuse)
    monkeypatch.setattr(SqrtSum, "from_json_dict", classmethod(refuse))
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    flags = () if use_cache else ("--no-cache",)
    for fmt in FORMATS:
        for _ in range(2):  # cold, then a hit when the cache is on
            assert run(capsys, *args, "--format", fmt, *flags) == want[fmt]
    assert want["csv"][0] == 0 and "sqrt" in want["csv"][1]


EVAL_0_0 = ("eval", "--source", "3/2,1/2", "--source-so4", "3/2,1/2",
            "--entry", "0,0", "--part", "0,0")


@pytest.mark.parametrize("extra,value", [
    (("--channel", "0,0#2"), "13/1896*sqrt(790)"),
    (("--channel", "0,0#1"), "-3/316*sqrt(474)"),
    (("--channel", "0,0"), "-3/316*sqrt(474)"),
], ids=["channel", "channel-copy1", "channel-default-copy"])
def test_eval_copy_by_channel_or_target(capsys, extra, value):
    # Without '#', a channel string means copy 1.
    code, out, err = run(capsys, *EVAL_0_0, *extra)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == value


@pytest.mark.parametrize("extra", [
    ("--target", "3/2,1/2"),
    ("--copy", "2"),
    ("--target-m", "1/2,1/2"),
], ids=["target", "copy", "target-m"])
def test_eval_takes_the_channel_string_only(capsys, extra):
    # The channel string is the one spelling of a channel, so no second
    # spelling can disagree with it; the target's magnetic labels are
    # m + part-m, as any other choice is an m-conservation zero.
    key = (*EVAL_0_0, "--channel", "0,0", "--m", "1/2,1/2", "--part-m", "0,0")
    assert run(capsys, *key)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([*key, *extra])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments" in err


def test_parser_is_built_once_and_survives_a_usage_error(capsys):
    # main() reuses one parser per process; a request that argparse rejects
    # leaves it fit for the next one.
    from so5cg.cli import build_parser
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["table", "--source", "1,0"])
    assert exc.value.code == 2
    assert "the following arguments are required: --channel" in (
        capsys.readouterr().err)
    code, out, err = run(capsys, "branch", "1,0", "--no-cache")
    assert (code, err) == (0, "")
    assert out.startswith("tj1,tj2,so3_dim\n")


@pytest.mark.parametrize("argv", [
    ("mixing", "--max-twice-j", "-3"),
    ("oracle", "--source", "1,0", "--tol", "nan"),
    ("oracle", "--source", "1,0", "--tol", "inf"),
    ("oracle", "--source", "1,0", "--tol", "-0.5"),
], ids=["negative-bound", "nan-tol", "inf-tol", "negative-tol"])
def test_verify_rejects_a_bound_that_checks_nothing(capsys, argv):
    # A negative bound sweeps no source, and no deviation exceeds a NaN
    # tolerance; either would report passing checks and exit 0.
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be a finite number >= 0" in err


@pytest.mark.parametrize("suite", ["orthogonality", "mixing", "symmetry",
                                   "su2"])
def test_verify_source_outside_the_oracle_exits_2(capsys, suite):
    # Any suite but oracle (and all, which runs it) sweeps every source, so
    # a --source there would be silently ignored.
    code, out, err = run(capsys, "verify", suite, "--source", "1,0",
                         "--max-twice-j", "2")
    assert (code, out) == (2, "")
    assert err == ("malformed key: --source restricts only the oracle and "
                   f"all suites, not {suite}\n")


def test_verify_accepts_zero_and_the_benchmark_bounds():
    from so5cg.cli import build_parser
    parser = build_parser()
    for argv, bound, tol in [
            (["su2", "--max-twice-j", "0"], 0, 1e-9),
            (["su2", "--max-twice-j", "8"], 8, 1e-9),
            (["symmetry", "--max-twice-j", "2"], 2, 1e-9),
            (["oracle", "--source", "1/2,0"], 8, 1e-9),
            (["oracle", "--source", "1,0", "--tol", "0"], 8, 0.0)]:
        args = parser.parse_args(["verify", *argv])
        assert (args.max_twice_j, args.tol) == (bound, tol)
