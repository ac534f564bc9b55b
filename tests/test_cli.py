"""Command line contract: exit codes, pinned examples, cache determinism."""

import json
import sys
import threading

import pytest

from so5cg import cache
from so5cg.cli import (
    _json_doc,
    _parse_channel,
    _table_json,
    _table_payload,
    main,
)
from so5cg.exactnum import SqrtSum
from so5cg.labels import IrrepLabel, channels_present


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_trivial_embedding(capsys):
    code, out, _ = run(capsys, "eval", "--source", "0,0", "--target", "1,1",
                       "--source-so4", "0,0", "--entry", "+1,+1",
                       "--part", "1,1")
    assert code == 0
    assert out.splitlines() == ["1", "1.0"]


def test_eval_absent_channel_exits_3(capsys):
    code, _, err = run(capsys, "eval", "--source", "1,1",
                       "--target", "3/2,3/2", "--source-so4", "1,1",
                       "--entry", "+1/2,+1/2", "--part", "1/2,1/2")
    assert code == 3
    assert "absent" in err


def test_eval_malformed_label_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--source", "0,-1", "--target", "1,1",
                       "--source-so4", "0,0", "--entry", "+1,+1",
                       "--part", "1,1")
    assert code == 2
    assert "malformed" in err


def test_eval_full_coefficient(capsys):
    code, out, _ = run(capsys, "eval", "--source", "1/2,0",
                       "--target", "1,1/2", "--source-so4", "1/2,0",
                       "--entry", "+1/2,+1/2", "--part", "1/2,1/2",
                       "--m", "1/2,0", "--part-m", "1/2,1/2")
    assert code == 0
    assert out.splitlines()[0] == "1/7*sqrt(7)"


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
    key = cache.cache_key("table", "1,0", "+1,0")
    cache.store(key, {"rows": [1, 2, 3]})
    raw = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert raw["schema"] == "so5cg/1"
    assert raw["kind"] == "cache_entry"
    assert raw["key"] == key
    assert "created_at" in raw
    assert cache.load(key) == {"rows": [1, 2, 3]}


def test_cache_disabled_without_env(monkeypatch):
    monkeypatch.delenv("SO5CG_CACHE", raising=False)
    key = cache.cache_key("table", "1,0", "+1,0")
    cache.store(key, {"x": 1})
    assert cache.load(key) is None


def test_cache_key_depends_on_engine_and_request():
    k1 = cache.cache_key("table", "1,0", "+1,0")
    k2 = cache.cache_key("table", "1,0", "+1,+1")
    k3 = cache.cache_key("decompose", "1,0")
    assert len({k1, k2, k3}) == 3
    assert k1 == cache.cache_key("table", "1,0", "+1,0")


def test_cache_keys_follow_the_engine_sources(monkeypatch):
    requests = [("table", "1,0", "+1,0"), ("table", "1,0", "aux"),
                ("decompose", "1,0"), ("branch", "1,1")]
    before = [cache.cache_key(*r) for r in requests]
    monkeypatch.setattr(cache, "engine_fingerprint", lambda: "0" * 64)
    after = [cache.cache_key(*r) for r in requests]
    assert all(a != b for a, b in zip(before, after))


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
    code, _, _ = run(capsys, "eval", "--source", "1,0", "--source-so4", "1,0",
                     "--entry", "0,0", "--part", "0,0")
    assert code == 2  # neither --target nor --channel


def test_eval_target_without_coupling_shift_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--source", "1,0", "--target", "3,0",
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


def _corrupt_branch_entry(capsys, tmp_path, monkeypatch, corrupt):
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    _, uncached, _ = run(capsys, "branch", "1,0", "--no-cache")
    run(capsys, "branch", "1,0")
    (path,) = tmp_path.glob("*.json")
    corrupt(path)
    code, out, _ = run(capsys, "branch", "1,0")
    assert code == 0
    assert out == uncached
    # the corrupt entry was recomputed and overwritten
    assert cache.load(cache.cache_key("branch", "1,0"))["label"] == "1,0"


def test_cache_non_dict_entry_is_a_miss(capsys, tmp_path, monkeypatch):
    _corrupt_branch_entry(capsys, tmp_path, monkeypatch,
                          lambda path: path.write_text("[]"))


def test_cache_wrong_payload_shape_is_a_miss(capsys, tmp_path, monkeypatch):
    def corrupt(path):
        entry = json.loads(path.read_text())
        entry["payload"] = {"x": 1}
        path.write_text(json.dumps(entry))

    _corrupt_branch_entry(capsys, tmp_path, monkeypatch, corrupt)


def test_cache_concurrent_writers_of_one_key(tmp_path, monkeypatch):
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    key = cache.cache_key("table", "1,0", "+1,0")
    errors = []

    def writer(n):
        try:
            for i in range(50):
                cache.store(key, {"writer": n, "i": i})
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
    assert cache.load(key)["writer"] in range(4)
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]


def test_cache_undecodable_value_is_a_miss(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    args = ("table", "--source", "1,0", "--channel", "+1,+1")
    for fmt in ("csv", "json"):
        _, uncached, _ = run(capsys, *args, "--format", fmt, "--no-cache")
        run(capsys, *args)
        (path,) = tmp_path.glob("*.json")
        entry = json.loads(path.read_text())
        row = next(r for r in entry["payload"]["rows"] if r["value"]["terms"])
        row["value"]["terms"][0]["num"] = "x"
        path.write_text(json.dumps(entry))
        code, out, err = run(capsys, *args, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == uncached
        # the corrupt entry was recomputed and overwritten
        key = cache.cache_key("table", "1,0", "+1,+1")
        assert "x" not in json.dumps(cache.load(key))


def test_table_lowering_channel_with_equals_form(capsys):
    code, out, err = run(capsys, "table", "--source", "1,1",
                         "--channel=-1,-1", "--no-cache")
    assert (code, err) == (0, "")
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 3 * 14  # header + 3 SO(4) blocks x 14 entries
    assert any(line.split(",")[-1] != "0" for line in lines[1:])


def test_cache_altered_canonical_value_is_a_miss(capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    args = ("table", "--source", "1,0", "--channel", "+1,+1")
    key = cache.cache_key("table", "1,0", "+1,+1")
    for fmt in ("csv", "json"):
        _, uncached, _ = run(capsys, *args, "--format", fmt, "--no-cache")
        run(capsys, *args)
        (path,) = tmp_path.glob("*.json")
        entry = json.loads(path.read_text())
        stored = json.loads(json.dumps(entry["payload"]))
        value, term = next((r["value"], t)
                           for r in entry["payload"]["rows"]
                           for t in r["value"]["terms"]
                           if t["num"] == "1" and int(t["den"]) % 3)
        term["num"] = "3"
        # still a canonical SqrtSum, only a different one
        assert SqrtSum.from_json_dict(value).to_json_dict() == value
        path.write_text(json.dumps(entry))
        code, out, err = run(capsys, *args, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == uncached
        # the altered entry was recomputed and overwritten
        assert cache.load(key) == stored


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
                                      ("--m", "1,1", "--part-m", "0,0"),
                                      ("--target-m", "1,1")],
                         ids=["m", "part-m", "both", "target-m"])
def test_eval_aux_rejects_magnetic_labels(capsys, magnetic):
    # The aux companion has no full coefficient to evaluate.
    code, out, err = run(capsys, "eval", "--source", "1,1", "--channel", "aux",
                         "--source-so4", "1,1", "--entry", "0,0",
                         "--part", "0,0", *magnetic)
    assert (code, out) == (2, "")
    assert err.startswith("malformed key:")


@pytest.mark.parametrize("key", [
    ("--source-so4", "1,1", "--entry=+1,+1", "--target-m", "0,0"),
    ("--source-so4", "5,0", "--entry=-1,-1"),
], ids=["m-not-conserved", "negative-target-spin"])
def test_eval_full_rejects_a_block_outside_the_source(capsys, key):
    # A zero always means a zero: a key whose source block is not a block
    # of the source exits 2 on the full path too, whatever its magnetic
    # labels or its entry.
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


def test_eval_target_m_alone_exits_2(capsys):
    # --target-m only means something on the full path, like a lone --m.
    code, out, err = run(capsys, "eval", "--source", "1,1", "--channel=+1,+1",
                         "--source-so4", "1,1", "--entry=+1,+1", "--part",
                         "1,1", "--target-m", "9,9")
    assert (code, out) == (2, "")
    assert err == "malformed key: full evaluation needs both --m and --part-m\n"


TABLE_JSON_CASES = [(source, channel)
                    for source in ("3,1", "5/2,3/2")
                    for channel in [str(c) for c in channels_present(
                        IrrepLabel.parse(source))] + ["aux"]]


@pytest.mark.parametrize("source,channel", TABLE_JSON_CASES)
def test_table_json_renders_like_json_dumps(source, channel):
    # Table documents are filled in from fixed templates; they must be the
    # bytes json.dumps(doc, sort_keys=True, indent=2) writes.
    payload = _table_payload(IrrepLabel.parse(source),
                             _parse_channel(channel), channel)
    rows = payload["rows"]
    assert any(row["t"] is None for row in rows)
    assert any(row["value"]["terms"] == [] for row in rows)
    assert any(row["value"]["terms"] for row in rows)
    assert _table_json(payload) == _json_doc("table", payload)


def test_table_json_of_a_cached_payload(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SO5CG_CACHE", str(tmp_path))
    args = ("table", "--source", "5/2,3/2", "--channel=-1/2,-1/2",
            "--format", "json")
    code, cold, _ = run(capsys, *args)
    assert code == 0
    payload = cache.load(cache.cache_key("table", "5/2,3/2", "-1/2,-1/2"))
    assert payload is not None
    assert _table_json(payload) == _json_doc("table", payload) == cold
    code, hit, _ = run(capsys, *args)
    assert (code, hit) == (0, cold)


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
