"""The prebuilt JSON encoders give json.dumps's text for every value the
engine encodes. They call a private, positional-only constructor
(``json.encoder.c_make_encoder``), so the oldest supported Python runs this
module too."""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timeclaw import util
from timeclaw.core import TaskType
from timeclaw.errors import ContractError
from timeclaw.util import canonical_json, json_dumps

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**100), 2**64, 0, -1])
    | st.floats()
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e16, 1e-7, 5e-324, 1.7976931348623157e308])
    | st.floats(allow_nan=False).map(np.float64)
    | st.text()
    | st.sampled_from(["\u00e9", "\u2028", "\u2029", "\x85", "\x00", '"\\', "\U0001f600"])
    | st.sampled_from(list(TaskType))
)
KEYS = st.text() | st.sampled_from(["\u2028", "\u00e9"]) | st.sampled_from(list(TaskType))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=20,
)


def _canonical_reference(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


class TestPrebuiltEncoders:
    @settings(max_examples=400)
    @given(VALUES)
    @example({"b": [1, 2.5, None], "a": {"z": (True, "\u2028")}})
    @example({TaskType.FORECAST: TaskType.MCQA, "forecast!": -0.0})
    @example([np.float64(0.1), 1e16, 10**400, math.nan, -math.inf])
    def test_each_gives_the_text_json_dumps_gives(self, value):
        assert canonical_json(value) == _canonical_reference(value)
        for sort_keys in (False, True):
            assert json_dumps(value, sort_keys=sort_keys) == json.dumps(value, sort_keys=sort_keys)

    def test_non_string_keys_are_written_as_json_dumps_writes_them(self):
        value = {2: "a", 1.5: "b", -1: "c"}
        assert canonical_json(value) == _canonical_reference(value)
        assert json_dumps(value) == json.dumps(value)
        assert json_dumps(value, sort_keys=True) == json.dumps(value, sort_keys=True)

    def test_errors_are_json_dumps_errors(self):
        for bad in ({"a": object()}, [b"bytes"], {"a": 1, 2: "b"}, 10**5000):
            with pytest.raises((TypeError, ValueError)) as expected:
                json.dumps(bad, sort_keys=True)
            with pytest.raises(expected.type):
                canonical_json(bad)
            with pytest.raises(expected.type):
                json_dumps(bad, sort_keys=True)

    def test_a_cyclic_value_raises_recursion_error(self):
        cyclic: list = []
        cyclic.append(cyclic)
        with pytest.raises(RecursionError):
            canonical_json(cyclic)
        with pytest.raises(RecursionError):
            json_dumps(cyclic)

    def test_threads_share_the_encoders(self):
        values = [
            {"id": n, "series": [n / 7, -0.0, 1e16], "text": "\u00e9\u2028" * n, "kind": TaskType.TREND}
            for n in range(40)
        ]
        expected = [(_canonical_reference(v), json.dumps(v), json.dumps(v, sort_keys=True)) for v in values]

        def encode_all(_worker: int) -> list[tuple[str, str, str]]:
            out = []
            for _ in range(25):
                out = [(canonical_json(v), json_dumps(v), json_dumps(v, sort_keys=True)) for v in values]
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(encode_all, range(4)))
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 4

    def test_without_the_c_accelerator_the_encoder_s_own_encode_is_called(self, monkeypatch):
        monkeypatch.setattr(util, "c_make_encoder", None)
        encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        value = {"b": [1.5, math.nan], "a": "\u2028"}
        assert "".join(util._prebuilt(encoder)(value, 0)) == _canonical_reference(value)


class TestAppendLog:
    def test_creates_nothing_until_its_first_append(self, tmp_path):
        log = util.AppendLog(tmp_path / "logs" / "a.log")
        log.close()
        assert not (tmp_path / "logs").exists()
        log.append(b"one\n")
        assert (tmp_path / "logs" / "a.log").read_bytes() == b"one\n"
        log.close()

    def test_each_append_first_cuts_off_what_follows_the_last_whole_record(self, tmp_path):
        path = tmp_path / "a.log"
        log = util.AppendLog(path)
        log.append(b"one\n")
        with path.open("ab") as fh:
            fh.write(b"torn")  # what a killed append leaves
        log.append(b"two\n")
        log.close()
        assert path.read_bytes() == b"one\ntwo\n"
        path.write_bytes(b"one\ntwo\nthr")
        log.append(b"three\n")  # after close: opened again, the torn tail cut off first
        log.close()
        assert path.read_bytes() == b"one\ntwo\nthree\n"
        assert log.end == len(b"one\ntwo\nthree\n")

    def test_a_record_is_in_the_file_when_append_returns(self, tmp_path):
        path = tmp_path / "a.log"
        log = util.AppendLog(path)
        for n in range(3):
            log.append(b"%d\n" % n)
            assert path.read_bytes() == b"".join(b"%d\n" % k for k in range(n + 1))
        log.close()


class TestTextFiles:
    def test_read_text_refuses_bytes_that_are_not_utf_8_naming_the_file(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ContractError) as caught:
            util.read_text(path)
        assert str(caught.value) == f"{path} is not UTF-8 text"

    def test_read_json_names_the_file_for_text_that_does_not_parse(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes('{"\u00e9": "\u2028"}'.encode("utf-8"))
        assert util.read_json(path) == {"\u00e9": "\u2028"}
        path.write_bytes(b'{"a": 1')
        with pytest.raises(ContractError) as caught:
            util.read_json(path)
        assert str(caught.value).startswith(f"{path}: not JSON: ")

    def test_read_lines_ends_a_line_at_newline_only(self, tmp_path):
        # canonical_json writes U+2028 and U+0085 raw inside strings
        path = tmp_path / "f.jsonl"
        path.write_bytes("a\u2028b\u0085c\nd\n".encode("utf-8"))
        assert util.read_lines(path) == ["a\u2028b\u0085c", "d", ""]

    def test_write_atomic_writes_utf_8(self, tmp_path):
        path = tmp_path / "f.json"
        util.write_atomic(path, "\u00e9\u2028\n")
        assert path.read_bytes() == "\u00e9\u2028\n".encode("utf-8")
