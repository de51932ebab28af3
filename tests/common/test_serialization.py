"""Tests for JSONL serialization helpers."""

from dataclasses import dataclass

from repro.common.serialization import read_jsonl, write_jsonl


@dataclass
class _Record:
    name: str
    value: int

    def to_dict(self):
        return {"name": self.name, "value": self.value}

    @classmethod
    def from_dict(cls, payload):
        return cls(name=payload["name"], value=payload["value"])


class TestJsonl:
    def test_write_read_dicts(self, tmp_path):
        path = tmp_path / "out.jsonl"
        count = write_jsonl(path, [{"a": 1}, {"a": 2}])
        assert count == 2
        assert list(read_jsonl(path)) == [{"a": 1}, {"a": 2}]

    def test_write_read_dataclasses(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [_Record("x", 1)])
        loaded = list(read_jsonl(path, factory=_Record.from_dict))
        assert loaded == [_Record("x", 1)]

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "f.jsonl"
        write_jsonl(path, [{"k": "v"}])
        assert path.exists()

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n', encoding="utf-8")
        assert len(list(read_jsonl(path))) == 2

    def test_unicode_roundtrip(self, tmp_path):
        path = tmp_path / "u.jsonl"
        write_jsonl(path, [{"name": "José Martí ✓"}])
        assert list(read_jsonl(path))[0]["name"] == "José Martí ✓"
