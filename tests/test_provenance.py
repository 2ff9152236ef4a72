"""The one output writer: exact bytes of the CSV and JSON formats."""
import builtins
from dataclasses import dataclass, field

import numpy as np

from subdiff import provenance
from subdiff.provenance import (
    json_text,
    record_dict,
    reproducibility_header,
    write_csv,
    write_json,
)


def test_writer_bytes(tmp_path, monkeypatch):
    # every output file is opened through the builtin ``open`` looked up in
    # the writer's module, so shadowing it there sees each file
    opened = []

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return builtins.open(file, *args, **kwargs)

    monkeypatch.setattr(provenance, "open", recording_open, raising=False)

    header = reproducibility_header("demo", {"alpha": 0.5, "K": [8, 16]}, {"rel": 1e-13})
    rows = [[1, np.float64(0.1)], [2.5e-300, "a b"], ["", "0.5"]]
    write_csv(tmp_path / "t.csv", header, ["x", "y"], rows)
    assert (tmp_path / "t.csv").read_bytes() == (
        b"# subdiff 0.1.0 demo\n"
        b"# alpha = 0.5\n"
        b"# K = 8,16\n"
        b"# tolerance:rel = 1e-13\n"
        b"x,y\n"
        b"1,0.1\n"
        b"2.5e-300,a b\n"
        b",0.5\n"
    )

    text = (
        '{\n'
        '  "a": [\n'
        '    1.5,\n'
        '    null\n'
        '  ],\n'
        '  "b": true,\n'
        '  "kind": "demo",\n'
        '  "version": "0.1.0"\n'
        '}'
    )
    payload = {"b": True, "a": [1.5, None]}
    assert json_text("demo", payload) == text
    write_json(tmp_path / "s.json", "demo", payload)
    assert (tmp_path / "s.json").read_bytes() == (text + "\n").encode()
    assert opened == [str(tmp_path / "t.csv"), str(tmp_path / "s.json")]


def test_writers_create_the_parent_directory(tmp_path):
    write_csv(tmp_path / "a" / "b" / "t.csv", ["# h"], ["x"], [[1]])
    write_json(tmp_path / "c" / "s.json", "demo", {})
    assert (tmp_path / "a" / "b" / "t.csv").read_text() == "# h\nx\n1\n"
    assert (tmp_path / "c" / "s.json").is_file()


@dataclass(frozen=True)
class _Record:
    label: str
    count: int
    value: float
    flag: bool
    missing: object
    curve: np.ndarray = field(repr=False)
    table: np.ndarray = field(repr=False)


def test_record_dict_writes_each_field_once():
    record = _Record(
        label="r=2",
        count=np.int64(3),
        value=np.float64(0.1),
        flag=np.True_,
        missing=None,
        curve=np.array([0.5, 1e-300]),
        table=np.arange(4).reshape(2, 2),
    )
    payload = record_dict(record)
    # every field, in field order; arrays and numpy scalars become plain Python
    assert list(payload) == ["label", "count", "value", "flag", "missing", "curve", "table"]
    assert payload == {
        "label": "r=2", "count": 3, "value": 0.1, "flag": True, "missing": None,
        "curve": [0.5, 1e-300], "table": [[0, 1], [2, 3]],
    }
    assert [type(payload[k]) for k in ("count", "value", "flag")] == [int, float, bool]
    assert type(payload["curve"][0]) is float
    # omitted fields are left out, and renamed ones keep their place
    payload = record_dict(record, omit=("curve", "table"), rename={"label": "family"})
    assert list(payload) == ["family", "count", "value", "flag", "missing"]
    assert payload["family"] == "r=2"
    assert '"family": "r=2"' in json_text("demo", payload)
