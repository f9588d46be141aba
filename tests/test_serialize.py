import dataclasses
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import string_format_float

from pdmsi.serialize import dump_json, dumps, format_float, write_atomic


@dataclasses.dataclass
class Report:
    value: float
    matrix: np.ndarray
    pair: tuple | None
    extra: dict


def matrix_to_pairs(m) -> list:
    """The ``[re, im]`` nested lists that complex matrices were written as before ``dumps`` took them."""
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


class TestFormatting:
    def test_float_17_significant_digits(self):
        assert format_float(np.sqrt(2) - 1) == "0.41421356237309515"
        assert format_float(1.0) == "1.0"
        assert format_float(-0.5) == "-0.5"

    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
            assert float(format_float(x)) == x

    def test_rejects_non_finite(self):
        for bad in (np.inf, -np.inf, np.nan, np.float64("nan")):
            with pytest.raises(ValueError) as got:
                format_float(bad)
            with pytest.raises(ValueError) as want:
                string_format_float(bad)
            assert str(got.value) == str(want.value)

    # Signed zeros, the integral floats around 2**53 and 1e17 (the last point-free .17g text is
    # 1e17 - 16), the least subnormal and the largest float.
    EDGES = [0.0, -0.0, 1.0, -1.0, 2.0**53, 2.0**53 + 2, 1e17 - 16, 1e17, -1e17, 1e17 + 16, 1e16 + 0.5,
             5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
             0.1, 1 / 3, 123456789.0]

    @pytest.mark.parametrize("x", EDGES + [np.float64(3.0), np.float64(0.25), 7])
    def test_value_rule_matches_the_text_rule_at_the_edges(self, x):
        assert format_float(x) == string_format_float(x)

    @settings(derandomize=True, max_examples=1000)
    @given(x=st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**60), 2**60).map(float))
    def test_value_rule_matches_the_text_rule(self, x):
        assert format_float(x) == string_format_float(x)

    def test_sorted_keys_and_types(self):
        text = dumps({"b": 1, "a": [True, None, 2.5], "c": "x"})
        parsed = json.loads(text)
        assert parsed == {"a": [True, None, 2.5], "b": 1, "c": "x"}
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')

    def test_complex_and_ndarray(self):
        assert json.loads(dumps(1 + 2j)) == [1.0, 2.0]
        assert json.loads(dumps(np.arange(3))) == [0, 1, 2]

    def test_deterministic(self):
        payload = {"z": [0.1, 0.2], "a": {"k": np.pi}}
        assert dump_json(payload) == dump_json(payload)

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps(object())
        with pytest.raises(TypeError):
            dumps(Report)  # a dataclass type is not an instance


class TestDataclasses:
    REPORT = Report(value=0.5, matrix=np.array([[1.0, 0.5j], [-0.5j, -0.0]]), pair=(0, 1), extra={"b": 2, "a": 1})

    def test_written_as_its_field_dict(self):
        fields = {f.name: getattr(self.REPORT, f.name) for f in dataclasses.fields(self.REPORT)}
        assert dumps(self.REPORT) == dumps(fields)
        assert json.loads(dumps(self.REPORT))["pair"] == [0, 1]

    def test_nested_in_lists_and_dicts(self):
        plain = {f.name: getattr(self.REPORT, f.name) for f in dataclasses.fields(self.REPORT)}
        assert dumps({"k": [self.REPORT, None]}) == dumps({"k": [plain, None]})
        assert dumps([{"r": self.REPORT}]) == dumps([{"r": plain}])

    def test_complex_ndarray_matches_pair_lists(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m[0, 0], m[1, 1], m[2, 2] = -0.0, complex(-0.0, -0.0), complex(1.0, -0.0)
        text = dumps(m)
        assert text == dumps(matrix_to_pairs(m))
        assert [line.strip(" ,") for line in text.splitlines()].count("-0.0") == 4


class TestArrays:
    """A float or complex array is written through one template per top-level row; its text must be
    that of its nested lists, number by number."""

    # Integral values below 1e17 take format_float's ".0"; from 1e17 up, .17g writes an exponent.
    EDGES = [0.0, -0.0, 1.0, -3.0, 1e16, 9.999999999999998e16, 1e17, 2.0**60, 0.5, 0.1, 1 / 3,
             1e-300, 5e-324, 1e300, 123456789.0, 2.0**53 + 2]

    @pytest.mark.parametrize("shape", [(16,), (3, 4), (2, 3, 4), (1,), (5, 1), (1, 1, 1)])
    @pytest.mark.parametrize("indent", [0, 6])
    def test_float_and_complex_arrays_match_their_lists(self, shape, indent):
        rng = np.random.default_rng(len(shape) + indent)
        x = rng.choice(self.EDGES, size=shape) * rng.choice([1.0, -1.0, 0.3], size=shape)
        single = (np.round(rng.standard_normal(shape) * 8) / 3).astype(np.float32)
        for a in (x, x + 1j * rng.choice(self.EDGES, size=shape), single):
            assert dumps(a, indent) == dumps(a.tolist(), indent)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_array_rejects_non_finite_as_the_list_does(self, bad):
        for a in (np.array([[1.0, bad]]), np.array([1.0, complex(0.5, bad)])):
            with pytest.raises(ValueError) as from_array:
                dumps(a)
            with pytest.raises(ValueError) as from_list:
                dumps(a.tolist())
            assert str(from_array.value) == str(from_list.value)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "sub" / "out.json"
        write_atomic(str(target.parent), {"out.json": "first\n"})
        write_atomic(str(target.parent), {"out.json": "second\n"})
        assert target.read_text() == "second\n"
        leftovers = [f for f in os.listdir(tmp_path / "sub") if f.endswith(".tmp")]
        assert leftovers == []

    def test_writes_every_file_of_a_dict(self, tmp_path):
        write_atomic(str(tmp_path / "out"), {"a.csv": "a\n", "b.json": "{}\n"})
        assert {p.name: p.read_text() for p in (tmp_path / "out").iterdir()} == {"a.csv": "a\n", "b.json": "{}\n"}

    def test_directory_target_is_refused_before_any_write(self, tmp_path):
        (tmp_path / "a.csv").write_text("old\n")
        (tmp_path / "b.json").mkdir()
        with pytest.raises(IsADirectoryError) as err:
            write_atomic(str(tmp_path), {"a.csv": "new\n", "b.json": "{}\n"})
        assert err.value.filename == str(tmp_path / "b.json")
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.json"]
        assert (tmp_path / "a.csv").read_text() == "old\n"

    def test_failed_staging_renames_nothing_and_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_atomic(str(tmp_path), {"a.csv": "a\n", "b.json": None})
        assert os.listdir(tmp_path) == []

    def test_mode_is_that_of_a_plain_open(self, tmp_path):
        previous = os.umask(0o027)
        try:
            write_atomic(str(tmp_path), {"report.json": "{}\n"})
            open(tmp_path / "plain.txt", "w").close()
        finally:
            os.umask(previous)
        mode = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert mode["report.json"] == mode["plain.txt"]
