"""JSON file formats for series, symbols, matrices, and tuples."""

import json
import re

import numpy as np
import pytest

from ncdomain.cli import parse_config
from ncdomain.io import (
    FormatError,
    load_matrix,
    load_series,
    load_symbol,
    load_tuple,
    save_series,
)
from ncdomain.series import FreeSeries, PositiveRegularFunction


def test_series_roundtrip_scalar(tmp_path):
    s = FreeSeries(2, 2, {"1": 1.5, "12": 2.0 - 1.0j})
    path = tmp_path / "s.json"
    save_series(s, path)
    back = load_series(path)
    assert back.n == 2
    assert back.degree == 2
    assert back.coeff("12")[0, 0] == 2.0 - 1.0j


def test_series_roundtrip_matrix_coefficients(tmp_path):
    c = np.array([[1.0, 2.0j], [0.0, -1.0]])
    s = FreeSeries(1, 1, {"1": c}, coeff_dim=2)
    path = tmp_path / "m.json"
    save_series(s, path)
    back = load_series(path)
    assert back.coeff_dim == 2
    assert np.allclose(back.coeff("1"), c)


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return path


def test_symbol_roundtrip(tmp_path):
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 1.0, "21": 0.25})
    path = _write(tmp_path / "f.json", {"n": 2, "coeffs": {"1": 0.5, "2": 1.0, "21": 0.25}})
    assert load_symbol(path) == f


def test_symbol_file_validates_regularity(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "coeffs": {"": 0.5, "1": 1.0}}')
    with pytest.raises(ValueError, match="constant term must vanish"):
        load_symbol(path)


def test_matrix_roundtrip(tmp_path):
    mat = np.array([[1.0 + 2.0j, 0.0], [3.0, -1.0j]])
    rows = [[[1.0, 2.0], [0.0, 0.0]], [[3.0, 0.0], [0.0, -1.0]]]  # [re, im] pairs
    path = _write(tmp_path / "a.json", {"matrix": rows})
    assert np.array_equal(load_matrix(path), mat)


def test_matrix_plain_real_entries(tmp_path):
    path = tmp_path / "plain.json"
    path.write_text('{"matrix": [[1.0, 2.0], [3.0, 4.0]]}')
    assert np.allclose(load_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_tuple_roundtrip(tmp_path):
    mats = [np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0j * np.eye(2)]
    rows = [[[0.0, 1.0], [0.0, 0.0]], [[[0.0, 1.0], 0.0], [0.0, [0.0, 1.0]]]]
    path = _write(tmp_path / "t.json", {"matrices": rows})
    back = load_tuple(path)
    assert len(back) == 2
    assert np.array_equal(back[0], mats[0])
    assert np.array_equal(back[1], mats[1])


def test_invalid_json_is_format_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_matrix(path)


def test_top_level_must_be_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(FormatError):
        load_series(path)


def test_ragged_matrix_rejected(tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text('{"matrix": [[1.0, 2.0], [3.0]]}')
    with pytest.raises(FormatError):
        load_matrix(path)


def test_missing_fields_rejected(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    with pytest.raises(FormatError):
        load_series(path)
    with pytest.raises(FormatError):
        load_matrix(path)
    with pytest.raises(FormatError):
        load_tuple(path)


def test_bad_scalar_rejected(tmp_path):
    path = tmp_path / "badscalar.json"
    path.write_text('{"matrix": [[true]]}')
    with pytest.raises(FormatError):
        load_matrix(path)


SYMBOL = {"n": 1, "coeffs": {"1": 1.0}}


@pytest.mark.parametrize("read, payload, prefix, key, known", [
    (parse_config, {"n": 1, "m": 1, "N": 3, "symbol": {**SYMBOL, "coef": {"11": 0.5}}},
     "symbol: ", "coef", ["n", "coeffs"]),
    (load_symbol, {**SYMBOL, "coef": {"11": 0.5}}, "", "coef", ["n", "coeffs"]),
    (load_series, {"n": 1, "degree": 1, "coeffs": {"1": 1.0}, "coef_dim": 2}, "",
     "coef_dim", ["n", "degree", "coeff_dim", "coeffs"]),
    (load_matrix, {"matrix": [[1.0]], "note": 1}, "", "note", ["matrix"]),
    (load_tuple, {"matrices": [[[0.5]]], "matrix": [[[9.0]]]}, "", "matrix",
     ["matrices"]),
    (parse_config, {"n": 1, "m": 1, "N": 3, "symbol": {"file": "sym.json", "extra": 1}},
     "symbol: ", "extra", ["file"]),
], ids=["inline-symbol", "symbol-file", "series", "matrix", "tuple", "symbol-reference"])
def test_unknown_field_at_any_level_is_refused(tmp_path, read, payload, prefix, key,
                                               known):
    # a misspelled field would otherwise be dropped and its value never read
    _write(tmp_path / "sym.json", SYMBOL)
    path = _write(tmp_path / "in.json", payload)
    message = f"{path}: {prefix}unknown field {key!r}; known: {known}"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read(path)


@pytest.mark.parametrize("read, payload, message", [
    (load_series, {"degree": 1, "depth": 1}, "missing field 'n'"),
    (load_series, {"n": True, "degree": 1}, "field 'n' must be an integer"),
    (load_series, {"n": 1, "degree": 1, "coeffs": []}, "field 'coeffs' must be an object"),
    (load_tuple, {"matrices": []}, "field 'matrices' must be a nonempty list"),
    (load_symbol, {"n": 1, "degree": 1, "coeff_dim": 1, "coeffs": {"1": 1.0}},
     "unknown field 'degree'; known: ['n', 'coeffs']"),
    (load_series, {"n": 1, "degree": 1, "coeff_dim": 0, "coeffs": {"1": [[1]]}},
     "coeff_dim must be >= 1, got 0"),
    (load_series, {"n": 1, "degree": 1, "coeff_dim": -1, "coeffs": {"1": [[1]]}},
     "coeff_dim must be >= 1, got -1"),
], ids=["missing-before-unknown", "bool-is-not-int", "coeffs-list", "empty-tuple",
        "series-as-symbol", "coeff-dim-zero", "coeff-dim-negative"])
def test_layout_refusal_messages(tmp_path, read, payload, message):
    path = _write(tmp_path / "in.json", payload)
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
        read(path)
