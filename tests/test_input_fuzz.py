"""Fuzz the JSON input boundary: matrix and pair loaders, `analyze`, and
`intertwine` and `commutant` on Hermitian input.

Every document, however malformed or extreme, must end in a documented
exit code (0/1/2/3) with no exception escaping; an input error (exit 2)
prints exactly one line on standard error.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from factorcomm.cli import main
from factorcomm.commutation import OperatorPair
from factorcomm.errors import FactorCommError
from factorcomm.linalg import matrix_from_json

EXTREMES = [0, -1, 1e-160, 5e-324, 1e80, 1e160, 1e308, -1e308]
NUMBERS = st.one_of(st.sampled_from(EXTREMES), st.floats(), st.integers(-(10**400), 10**400))
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
# Well-formed entries at one scale per matrix, one of them sometimes an extreme value.
SCALES = st.sampled_from([1.0, 1.0, 1e-300, 1e-160, 1e50, 1e80, 1e160, 1e300])
PARTS = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))
DEFECTS = ["rows", "cols", "length", "entry", "key", "lambda", "document"]


@st.composite
def matrix_docs(draw, n, defect):
    scale = draw(SCALES)
    parts = draw(st.lists(st.tuples(PARTS, PARTS), min_size=n * n, max_size=n * n))
    data = [[re * scale, im * scale] for re, im in parts]
    if draw(st.integers(0, 3)) == 0:
        data[draw(st.integers(0, n * n - 1))] = [draw(st.sampled_from(EXTREMES)), 0.0]
    doc = {"rows": n, "cols": n, "data": data}
    if defect in ("rows", "cols"):
        doc[defect] = draw(st.one_of(st.integers(-1, 0), NUMBERS, JSON))
    elif defect == "length":
        data.pop() if draw(st.booleans()) else data.append([0.0, 0.0])
    elif defect == "entry":
        data[draw(st.integers(0, n * n - 1))] = draw(st.one_of(st.lists(NUMBERS, min_size=2, max_size=2), JSON))
    elif defect == "key":
        del doc[draw(st.sampled_from(["rows", "cols", "data"]))]
    return doc


@st.composite
def pair_docs(draw, defect):
    """A well-formed pair of n x n matrices, or one with a single defect in
    A, in declared_lambda, or in the whole document."""
    n = draw(st.integers(1, 3))
    doc = {"A": draw(matrix_docs(n, defect)), "B": draw(matrix_docs(n, "none"))}
    if defect == "lambda":
        doc["declared_lambda"] = draw(st.one_of(st.lists(NUMBERS, min_size=2, max_size=2), JSON))
    if draw(st.booleans()):
        doc["label"] = draw(JSON)
    return draw(JSON) if defect == "document" else doc


@st.composite
def hermitian_docs(draw, n):
    """M + M* for M with entries at one scale, as matrix JSON."""
    scale = draw(SCALES)
    parts = draw(st.lists(st.tuples(PARTS, PARTS), min_size=n * n, max_size=n * n))
    M = np.array([complex(re, im) * scale for re, im in parts]).reshape(n, n)
    H = M + M.conj().T
    return {"rows": n, "cols": n, "data": [[z.real, z.imag] for z in H.ravel().tolist()]}


def _documented_exit(argv):
    """Run the CLI and check it ends in 0/1/2/3, with one stderr line on exit 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be one more stderr line in a real process
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    assert len(lines) == 1 if code == 2 else len(lines) <= 1, lines


def _check_document(tmp_path, doc):
    loads = [(OperatorPair.from_json, doc)]
    if isinstance(doc, dict):
        loads += [(matrix_from_json, doc.get("A")), (matrix_from_json, doc.get("B"))]
    for load, obj in loads:
        try:
            load(obj)
        except FactorCommError:
            pass
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))  # non-finite floats become NaN / Infinity tokens
    _documented_exit(["analyze", str(path)])


SETTINGS = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@settings(SETTINGS, max_examples=50)
@given(data=st.data())
def test_well_formed_pairs_at_extreme_scales_end_in_a_documented_exit(tmp_path, data):
    _check_document(tmp_path, data.draw(pair_docs("none")))


@settings(SETTINGS, max_examples=50)
@given(data=st.data())
def test_hermitian_pairs_at_extreme_scales_end_in_a_documented_exit(tmp_path, data):
    n = data.draw(st.integers(1, 3))
    doc = {"A": data.draw(hermitian_docs(n)), "B": data.draw(hermitian_docs(n))}
    pair, matrix = tmp_path / "pair.json", tmp_path / "A.json"
    pair.write_text(json.dumps(doc))
    matrix.write_text(json.dumps(doc["A"]))
    _documented_exit(["intertwine", str(pair)])
    lam = data.draw(st.sampled_from(["1", "-1", "0,1", "2", "1e-300", "1e300"]))
    _documented_exit(["commutant", str(matrix), f"--lambda={lam}"])


@pytest.mark.parametrize("defect", DEFECTS)
@settings(SETTINGS, max_examples=10)
@given(data=st.data())
def test_defective_pair_documents_end_in_a_documented_exit(tmp_path, defect, data):
    _check_document(tmp_path, data.draw(pair_docs(defect)))


ONE = {"rows": 1, "cols": 1, "data": [[1, 0]]}


@pytest.mark.parametrize(
    "doc",
    [
        {"A": {"rows": float("inf"), "cols": 1, "data": [[1, 0]]}, "B": ONE},
        {"A": {"rows": 1, "cols": 1, "data": [[float("nan"), 0]]}, "B": ONE},
        {"A": {"rows": 2, "cols": 2, "data": [[1e308, 1e308]] * 4}, "B": {"rows": 2, "cols": 2, "data": [[1e308, 0]] * 4}},
        {"A": {"rows": 2, "cols": 2, "data": [[5e-324, 0]] * 4}, "B": {"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}},
    ],
    ids=["infinite-rows", "nan-entry", "near-double-max", "subnormal"],
)
def test_boundary_documents_end_in_a_documented_exit(tmp_path, doc):
    _check_document(tmp_path, doc)


@settings(SETTINGS, max_examples=30)
@given(raw=st.binary(max_size=24))
def test_arbitrary_bytes_exit_2_with_one_line(tmp_path, raw):
    path = tmp_path / "pair.json"
    path.write_bytes(raw)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["analyze", str(path)])
    assert code == 2
    assert len(err.getvalue().splitlines()) == 1
