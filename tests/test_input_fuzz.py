"""Fuzzing of the input boundary: poly_from_text and load_document.

Any text parses or raises ParseError (BudgetExceeded for products past
the budget). Any document file ends in a documented exit code: a
malformed one in 2, or 5 for the budget; a well-formed one in its own
answer, 0, 3 or 4. Never a traceback, and never exit 6, which reports
an internal inconsistency.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from logdiv import cli
from logdiv.errors import Budget, BudgetExceeded, ParseError
from logdiv.poly import Polynomial, poly_from_text

from conftest import CORPUS, corpus_names

RING = ("x", "y", "z")
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# names of the ring and unknown ones; integers, p/q (q may be 0) and one
# literal longer than int() converts
atoms = st.one_of(
    st.sampled_from(["x", "y", "z", "u", "x1", "_", "X"]),
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(-9, 99), st.integers(0, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.just("7" * 5000),
)

texts = st.one_of(
    st.recursive(atoms, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", " - ", "*-", "", "/"]),
                  inner).map("".join),
        inner.map(lambda s: f"({s})"),
        inner.map(lambda s: f"-{s}"),
        inner.map(lambda s: f"+{s}"),
        st.tuples(inner, st.sampled_from(["0", "1", "5", "12", "-1", "x"]))
        .map(lambda t: f"{t[0]}^{t[1]}"),
    ), max_leaves=10),
    st.text(alphabet="xyzu0123456789+-*/^() .#", max_size=30),
    st.integers(95, 110).map(lambda k: "(" * k + "x" + ")" * k),
)


def exit_code(doc_text):
    """The exit code of ``logdiv analyze`` on a file holding doc_text,
    in this process, with a small step budget and deadline."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(doc_text if isinstance(doc_text, bytes)
                     else doc_text.encode("utf-8"))
        sink = io.StringIO()
        with mock.patch.dict(os.environ, {"LOGDIV_BUDGET": "20000"}), \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(["analyze", path, "--timeout", "5"])


@FUZZ
@given(texts)
def test_poly_from_text_parses_or_raises_parse_error(text):
    with Budget(10**5):
        try:
            assert isinstance(poly_from_text(text, RING), Polynomial)
        except (ParseError, BudgetExceeded):
            pass


# well-formed polynomial texts in x, y, z, so that documents reach the
# later stages too
clean_texts = st.recursive(
    st.one_of(st.sampled_from(["x", "y", "z"]),
              st.sampled_from(["x", "y", "z", "1/2", "-2/3", "2", "5"])),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner)
        .map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(inner, st.integers(1, 3)).map(lambda t: f"({t[0]})^{t[1]}")),
    max_leaves=6)
names = st.lists(st.sampled_from(["x", "y", "z", "w", ""]), max_size=4)
weights = st.lists(st.one_of(st.integers(-1, 4), st.booleans(),
                             st.floats(allow_nan=False), st.just("1")),
                   max_size=4)
matrices = st.lists(st.lists(st.one_of(texts, st.integers(0, 2)), max_size=3),
                    max_size=3)


@st.composite
def documents(draw):
    """Half of them well-formed in shape, with a parsable f, so that the
    later stages are reached too; the rest malformed anywhere."""
    if draw(st.booleans()):
        return {"label": "fuzz", "variables": ["x", "y", "z"],
                "f": draw(clean_texts)}
    doc = {"label": draw(st.one_of(st.just("fuzz"), st.just(""), st.integers())),
           "variables": draw(st.one_of(st.just(["x", "y", "z"]), st.just(["x", "y"]),
                                       names, st.just("x"))),
           "f": draw(st.one_of(clean_texts, texts, st.integers()))}
    if draw(st.booleans()):
        doc["weights"] = draw(weights)
    if draw(st.booleans()):
        doc["saito_matrix"] = draw(matrices)
    if draw(st.integers(0, 9)) == 0:
        doc["extra"] = 1
    if draw(st.integers(0, 9)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@FUZZ
@given(documents())
def test_any_document_ends_in_a_documented_exit(doc):
    assert exit_code(json.dumps(doc)) in (0, 2, 3, 4, 5)


def corpus_documents():
    out = []
    for name in corpus_names():
        with open(os.path.join(CORPUS, f"{name}.json"), encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def _matrix_defect(doc, entry):
    n = len(doc["variables"])
    rows = doc.get("saito_matrix") or [["0"] * n for _ in range(n)]
    return dict(doc, saito_matrix=[[entry] + row[1:] for row in rows])


# one defect each; every one of them makes a document malformed
DEFECTS = {
    "empty label": lambda d: dict(d, label=""),
    "label not a string": lambda d: dict(d, label=3),
    "no variables": lambda d: dict(d, variables=[]),
    "repeated variable": lambda d: dict(d, variables=d["variables"][:1] * 2),
    "variable not a string": lambda d: dict(d, variables=d["variables"][:-1] + [1]),
    "variable not a name": lambda d: {
        **{k: v for k, v in d.items() if k not in ("weights", "saito_matrix")},
        "variables": d["variables"] + ["y z"]},
    "unknown name in f": lambda d: dict(d, f=f"({d['f']}) + unknown"),
    "unbalanced f": lambda d: dict(d, f=f"({d['f']}"),
    "stray character in f": lambda d: dict(d, f=f"{d['f']} # 1"),
    "f not a string": lambda d: dict(d, f=1),
    "weights too short": lambda d: dict(d, weights=[1] * (len(d["variables"]) - 1)),
    "zero weight": lambda d: dict(d, weights=[0] * len(d["variables"])),
    "boolean weight": lambda d: dict(d, weights=[True] * len(d["variables"])),
    "float weight": lambda d: dict(d, weights=[1.5] * len(d["variables"])),
    "matrix too small": lambda d: dict(d, saito_matrix=[["x"]] * (len(d["variables"]) - 1)),
    "matrix entry not text": lambda d: _matrix_defect(d, 1),
    "unknown name in matrix": lambda d: _matrix_defect(d, "unknown"),
    "unknown field": lambda d: dict(d, extra=1),
    "f missing": lambda d: {k: v for k, v in d.items() if k != "f"},
}


@FUZZ
@given(st.sampled_from(corpus_documents()), st.sampled_from(sorted(DEFECTS)))
def test_a_malformed_document_exits_2(doc, defect):
    assert exit_code(json.dumps(DEFECTS[defect](doc))) in (2, 5), defect


@FUZZ
@given(st.one_of(st.binary(max_size=40), texts,
                 st.integers(1, 3000).map(lambda k: "[" * k + "]" * k),
                 st.sampled_from(['{"label": NaN}', "[]", "null", "1e999"])))
def test_a_file_that_is_no_document_exits_2(raw):
    assert exit_code(raw) == 2


@pytest.mark.parametrize("name", ["2", "y z", "x^2", " y", "y\n"])
def test_a_variable_the_grammar_cannot_name_exits_2(name):
    # no f can use such a variable; it must not pass as an unused one
    doc = {"label": "a", "variables": ["x", name], "f": "x"}
    assert exit_code(json.dumps(doc)) == 2


@pytest.mark.parametrize("raw", [
    b"\xff\xfe{}",
    b'{"label": ' + b"7" * 5000 + b"}",
    json.dumps({"label": "a", "variables": ["x"], "f": "7" * 5000 + "*x"}),
], ids=["not-utf-8", "long-int-in-json", "long-int-in-f"])
def test_inputs_that_once_ended_in_a_traceback_exit_2(raw):
    assert exit_code(raw) == 2


@pytest.mark.parametrize("text", ["7" * 5000, "x^" + "9" * 5000, "1/" + "3" * 5000],
                         ids=["integer", "exponent", "denominator"])
def test_long_integer_literals_are_parse_errors(text):
    with pytest.raises(ParseError, match="5000 digits"):
        poly_from_text(text, RING)
