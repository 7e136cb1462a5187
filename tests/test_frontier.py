"""Stored reports of inputs beyond the corpus.

tests/frontier holds five free arrangements laid out as a corpus (an
input and its .expected.json, the report of ``analyze --all`` without
``timings``): braid A3 in four variables, braid A4 essential (the
arrangement of x_i - x_j and x_i in four variables), Coxeter B3, D4 and
B4. Every stage is compared, the Saito matrix and ft1's representatives
included, so a change of the Groebner runs or of the basis search that
moves any of them shows here. ``logdiv corpus-run tests/frontier`` runs
the same comparison.
"""

import json
import os

import pytest

from logdiv import cli
from logdiv.errors import Budget

from conftest import strip_timings

FRONTIER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "frontier")
NAMES = sorted(n[:-len(".json")] for n in os.listdir(FRONTIER)
               if n.endswith(".json") and not n.endswith(".expected.json"))


def test_the_five_arrangements_are_stored():
    assert NAMES == ["braid-A3", "braid-A4-essential", "coxeter-B3",
                     "coxeter-B4", "coxeter-D4"]


@pytest.mark.parametrize("name", NAMES)
def test_report_equals_the_stored_one(name):
    doc = cli.load_document(os.path.join(FRONTIER, f"{name}.json"))
    with open(os.path.join(FRONTIER, f"{name}.expected.json"),
              encoding="utf-8") as fh:
        golden = json.load(fh)
    with Budget():
        report = cli.analyze_document(doc, cli.ALL_STAGES)
    assert strip_timings(report) == golden
    assert report["profile"]["free"] is True and report["ft1"]["dimension"] == 0
