import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

from conftest import strip_timings

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(REPO, "corpus")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "logdiv.cli", *args],
        capture_output=True, text=True, env=env)


def write_doc(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def write_coxeter_d5(path):
    """The Coxeter arrangement D5: its analysis with --all takes about
    2-3.5 s on a 2-CPU host with Python 3.11, of which the squarefree
    test and the basis search take about 0.1 s and ft1 1.6-3.2 s, so a
    timeout of 0.3 s cuts it with a wide margin."""
    pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    write_doc(path, {"label": "coxeter-D5",
                     "variables": [f"x{i}" for i in range(1, 6)],
                     "f": "*".join(f"(x{i}^2 - x{j}^2)" for i, j in pairs)})
    return str(path)


def write_coxeter_b5_times_x1(path):
    """The Coxeter arrangement B5 with x1 = 0 doubled: no line of its
    squarefree test certifies it, and the signature-based run that then
    decides takes 0.4-0.5 s, so a timeout of 0.05 s falls inside it."""
    pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    write_doc(path, {"label": "coxeter-B5*(x1)",
                     "variables": [f"x{i}" for i in range(1, 6)],
                     "f": "x1^2*x2*x3*x4*x5*" + "*".join(
                         f"(x{i}^2 - x{j}^2)" for i, j in pairs)})
    return str(path)


def coxeter_b4():
    """The document of the Coxeter arrangement B4, field weights 0, 2, 4
    and 6."""
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    return {"label": "coxeter-B4", "variables": ["x1", "x2", "x3", "x4"],
            "f": "x1*x2*x3*x4*" + "*".join(f"(x{i}^2-x{j}^2)"
                                            for i, j in pairs)}


def _inconsistent(saito):
    """Stands in for a stage routine that hits a bug."""
    from logdiv.errors import InternalInconsistency

    raise InternalInconsistency("symbol ideal lost a generator")


class TestAnalyzeHuman:
    def test_quartic_full_report(self):
        res = run_cli("analyze", os.path.join(CORPUS, "quartic-cross.json"),
                      "--all")
        assert res.returncode == 0
        assert res.stdout.splitlines() == [
            "label: quartic-cross",
            "f = x^3*y - x*y^3  in Q[x, y]",
            "weights: (1, 1), degree 4, field weights [0, 2]",
            "free: yes (determinant unit 1)",
            "linear: False",
            "koszul: True",
            "connection conditions: True, True",
            "ft1: dimension 1 (representatives: x^2*y^2)",
            "lft1: refused: not a linear free divisor",
            "h0: 0",
            "jacobian degree bound: 1",
        ]

    def test_default_stages_skip_cohomology(self):
        res = run_cli("analyze", os.path.join(CORPUS, "quartic-cross.json"))
        assert res.returncode == 0
        assert "ft1: not computed" in res.stdout
        assert "lft1: not computed" in res.stdout
        assert "koszul: True" in res.stdout

    def test_reduction_is_reported(self, tmp_path):
        doc = {"label": "cyl", "variables": ["x", "y", "z"],
               "f": "x^3*y - x*y^3"}
        path = tmp_path / "cyl.json"
        write_doc(path, doc)
        res = run_cli("analyze", str(path), "--ft1")
        assert res.returncode == 0
        assert "reduced: dropped unused variables z" in res.stdout
        assert "ft1: dimension 1 (representatives: x^2*y^2)" in res.stdout


class TestAnalyzeJson:
    def test_matches_stored_report(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("analyze", os.path.join(CORPUS, "quartic-cross.json"),
                      "--all", "--json", str(out))
        assert res.returncode == 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        with open(os.path.join(CORPUS, "quartic-cross.expected.json"),
                  encoding="utf-8") as fh:
            golden = json.load(fh)
        assert strip_timings(report) == strip_timings(golden)

    def test_schema_and_tool_fields(self, tmp_path):
        out = tmp_path / "report.json"
        run_cli("analyze", os.path.join(CORPUS, "nc-2.json"),
                "--json", str(out))
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["schema"] == 1
        assert report["tool"]["name"] == "logdiv"
        assert report["ft1"] == "not computed"
        assert report["profile"]["free"] is True

    def test_deterministic_modulo_timings(self, tmp_path):
        path = os.path.join(CORPUS, "discriminant-234.json")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        first = run_cli("analyze", path, "--all", "--json", str(out1))
        second = run_cli("analyze", path, "--all", "--json", str(out2))
        assert first.stdout == second.stdout
        with open(out1, encoding="utf-8") as fh:
            a = json.load(fh)
        with open(out2, encoding="utf-8") as fh:
            b = json.load(fh)
        assert strip_timings(a) == strip_timings(b)

    @pytest.mark.parametrize("budget, code", [(None, 0), ("1", 5)],
                             ids=["success", "stage-failure"])
    def test_unwritable_path_exits_2(self, tmp_path, budget, code):
        # the human report is printed first, whatever the outcome
        out = tmp_path / "missing-dir" / "report.json"
        res = run_cli("analyze", os.path.join(CORPUS, "nc-2.json"),
                      "--json", str(out),
                      env_extra={"LOGDIV_BUDGET": budget} if budget else None)
        assert res.returncode == 2
        assert res.stdout.startswith("label: nc-2\n")
        assert res.stderr.startswith(f"cannot write {out}: ")
        assert "Traceback" not in res.stderr
        assert code == 0 or "error at stage" in res.stdout


class TestAnalyzeErrors:
    def test_unreadable_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        res = run_cli("analyze", str(path))
        assert res.returncode == 2

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "doc.json"
        write_doc(path, {"label": "a", "variables": ["x", "y"], "f": "x*y",
                         "extra": 1})
        res = run_cli("analyze", str(path))
        assert res.returncode == 2
        assert "unknown fields: extra" in res.stderr

    def test_duplicate_variables_rejected(self, tmp_path):
        path = tmp_path / "doc.json"
        write_doc(path, {"label": "a", "variables": ["x", "x"], "f": "x"})
        assert run_cli("analyze", str(path)).returncode == 2

    def test_wrong_weight_count_rejected(self, tmp_path):
        path = tmp_path / "doc.json"
        write_doc(path, {"label": "a", "variables": ["x", "y"], "f": "x*y",
                         "weights": [1]})
        assert run_cli("analyze", str(path)).returncode == 2

    def test_inconsistent_weights_rejected(self, tmp_path):
        path = tmp_path / "doc.json"
        write_doc(path, {"label": "a", "variables": ["x", "y"],
                         "f": "x^3 + y^2 + x*y", "weights": [2, 3]})
        res = run_cli("analyze", str(path))
        assert res.returncode == 2

    def test_boolean_weights_rejected(self, tmp_path):
        # JSON true is a Python bool, and bool is a subclass of int
        path = tmp_path / "doc.json"
        write_doc(path, {"label": "a", "variables": ["x", "y"], "f": "x*y",
                         "weights": [True, True]})
        res = run_cli("analyze", str(path))
        assert res.returncode == 2
        assert "weights must be 2 positive integers" in res.stderr

    def test_divisor_missing_origin(self, tmp_path):
        path = tmp_path / "doc.json"
        write_doc(path, {"label": "a", "variables": ["x", "y"], "f": "x*y + 1"})
        res = run_cli("analyze", str(path))
        assert res.returncode == 2
        assert "origin" in res.stdout

    def test_nonreduced_exits_3(self, tmp_path):
        path = tmp_path / "doc.json"
        write_doc(path, {"label": "a", "variables": ["x", "y"], "f": "x^2*y"})
        res = run_cli("analyze", str(path))
        assert res.returncode == 3
        assert "squarefree" in res.stdout
        assert "error at stage divisor" in res.stdout

    def test_doubled_hyperplane_exits_3(self, tmp_path):
        # coxeter B3 times one of its own hyperplanes
        path = tmp_path / "doc.json"
        write_doc(path, {"label": "b3", "variables": ["x1", "x2", "x3"],
                         "f": "x1*x2*x3*(x1^2-x2^2)*(x1^2-x3^2)*(x2^2-x3^2)"
                              "*(x1-x3)"})
        res = run_cli("analyze", str(path))
        assert res.returncode == 3
        assert "error at stage divisor: f is not squarefree" in res.stdout

    def test_non_free_divisor_exits_4(self, tmp_path):
        path = tmp_path / "doc.json"
        write_doc(path, {"label": "a", "variables": ["x", "y", "z"],
                         "f": "x^2 + y^2 + z^2"})
        res = run_cli("analyze", str(path))
        assert res.returncode == 4

    def test_non_logarithmic_matrix_exits_4(self, tmp_path):
        path = tmp_path / "doc.json"
        write_doc(path, {"label": "a", "variables": ["x", "y"], "f": "x*y",
                         "saito_matrix": [["0", "y"], ["x", "0"]]})
        res = run_cli("analyze", str(path))
        assert res.returncode == 4
        assert "not logarithmic" in res.stdout

    @pytest.mark.parametrize("f, unit", [
        ("x^3 + y^2 + x^2*y^2", "1/6*x*y^2 - 1/4"),
        ("x^2*y^3 + x^5 + y^7 + x^3*y^3", "-3/434000*x^3 + 1/372000*x^2*y"),
    ])
    def test_nonconstant_unit_exits_0(self, tmp_path, f, unit):
        # no weight system, and the Saito unit is not constant: it becomes
        # the denominator of the structure constants
        path = tmp_path / "doc.json"
        write_doc(path, {"label": "a", "variables": ["x", "y"], "f": f})
        res = run_cli("analyze", str(path))
        assert res.returncode == 0
        assert f"free: yes (determinant unit {unit}" in res.stdout

    def test_wrong_determinant_matrix_exits_4(self, tmp_path):
        path = tmp_path / "doc.json"
        write_doc(path, {"label": "a", "variables": ["x", "y"], "f": "x*y",
                         "saito_matrix": [["x", "0"], ["0", "1"]]})
        res = run_cli("analyze", str(path))
        assert res.returncode == 4

    def test_timeout_exits_5(self, tmp_path):
        res = run_cli("analyze", write_coxeter_d5(tmp_path / "d5.json"),
                      "--all", "--timeout", "0.3")
        assert res.returncode == 5
        assert "timed out" in res.stdout

    def test_timeout_in_the_squarefree_test_names_its_stage(self, tmp_path):
        # the squarefree test's Groebner basis reads the deadline, so the
        # timeout is not first noticed at the next stage
        res = run_cli("analyze",
                      write_coxeter_b5_times_x1(tmp_path / "b5x1.json"),
                      "--timeout", "0.05")
        assert res.returncode == 5
        assert "error at stage divisor: timed out" in res.stdout

    def test_timeout_works_outside_the_main_thread(self, capsys, tmp_path):
        from logdiv import cli

        path = write_coxeter_d5(tmp_path / "d5.json")
        codes = []
        worker = threading.Thread(target=lambda: codes.append(cli.main([
            "analyze", path, "--all", "--timeout", "0.3"])))
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        assert codes == [5]
        assert "timed out" in capsys.readouterr().out

    def test_degree_past_the_packed_field_exits_5(self, tmp_path):
        path = tmp_path / "doc.json"
        write_doc(path, {"label": "big", "variables": ["x", "y"],
                         "f": "x^32768 + y^2"})
        res = run_cli("analyze", str(path))
        assert res.returncode == 5
        assert ("error at stage divisor: degree 32768 exceeds the largest"
                " packed degree 32767") in res.stdout
        assert "Traceback" not in res.stderr

    def test_budget_env_override_exits_5(self):
        res = run_cli("analyze", os.path.join(CORPUS, "discriminant-234.json"),
                      env_extra={"LOGDIV_BUDGET": "1"})
        assert res.returncode == 5

    def test_budget_is_one_per_analysis(self):
        # the default analysis spends 325 steps, no stage more than 123:
        # parsing f 31, the divisor stage's line 66, the basis stage's
        # syzygy run and Saito search 123, classify 42 and the Koszul test
        # 63; only a budget shared by the calls runs out
        res = run_cli("analyze", os.path.join(CORPUS, "discriminant-234.json"),
                      env_extra={"LOGDIV_BUDGET": "250"})
        assert res.returncode == 5
        assert "step budget of 250 exhausted" in res.stdout

    def test_structure_constants_are_charged_to_the_classify_stage(self):
        # the default analysis runs out in the classify stage, on the
        # brackets and kernels of its connection conditions, with any
        # budget from 220 to 261 steps: below it the basis stage runs out,
        # above it the Koszul test; 241 is the middle of that window
        res = run_cli("analyze", os.path.join(CORPUS, "discriminant-234.json"),
                      env_extra={"LOGDIV_BUDGET": "241"})
        assert res.returncode == 5
        assert ("error at stage classify: step budget of 241 exhausted"
                in res.stdout)

    def test_huge_power_is_refused_before_it_is_expanded(self, tmp_path):
        path = tmp_path / "doc.json"
        write_doc(path, {"label": "p", "variables": ["x", "y"],
                         "f": "(x+y)^1000000"})
        res = run_cli("analyze", str(path),
                      env_extra={"LOGDIV_BUDGET": "100000"})
        assert res.returncode == 5
        assert "f: step budget of 100000 exhausted" in res.stderr

    def test_product_is_charged_before_it_is_expanded(self, tmp_path):
        # eight binomial factors multiply out to 256 terms; the last
        # product alone would cost 256 steps
        path = tmp_path / "doc.json"
        ring = [f"x{i}" for i in range(1, 17)]
        write_doc(path, {"label": "p", "variables": ring,
                         "f": "*".join(f"({a}+{b})" for a, b
                                       in zip(ring[::2], ring[1::2]))})
        res = run_cli("analyze", str(path),
                      env_extra={"LOGDIV_BUDGET": "300"})
        assert res.returncode == 5
        assert "f: step budget of 300 exhausted" in res.stderr

    def test_bad_budget_value_rejected(self):
        res = run_cli("analyze", os.path.join(CORPUS, "nc-2.json"),
                      env_extra={"LOGDIV_BUDGET": "many"})
        assert res.returncode == 2

    @pytest.mark.parametrize("command", ["analyze", "corpus-run"])
    @pytest.mark.parametrize("flags, budget, message", [
        (["--timeout", "nan"], None, "--timeout must be a positive finite"),
        (["--timeout", "0"], None, "--timeout must be a positive finite"),
        (["--timeout", "-1"], None, "--timeout must be a positive finite"),
        (["--timeout", "inf"], None, "--timeout must be a positive finite"),
        ([], "-3", "LOGDIV_BUDGET must be a positive integer, got '-3'"),
        ([], "0", "LOGDIV_BUDGET must be a positive integer, got '0'"),
    ], ids=["timeout-nan", "timeout-0", "timeout-negative", "timeout-inf",
            "budget-negative", "budget-0"])
    def test_limits_out_of_range_exit_2(self, command, flags, budget, message,
                                        monkeypatch, capsys, tmp_path):
        # such a limit used to run with no deadline (nan, 0) or to stop
        # at once with exit 5 (a negative timeout or budget)
        from logdiv import cli

        for name in ("nc-2.json", "nc-2.expected.json"):
            shutil.copy(os.path.join(CORPUS, name), tmp_path / name)
        target = tmp_path / "nc-2.json" if command == "analyze" else tmp_path
        if budget is None:
            monkeypatch.delenv("LOGDIV_BUDGET", raising=False)
        else:
            monkeypatch.setenv("LOGDIV_BUDGET", budget)
        assert cli.main([command, str(target), *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_deeply_nested_f_is_an_input_error(self, tmp_path):
        path = tmp_path / "doc.json"
        write_doc(path, {"label": "deep", "variables": ["x", "y"],
                         "f": "(" * 3000 + "x*y" + ")" * 3000})
        res = run_cli("analyze", str(path))
        assert res.returncode == 2
        assert "error: f: parentheses nested deeper than 100" in res.stderr
        assert "Traceback" not in res.stderr

    def test_internal_inconsistency_exits_6(self, monkeypatch, capsys,
                                            tmp_path):
        from logdiv import cli

        monkeypatch.setattr(cli, "is_koszul", _inconsistent)
        out = tmp_path / "report.json"
        code = cli.main(["analyze", os.path.join(CORPUS, "nc-2.json"),
                         "--json", str(out)])
        assert code == 6
        assert ("error at stage koszul: internal inconsistency: symbol "
                "ideal lost a generator") in capsys.readouterr().out
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["error"] == {
            "stage": "koszul",
            "message": "internal inconsistency: symbol ideal lost a generator",
        }
        # the stages before koszul are in the partial report
        assert report["profile"]["free"] is True
        assert report["profile"]["linear"] is True
        assert report["profile"]["koszul"] == "not computed"

    def test_deeply_nested_json_is_an_input_error(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        res = run_cli("analyze", str(path))
        assert res.returncode == 2
        assert "nests JSON too deeply" in res.stderr
        assert "Traceback" not in res.stderr


class TestCorpusRun:
    def test_full_corpus_is_green(self):
        res = run_cli("corpus-run", CORPUS)
        assert res.returncode == 0, res.stdout
        lines = res.stdout.splitlines()
        assert lines[-1] == "14 corpus entries, 0 mismatched"
        labels = [ln.split()[0] for ln in lines[:-1]]
        assert labels == sorted(labels)
        assert all(ln.split()[1] == "ok" for ln in lines[:-1])

    def test_empty_directory(self, tmp_path):
        res = run_cli("corpus-run", str(tmp_path))
        assert res.returncode == 0
        assert "0 corpus entries" in res.stdout

    def test_corrupted_golden_names_the_field(self, tmp_path):
        for name in ("nc-2.json", "nc-2.expected.json"):
            shutil.copy(os.path.join(CORPUS, name), tmp_path / name)
        golden_path = tmp_path / "nc-2.expected.json"
        with open(golden_path, encoding="utf-8") as fh:
            golden = json.load(fh)
        golden["ft1"]["dimension"] = 7
        write_doc(golden_path, golden)
        res = run_cli("corpus-run", str(tmp_path))
        assert res.returncode == 1
        assert "MISMATCH" in res.stdout
        assert "ft1.dimension" in res.stdout
        assert "1 mismatched" in res.stdout

    def test_missing_golden_is_a_mismatch(self, tmp_path):
        shutil.copy(os.path.join(CORPUS, "nc-2.json"), tmp_path / "nc-2.json")
        res = run_cli("corpus-run", str(tmp_path))
        assert res.returncode == 1
        assert "expected report file missing" in res.stdout

    @pytest.mark.parametrize("golden", ["{ not json", b"\xff\xfe", None],
                             ids=["malformed", "not-utf-8", "directory"])
    def test_unreadable_golden_is_a_mismatch(self, tmp_path, golden):
        shutil.copy(os.path.join(CORPUS, "nc-2.json"), tmp_path / "nc-2.json")
        golden_path = tmp_path / "nc-2.expected.json"
        if golden is None:
            golden_path.mkdir()
        elif isinstance(golden, bytes):
            golden_path.write_bytes(golden)
        else:
            golden_path.write_text(golden)
        res = run_cli("corpus-run", str(tmp_path))
        assert res.returncode == 1
        assert res.stdout.splitlines() == [
            "nc-2                     MISMATCH  expected report unreadable",
            "1 corpus entries, 1 mismatched"]
        assert "Traceback" not in res.stderr

    def test_timeout_is_per_entry(self, tmp_path):
        # the heavy entry runs twice (files run as d5, nc-2, copy): each
        # run gets its own deadline, and the light entry between them is
        # not touched by either. Nothing is known of the heavy report but
        # that it is cut, so its stored report is empty.
        for name in ("nc-2.json", "nc-2.expected.json"):
            shutil.copy(os.path.join(CORPUS, name), tmp_path / name)
        for prefix in ("d5", "zz-copy-of-d5"):
            write_coxeter_d5(tmp_path / f"{prefix}.json")
            write_doc(tmp_path / f"{prefix}.expected.json", {})
        res = run_cli("corpus-run", str(tmp_path), "--timeout", "0.3")
        assert res.returncode == 1
        *heavy, light, total = res.stdout.splitlines()
        assert len(heavy) == 2
        for line in heavy:
            assert line.startswith("coxeter-D5               MISMATCH  ")
            assert "error (unexpected)" in line
        assert light == "nc-2                     ok"
        assert total == "3 corpus entries, 2 mismatched"

    def test_internal_inconsistency_is_a_mismatch(self, monkeypatch, capsys,
                                                  tmp_path):
        from logdiv import cli

        for stem in ("lines-3", "nc-2"):
            for name in (f"{stem}.json", f"{stem}.expected.json"):
                shutil.copy(os.path.join(CORPUS, name), tmp_path / name)
        monkeypatch.setattr(cli, "is_koszul", _inconsistent)
        assert cli.main(["corpus-run", str(tmp_path)]) == 1
        out = capsys.readouterr()
        *entries, total = out.out.splitlines()
        assert [ln.split()[:2] for ln in entries] == [
            ["lines-3", "MISMATCH"], ["nc-2", "MISMATCH"]]
        for line in entries:
            assert "error (unexpected)" in line
            assert "profile.koszul" in line
        assert total == "2 corpus entries, 2 mismatched"
        assert "Traceback" not in out.err

    def test_timings_are_ignored(self, tmp_path):
        for name in ("nc-2.json", "nc-2.expected.json"):
            shutil.copy(os.path.join(CORPUS, name), tmp_path / name)
        golden_path = tmp_path / "nc-2.expected.json"
        with open(golden_path, encoding="utf-8") as fh:
            golden = json.load(fh)
        golden["timings"] = {"made": "up"}
        golden["profile"]["timings"] = [1, 2]  # skipped at any depth
        write_doc(golden_path, golden)
        res = run_cli("corpus-run", str(tmp_path))
        assert res.returncode == 0


class TestOneVariable:
    def test_line_in_the_line_is_linear_reductive_and_rigid(self, tmp_path):
        path = tmp_path / "i.json"
        write_doc(path, {"label": "i", "variables": ["x"], "f": "x"})
        out = tmp_path / "report.json"
        res = run_cli("analyze", str(path), "--all", "--json", str(out))
        assert res.returncode == 0, res.stderr
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["profile"]["linear"] is True
        assert report["profile"]["reductive"] is True
        assert report["ft1"]["dimension"] == 0
        assert report["lft1"]["dimension"] == 0


class TestInhomogeneousSuppliedBasis:
    """A verified Saito basis of normal crossings whose second field,
    x^2*d_x + y*d_y, is not homogeneous: lft1 grades it first."""

    DOC = {"label": "nc-inhomogeneous", "variables": ["x", "y"], "f": "x*y",
           "saito_matrix": [["x", "x^2"], ["0", "y"]]}

    @pytest.mark.parametrize("flag", ["--lft1", "--all"])
    def test_analyze_grades_the_basis(self, flag, tmp_path):
        path = tmp_path / "doc.json"
        write_doc(path, self.DOC)
        out = tmp_path / "report.json"
        res = run_cli("analyze", str(path), flag, "--json", str(out))
        assert res.returncode == 0, res.stderr
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["lft1"]["dimension"] == 0
        if flag == "--all":
            assert report["profile"]["linear"] is True
            assert report["profile"]["reductive"] is True
            assert report["ft1"]["dimension"] == 0

    def test_corpus_run_reports_the_entry(self, tmp_path):
        write_doc(tmp_path / "doc.json", self.DOC)
        res = run_cli("corpus-run", str(tmp_path))
        assert "Traceback" not in res.stderr
        assert res.returncode == 1
        assert res.stdout.splitlines() == [
            "nc-inhomogeneous         MISMATCH  expected report file missing",
            "1 corpus entries, 1 mismatched",
        ]
        res = run_cli("analyze", str(tmp_path / "doc.json"), "--all",
                      "--json", str(tmp_path / "doc.expected.json"))
        assert res.returncode == 0, res.stderr
        res = run_cli("corpus-run", str(tmp_path))
        assert res.returncode == 0, res.stdout
        assert res.stdout.splitlines()[-1] == "1 corpus entries, 0 mismatched"


class TestDeformationComplexIsBuiltOnce:
    """ft1, lft1 and h0 read one memoized report per (basis, grading), so a
    linear divisor graded by (1, ..., 1) builds a single slice complex."""

    @staticmethod
    def count_constructions(monkeypatch):
        from logdiv import cohomology

        built = []
        original = cohomology.SliceComplex.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(cohomology.SliceComplex, "__init__", counting_init)
        return built

    @pytest.mark.parametrize("name", ["nc-3", "quartic-cross"])
    def test_one_slice_complex_per_analysis(self, name, monkeypatch):
        from logdiv import cli

        built = self.count_constructions(monkeypatch)
        doc = cli.load_document(os.path.join(CORPUS, f"{name}.json"))
        report = cli.analyze_document(doc, cli.ALL_STAGES)
        assert len(built) == 1
        with open(os.path.join(CORPUS, f"{name}.expected.json"),
                  encoding="utf-8") as fh:
            golden = json.load(fh)
        assert strip_timings(report) == strip_timings(golden)

    def test_h0_uses_the_graded_basis_of_ft1(self, monkeypatch):
        # the supplied basis is not homogeneous: ft1 and h0 both read the
        # one report of its memoized graded basis
        from logdiv import cli

        built = self.count_constructions(monkeypatch)
        doc = {"label": "inhomogeneous-basis", "variables": ["x", "y"],
               "f": "x*y", "saito_matrix": [["x", "x^2"], ["0", "y"]]}
        report = cli.analyze_document(doc, {"ft1"})
        assert report["profile"]["field_weights"] is None
        assert report["ft1"]["dimension"] == 0
        assert report["h0"] == 0
        assert len(built) == 1

    def test_lft1_alone_builds_no_ft1_complex(self, monkeypatch):
        # quartic-cross is not linear: lft1 is refused, and h0 and the
        # bound, which read ft1's report, are not computed
        from logdiv import cli

        built = self.count_constructions(monkeypatch)
        doc = cli.load_document(os.path.join(CORPUS, "quartic-cross.json"))
        report = cli.analyze_document(doc, {"lft1"})
        assert report["lft1"] == {"status": "refused: not a linear free divisor"}
        assert report["ft1"] == report["h0"] == report["bounds"] \
            == "not computed"
        assert built == []


class TestArtefactsComputedOnce:
    def test_structure_constants_and_weight_zero_parts(self, monkeypatch):
        # the supplied basis is its own weight-zero part: g_D, the trace
        # test and lft1 need no syzygies and no basis search, and the
        # structure constants and deformed equations share one adjugate
        from logdiv import cli, cohomology, groebner, logder, poly

        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        adjugate = poly.PolyMatrix.adjugate

        def counting_adjugate(self):
            if self._adj is None:
                calls.append("adjugate built")
            return adjugate(self)

        monkeypatch.setattr(poly.PolyMatrix, "adjugate", counting_adjugate)
        for mod, name in ((logder, "structure_constants"),
                          (logder, "find_saito_basis"),
                          (logder, "_select_saito_basis"),
                          (cli, "_select_saito_basis"),
                          (logder, "saito_basis"),
                          (cohomology, "saito_basis"),
                          (logder, "der_log_stream"),
                          (cli, "der_log_stream"),
                          (groebner, "syzygies"),
                          (groebner, "syzygy_stream"),
                          (groebner, "_syzygy_stream"),
                          (logder, "_syzygy_stream")):
            monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
        doc = cli.load_document(os.path.join(CORPUS, "linear-nonreductive-5.json"))
        report = cli.analyze_document(doc, cli.ALL_STAGES)
        assert report["profile"]["linear"] is True
        assert report["lft1"]["dimension"] == 1
        assert calls.count("structure_constants") == 1
        assert calls.count("adjugate built") == 1
        assert calls.count("find_saito_basis") == 0
        assert calls.count("_select_saito_basis") == 0
        assert calls.count("syzygies") == 0
        assert calls.count("saito_basis") == 0
        assert calls.count("der_log_stream") == 0
        assert calls.count("syzygy_stream") == 0
        assert calls.count("_syzygy_stream") == 0

    @pytest.mark.parametrize("name, h1", [("linear-nonreductive-5", 1),
                                          ("nc-4", 0)])
    def test_equations_are_formed_for_the_cohomology_only(self, name, h1,
                                                          monkeypatch):
        # ft1 drops the vectors of ker d1 that depend on im d0 and on the
        # vectors kept before them, so representative selection forms h1
        # deformed equations, not one per kernel vector (21 and 12 here);
        # one more checks that a coboundary has zero class
        from logdiv import cli, cohomology

        callers = []
        equation = cohomology.deformation_equation

        def counting(*args):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension
                frame = frame.f_back
            callers.append(frame.f_code.co_name)
            return equation(*args)

        monkeypatch.setattr(cohomology, "deformation_equation", counting)
        doc = cli.load_document(os.path.join(CORPUS, f"{name}.json"))
        report = cli.analyze_document(doc, cli.ALL_STAGES)
        assert report["ft1"]["dimension"] == report["lft1"]["dimension"] == h1
        assert callers.count("_select_representatives") == h1
        assert callers.count("_check_coboundary_class") == 1
        assert len(callers) == h1 + 1

    @pytest.mark.parametrize("name, counted, calls", [
        ("linear-nonreductive-5", "lie_bracket", 10),
        ("four-lines-nonkoszul", "detect_weight_system", 1)],
        ids=["brackets", "weight-search"])
    def test_run_once_per_analysis(self, name, counted, calls, monkeypatch):
        # with every stage, each of the C(5, 2) brackets [delta_i, delta_j]
        # of the basis is formed once for g_D, the connection conditions
        # and ft1's structure constants; the weight search runs once, in
        # the grading stage, also when it finds no weights
        from logdiv import cli, cohomology, logder, poly

        seen = []

        def counting(fn):
            def counted_fn(*args):
                seen.append(args)
                return fn(*args)
            return counted_fn

        for mod in (cli, cohomology, logder, poly):
            if hasattr(mod, counted):
                monkeypatch.setattr(mod, counted,
                                    counting(getattr(mod, counted)))
        doc = cli.load_document(os.path.join(CORPUS, f"{name}.json"))
        cli.analyze_document(doc, cli.ALL_STAGES)
        assert len(seen) == calls

    def test_saito_matrix_minors_are_formed_once(self, monkeypatch):
        # coxeter-B4's analysis with every stage builds one table of the
        # Saito matrix's minors, in the basis stage's determinant test;
        # ft1's adjugate reads the column-suffix minors the determinant
        # expanded from it, no minor is formed twice, and the memo is
        # emptied once the adjugate is built
        from logdiv import cli, logder, poly

        tables, formed, reused = [], [], []
        stage = ["basis"]
        init, minor = poly.PolyMatrix.__init__, poly.PolyMatrix._minor
        structure_constants = logder.structure_constants

        def counting_init(self, rows):
            tables.append(self)
            init(self, rows)

        def counting_minor(self, rows, cols, budget):
            if len(rows) > 1:
                seen = (rows, cols) in self._memo
                (reused if seen else formed).append((stage[0], rows, cols))
            return minor(self, rows, cols, budget)

        def ft1_stage(basis):
            stage[0] = "ft1"
            return structure_constants(basis)

        monkeypatch.setattr(poly.PolyMatrix, "__init__", counting_init)
        monkeypatch.setattr(poly.PolyMatrix, "_minor", counting_minor)
        monkeypatch.setattr(logder, "structure_constants", ft1_stage)
        report = cli.analyze_document(coxeter_b4(), cli.ALL_STAGES)
        assert report["profile"]["field_weights"] == [0, 2, 4, 6]
        assert len(tables) == 1 and tables[0]._memo == {}
        keys = [(rows, cols) for _, rows, cols in formed]
        assert len(set(keys)) == len(keys)
        suffixes = {(rows, cols) for s, rows, cols in formed if s == "basis"}
        assert all(cols == tuple(range(4 - len(cols), 4))
                   for _, cols in suffixes)
        assert {(rows, cols) for s, rows, cols in reused
                if s == "ft1"} & suffixes
        assert any(s == "ft1" for s, _, _ in formed)

    def test_default_analysis_builds_no_adjugate(self, monkeypatch):
        # coxeter-B4's connection conditions stop at the first bracket
        # outside the Q-span of its basis, found by a kernel: no adjugate
        # is built, and no exact division runs after the basis stage
        from logdiv import cli, groebner, logder, poly

        calls = []
        basis_done = []
        select = cli._select_saito_basis
        adjugate, divide = poly.PolyMatrix.adjugate, groebner._divide

        def counting_select(*args):
            try:
                return select(*args)
            finally:
                basis_done.append(True)

        def counting_adjugate(self):
            calls.append("adjugate")
            return adjugate(self)

        def counting_divide(*args):
            if basis_done:
                calls.append("_divide")
            return divide(*args)

        monkeypatch.setattr(cli, "_select_saito_basis", counting_select)
        monkeypatch.setattr(poly.PolyMatrix, "adjugate", counting_adjugate)
        monkeypatch.setattr(groebner, "_divide", counting_divide)
        monkeypatch.setattr(logder, "_divide", counting_divide)
        report = cli.analyze_document(coxeter_b4(), ("classify", "koszul"))
        assert report["profile"]["connection_conditions"] == [False, False]
        assert basis_done and calls == []

    def test_one_groebner_basis_per_analysis(self, monkeypatch):
        # ft1, lft1, h0 and the bounds read one linear-algebra class
        # space; only the dimension test of the Koszul test runs a
        # Groebner basis, the signature-based run, as a line certifies f
        # squarefree, and no Buchberger run is made
        from logdiv import cli, groebner

        callers = []

        def counting(run):
            def counted(*args, **kwargs):
                callers.append((run.__name__, sys._getframe(1).f_code.co_name))
                return run(*args, **kwargs)
            return counted

        for name in ("_run_buchberger", "_signature_leads"):
            monkeypatch.setattr(groebner, name,
                                counting(getattr(groebner, name)))
        doc = cli.load_document(os.path.join(CORPUS, "linear-nonreductive-5.json"))
        report = cli.analyze_document(doc, cli.ALL_STAGES)
        assert callers == [("_signature_leads", "dimension_at_most")]
        with open(os.path.join(CORPUS, "linear-nonreductive-5.expected.json"),
                  encoding="utf-8") as fh:
            golden = json.load(fh)
        assert strip_timings(report) == strip_timings(golden)

    @pytest.mark.parametrize("name,ft1_dim,signature_runs", [
        ("discriminant-234", 0, 0),  # the basis is found by the search
        ("linear-nonreductive-5", 1, 0),  # the supplied matrix is verified
    ], ids=["discriminant-234", "linear-nonreductive-5"])
    def test_squarefree_is_checked_once(self, name, ft1_dim, signature_runs,
                                        monkeypatch):
        # in the divisor stage, by is_squarefree, whose first line
        # certifies f; the basis stage after it does not repeat it. No
        # dimension test with k = n - 2 (the Koszul test's has k = n, in
        # 2n variables) and no signature-based run on (f, grad f) is made
        from logdiv import cli, groebner, logder

        calls, lines, jacobian_runs = [], [], []
        certify, signature_leads = groebner._certify, groebner._signature_leads
        is_squarefree, on_line = logder.is_squarefree, logder._on_line

        def counting(leads, k, lay, budget):
            if k == lay.n - 2:
                calls.append(k)
            return certify(leads, k, lay, budget)

        def counting_squarefree(f):
            calls.append("is_squarefree")
            return is_squarefree(f)

        def counting_lines(*args):
            lines.append(on_line(*args))
            return lines[-1]

        def counting_runs(gens, budget, lay):
            if len(gens) == lay.n + 1:  # n + 1 generators in n variables
                jacobian_runs.append(gens)
            return signature_leads(gens, budget, lay)

        monkeypatch.setattr(groebner, "_certify", counting)
        monkeypatch.setattr(groebner, "_signature_leads", counting_runs)
        monkeypatch.setattr(logder, "is_squarefree", counting_squarefree)
        monkeypatch.setattr(logder, "_on_line", counting_lines)
        doc = cli.load_document(os.path.join(CORPUS, f"{name}.json"))
        report = cli.analyze_document(doc, cli.ALL_STAGES)
        assert report["ft1"]["dimension"] == ft1_dim
        assert calls == ["is_squarefree"] and lines == [True]
        assert len(jacobian_runs) == signature_runs

    @pytest.mark.parametrize("name", [
        "discriminant-234",  # (f, grad f) not homogeneous: one whole run
        "four-lines-nonkoszul",  # not weighted homogeneous: subset search
        "coxeter-B4",  # graded: the run stops at the basis's degree
        "generic-4"])  # not free: the whole run, then exit 4
    def test_one_groebner_run_of_the_jacobian_ideal(self, name, monkeypatch):
        # a search-path analysis makes one Groebner run on (f, grad f),
        # the tracked syzygy run, whose rows the basis stage reads; a
        # line certifies f squarefree, so no signature-based run is made
        from logdiv import cli, groebner, logder
        from logdiv.poly import poly_from_text

        runs, streams = [], []
        run_buchberger, signature_leads = (groebner._run_buchberger,
                                           groebner._signature_leads)
        syzygy_stream = logder._syzygy_stream

        def tracked(gens, budget, units, lay):
            runs.append(("buchberger", list(gens)))
            return run_buchberger(gens, budget, units, lay)

        def signature(gens, budget, lay):
            runs.append(("signature", list(gens)))
            return signature_leads(gens, budget, lay)

        def stream(*args):
            streams.append(args)
            return syzygy_stream(*args)

        monkeypatch.setattr(groebner, "_run_buchberger", tracked)
        monkeypatch.setattr(groebner, "_signature_leads", signature)
        monkeypatch.setattr(logder, "_syzygy_stream", stream)
        if name == "coxeter-B4":
            doc = coxeter_b4()
        elif name == "generic-4":
            doc = {"label": name, "variables": ["x", "y", "z"],
                   "f": "x*y*z*(x+y+z)"}
        else:
            doc = cli.load_document(os.path.join(CORPUS, f"{name}.json"))
        try:
            cli.analyze_document(doc, ("classify", "koszul"))
        except cli.StageFailure as e:
            assert (e.code, e.stage) == (4, "basis")
        ring = tuple(doc["variables"])
        _, jacobian = logder._jacobian(poly_from_text(doc["f"], ring))
        assert [kind for kind, gens in runs if gens == jacobian] \
            == ["buchberger"]
        assert len(streams) == 1


class TestBasisStageBudget:
    """The divisor stage certifies f reduced on a line, with no Groebner
    run; the basis stage stops the syzygy run of a graded free divisor
    once its basis is found, and other inputs spend what the whole run
    spends."""

    @staticmethod
    def analyze(doc, monkeypatch):
        """(failure, steps, basis_steps, divisor_steps) of the default
        analysis: the failure's (code, stage, message) or None, the steps
        spent, those spent in each call of the basis search and those in
        each call of the divisor stage's check."""
        from logdiv import cli
        from logdiv.errors import Budget

        basis_steps, divisor_steps = [], []

        def counting(original, spent):
            def counted(*args):
                left = budget.left
                try:
                    return original(*args)
                finally:
                    spent.append(left - budget.left)
            return counted

        monkeypatch.setattr(cli, "_select_saito_basis",
                            counting(cli._select_saito_basis, basis_steps))
        monkeypatch.setattr(cli, "_check_divisor",
                            counting(cli._check_divisor, divisor_steps))
        failure = None
        with Budget(10**9) as budget:
            try:
                cli.analyze_document(doc, ("classify", "koszul"))
            except cli.StageFailure as e:
                failure = (e.code, e.stage, e.message)
        return failure, budget.steps - budget.left, basis_steps, divisor_steps

    @pytest.mark.parametrize("name, steps, divisor", [
        ("braid-A3", 657, 210), ("coxeter-B3", 118, 150),
        ("coxeter-D4", 610, 468)],
        ids=["braid-A3", "coxeter-B3", "coxeter-D4"])
    def test_graded_arrangements_stop_early(self, name, steps, divisor,
                                            monkeypatch):
        # the basis stage's steps, the run's to the basis's degree and the
        # search's, stay below those of the whole run and the search; the
        # divisor stage's are its line's, and no part of the run
        from logdiv.errors import Budget
        from logdiv.logder import _select_saito_basis, der_log_stream
        from logdiv.poly import detect_weight_system, poly_to_text
        from conftest import coxeter_gens

        f = coxeter_gens(name)[0]
        doc = {"label": name, "variables": list(f.ring), "f": poly_to_text(f)}
        failure, _, basis_steps, divisor_steps = self.analyze(doc, monkeypatch)
        assert failure is None and basis_steps == [steps]
        assert divisor_steps == [divisor]
        with Budget(10**9) as full:
            fields = [v for _, batch in der_log_stream(f) for v in batch]
            _select_saito_basis([(None, fields)], f, detect_weight_system(f))
        assert steps < full.steps - full.left

    @pytest.mark.parametrize("name, divisor, basis", [
        ("coxeter-B5", 3770, 9283), ("braid-A5-essential", 2160, 8662)],
        ids=["coxeter-B5", "braid-A5-essential"])
    def test_frontier_divisor_stage_makes_no_run(self, name, divisor, basis,
                                                 monkeypatch):
        # the divisor stage spends its first line's (terms + d) * (d + 1)
        # steps, d = deg f: B5 has 120 terms of degree 25, braid A5 in
        # its essential form 120 of degree 15; the basis stage pulls the
        # syzygy run only to the degree its basis needs
        pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
        e = "^2" if name == "coxeter-B5" else ""
        doc = {"label": name, "variables": [f"x{i}" for i in range(1, 6)],
               "f": "x1*x2*x3*x4*x5*" + "*".join(f"(x{i}{e}-x{j}{e})"
                                                 for i, j in pairs)}
        failure, _, basis_steps, divisor_steps = self.analyze(doc, monkeypatch)
        assert failure is None
        assert (divisor_steps, basis_steps) == ([divisor], [basis])

    def test_only_the_tested_fields_become_polynomials(self, monkeypatch):
        # coxeter-B4: the syzygy rows and the weight parts stay packed, so
        # the basis stage unflattens the n fields handed to the
        # determinant test and the unit it returns, and nothing else
        from logdiv import cli, groebner, logder, poly

        staged, unflattened, tested = [], [], []
        unflatten, determinant_test = poly._unflatten, logder._determinant_test
        select = cli._select_saito_basis

        def counting_unflatten(*args):
            if staged:
                unflattened.append(args[2])  # the rank
            return unflatten(*args)

        def counting_test(fields, f, *jacobian):
            res = determinant_test(fields, f, *jacobian)
            tested.append((len(fields), bool(res)))
            return res

        def stage(*args):
            staged.append(True)
            try:
                return select(*args)
            finally:
                staged.pop()

        for mod in (poly, groebner, logder):
            monkeypatch.setattr(mod, "_unflatten", counting_unflatten)
        monkeypatch.setattr(logder, "_determinant_test", counting_test)
        monkeypatch.setattr(cli, "_select_saito_basis", stage)
        report = cli.analyze_document(coxeter_b4(), ("classify",))
        assert sorted(report["profile"]["field_weights"]) == [0, 2, 4, 6]
        assert tested == [(4, True)]
        assert sorted(unflattened) == [1, 5, 5, 5, 5]

    @pytest.mark.parametrize("name, steps", [
        ("discriminant-234", 325),  # weighted, but (f, grad f) not homogeneous
        ("curve-x5y4", 79),
        ("four-lines-nonkoszul", 449)],  # not weighted homogeneous
        ids=["discriminant-234", "curve-x5y4", "four-lines-nonkoszul"])
    def test_inhomogeneous_generators_spend_the_whole_run(self, name, steps,
                                                          monkeypatch):
        from logdiv import cli

        doc = cli.load_document(os.path.join(CORPUS, f"{name}.json"))
        assert self.analyze(doc, monkeypatch)[:2] == (None, steps)

    @pytest.mark.parametrize("f, steps, size", [
        ("x*y*z*(x+y+z)", 71, 4), ("x*y*z*(x+y+z)*(x+2*y+3*z)", 157, 5)],
        ids=["generic-4", "generic-5"])
    def test_not_free_reads_the_whole_run(self, f, steps, size, monkeypatch):
        doc = {"label": "generic", "variables": ["x", "y", "z"], "f": f}
        message = f"graded minimal generating set has {size} elements, need 3"
        assert self.analyze(doc, monkeypatch)[:2] \
            == ((4, "basis", message), steps)
