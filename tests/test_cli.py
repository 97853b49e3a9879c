import argparse
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import jugglerfrieze
from jugglerfrieze import (Matrix, PeriodicFrieze, build_frieze_det,
                           format_siteswap, residue)
from jugglerfrieze import cli
from jugglerfrieze.cli import main, render_frieze

import fixture_data as fx
from exact_oracles import dual_failure
from samplers import UNIMODULAR_POOL, random_determinant_one

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in (("matrix", fx.UNIMOD_4x8), ("consec", fx.CONSEC_3x8),
                      ("frieze", fx.JUG_FRIEZE), ("classic", fx.SL3_H5),
                      ("identity", fx.IDENTITY_FRIEZE_3)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj.to_json()))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_siteswap_report(capsys):
    code, out = run(capsys, "siteswap", "53635514")
    assert code == 0
    assert "dual      23345357" in out
    assert "balls     4" in out
    assert "L1: 1 2 3 4" in out


def test_siteswap_identity(capsys):
    code, out = run(capsys, "siteswap", "000")
    assert code == 0
    assert "balls     0" in out
    assert "loops     [1, 2, 3]" in out


def test_siteswap_necklace_table(capsys):
    code, out = run(capsys, "siteswap", "23345357")
    assert code == 0
    for a, sched in enumerate(fx.NECKLACE_23345357, start=1):
        assert f"L{a}: " + " ".join(str(b) for b in sched) in out


def test_siteswap_invalid_exits_2(capsys):
    assert run(capsys, "siteswap", "53535")[0] == 2


def test_siteswap_non_ascii_digits_exit_2(capsys):
    # str.isdigit accepts superscripts and other scripts' digits
    for pattern in ("\u00b2", "3\u00b2", "\u0663", "3,\u00b2"):
        assert main(["siteswap", pattern]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_siteswap_bad_throw_message_is_short(capsys):
    # the first bad throw is named by its position and a short prefix,
    # not by echoing the whole argument
    assert main(["siteswap", "1," + "9" * 100_000 + "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert len(captured.err.encode()) < 200


def test_check_pass_fail_malformed(capsys, files, tmp_path):
    code, out = run(capsys, "check", files["frieze"])
    assert code == 0
    payload = json.loads(out)
    assert payload["is_frieze"] and payload["prefrieze_ok"] and payload["positive"]

    doc = json.loads(pathlib.Path(files["frieze"]).read_text())
    doc["columns"]["1"][2] = 99
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(corrupted))
    assert code == 1
    failures = json.loads(out)["frieze_failures"]
    assert failures and {"a", "b", "det"} <= set(failures[0])

    broken = tmp_path / "broken.json"
    broken.write_text("{this is not json")
    assert run(capsys, "check", str(broken))[0] == 2


def test_construct_methods_byte_identical(capsys, files):
    code, det_out = run(capsys, "construct", files["matrix"],
                        "--siteswap", "23345357", "--method", "det")
    assert code == 0
    code, twist_out = run(capsys, "construct", files["matrix"],
                          "--siteswap", "23345357", "--method", "twist",
                          "--verify")
    assert code == 0
    assert det_out == twist_out
    assert json.loads(det_out) == fx.JUG_FRIEZE.to_json()


def test_construct_verify_certifies_once(capsys, files, monkeypatch):
    # the twist route certifies the matrix and builds the one frieze;
    # one reader checks each of its free entries against its minor
    calls, fills, readers, entries = [], [], [], []
    certify = jugglerfrieze.construct.is_pi_unimodular
    fill = jugglerfrieze.construct._fill_skeleton
    reader = jugglerfrieze.cli.frieze_entries

    def counted(m, pi):
        calls.append(pi)
        return certify(m, pi)

    def counted_reader(m, pi):
        readers.append(1)
        entry = reader(m, pi)
        return lambda a, b: entries.append(1) or entry(a, b)

    monkeypatch.setattr(jugglerfrieze.construct, "is_pi_unimodular", counted)
    monkeypatch.setattr(jugglerfrieze.construct, "_fill_skeleton",
                        lambda *args: fills.append(1) or fill(*args))
    monkeypatch.setattr(jugglerfrieze.cli, "frieze_entries", counted_reader)
    free = sum(x is None for col in fx.JUG_FRIEZE.shape.skeleton()
               for x in col)
    for method in ("det", "twist"):
        code, out = run(capsys, "construct", files["matrix"], "--siteswap",
                        "23345357", "--method", method, "--verify")
        assert code == 0 and json.loads(out) == fx.JUG_FRIEZE.to_json()
        assert (len(calls), len(fills), len(readers), len(entries)) == \
            (1, 1, 1, free)
        for counts in (calls, fills, readers, entries):
            counts.clear()


def test_construct_builds_one_complement_when_2k_exceeds_n(capsys, files,
                                                          tmp_path,
                                                          monkeypatch):
    # the det route and --verify read the minors of a k x n matrix with
    # 2k > n off its positive complement, one kernel read off one greedy
    # basis per matrix however many free entries it has; with 2k <= n,
    # none
    comp = tmp_path / "comp.json"
    comp.write_text(json.dumps(
        jugglerfrieze.positive_complement(fx.CONSEC_3x8).to_json()))
    kernels = []
    kernel = jugglerfrieze.construct.chart_kernel
    monkeypatch.setattr(jugglerfrieze.construct, "chart_kernel",
                        lambda *args: kernels.append(1) or kernel(*args))
    for path, pattern, built in ((str(comp), "55555555", 1),
                                 (files["consec"], "33333333", 0)):
        for flags in (["--method", "det"], ["--verify"],
                      ["--method", "det", "--verify"]):
            assert run(capsys, "construct", path, "--siteswap", pattern,
                       *flags)[0] == 0
            assert len(kernels) == built, (pattern, flags)
            kernels.clear()


def _with_entry(c, a, b, delta):
    cols = [list(col) for col in c.columns]
    cols[b - 1][a - b] += delta
    return jugglerfrieze.PeriodicFrieze(c.shape, cols)


def test_construct_verify_names_the_differing_entry(capsys, files,
                                                    monkeypatch):
    # one route is off at the free entry (3, 1) and at a later one: the
    # message names the first, column by column, with the twist value
    # first whatever --method says; the det side is wrong through the
    # reader it reads every entry from
    x = fx.JUG_FRIEZE.entry(3, 1)
    wrong = _with_entry(_with_entry(fx.JUG_FRIEZE, 3, 1, 5), 4, 2, 1)
    for route, value, twist_x, det_x in (
            ("build_frieze_twist", lambda m, pi: wrong, x + 5, x),
            ("frieze_entries", lambda m, pi: wrong.entry, x, x + 5)):
        monkeypatch.setattr(jugglerfrieze.cli, route, value)
        for method in ("det", "twist"):
            code = main(["construct", files["matrix"], "--siteswap",
                         "23345357", "--method", method, "--verify"])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err == (f"verification failed: entry (3, 1) is "
                                    f"{twist_x} by twist and {det_x} by "
                                    f"det\n")
        monkeypatch.undo()


def test_construct_verify_names_the_dual_failure(capsys, files,
                                                 monkeypatch):
    # both routes agree on a perturbed array: the dual entry it breaks
    wrong = _with_entry(fx.JUG_FRIEZE, 3, 1, 1)
    expected = dual_failure(wrong)
    assert expected.startswith("not a frieze: dual entry ")
    monkeypatch.setattr(jugglerfrieze.cli, "build_frieze_twist",
                        lambda m, pi: wrong)
    monkeypatch.setattr(jugglerfrieze.cli, "frieze_entries",
                        lambda m, pi: wrong.entry)
    code = main(["construct", files["matrix"], "--siteswap", "23345357",
                 "--verify"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"verification failed: {expected}\n"


def test_construct_classic_strip(capsys, files):
    code, out = run(capsys, "construct", files["consec"], "--siteswap",
                    "33333333", "--verify")
    assert code == 0
    assert json.loads(out) == fx.SL3_H5.translate(5).to_json()


def test_construct_rejects_wrong_shape(capsys, files):
    assert run(capsys, "construct", files["matrix"],
               "--siteswap", "33333333")[0] == 2


def test_construct_zero_balls_twist_matches_det(capsys, tmp_path):
    # the identity pattern 000 has a 0 x 3 matrix; both routes succeed
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(fx.MATRIX_000.to_json()))
    outs = []
    for method in ("det", "twist"):
        code = main(["construct", str(zero), "--siteswap", "000",
                     "--method", method, "--verify"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        outs.append(captured.out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == build_frieze_det(
        fx.MATRIX_000, fx.IDENTITY_3).to_json()


def test_main_builds_no_parser_per_call(monkeypatch, capsys, files):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "siteswap", "53635514")[0] == 0
    assert run(capsys, "construct", files["matrix"],
               "--siteswap", "23345357")[0] == 0
    assert built == []
    jugglerfrieze.cli.build_parser()
    assert "jugglerfrieze" in built


def test_options_do_not_leak_between_calls(monkeypatch, capsys, files,
                                            tmp_path):
    checked = []
    decide = jugglerfrieze.cli._recurrence_solutions
    monkeypatch.setattr(jugglerfrieze.cli, "_recurrence_solutions",
                        lambda c: checked.append(c) or decide(c))
    out = tmp_path / "out.json"
    code, stdout = run(capsys, "construct", files["matrix"], "--siteswap",
                       "23345357", "--verify", "-o", str(out))
    assert code == 0 and stdout == "" and len(checked) == 1
    code, stdout = run(capsys, "construct", files["matrix"], "--siteswap",
                       "23345357")
    assert code == 0 and len(checked) == 1
    assert stdout == out.read_text()


def test_transform_twist_and_complement(capsys, files):
    code, out = run(capsys, "transform", files["matrix"], "--op", "twist",
                    "--siteswap", "23345357")
    assert code == 0
    assert json.loads(out) == fx.TWIST_4x8.to_json()
    code, out = run(capsys, "transform", files["matrix"], "--op", "complement")
    assert code == 0
    from jugglerfrieze import Matrix
    comp = Matrix.from_json(json.loads(out))
    assert comp.maximal_minors() == fx.COMPLEMENT_4x8.maximal_minors()


def test_transform_complement_twice_restores_minors(capsys, files, tmp_path):
    code, out = run(capsys, "transform", files["matrix"], "--op", "complement")
    once = tmp_path / "comp.json"
    once.write_text(out)
    code, out = run(capsys, "transform", str(once), "--op", "complement")
    assert code == 0
    from jugglerfrieze import Matrix
    assert (Matrix.from_json(json.loads(out)).maximal_minors()
            == fx.UNIMOD_4x8.maximal_minors())


def test_transform_inverse_twist_then_twist_restores_the_matrix(capsys,
                                                                tmp_path):
    m = random_determinant_one(random.Random(7), 3, steps=6)
    start = tmp_path / "m.json"
    start.write_text(json.dumps(m.to_json()))
    code, out = run(capsys, "transform", str(start), "--op", "inverse-twist",
                    "--siteswap", "333")
    assert code == 0
    inv = tmp_path / "inv.json"
    inv.write_text(out)
    code, out = run(capsys, "transform", str(inv), "--op", "twist",
                    "--siteswap", "333")
    assert code == 0
    assert json.loads(out) == m.to_json()


def test_transform_dual(capsys, files):
    code, out = run(capsys, "transform", files["frieze"], "--op", "dual")
    assert code == 0
    assert json.loads(out) == fx.JUG_FRIEZE_DUAL.to_json()


def test_transform_invert(capsys, files):
    code, out = run(capsys, "transform", files["classic"], "--op", "invert-F")
    assert code == 0
    from jugglerfrieze import Matrix, build_frieze_det
    m = Matrix.from_json(json.loads(out))
    assert build_frieze_det(m, fx.UNIFORM_8_3) == fx.SL3_H5


def test_solve_output(capsys, files):
    code, out = run(capsys, "solve", files["classic"])
    assert code == 0
    payload = json.loads(out)
    assert payload["period"] == 8 and payload["sign_exponent"] == 0
    assert payload["columns"]["1"] == [1, -3, 3, -1, 0, 0, 0, 0]
    code, out = run(capsys, "solve", files["classic"], "--basis", "1")
    payload = json.loads(out)
    assert payload["schedule"] == [1, 2, 3, 4, 5]
    assert set(payload["basis_columns"]) == {"1", "2", "3", "4", "5"}


@pytest.mark.parametrize("c", [
    fx.JUG_FRIEZE, fx.JUG_FRIEZE_DUAL, fx.SL3_H5, fx.IDENTITY_FRIEZE_3,
    build_frieze_det(fx.MATRIX_003, fx.PI_003),
    build_frieze_det(fx.MATRIX_4400, fx.PI_4400),
    build_frieze_det(fx.MATRIX_4130, fx.PI_4130)],
    ids=lambda c: "".join(map(str, c.shape.throws)))
def test_solve_basis_is_the_landing_schedule(c, capsys, tmp_path):
    # every start a in [-n, 2n): the schedule's residues in landing
    # order, loops and coloops included, as its definition lists them
    p = tmp_path / "frieze.json"
    p.write_text(json.dumps(c.to_json()))
    n = c.shape.period
    for a in range(-n, 2 * n):
        code, out = run(capsys, "solve", str(p), "--basis", str(a))
        assert code == 0
        payload = json.loads(out)
        sched = [residue(b, n) for b in c.shape.landing_schedule(a)]
        assert payload["schedule"] == sched
        assert payload["basis_columns"] == {
            str(r): payload["columns"][str(r)] for r in sched}


def test_solve_rejects_non_frieze(capsys, files, tmp_path):
    doc = json.loads(pathlib.Path(files["classic"]).read_text())
    doc["columns"]["2"][2] = 12345
    bad = tmp_path / "bad_frieze.json"
    bad.write_text(json.dumps(doc))
    assert run(capsys, "solve", str(bad))[0] == 1


def _render_golden(capsys, name):
    # each golden's input is committed next to it, so CI renders the
    # same bytes through the console script
    code, out = run(capsys, "render", str(DATA / f"render_{name}.json"),
                    "--periods", "2")
    assert code == 0
    assert out == (DATA / f"render_{name}.txt").read_text()


def test_render_golden(capsys):
    doc = json.loads((DATA / "render_53635514.json").read_text())
    assert PeriodicFrieze.from_json(doc) == fx.JUG_FRIEZE
    _render_golden(capsys, "53635514")


def test_render_golden_with_loop_and_coloop(capsys):
    # 4130 has a loop (4) and a coloop (1): GB marks the loop's column,
    # and the coloop's boundary lies a full period below its diagonal
    _render_golden(capsys, "4130")


RATIONAL = DATA / "rational"


@pytest.mark.parametrize(
    "case", json.loads((RATIONAL / "cases.json").read_text()),
    ids=lambda case: case["name"])
def test_rational_input_golden(case, capsysbinary, monkeypatch):
    # every benchmark input is integral; these keep a denominator in
    # each route, and matrix_mixed.json has rows over 3 and 2, so its
    # view's one lcm differs from every row's own
    monkeypatch.chdir(RATIONAL)
    code = main(case["argv"])
    captured = capsysbinary.readouterr()
    assert code == case["exit"]
    assert captured.out == (RATIONAL / f"{case['name']}.out").read_bytes()
    assert captured.err == case["stderr"].encode()
    if "not a frieze" in case["stderr"]:
        # the pinned wording is the definitional oracle's, not the program's
        c = PeriodicFrieze.from_json(
            json.loads((RATIONAL / case["argv"][1]).read_text()))
        assert case["stderr"].endswith(f"{dual_failure(c)}\n")


def test_render_rejects_bad_periods(capsys, files):
    assert run(capsys, "render", files["frieze"], "--periods", "0")[0] == 2


def test_render_row_counts(capsys, files):
    assert len(render_frieze(fx.SL2_H6, 1).splitlines()) == 7
    code, out = run(capsys, "render", files["identity"])
    assert code == 0
    assert out.strip().splitlines() == ["GB1     GB1     GB1"]


def test_enumerate(capsys):
    code, out = run(capsys, "enumerate", "--height", "4", "--bound", "4")
    assert code == 0
    assert out.startswith("count 14")
    code, out = run(capsys, "enumerate", "--height", "2", "--bound", "2",
                    "--dump")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "count 2" and len(lines) == 3
    assert run(capsys, "enumerate", "--height", "0", "--bound", "3")[0] == 2


def test_enumerate_past_its_budget_exits_2(capsys, monkeypatch):
    # all 132 strips of height 6 append about 0.35 M row entries; with a
    # budget of 10,000 the search stops, names the budget and prints
    # nothing on stdout, as a search at a height far past the budget does
    monkeypatch.setattr(jugglerfrieze.frieze, "MAX_ENUMERATE_ENTRIES", 10000)
    code = main(["enumerate", "--height", "6", "--bound", "6", "--dump"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "10000" in captured.err
    assert "Traceback" not in captured.err
    assert run(capsys, "enumerate", "--height", "4", "--bound", "4")[0] == 0


def test_output_flag_writes_file(capsys, files, tmp_path):
    target = tmp_path / "out.json"
    code, out = run(capsys, "construct", files["matrix"],
                    "--siteswap", "23345357", "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == fx.JUG_FRIEZE.to_json()


def _as_p_over_1(doc):
    """A matrix or frieze document with every entry written as "p/1";
    sizes and throws stay JSON integers."""
    def spell(col):
        return [f"{x}/1" for x in col]
    if "entries" in doc:
        return {**doc, "entries": [spell(row) for row in doc["entries"]]}
    return {**doc, "columns": {b: spell(col)
                               for b, col in doc["columns"].items()}}


def _spelling_cases():
    """Each pool matrix and its frieze, then each with entry (1, 1) of
    the matrix and the frieze's first free entry raised by 1."""
    for m, pi in UNIMODULAR_POOL:
        c = build_frieze_det(m, pi)
        yield m, pi, c
        rows = [list(row) for row in m.entries]
        cols = [list(col) for col in c.columns]
        rows[0][0] += 1
        cols[0][1] += 1
        yield Matrix(rows, cols=m.ncols), pi, PeriodicFrieze(pi, cols)


def test_int_and_p_over_1_spellings_give_the_same_bytes(capsysbinary,
                                                        tmp_path):
    # integral JSON stays int and "p/1" becomes a Fraction: each entry
    # keeps its own type, so every route must print the same bytes, and
    # the near-misses compare the failure messages too
    codes = set()
    for t, (m, pi, c) in enumerate(_spelling_cases()):
        shape = format_siteswap(pi)
        paths = []
        for spell in (lambda doc: doc, _as_p_over_1):
            pair = tmp_path / f"{t}-{len(paths)}"
            pair.mkdir()
            (pair / "m.json").write_text(json.dumps(spell(m.to_json())))
            (pair / "c.json").write_text(json.dumps(spell(c.to_json())))
            paths.append(pair)
        assert '"1/1"' in (paths[1] / "m.json").read_text()
        argvs = [["construct", "m.json", "--siteswap", shape,
                  "--method", method, *verify]
                 for method in ("det", "twist")
                 for verify in ([], ["--verify"])]
        argvs += [["check", "c.json"], ["solve", "c.json"]]
        argvs += [["transform", "m.json", "--op", op, "--siteswap", shape]
                  for op in ("twist", "inverse-twist")]
        argvs += [["transform", "m.json", "--op", "complement"]]
        argvs += [["transform", "c.json", "--op", op]
                  for op in ("dual", "invert-F")]
        for argv in argvs:
            seen = []
            for pair in paths:
                code = main([str(pair / a) if a.endswith(".json") else a
                             for a in argv])
                captured = capsysbinary.readouterr()
                seen.append((code, captured.out,
                             captured.err.replace(str(pair).encode(), b"")))
            assert seen[0] == seen[1], (t, argv)
            codes.add(seen[0][0])
    assert codes == {0, 1, 2}


def test_check_accepts_rational_entries(capsys, tmp_path):
    doc = {"siteswap": [2, 2, 2, 2],
           "columns": {"1": [1, 3, 1, 0, 0], "2": [1, "2/3", 1, 0, 0],
                       "3": [1, 3, 1, 0, 0], "4": [1, "2/3", 1, 0, 0]}}
    p = tmp_path / "rational.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(p))
    assert code == 0 and json.loads(out)["is_frieze"]


def test_certificate_failure_names_schedules_and_values(capsys, tmp_path):
    doc = json.loads((RATIONAL / "matrix.json").read_text())
    doc["entries"][0][0] += 1
    p = tmp_path / "perturbed.json"
    p.write_text(json.dumps(doc))
    assert main(["construct", str(p), "--siteswap", "23345357"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(1, 2, 4, 7): 3/2" in err
    assert "Fraction(" not in err and "Traceback" not in err


MALFORMED = DATA / "malformed"


@pytest.mark.parametrize(
    "case", json.loads((MALFORMED / "cases.json").read_text()),
    ids=lambda case: case["name"])
def test_malformed_input_exits_2(case, capsys, monkeypatch):
    # one case per subcommand and kind of bad input; the files it names
    # sit next to cases.json, and missing.json is absent on purpose; a
    # case with "err" pins its whole message
    monkeypatch.chdir(MALFORMED)
    assert main(case["argv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.err == case.get("err", captured.err)


def test_results_of_any_size_from_inputs_of_bounded_size(capsys, tmp_path):
    # uniform(4, 2) with two entries of 2,501 digits: the minors of its
    # report and of its dual pass Python's 4,300-digit cap on int <-> str
    # conversion, which main lifts for the call and then restores
    cap = sys.get_int_max_str_digits()
    cols = {str(b): [1, 10 ** 2500 if b < 3 else 1, 1, 0, 0]
            for b in range(1, 5)}
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"siteswap": [2, 2, 2, 2], "columns": cols}))
    assert main(["check", str(big)]) == 1
    captured = capsys.readouterr()
    assert '"is_frieze": false' in captured.out and captured.err == ""
    assert max(map(len, re.findall("[0-9]+", captured.out))) > cap
    for argv, code, prefix in ((["solve"], 1, ""),
                               (["transform", "--op", "invert-F"], 2,
                                "error: ")):
        assert main(argv[:1] + [str(big)] + argv[1:]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(prefix + "not a frieze: dual entry")
        assert "Traceback" not in captured.err
    assert sys.get_int_max_str_digits() == cap
    # a number of an input file may have MAX_DIGITS digits, as a JSON
    # integer or in a "p/q" string; the corpus pins one more digit
    digits = "1" + "0" * (cli.MAX_DIGITS - 1)
    for entry in (digits, f'"1/{digits}"'):
        edge = tmp_path / "edge.json"
        edge.write_text('{"siteswap": [0, 0, 0], "columns": {"1": [1, '
                        + entry + ', 0, 0], "2": [1, 0, 0, 0], '
                        '"3": [1, 0, 0, 0]}}')
        assert main(["check", str(edge)]) == 1
        assert capsys.readouterr().err == ""


def _bad_input_exits_2(capsys, tmp_path, doc, *argv):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    for args in argv:
        assert main([args[0], str(p)] + list(args[1:])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_zero_denominator_entries_exit_2(capsys, tmp_path):
    doc = fx.JUG_FRIEZE.to_json()
    doc["columns"]["1"][3] = "1/0"
    _bad_input_exits_2(capsys, tmp_path, doc, ("check",), ("render",),
                       ("solve",), ("transform", "--op", "dual"))
    doc = fx.UNIMOD_4x8.to_json()
    doc["entries"][0][0] = "1/0"
    _bad_input_exits_2(capsys, tmp_path, doc,
                       ("construct", "--siteswap", "23345357"),
                       ("transform", "--op", "complement"))


def test_boolean_entries_exit_2(capsys, tmp_path):
    doc = fx.IDENTITY_FRIEZE_3.to_json()
    doc["columns"]["1"][0] = True
    _bad_input_exits_2(capsys, tmp_path, doc, ("check",), ("render",))
    doc = fx.UNIMOD_4x8.to_json()
    doc["entries"][1][2] = False
    _bad_input_exits_2(capsys, tmp_path, doc,
                       ("construct", "--siteswap", "23345357"))


def test_float_throws_and_sizes_exit_2(capsys, tmp_path):
    doc = {"siteswap": [2.7, 2.2],
           "columns": {"1": [1, 1, 1], "2": [1, 1, 1]}}
    _bad_input_exits_2(capsys, tmp_path, doc, ("check",), ("render",))
    doc = fx.UNIMOD_4x8.to_json()
    doc["cols"] = 8.0
    _bad_input_exits_2(capsys, tmp_path, doc,
                       ("construct", "--siteswap", "23345357"))


def test_negative_column_count_exit_2(capsys, tmp_path):
    doc = {"rows": 0, "cols": -1, "entries": []}
    _bad_input_exits_2(capsys, tmp_path, doc,
                       ("construct", "--siteswap", "0"),
                       ("transform", "--op", "complement"))


def test_column_keys_other_than_one_to_n_exit_2(capsys, tmp_path):
    doc = fx.IDENTITY_FRIEZE_3.to_json()
    doc["columns"]["9"] = ["junk"]
    _bad_input_exits_2(capsys, tmp_path, doc, ("check",), ("render",),
                       ("solve",), ("transform", "--op", "dual"))
    doc = fx.IDENTITY_FRIEZE_3.to_json()
    del doc["columns"]["3"]
    _bad_input_exits_2(capsys, tmp_path, doc, ("check",), ("solve",))


def test_matrix_entries_not_a_list_of_lists_exit_2(capsys, tmp_path):
    for entries in (["001"], "001"):
        doc = {"rows": 1, "cols": 3, "entries": entries}
        _bad_input_exits_2(capsys, tmp_path, doc,
                           ("construct", "--siteswap", "003"),
                           ("transform", "--op", "complement"))


def test_module_runs_as_a_process(tmp_path):
    # python -m jugglerfrieze goes through __main__ and the process exit
    # status, which the in-process tests above never reach
    src = str(pathlib.Path(jugglerfrieze.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    strrow = tmp_path / "strrow.json"
    strrow.write_text(json.dumps({"rows": 1, "cols": 3, "entries": ["001"]}))
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(fx.MATRIX_000.to_json()))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "jugglerfrieze", *argv],
                              capture_output=True, encoding="utf-8", env=env,
                              timeout=60)

    ok = cli("siteswap", "53635514")
    assert ok.returncode == 0 and "dual      23345357" in ok.stdout
    ok = cli("construct", str(zero), "--siteswap", "000", "--method", "twist")
    assert ok.returncode == 0 and ok.stderr == ""
    assert json.loads(ok.stdout) == build_frieze_det(
        fx.MATRIX_000, fx.IDENTITY_3).to_json()
    for argv in (("siteswap", "\u00b2"),
                 ("construct", str(strrow), "--siteswap", "003")):
        bad = cli(*argv)
        assert bad.returncode == 2 and bad.stdout == ""
        assert bad.stderr.startswith("error:") and "Traceback" not in bad.stderr
