"""A seeded fuzzer for the CLI contract.

Every case starts from a committed valid input (the rational goldens,
the render inputs and the fixtures) with the command that reads it, and
mutates the input file or a numeric option by structure: deep nesting,
a type swap at one key, truncation, a missing or duplicate key, NaN and
Infinity, numbers of MAX_DIGITS - 1 and MAX_DIGITS + 1 digits, ragged
rows, and huge --periods, --height and --basis.  Each case runs in
process through cli.main and must exit 0, 1 or 2, with no traceback,
and exit 2 must come with exactly one "error:" line.  An exception
other than argparse's SystemExit fails the test with its traceback.
"""
import json
import random
from pathlib import Path

from jugglerfrieze import cli

import fixture_data as fx

DATA = Path(__file__).parent / "data"
RATIONAL = DATA / "rational"
FILE = "input.json"
# the text a mutated value is written as, in place of this string
HOLE = "\u0000hole"
SWAPS = (None, True, 1.5, "x", "", "1/0", "1e3", -1, 0, [], {}, [[]],
         {"1": []})
HUGE = (0, -1, 10 ** 6, 10 ** 18, 2 ** 64)


def _seeds():
    """(JSON object, argv with FILE for the input) for each committed
    valid input and a command that reads it."""
    seeds = []
    for case in json.loads((RATIONAL / "cases.json").read_text()):
        argv = case["argv"]
        obj = json.loads((RATIONAL / argv[1]).read_text())
        seeds.append((obj, [argv[0], FILE, *argv[2:]]))
    for name in ("53635514", "4130"):
        obj = json.loads((DATA / f"render_{name}.json").read_text())
        seeds.append((obj, ["render", FILE, "--periods", "2"]))
    for m, pattern in ((fx.UNIMOD_4x8, "23345357"), (fx.CONSEC_3x8, "33333333"),
                       (fx.MATRIX_4130, "4130"), (fx.MATRIX_003, "003")):
        seeds.append((m.to_json(), ["construct", FILE, "--siteswap", pattern,
                                    "--verify"]))
    for c in (fx.JUG_FRIEZE, fx.SL3_H5, fx.IDENTITY_FRIEZE_3):
        seeds += [(c.to_json(), ["check", FILE]),
                  (c.to_json(), ["solve", FILE, "--basis", "1"]),
                  (c.to_json(), ["transform", FILE, "--op", "invert-F"])]
    return seeds


def _paths(obj, path=()):
    """The path of every value in obj, containers included, as key and
    index tuples."""
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replace(obj, path, value):
    """A copy of obj with the value at path replaced."""
    if not path:
        return value
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[path[0]] = _replace(obj[path[0]], path[1:], value)
    return copy


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _with_text(obj, path, text):
    """obj as JSON text, with the value at path written as text."""
    return json.dumps(_replace(obj, path, HOLE)).replace(json.dumps(HOLE),
                                                         text)


def _numbers(obj):
    """The paths of the numbers in obj, and of the strings that are
    rationals."""
    return [p for p in _paths(obj)
            if isinstance(_at(obj, p), (int, str))
            and not isinstance(_at(obj, p), bool)
            and str(_at(obj, p)).lstrip("-").replace("/", "").isdigit()]


def _deep(rng, obj):
    path = rng.choice(list(_paths(obj)))
    depth = rng.choice((3, 2000, 100000))
    return _with_text(obj, path, "[" * depth + json.dumps(_at(obj, path))
                      + "]" * depth)


def _swap(rng, obj):
    path = rng.choice([p for p in _paths(obj) if p])
    return json.dumps(_replace(obj, path, rng.choice(SWAPS)))


def _truncate(rng, obj):
    text = json.dumps(obj)
    return text[:rng.randrange(len(text))]


def _dicts(obj):
    return [p for p in _paths(obj)
            if isinstance(_at(obj, p), dict) and _at(obj, p)]


def _missing(rng, obj):
    path = rng.choice(_dicts(obj))
    table = dict(_at(obj, path))
    del table[rng.choice(list(table))]
    return json.dumps(_replace(obj, path, table))


def _duplicate(rng, obj):
    path = rng.choice(_dicts(obj))
    table = _at(obj, path)
    key = rng.choice(list(table))
    value = rng.choice((table[key], rng.choice(SWAPS)))
    members = json.dumps(table)[1:-1]
    return _with_text(obj, path, "{%s, %s: %s}" % (
        members, json.dumps(key), json.dumps(value)))


def _non_finite(rng, obj):
    return _with_text(obj, rng.choice(_numbers(obj)),
                      rng.choice(("NaN", "Infinity", "-Infinity")))


def _long_number(rng, obj):
    digits = cli.MAX_DIGITS + rng.choice((-1, 1))
    number = rng.choice(("9", "1", "-1")) + "0" * (digits - 1)
    # a long denominator is left out: it only makes every entry of the
    # integer view as long, and a certificate or check on such a view
    # takes about 1 s
    text = rng.choice((number, f'"{number}"', f'"{number}/3"'))
    return _with_text(obj, rng.choice(_numbers(obj)), text)


def _ragged(rng, obj):
    rows = [p for p in _paths(obj) if p and isinstance(_at(obj, p), list)
            and all(not isinstance(x, list) for x in _at(obj, p))]
    path = rng.choice(rows)
    row = list(_at(obj, path))
    if row and rng.random() < 0.5:
        row.pop(rng.randrange(len(row)))
    else:
        row.insert(rng.randrange(len(row) + 1), rng.choice(row or [0]))
    return json.dumps(_replace(obj, path, row))


MUTATIONS = (_deep, _swap, _truncate, _missing, _duplicate, _non_finite,
             _long_number, _ragged)


def _huge_flags(rng):
    """argv with a huge or non-positive --periods, --height or --basis."""
    value = str(rng.choice(HUGE))
    return rng.choice((
        ["render", str(DATA / "render_4130.json"), "--periods", value],
        ["render", str(DATA / "render_53635514.json"), "--periods", value],
        ["enumerate", "--height", value, "--bound", "2"],
        ["enumerate", "--height", "4", "--bound", value],
        ["solve", str(RATIONAL / "strip.json"), "--basis", value],
        ["solve", str(RATIONAL / "strip.json"), "--basis", "-" + value]))


def _run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.err


def test_cli_contract_holds_on_mutated_inputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(2022)
    seeds = _seeds()
    seen = dict.fromkeys((0, 1, 2), 0)
    for i in range(500):
        if i % 10 == 9:
            argv = _huge_flags(rng)
        else:
            obj, argv = rng.choice(seeds)
            mutate = MUTATIONS[i % len(MUTATIONS)]
            (tmp_path / FILE).write_text(mutate(rng, obj), encoding="utf-8")
        code, err = _run(argv, capsys)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, argv
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, \
                (argv, err)
        seen[code] += 1
    assert min(seen.values()) > 0, seen
