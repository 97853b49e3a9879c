"""The names the benchmark's tracer wraps exist in the package.

bench/tracing.py wraps the package's functions and methods by name, and
its Tracer fails on entry when one is missing, so a removed or renamed
name fails here and not only in a traced benchmark run.  The file is
compiled from its source, so nothing is written under bench/.
"""
import pathlib
import types

import jugglerfrieze
import jugglerfrieze.cli  # the tracer wraps cli.main

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_enters_and_restores_every_traced_name():
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         tracing.__dict__)
    parse = jugglerfrieze.parse_siteswap
    with tracing.Tracer(jugglerfrieze) as tracer:
        assert jugglerfrieze.parse_siteswap is not parse
        jugglerfrieze.parse_siteswap("333")
    assert jugglerfrieze.parse_siteswap is parse
    assert "juggling.parse_siteswap" in {span[0] for span in tracer.take()}
