"""What a fresh process imports: the package and the command line load no
numerical code until a command runs, and the names the benchmark tracer
wraps exist as soon as ``clutterstats.cli`` is imported."""

import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import clutterstats
from clutterstats import _catalog, cli, distributions, specfun

SRC = Path(clutterstats.__file__).resolve().parent.parent
NUMERICAL = {"numpy", *(f"clutterstats.{name}" for name in (
    "_csv", "_quad", "distributions", "estimation", "mellin", "sampling",
    "specfun", "sweep", "verify"))}

# `python -m clutterstats.cli ARGS`, then the modules loaded by its exit
RUN_CLI = """
import atexit, json, runpy, sys
atexit.register(lambda: print("modules:", json.dumps(sorted(sys.modules))))
runpy.run_module("clutterstats.cli", run_name="__main__", alter_sys=True)
"""


def fresh(code, *argv):
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.mark.parametrize("argv", [
    ["--help"],
    *([command, "--help"] for command in
      ("table", "verify", "sample", "estimate", "simulate")),
    ["sample", "--family", "k"],
])
def test_help_and_usage_errors_load_no_numerical_code(argv):
    run = fresh(RUN_CLI, *argv)
    wanted = 2 if argv[-1] == "k" else 0   # argparse's usage-error exit
    assert run.returncode == wanted, run.stderr
    text = run.stdout.rpartition("modules: ")[2]
    assert NUMERICAL.isdisjoint(json.loads(text))


@pytest.mark.parametrize("command, unloaded", [
    (["table", "--family", "k", "--params", "alpha=2,b=1"],
     {"sampling", "_csv", "verify", "estimation", "mellin", "sweep"}),
    (["sample", "--family", "k", "--params", "alpha=2,b=1", "--n", "10"],
     {"estimation", "mellin", "sweep", "verify"}),
])
def test_a_command_imports_only_what_it_runs(command, unloaded, tmp_path):
    argv = command + (["--out", str(tmp_path / "k.csv")]
                      if command[0] == "sample" else [])
    run = fresh(RUN_CLI, *argv)
    assert run.returncode == 0, run.stderr
    loaded = set(json.loads(run.stdout.rpartition("modules: ")[2]))
    assert "numpy" in loaded
    assert loaded.isdisjoint(f"clutterstats.{name}" for name in unloaded)


def test_the_parser_facts_are_the_librarys():
    assert _catalog.FAMILY_TAGS == tuple(distributions.FAMILY_TAGS)
    assert _catalog.MAX_ORDER is specfun.MAX_ORDER


# bench/tracing.py wraps these names of cli right after importing it, and
# each command must call through them
TRACER_PROBE = """
import json, sys
import clutterstats.cli as cli
names = ("sample", "texture_sweep", "write_sweep_csv", "render_sweep_svg")
bound = [name for name in names if name in vars(cli)]
calls = []

def recording(name):
    original = vars(cli)[name]
    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    setattr(cli, name, wrapper)

for name in names:
    recording(name)
out = sys.argv[1]
codes = [cli.main(["sample", "--family", "k", "--params", "alpha=2,b=1",
                   "--n", "10", "--out", out + "/k.csv"]),
         cli.main(["simulate", "--M-grid", "1:4:2", "--samples", "10000",
                   "--out", out + "/s.csv", "--plot", out + "/s.svg"])]
print(json.dumps([bound, calls, codes]))
"""


def test_the_traced_names_exist_at_import_and_the_commands_call_them(
        tmp_path):
    run = fresh(TRACER_PROBE, str(tmp_path))
    assert run.returncode == 0, run.stderr
    bound, calls, codes = json.loads(run.stdout.splitlines()[-1])
    assert bound == ["sample", "texture_sweep", "write_sweep_csv",
                     "render_sweep_svg"]
    assert calls == ["sample", "texture_sweep", "write_sweep_csv",
                     "render_sweep_svg"]
    assert codes == [0, 0]
    assert (tmp_path / "k.csv").read_text().count("\n") == 11


def test_every_cli_annotation_names_what_cli_binds():
    # the commands import the numerical modules when they run, so an
    # annotation naming one of them cannot be resolved in cli's namespace
    functions = [f for f in vars(cli).values()
                 if inspect.isfunction(f) and f.__module__ == cli.__name__]
    assert len(functions) > 10
    for function in functions:
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            pytest.fail(f"{function.__name__}: {exc}")
