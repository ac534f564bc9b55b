"""Which layers a command loads, and the package API that lazy loading keeps.

The module sets and the API are checked in a fresh interpreter, since a
module that any earlier test imported stays in this process's sys.modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules that only a full eval, verify or the numeric oracle need.
HEAVY = {"so5cg.fullcg", "so5cg.su2", "so5cg.verify", "so5cg.oracle", "numpy"}

# Runs so5cg.cli.main(argv) and prints its exit code, whether each cache
# lookup hit, its stdout and the modules it left loaded.
RUN_COMMAND = """
import contextlib, io, json, sys
import so5cg.cli
from so5cg import cache
hits = []
load = cache.load
def counted(key):
    text = load(key)
    hits.append(text is not None)
    return text
cache.load = counted
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = so5cg.cli.main(sys.argv[1:])
print(json.dumps({"exit": code, "hits": hits, "out": out.getvalue(),
                  "modules": sorted(m for m in sys.modules if m in %r)}))
""" % sorted(HEAVY)


def _fresh(code: str, *args: str, cache_dir=None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SO5CG_CACHE", None)
    if cache_dir is not None:
        env["SO5CG_CACHE"] = str(cache_dir)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _command(*argv: str, cache_dir=None) -> dict:
    return _fresh(RUN_COMMAND, *argv, cache_dir=cache_dir)


def test_cache_hit_table_loads_no_matrix_or_verify_layer(tmp_path):
    argv = ("table", "--source", "2,1", "--channel=-1,-1",
            "--format", "json")
    cold = _command(*argv, cache_dir=tmp_path)
    assert (cold["exit"], cold["hits"], cold["modules"]) == (0, [False], [])
    warm = _command(*argv, cache_dir=tmp_path)
    assert (warm["exit"], warm["hits"], warm["modules"]) == (0, [True], [])
    assert warm["out"] == cold["out"]


@pytest.mark.parametrize("argv", [
    ("decompose", "3/2,1/2"),
    ("branch", "1,1", "--format", "json"),
    ("eval", "--source", "1/2,0", "--target", "1,1/2",
     "--source-so4", "1/2,0", "--entry", "+1/2,+1/2", "--part", "1/2,1/2"),
], ids=["decompose", "branch", "reduced eval"])
def test_command_loads_no_matrix_or_verify_layer(tmp_path, argv):
    result = _command(*argv, cache_dir=tmp_path)
    assert (result["exit"], result["modules"]) == (0, [])
    assert result["out"]


def test_full_eval_loads_the_matrix_layer():
    result = _command("eval", "--source", "1/2,0", "--target", "1,1/2",
                      "--source-so4", "1/2,0", "--entry", "+1/2,+1/2",
                      "--part", "1/2,1/2", "--m", "1/2,0",
                      "--part-m", "1/2,1/2")
    assert result["exit"] == 0
    assert result["out"].splitlines()[0] == "1/7*sqrt(7)"
    assert "so5cg.fullcg" in result["modules"]
    assert "so5cg.verify" not in result["modules"]


def test_verify_loads_the_verification_layer():
    result = _command("verify", "su2", "--max-twice-j", "2")
    assert result["exit"] == 0
    assert json.loads(result["out"])["pass"] is True
    assert "so5cg.verify" in result["modules"]
    assert "numpy" not in result["modules"]


PACKAGE_API = """
import argparse, json, sys
import so5cg.cli
so5cg.cli.main(["table", "--source", "1,0", "--channel", "+1,+1",
                "--no-cache", "--out", sys.argv[1]])
reduced_module = sys.modules["so5cg.reduced"]
reduced_after_export = so5cg.reduced is reduced_module.reduced
star = {}
exec("from so5cg import *", star)
missing = [name for name in so5cg.__all__ if name not in star]
differ = [name for name in so5cg.__all__ if name in star
          and star[name] is not getattr(so5cg, name)]
parser = so5cg.cli.build_parser()
commands = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
suite = next(a for a in commands.choices["verify"]._actions
             if a.dest == "suite")
from so5cg import verify
print(json.dumps({
    "reduced_after_export": reduced_after_export,
    "reduced_after_star": so5cg.reduced is reduced_module.reduced,
    "missing": missing, "differ": differ,
    "lazy_names_in_dir": sorted(set(so5cg.__all__) - set(dir(so5cg))),
    "choices": list(suite.choices),
    "suites": [*verify.SUITES, "all"]}))
"""


def test_package_api_survives_lazy_loading(tmp_path):
    # so5cg.reduced is both a submodule and the public function: the
    # package must still hand back the function once the CLI has imported
    # the submodule, and every __all__ name, lazy or not, must resolve.
    result = _fresh(PACKAGE_API, str(tmp_path / "t.csv"))
    assert result["reduced_after_export"] is True
    assert result["reduced_after_star"] is True
    assert result["missing"] == [] and result["differ"] == []
    assert result["lazy_names_in_dir"] == []
    # The parser's suite names are written out in cli; they must be the
    # suites verify runs.
    assert result["choices"] == result["suites"]
    assert (tmp_path / "t.csv").read_text().startswith("s_tj1,")


def test_unknown_package_attribute_raises_attribute_error():
    import so5cg
    with pytest.raises(AttributeError, match="no_such_name"):
        so5cg.no_such_name  # noqa: B018
