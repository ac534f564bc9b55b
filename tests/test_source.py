"""Source-level rules for the package."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import so5cg

PACKAGE = Path(so5cg.__file__).parent


def test_no_assert_statements():
    # Runtime checks must survive `python -O`, which strips assert
    # statements; the package raises AssertionError explicitly instead.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


PREDICATES = ("is_zero", "is_rational")


def test_predicate_methods_are_called():
    # SqrtSum.is_zero and is_rational are methods: an uncalled `v.is_zero`
    # is a bound method, always truthy, so a check written that way can
    # never fail.
    found = []
    tests = Path(__file__).parent
    for path in sorted(PACKAGE.rglob("*.py")) + sorted(tests.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        called = {id(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in PREDICATES and id(node) not in called]
    assert found == []


def _calls(node: ast.AST, name: str) -> bool:
    return any(isinstance(call, ast.Call)
               and (getattr(call.func, "attr", None) == name
                    or getattr(call.func, "id", None) == name)
               for call in ast.walk(node))


MEMBERSHIP = ("in_branching", "branching", "_contains")


def test_block_rule_lives_in_labels():
    # Whether an entry takes a source block to a block of an irrep is
    # labels.reach; a function elsewhere that builds an SO(4) label and
    # tests it against the branching itself is a second copy of that rule.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "labels.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.name}" for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and _calls(node, "So4Label")
                  and any(_calls(node, name) for name in MEMBERSHIP)]
    assert found == []


def _reads(node: ast.AST, attr: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == attr


def _tests_int(node: ast.AST) -> bool:
    """Whether node holds an isinstance(..., int) or an `is int` test."""
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "isinstance":
            operands = n.args[1:]
        elif isinstance(n, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot)) for op in n.ops):
            operands = [n.left, *n.comparators]
        else:
            continue
        if any(isinstance(x, ast.Name) and x.id == "int"
               for op in operands for x in ast.walk(op)):
            return True
    return False


def test_label_text_and_doubled_ints_are_checked_in_labels():
    # labels.parse_pair is the one splitter of "a,b" label text and
    # labels._check_twice the one check that doubled values are ints. A
    # module elsewhere that splits text on "," or raises MalformedKey from
    # an int test of its own is a second copy of that rule.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "labels.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _reads(node.func, "split")
                  and any(isinstance(a, ast.Constant) and a.value == ","
                          for a in node.args)]
        found += [f"{path.name}:{node.name}" for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and _calls(node, "MalformedKey") and _tests_int(node)]
    assert found == []


def _users(tree: ast.Module, name: str) -> list[str]:
    """Module-level functions that call name or pass it on, nested functions
    included."""
    return sorted(node.name for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and any(isinstance(n, ast.Name) and n.id == name
                          for n in ast.walk(node)))


def test_transposition_factor_lives_in_one_function():
    # The sign and the dimension ratio by which a raising or lowering value
    # is read off its transpose are reduced._transposition. A function
    # elsewhere that multiplies an SO(4) block dimension, or takes a parity
    # of a phase that involves an entry's part, is a second copy of them.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "labels.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            ops = [op for op in ast.walk(node) if isinstance(op, ast.BinOp)]
            ratio = any(isinstance(op.op, ast.Mult)
                        and (_reads(op.left, "so3_dim")
                             or _reads(op.right, "so3_dim")) for op in ops)
            parity = any(isinstance(op.op, ast.Mod)
                         and getattr(op.right, "value", None) == 2
                         for op in ops)
            part = any(_reads(n, "part") for n in ast.walk(node))
            if ratio or (parity and part):
                found.append(f"{path.name}:{node.name}")
    assert found == ["reduced.py:_transposition"]
    # The single keys and the table loop reach it through one evaluator.
    tree = ast.parse((PACKAGE / "reduced.py").read_text(encoding="utf-8"))
    assert _users(tree, "_transposition") == ["_transposed"]
    assert _users(tree, "_transposed") == ["_row_values", "symmetry_extend"]


def test_entry_positions_live_in_labels():
    # An entry's position in ENTRY_SHIFTS is labels.ENTRY_POSITION. A dict
    # built over ENTRY_SHIFTS elsewhere, or a table's rows laid out again
    # in its order, is a second copy of that map.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "labels.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.DictComp)
                  and any(isinstance(n, ast.Name) and n.id == "ENTRY_SHIFTS"
                          for gen in node.generators
                          for n in ast.walk(gen.iter))]
    assert found == []
    from so5cg.labels import ENTRY_POSITION, ENTRY_SHIFTS
    from so5cg.tables import ChannelTable
    assert [ENTRY_POSITION[(e.tdj1, e.tdj2, e.part.tj1)]
            for e in ENTRY_SHIFTS] == list(range(len(ENTRY_SHIFTS)))
    assert "by_position" not in ChannelTable._fields


def _unbounded_memo(decorator: ast.expr) -> bool:
    """lru_cache(maxsize=None) or functools.cache, in any spelling."""
    if not isinstance(decorator, ast.Call):
        return _name(decorator) == "cache"
    maxsize = decorator.args[:1] + [kw.value for kw in decorator.keywords
                                    if kw.arg == "maxsize"]
    return _name(decorator.func) == "lru_cache" and any(
        isinstance(value, ast.Constant) and value.value is None
        for value in maxsize)


def _name(node: ast.expr):
    return getattr(node, "attr", None) or getattr(node, "id", None)


def test_unbounded_memos_are_per_label_source_or_formula():
    # An unbounded memo may hold one entry per label, per source or per
    # formula, never one per coefficient: such a memo grows with every
    # coefficient a sweep touches, and memory on long sweeps stays bounded
    # only without one.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(_unbounded_memo(d) for d in node.decorator_list)]
    assert sorted(found) == sorted([
        "build_parser", "normalization", "mixing", "build_irrep", "_lin",
        "_constant", "engine_fingerprint", "branching", "decompose_with_14"])


def test_label_records_hold_doubled_ints():
    # A label record holds its spins and shifts as plain doubled ints (an
    # entry's part is an So4Label of them); HalfInt is only the text form
    # of one spin and the magnetic-label type. The constructor takes the
    # ints, so no record has an `of` constructor beside it.
    from so5cg.labels import Channel, EntryShift, IrrepLabel, So4Label
    want = {
        So4Label: {"tj1": "int", "tj2": "int"},
        IrrepLabel: {"tj1": "int", "tj2": "int"},
        Channel: {"tdj1": "int", "tdj2": "int", "copy": "int"},
        EntryShift: {"tdj1": "int", "tdj2": "int", "part": "So4Label"},
    }
    for record, types in want.items():
        got = {name: cls.__annotations__[name]
               for cls in reversed(record.__mro__)
               for name in cls.__dict__.get("__slots__", ())}
        assert got == types, record.__name__
        assert not hasattr(record, "of"), record.__name__


BENCH_TRACE = """
import json, sys
from tracing import Tracer, install
tracer = Tracer()
install(tracer, with_oracle=False)
from so5cg import cli, fullcg
from so5cg.labels import IrrepLabel
out = sys.argv[1]
codes = [cli.main(["table", "--source", "2,1", "--channel=-1,-1",
                   "--no-cache", "--out", out + "/lowering.csv"]),
         cli.main(["table", "--source", "2,1", "--channel", "aux",
                   "--no-cache", "--out", out + "/aux.csv"]),
         cli.main(["eval", "--source", "2,1", "--channel=-1/2,+1/2",
                   "--source-so4", "3/2,1/2", "--entry=+1/2,+1/2",
                   "--part", "1/2,1/2", "--m", "1/2,-1/2",
                   "--part-m=-1/2,1/2"])]
matrix = fullcg.coupling_matrix(IrrepLabel(1, 0))
gram = fullcg.column_gram_deviation(matrix)
summary = tracer.summary()
calls, counters = summary["calls"], summary["counters"]
print(json.dumps({"codes": codes, "gram": gram,
                  "rows": calls["tables.ChannelTable.bare_value"][0],
                  "full": calls["fullcg.full"][0],
                  "nnz": counters["fullcg.nnz"],
                  "pairs": counters["fullcg.gram_pairs"]}))
"""


def test_benchmark_tracing_binds_every_wrapped_name(tmp_path):
    # The benchmark's traced runs wrap so5cg functions and methods by name
    # (perfbench/tracing.py); installing its wrappers fails on any name
    # that is gone. A table export must still reach the row evaluator, a
    # full eval the wrapped full(), and the coupling-matrix hooks must
    # still read the matrix they are handed.
    root = PACKAGE.parents[1]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"),
                                           str(root / "perfbench")]))
    env.pop("SO5CG_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", BENCH_TRACE, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert len(printed) == 2  # the eval's exact value and its float
    assert result["codes"] == [0, 0, 0]
    assert result["gram"] is None
    assert result["rows"] > 0
    assert result["full"] > 0
    assert result["nnz"] > 0 and result["pairs"] > 0
    assert (tmp_path / "lowering.csv").stat().st_size > 0
    assert (tmp_path / "aux.csv").stat().st_size > 0
