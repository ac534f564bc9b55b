"""Tracing for the traced run: wrappers on so5cg's public functions.

Each wrapped call adds its time to per-function totals and to its caller's
child time, so self time = duration - time in wrapped callees. Coarse calls
(requests, checks, cache traffic, matrix assembly) also record a span:
(id, name, start, end, parent span, request id). Spans stay in memory and are
written out when the process ends. Hot leaf calls (ring operations, memo
lookups, row evaluations) only add to the totals, which keeps memory flat.
Memo hit ratios and sizes come from the lru_cache counters via cache_info().

Wrappers are installed from outside: every binding of a wrapped function in
any so5cg module is replaced, which covers names other modules import
directly (fullcg.su2_cg, reduced.reduced, cli.table_rows, ...).
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

RING_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__truediv__")

# module -> (function names, names that also record a span)
FUNCTIONS = {
    "exactnum": (("sqrt_rational", "sqrt_product"), ()),
    "labels": (("dim", "branching", "in_branching", "decompose_with_14",
                "target_of", "multiplicity_of", "channel_present",
                "channels_present", "m_values"), ()),
    "su2": (("su2_cg",), ()),
    "tables": (("mixing_x_rational", "mixing_h2"), ()),
    "reduced": (("reduced", "reduced_aux", "reduced_copy2", "symmetry_extend",
                 "normalization", "mixing", "channel_present_by_normalization",
                 "reduced_vector", "aux_vector", "dot", "table_rows",
                 "aux_table_rows"), ("table_rows", "aux_table_rows")),
    "fullcg": (("full", "coupling_matrix", "column_gram_deviation",
                "row_gram_deviation", "product_rows", "coupled_cols"),
               ("coupling_matrix", "column_gram_deviation",
                "row_gram_deviation")),
    "oracle": (("compare", "numeric_decompose", "build_irrep",
                "casimir_value"), ("compare", "numeric_decompose")),
    "verify": (("reduced_unitarity", "full_orthogonality",
                "full_row_orthogonality", "mixing_identities",
                "symmetry_involution", "presence_agreement",
                "guarded_zero_consistency", "normalization_positivity",
                "su2_orthogonality", "run_suite", "_run"),
               ("run_suite", "_run")),
    "cli": (("main", "cmd_eval", "cmd_table", "cmd_decompose", "cmd_branch",
             "cmd_verify"),
            ("main", "cmd_eval", "cmd_table", "cmd_decompose", "cmd_branch",
             "cmd_verify")),
    "cache": (("load", "store", "cache_key", "cache_dir"), ("load", "store")),
}

# memo name -> (module, attribute) of the lru_cache object
MEMOS = {
    "su2_cg": ("su2", "su2_cg"),
    "reduced": ("reduced", "reduced"),
    "branching": ("labels", "branching"),
    "squarefree_split": ("_kernel", "squarefree_split"),
}

VERIFY_CHECKS = ("su2_orthogonality", "symmetry_involution",
                 "symmetry_example", "oracle_compare")


class Tracer:
    """Per-process call totals, counters and spans."""

    def __init__(self) -> None:
        self.request = None
        self.spans: list[tuple] = []
        self.calls: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counters: dict[str, float] = defaultdict(int)
        self._stack = [[0, 0.0]]  # frames: [span id, child seconds]
        self._ids = itertools.count(1)
        self._gram_shapes: dict[str, tuple[int, int]] = {}
        self._memos: dict[str, object] = {}
        self._cache_dir = None

    def wrap(self, name: str, fn, span: bool, after=None):
        stats = self.calls.setdefault(name, [0, 0.0, 0.0])
        stack, spans, ids = self._stack, self.spans, self._ids
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids) if span else parent[0], 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                stats[0] += 1
                stats[1] += d
                stats[2] += d - frame[1]
                parent[1] += d
                if span:
                    spans.append((frame[0], name, t0, t1, parent[0],
                                  tracer.request))
            if after is not None:
                after(tracer, args, result, d)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counters taken at layer boundaries -------------------------------

    def _after_load(self, args, result, d) -> None:
        self.counters["cache.hits" if result is not None
                      else "cache.misses"] += 1

    def _after_store(self, args, result, d) -> None:
        root = self._cache_dir()
        if root is not None:
            path = root / f"{args[0]}.json"
            if path.exists():
                self.counters["cache.bytes_written"] += path.stat().st_size

    def _after_matrix(self, args, result, d) -> None:
        self.counters["fullcg.nnz"] += sum(
            len(col) for col in result.columns.values())

    def _after_gram(self, args, result, d) -> None:
        matrix = args[0]
        key = str(matrix.source)
        if key not in self._gram_shapes:
            self._gram_shapes[key] = gram_pairs(matrix)
        pairs, overlapping = self._gram_shapes[key]
        self.counters["fullcg.gram_pairs"] += pairs
        self.counters["fullcg.gram_overlapping"] += overlapping

    def _after_check(self, args, result, d) -> None:
        self.counters["verify.check_s." + args[0].split()[0]] += d

    def watch_memo(self, name: str, memo) -> None:
        """Count a memo's hits and misses from now on."""
        info = memo.cache_info()
        self._memos[name] = (memo, info.hits, info.misses)

    def summary(self) -> dict:
        memos = {}
        for name, (memo, hits, misses) in self._memos.items():
            info = memo.cache_info()
            memos[name] = [info.hits - hits, info.misses - misses,
                           info.currsize]
        return {"calls": self.calls, "counters": dict(self.counters),
                "memos": memos}

    def write_spans(self, path: str) -> None:
        pid = os.getpid()
        with open(path, "a", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, request in self.spans:
                fh.write(json.dumps({"pid": pid, "id": sid, "name": name,
                                     "start": t0, "end": t1,
                                     "parent": parent,
                                     "request": request}) + "\n")


def gram_pairs(matrix) -> tuple[int, int]:
    """Column pairs the exact Gram examines (same magnetic sector, a <= b)
    and how many of them share at least one row."""
    sectors: dict[tuple[int, int], list] = defaultdict(list)
    for col in matrix.cols:
        sectors[(col.mt1.twice, col.mt2.twice)].append(matrix.columns[col])
    pairs = overlapping = 0
    for group in sectors.values():
        pairs += len(group) * (len(group) + 1) // 2
        by_row: dict[object, list[int]] = defaultdict(list)
        for index, column in enumerate(group):
            for row in column:
                by_row[row].append(index)
        seen = set()
        for cols in by_row.values():
            for i, a in enumerate(cols):
                for b in cols[i:]:
                    seen.add((a, b))
        overlapping += len(seen)
    return pairs, overlapping


def install(tracer: Tracer, with_oracle: bool) -> None:
    """Wrap the public functions of every so5cg layer.

    The oracle imports numpy, so it is loaded only for requests that use it.
    """
    import importlib

    names = ["exactnum", "_kernel", "labels", "su2", "tables", "reduced",
             "fullcg", "verify", "cli", "cache"]
    if with_oracle:
        names.append("oracle")
    mods = {n: importlib.import_module(f"so5cg.{n}") for n in names}
    tracer._cache_dir = mods["cache"].cache_dir
    for memo, (mod, attr) in MEMOS.items():
        obj = getattr(mods[mod], attr)
        if hasattr(obj, "cache_info"):
            tracer.watch_memo(memo, obj)
    hooks = {
        ("cache", "load"): Tracer._after_load,
        ("cache", "store"): Tracer._after_store,
        ("fullcg", "coupling_matrix"): Tracer._after_matrix,
        ("fullcg", "column_gram_deviation"): Tracer._after_gram,
        ("verify", "_run"): Tracer._after_check,
    }
    replace: dict[int, object] = {}
    for layer, (funcs, spanned) in FUNCTIONS.items():
        if layer not in mods:
            continue
        for attr in funcs:
            original = getattr(mods[layer], attr)
            replace[id(original)] = tracer.wrap(
                f"{layer}.{attr}", original, attr in spanned,
                hooks.get((layer, attr)))
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "so5cg" or name.startswith("so5cg.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replace.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)

    # methods: ring operations and decoding on SqrtSum, row evaluation on
    # ChannelTable
    sqrt_sum = mods["exactnum"].SqrtSum
    by_function: dict[int, object] = {}
    for attr in RING_OPS:
        fn = sqrt_sum.__dict__[attr]
        if id(fn) not in by_function:
            by_function[id(fn)] = tracer.wrap(f"exactnum.ring.{attr}", fn,
                                              False)
        setattr(sqrt_sum, attr, by_function[id(fn)])
    decode = sqrt_sum.__dict__["from_json_dict"].__func__
    sqrt_sum.from_json_dict = classmethod(
        tracer.wrap("exactnum.from_json_dict", decode, False))
    table = mods["tables"].ChannelTable
    for attr in ("bare_value", "normalization", "factor_values"):
        setattr(table, attr, tracer.wrap(f"tables.ChannelTable.{attr}",
                                         table.__dict__[attr], False))


def merge(summaries: list[dict]) -> dict:
    """Sum call totals and counters over processes; memo hits and misses
    add up, memo size is the largest any process reached."""
    calls: dict[str, list] = {}
    counters: dict[str, float] = defaultdict(int)
    memos: dict[str, list] = {}
    for s in summaries:
        for name, (n, total, own) in s["calls"].items():
            acc = calls.setdefault(name, [0, 0.0, 0.0])
            acc[0] += n
            acc[1] += total
            acc[2] += own
        for name, value in s["counters"].items():
            counters[name] += value
        for name, (hits, misses, size) in s["memos"].items():
            acc = memos.setdefault(name, [0, 0, 0])
            acc[0] += hits
            acc[1] += misses
            acc[2] = max(acc[2], size)
    return {"calls": calls, "counters": dict(counters), "memos": memos}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, with their units."""
    calls, counters, memos = merged["calls"], merged["counters"], merged["memos"]

    def n(name):
        return calls.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return calls.get(name, [0, 0.0, 0.0])[1]

    def layer(prefix, field):
        return sum(v[field] for k, v in calls.items()
                   if k.startswith(prefix + "."))

    def hit_ratio(memo):
        hits, misses, _ = memos.get(memo, [0, 0, 0])
        return _ratio(hits, hits + misses)

    def memo_size(memo):
        return memos.get(memo, [0, 0, 0])[2]

    ring = [k for k in calls if k.startswith("exactnum.ring.")]
    rows = n("tables.ChannelTable.bare_value")
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    pairs = counters.get("fullcg.gram_pairs", 0)
    out = {
        "exactnum.ring_ops": (sum(calls[k][0] for k in ring), "count"),
        "exactnum.ring_s": (sum(calls[k][2] for k in ring), "s"),
        "exactnum.sqrt_calls": (n("exactnum.sqrt_rational")
                                + n("exactnum.sqrt_product"), "count"),
        "exactnum.sqrt_s": (total("exactnum.sqrt_rational")
                            + total("exactnum.sqrt_product"), "s"),
        "exactnum.squarefree_hit_ratio": (hit_ratio("squarefree_split"),
                                          "ratio"),
        "exactnum.from_json_s": (total("exactnum.from_json_dict"), "s"),
        "labels.calls": (layer("labels", 0), "count"),
        "labels.self_s": (layer("labels", 2), "s"),
        "labels.branching_hit_ratio": (hit_ratio("branching"), "ratio"),
        "su2.calls": (n("su2.su2_cg"), "count"),
        "su2.self_s": (layer("su2", 2), "s"),
        "su2.memo_hit_ratio": (hit_ratio("su2_cg"), "ratio"),
        "su2.memo_size": (memo_size("su2_cg"), "count"),
        "tables.rows_evaluated": (rows, "count"),
        "tables.self_s": (layer("tables", 2), "s"),
        "tables.us_per_row": (
            _ratio(total("tables.ChannelTable.bare_value") * 1e6, rows), "us"),
        "reduced.calls": (n("reduced.reduced"), "count"),
        "reduced.self_s": (layer("reduced", 2), "s"),
        "reduced.memo_hit_ratio": (hit_ratio("reduced"), "ratio"),
        "reduced.memo_size": (memo_size("reduced"), "count"),
        "reduced.symmetry_calls": (n("reduced.symmetry_extend"), "count"),
        "reduced.copy2_calls": (n("reduced.reduced_copy2"), "count"),
        "fullcg.assembly_s": (total("fullcg.coupling_matrix"), "s"),
        "fullcg.gram_s": (total("fullcg.column_gram_deviation")
                          + total("fullcg.row_gram_deviation"), "s"),
        "fullcg.nnz": (counters.get("fullcg.nnz", 0), "count"),
        "fullcg.gram_pairs": (pairs, "count"),
        "fullcg.gram_overlap_ratio": (
            _ratio(counters.get("fullcg.gram_overlapping", 0), pairs),
            "ratio"),
        "oracle.self_s": (layer("oracle", 2), "s"),
        "oracle.compare_calls": (n("oracle.compare"), "count"),
        "verify.checks": (n("verify._run"), "count"),
        "cli.requests": (n("cli.main"), "count"),
        "cli.self_s": (layer("cli", 2), "s"),
        "cache.hits": (hits, "count"),
        "cache.misses": (misses, "count"),
        "cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "cache.load_s": (total("cache.load"), "s"),
        "cache.store_s": (total("cache.store"), "s"),
        "cache.bytes_written": (counters.get("cache.bytes_written", 0),
                                "bytes"),
    }
    for check in VERIFY_CHECKS:
        out[f"verify.check_s.{check}"] = (
            counters.get(f"verify.check_s.{check}", 0.0), "s")
    return out
