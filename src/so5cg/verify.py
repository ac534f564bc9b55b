"""Machine-checkable invariant suites over the coupling engine.

Each check returns None on success or a short human-readable counterexample
string; the suite runners collect them into a deterministic report that the
command line front end renders as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import FormulaDomainError
from .exactnum import ONE, ZERO, sqrt_rational
from .fullcg import (
    column_gram_deviation,
    coupling_matrix,
    gram_deviation,
    row_gram_deviation,
    transpose,
)
from .labels import (
    ALL_CHANNELS,
    ENTRY_SHIFTS,
    PART_11,
    PARTS_14,
    Channel,
    EntryShift,
    IrrepLabel,
    branching,
    channels_present,
    dim,
    iter_labels,
    multiplicity_of,
    reach,
    target_of,
)
from .reduced import (
    ReducedKey,
    _table_of,
    aux_vector,
    channel_present_by_normalization,
    dot,
    mixing,
    reduced_vector,
    symmetry_extend,
    table_rows,
)
from .su2 import su2_cg


def reduced_unitarity(max_twice_j1: int) -> Optional[str]:
    """Exact Gram identity of the reduced vectors at every (source, t),
    each target block t one Gram sector of the source's channel vectors."""
    for src in iter_labels(max_twice_j1):
        labels, vectors = [], []
        for ch in channels_present(src):
            for t in branching(target_of(src, ch)):
                v = reduced_vector(src, ch, t)
                if v:
                    labels.append((ch, t))
                    vectors.append(v)
        bad = gram_deviation(labels, vectors, lambda label: label[1])
        if bad is not None:
            (c1, t), (c2, _), g = bad
            want = ONE if c1 == c2 else ZERO
            return (f"source {src}, t {t}, channels {c1} x {c2}: "
                    f"gram {g} != {want}")
    return None


def full_orthogonality(sources: tuple[IrrepLabel, ...]) -> Optional[str]:
    """Exact column orthonormality plus the squareness audit per source."""
    for src in sources:
        matrix = coupling_matrix(src)
        if matrix.shape != (14 * dim(src), 14 * dim(src)):
            return f"source {src}: shape {matrix.shape} fails the audit"
        bad = column_gram_deviation(matrix)
        if bad is not None:
            a, b, value = bad
            return f"source {src}: <{a}|{b}> = {value}"
    return None


def full_row_orthogonality(sources: tuple[IrrepLabel, ...]) -> Optional[str]:
    """Exact row orthonormality (completeness) per source."""
    for src in sources:
        bad = row_gram_deviation(coupling_matrix(src))
        if bad is not None:
            a, b, value = bad
            return f"source {src}: rows <{a}|{b}> = {value}"
    return None


def mixing_identities(max_twice_j1: int) -> Optional[str]:
    """<aux, copy1> = X and <aux, aux> = H^2 exactly, per target SO(4) label."""
    copy1 = Channel(0, 0, 1)
    for src in iter_labels(max_twice_j1):
        if not channel_present_by_normalization(src, copy1):
            continue
        mix = mixing(src)
        for t in branching(src):
            aux = aux_vector(src, t)
            c1v = reduced_vector(src, copy1, t)
            x_t = dot(aux, c1v)
            if x_t != mix.x:
                return f"source {src}, t {t}: <aux,copy1> = {x_t} != {mix.x}"
            h2_t = dot(aux, aux)
            if h2_t != mix.h2:
                return f"source {src}, t {t}: <aux,aux> = {h2_t} != {mix.h2}"
    return None


def symmetry_involution(max_twice_j1: int) -> Optional[str]:
    """Applying the transposition relation twice returns every raising entry."""
    for src in iter_labels(max_twice_j1):
        for ch in channels_present(src):
            if not ch.is_raising:
                continue
            for row in table_rows(src, ch):
                w = symmetry_extend(ReducedKey(src, ch, row.source_so4,
                                               row.entry))
                if w != row.value:
                    return (f"source {src}, channel {ch}, t {row.target_so4}, "
                            f"s {row.source_so4}, part {row.entry.part}: "
                            f"{w} != {row.value}")
    return None


def presence_agreement(max_twice_j1: int) -> Optional[str]:
    """Multiplicity count and normalization positivity decide presence alike."""
    for src in iter_labels(max_twice_j1):
        for ch in ALL_CHANNELS:
            tgt = target_of(src, ch)
            by_mult = tgt is not None and multiplicity_of(src, tgt) >= ch.copy
            by_norm = channel_present_by_normalization(src, ch)
            if by_mult != by_norm:
                return (f"source {src}, channel {ch}: multiplicity says "
                        f"{by_mult}, normalization says {by_norm}")
    return None


def guarded_zero_consistency(max_twice_j1: int) -> Optional[str]:
    """Outside the branching the printed formulas themselves vanish.

    Cells that refuse evaluation on a negative radicand are vacuously
    consistent; evaluable guarded cells must give exactly zero.
    """
    for src in iter_labels(max_twice_j1):
        for ch in channels_present(src):
            if ch.is_lowering or ch.copy == 2:
                continue
            table = _table_of(ch)
            tgt = target_of(src, ch)
            for s in branching(src):
                for entry in ENTRY_SHIFTS:
                    if reach(tgt, s, entry.tdj1, entry.tdj2) is not None:
                        continue
                    try:
                        v = table.bare_value(entry, *s.twice, *src.twice)
                    except FormulaDomainError:
                        continue
                    if v:
                        return (f"source {src}, channel {ch}, s {s}, "
                                f"entry {entry}: guarded cell evaluates to {v}")
    return None


def normalization_positivity(max_twice_j1: int) -> Optional[str]:
    """Every factor under a present channel's inverse square root is > 0.

    The factors are reported as the tables evaluate them: each one times
    2**degree, at the doubled spins.
    """
    for src in iter_labels(max_twice_j1):
        for ch in channels_present(src):
            if ch.is_lowering or ch.copy == 2:
                continue
            values = _table_of(ch).factor_values(*src.twice)
            if any(v <= 0 for v in values):
                return f"source {src}, channel {ch}: factors {values}"
    return None


def su2_orthogonality(max_twice_j: int) -> Optional[str]:
    """Orthogonality and completeness of the SO(3) layer up to the bound:
    each (j1, j2) matrix's columns (J, M) by M, then its rows (m1, m2)."""
    for tj1 in range(max_twice_j + 1):
        for tj2 in range(max_twice_j + 1):
            rows = [(tm1, tm2) for tm1 in range(-tj1, tj1 + 1, 2)
                    for tm2 in range(-tj2, tj2 + 1, 2)]
            cols = [(tJ, tM) for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
                    for tM in range(-tJ, tJ + 1, 2)]
            columns = [{i: su2_cg(tj1, tm1, tj2, tm2, tJ, tM)
                        for i, (tm1, tm2) in enumerate(rows)
                        if tm1 + tm2 == tM} for tJ, tM in cols]
            bad = gram_deviation(cols, columns, lambda col: col[1])
            if bad is not None:
                (ja, tm), (jb, _), value = bad
                return (f"j1 {tj1}/2 j2 {tj2}/2 M {tm}/2: "
                        f"<J {ja}/2|J {jb}/2> = {value}")
            bad = gram_deviation(rows, transpose(columns, len(rows)),
                                 lambda row: row[0] + row[1])
            if bad is not None:
                (a1, a2), (b1, b2), value = bad
                return (f"j1 {tj1}/2 j2 {tj2}/2: completeness "
                        f"({a1},{a2}) x ({b1},{b2}) = {value}")
    return None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    counterexample: Optional[str]

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _run(name: str, fn: Callable[[], Optional[str]]) -> CheckResult:
    bad = fn()
    return CheckResult(name, bad is None, bad)


def suite_orthogonality(max_twice_j: int, *_) -> list[CheckResult]:
    full_bound = min(max_twice_j, 4)
    full_sources = tuple(iter_labels(full_bound))
    return [
        _run(f"reduced_unitarity <= {max_twice_j}",
             lambda: reduced_unitarity(max_twice_j)),
        _run(f"full_orthogonality <= {full_bound}",
             lambda: full_orthogonality(full_sources)),
        _run(f"row_orthogonality <= {full_bound}",
             lambda: full_row_orthogonality(full_sources)),
    ]


def suite_mixing(max_twice_j: int, *_) -> list[CheckResult]:
    return [
        _run(f"mixing_identities <= {max_twice_j}",
             lambda: mixing_identities(max_twice_j)),
        _run(f"presence_agreement <= {max_twice_j}",
             lambda: presence_agreement(max_twice_j)),
        _run(f"normalization_positivity <= {max_twice_j}",
             lambda: normalization_positivity(max_twice_j)),
        _run(f"guarded_zero <= {min(max_twice_j, 6)}",
             lambda: guarded_zero_consistency(min(max_twice_j, 6))),
    ]


def suite_symmetry(max_twice_j: int, *_) -> list[CheckResult]:
    bound = min(max_twice_j, 4)
    return [
        _run(f"symmetry_involution <= {bound}",
             lambda: symmetry_involution(bound)),
        _run("symmetry_example", _symmetry_example),
    ]


def _symmetry_example() -> Optional[str]:
    # (1,1) -> (0,0): one lowering component per 14-part
    lowering = {(p, p): symmetry_extend(ReducedKey(
                    IrrepLabel(2, 2), Channel(-2, -2), p,
                    EntryShift(-p.tj1, -p.tj2, p)))
                for p in PARTS_14}
    value = lowering[(PART_11, PART_11)]
    if value * value != sqrt_rational(Fraction(81, 196)):
        return f"lowering example squared is {value * value}, want 9/14"
    squares = dot(lowering, lowering)
    if squares != ONE:
        return f"lowering squares sum to {squares}, want 1"
    return None


def suite_su2(max_twice_j: int, *_) -> list[CheckResult]:
    return [
        _run(f"su2_orthogonality <= {min(max_twice_j, 6)}",
             lambda: su2_orthogonality(min(max_twice_j, 6))),
    ]


def suite_oracle(_max_twice_j: int, tol: float,
                 source: Optional[IrrepLabel]) -> list[CheckResult]:
    from .oracle import compare, numeric_decompose
    from .labels import decompose_with_14

    def one(src: IrrepLabel) -> Optional[str]:
        report = compare(src, tol=tol)
        if not report.passed:
            worst = max(report.blocks, key=lambda b: max(b.max_abs_dev,
                                                         b.projector_dev))
            return (f"source {src}, block {worst.target}: "
                    f"dev {worst.max_abs_dev:.3e}, "
                    f"projector {worst.projector_dev:.3e}")
        return None

    if source is not None:
        return [_run(f"oracle_compare {source}", lambda: one(source))]

    def content_sweep() -> Optional[str]:
        for src in iter_labels(8):
            if dim(src) > 35:
                continue
            nd = numeric_decompose(src)
            exact = {e.target: e.multiplicity for e in decompose_with_14(src)}
            if nd.content() != exact:
                return f"source {src}: numeric {nd.content()} != {exact}"
        return None

    checks = [_run("oracle_decompose dim<=35", content_sweep)]
    for t in [(1, 0), (1, 1), (2, 0)]:
        src = IrrepLabel(*t)
        checks.append(_run(f"oracle_compare {src}", lambda s=src: one(s)))
    checks.append(_run("oracle_compare 3/2,1/2 (copy 2)",
                       lambda: one(IrrepLabel(3, 1))))
    return checks


# Every suite by name, each called with (max_twice_j, tol, source), in the
# order that "all" runs them.
SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "orthogonality": suite_orthogonality,
    "mixing": suite_mixing,
    "symmetry": suite_symmetry,
    "su2": suite_su2,
    "oracle": suite_oracle,
}


def run_suite(suite: str, max_twice_j: int = 8, tol: float = 1e-9,
              source: Optional[IrrepLabel] = None) -> list[CheckResult]:
    if suite == "all":
        return [result for run in SUITES.values()
                for result in run(max_twice_j, tol, source)]
    if suite not in SUITES:
        raise ValueError(f"unknown suite: {suite}")
    return SUITES[suite](max_twice_j, tol, source)
