"""Machine-checkable invariant suites over the coupling engine.

Each check returns None on success or a short human-readable counterexample
string; the suite runners collect them into a deterministic report that the
command line front end renders as JSON.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .errors import ChannelAbsent, FormulaDomainError
from .exactnum import ONE, ZERO, sqrt_rational
from .fullcg import (
    CouplingMatrix,
    RefusedEntry,
    column_gram_deviation,
    coupling_matrix,
    gram_deviation,
    row_gram_deviation,
)
from .labels import (
    ALL_CHANNELS,
    ENTRY_SHIFTS,
    PART_11,
    PARTS_14,
    Channel,
    EntryShift,
    IrrepLabel,
    So4Label,
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
    _direct,
    _row_values,
    _table_of,
    _transposed,
    _vector,
    _walk,
    channel_present_by_normalization,
    dot,
    mixing,
    symmetry_extend,
)
from .su2 import su2_cg
from .tables import AUX_TABLE


def reduced_unitarity(max_twice_j1: int) -> Optional[str]:
    """Exact Gram identity of the reduced vectors at every (source, t),
    each target block t one Gram sector of the source's channel vectors.
    A reduced value of more than one term, which the Gram refuses, is the
    source's counterexample, named by channel, t and component (2s1, 2s2,
    2p): the source block and the 14-part's spin, doubled."""
    for src in iter_labels(max_twice_j1):
        labels, vectors = [], []
        for ch in channels_present(src):
            value = _row_values(src, ch)
            for t in branching(target_of(src, ch)):
                v = _vector(value, src, t.tj1, t.tj2)
                if v:
                    labels.append((ch, t))
                    vectors.append(v)
        try:
            bad = gram_deviation(labels, vectors, lambda label: label[1])
        except RefusedEntry as exc:
            ch, t = exc.label
            return (f"source {src}: channel {ch}, t {t}, (2s1, 2s2, 2p) = "
                    f"{exc.key}: not a single term: {exc.terms}")
        if bad is not None:
            (c1, t), (c2, _), g = bad
            want = ONE if c1 == c2 else ZERO
            return (f"source {src}, t {t}, channels {c1} x {c2}: "
                    f"gram {g} != {want}")
    return None


def _orthonormality_fault(matrix: CouplingMatrix) -> Optional[str]:
    """The first fault of one coupling matrix C, or None when C is exactly
    orthonormal.

    Three audits in turn: C is square; every entry of a column sits in a
    row of C in the column's magnetic sector; and the column Gram, taken
    sector by sector, is the identity. The support audit makes the sector
    Grams all of CᵀC, and for an exact, real, square C, CᵀC = I implies
    CCᵀ = I, so no row Gram is needed.
    """
    n = 14 * dim(matrix.source)
    if matrix.shape != (n, n):
        return f"shape {matrix.shape} fails the audit"
    sector = {i: row.sector for i, row in enumerate(matrix.rows)}
    for col in matrix.cols:
        want = col.sector
        for i in matrix.columns[col]:
            if sector.get(i) != want:
                row = matrix.rows[i] if i in sector else f"index {i}"
                return f"column {col} has an entry in row {row}"
    bad = column_gram_deviation(matrix)
    if bad is not None:
        a, b, value = bad
        return f"<{a}|{b}> = {value}"
    return None


def full_orthogonality(sources: tuple[IrrepLabel, ...]) -> Optional[str]:
    """The fault of the first source whose coupling matrix has one, or None
    (_orthonormality_fault). A reduced value or SU(2) factor of more than
    one term, which assembly refuses, is the source's fault."""
    for src in sources:
        try:
            # The matrix lives only for this call, so one is held at a time.
            bad = _orthonormality_fault(coupling_matrix(src))
        except ValueError as exc:
            bad = str(exc)
        if bad is not None:
            return f"source {src}: {bad}"
    return None


def full_row_orthogonality(sources: tuple[IrrepLabel, ...]) -> Optional[str]:
    """Exact row orthonormality (completeness) per source.

    No suite runs it: full_orthogonality's support audit and column Gram
    already imply CCᵀ = I, and the row Gram is the dearer of the two. It is
    kept as an independent cross-check of the rows. A value that assembly
    refuses and a column entry outside the rows (EntryOutsideMatrix), both
    ValueErrors, are the source's fault.
    """
    for src in sources:
        try:
            bad = row_gram_deviation(coupling_matrix(src))
        except ValueError as exc:
            return f"source {src}: {exc}"
        if bad is not None:
            a, b, value = bad
            return f"source {src}: rows <{a}|{b}> = {value}"
    return None


def mixing_identities(max_twice_j1: int) -> Optional[str]:
    """<aux, copy1> = X and <aux, aux> = H^2 exactly, per target SO(4) label."""
    copy1 = Channel(0, 0, 1)
    for src in iter_labels(max_twice_j1):
        try:
            c1_value = _row_values(src, copy1)
        except ChannelAbsent:
            continue
        aux_value = _direct(AUX_TABLE, None, src)
        mix = mixing(src)
        for t in branching(src):
            aux = _vector(aux_value, src, t.tj1, t.tj2)
            x_t = dot(aux, _vector(c1_value, src, t.tj1, t.tj2))
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
            target = target_of(src, ch)
            once = _walk(_row_values(src, ch), src, target)
            twice = _walk(_transposed(src, ch), src, target)
            for (ts1, ts2, i, tt1, tt2, value), back in zip(once, twice):
                if back[-1] != value:
                    return (f"source {src}, channel {ch}, "
                            f"t {So4Label(tt1, tt2)}, s {So4Label(ts1, ts2)}, "
                            f"part {ENTRY_SHIFTS[i].part}: {back[-1]} != {value}")
    return None


def presence_agreement(max_twice_j1: int) -> Optional[str]:
    """Multiplicity count and the evaluator's set-up decide presence alike."""
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
    each (j1, j2) matrix C is square and its column Gram, by M, is I. Column
    (J, M) is built only on rows with m1 + m2 = M, so that covers all of
    CᵀC, and a square C with CᵀC = I has CCᵀ = I: its rows are complete."""
    for tj1 in range(max_twice_j + 1):
        for tj2 in range(max_twice_j + 1):
            rows = [(tm1, tm2) for tm1 in range(-tj1, tj1 + 1, 2)
                    for tm2 in range(-tj2, tj2 + 1, 2)]
            cols = [(tJ, tM) for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
                    for tM in range(-tJ, tJ + 1, 2)]
            if len(cols) != len(rows):
                return f"j1 {tj1}/2 j2 {tj2}/2: matrix is not square"
            columns = [{i: su2_cg(tj1, tm1, tj2, tm2, tJ, tM)
                        for i, (tm1, tm2) in enumerate(rows)
                        if tm1 + tm2 == tM} for tJ, tM in cols]
            bad = gram_deviation(cols, columns, lambda col: col[1])
            if bad is not None:
                (ja, tm), (jb, _), value = bad
                return (f"j1 {tj1}/2 j2 {tj2}/2 M {tm}/2: "
                        f"<J {ja}/2|J {jb}/2> = {value}")
    return None


class CheckResult(NamedTuple):
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
    full_bound = min(max_twice_j, 6)
    full_sources = tuple(iter_labels(full_bound))
    return [
        _run(f"reduced_unitarity <= {max_twice_j}",
             lambda: reduced_unitarity(max_twice_j)),
        _run(f"full_orthogonality <= {full_bound}",
             lambda: full_orthogonality(full_sources)),
    ]


def suite_mixing(max_twice_j: int, *_) -> list[CheckResult]:
    return [
        _run(f"mixing_identities <= {max_twice_j}",
             lambda: mixing_identities(max_twice_j)),
        _run(f"presence_agreement <= {max_twice_j}",
             lambda: presence_agreement(max_twice_j)),
        _run(f"normalization_positivity <= {max_twice_j}",
             lambda: normalization_positivity(max_twice_j)),
        _run(f"guarded_zero <= {max_twice_j}",
             lambda: guarded_zero_consistency(max_twice_j)),
    ]


def suite_symmetry(max_twice_j: int, *_) -> list[CheckResult]:
    return [
        _run(f"symmetry_involution <= {max_twice_j}",
             lambda: symmetry_involution(max_twice_j)),
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
    if max_twice_j < 0:  # it would sweep nothing and pass
        raise ValueError(f"max_twice_j must be >= 0, got {max_twice_j}")
    if not 0 <= tol < float("inf"):  # no deviation exceeds a NaN tol
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if source is not None and suite not in ("oracle", "all"):
        raise ValueError(f"a source restricts only the oracle and all "
                         f"suites, not {suite}")
    if suite == "all":
        return [result for run in SUITES.values()
                for result in run(max_twice_j, tol, source)]
    if suite not in SUITES:
        raise ValueError(f"unknown suite: {suite}")
    return SUITES[suite](max_twice_j, tol, source)
