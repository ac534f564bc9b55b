"""Independent numeric cross-check of the exact coupling engine.

Spin(5) irreps are constructed from scratch inside tensor powers of the
5-dim vector and 4-dim spinor representations, the product with the 14-dim
rep is decomposed by simultaneous diagonalization of the Casimir and the
two SO(3) chains, and the resulting numeric coefficients are compared with
the exact ones.  Nothing here consults the closed-form tables except the
final comparison step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateBasis, DimensionCap, EigenFailure
from .fullcg import ColState, CouplingMatrix, coupling_matrix
from .labels import (
    FOURTEEN,
    IrrepLabel,
    branching,
    decompose_with_14,
    dim,
    iter_labels,
)

DEFAULT_CAP = 64
# Largest Frobenius deviation of a block's subspace projector that compare
# passes.
PROJECTOR_TOL = 1e-8
CLUSTER_TOL = 1e-6


def _kron_all(mats: list[np.ndarray]) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def gamma5() -> list[np.ndarray]:
    """Five 4x4 Hermitian matrices with {G_a, G_b} = 2 delta_ab."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    one = np.eye(2, dtype=complex)
    return [np.kron(s1, s1), np.kron(s1, s2), np.kron(s1, s3),
            np.kron(s2, one), np.kron(s3, one)]


def _spinor_generators() -> dict[tuple[int, int], np.ndarray]:
    g = gamma5()
    return {(a, b): (g[a] @ g[b] - g[b] @ g[a]) / 4j
            for a in range(5) for b in range(a + 1, 5)}


def _vector_generators() -> dict[tuple[int, int], np.ndarray]:
    out = {}
    for a in range(5):
        for b in range(a + 1, 5):
            m = np.zeros((5, 5), dtype=complex)
            m[a, b] = -1j
            m[b, a] = 1j
            out[(a, b)] = m
    return out


PAIRS = [(a, b) for a in range(5) for b in range(a + 1, 5)]


def _m(gens: dict, a: int, b: int) -> np.ndarray:
    if a < b:
        return gens[(a, b)]
    return -gens[(b, a)]


@dataclass(frozen=True)
class Su2Ops:
    """One SO(3) chain: z component, raising, lowering, total square."""

    z: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    square: np.ndarray


def _su2_pair(gens: dict) -> tuple[Su2Ops, Su2Ops]:
    """The two commuting SO(3) chains living inside the a,b <= 3 generators.

    Orientation (which of x +- iy raises) is fixed by the commutator with z,
    so the construction is convention-proof.
    """
    l1, l2, l3 = _m(gens, 1, 2), -_m(gens, 0, 2), _m(gens, 0, 1)
    k1, k2, k3 = _m(gens, 0, 3), _m(gens, 1, 3), _m(gens, 2, 3)
    ops = []
    for sgn in (+1, -1):
        jx = (l1 + sgn * k1) / 2
        jy = (l2 + sgn * k2) / 2
        jz = (l3 + sgn * k3) / 2
        jp = jx + 1j * jy
        if np.linalg.norm(jz @ jp - jp @ jz - jp) > np.linalg.norm(jp) * 1e-8:
            jp = jx - 1j * jy
        jm = jp.conj().T
        ops.append(Su2Ops(jz, jp, jm, (jp @ jm + jm @ jp) / 2 + jz @ jz))
    return ops[0], ops[1]


@dataclass
class RepMatrices:
    """A numerically constructed irrep with an SO(3) x SO(3) labeled basis."""

    label: IrrepLabel
    generators: dict[tuple[int, int], np.ndarray]
    basis: list[tuple[int, int, int, int]]  # doubled (j1, j2, m1, m2) tags

    @property
    def size(self) -> int:
        return len(self.basis)

    def casimir(self) -> np.ndarray:
        n = self.size
        c = np.zeros((n, n), dtype=complex)
        for p in PAIRS:
            g = self.generators[p]
            c += g @ g
        return c


def _eig_clusters(matrix: np.ndarray, vectors: np.ndarray,
                  tol: float = CLUSTER_TOL) -> list[tuple[float, np.ndarray]]:
    """Split an orthonormal set by the Hermitian operator restricted to it."""
    a = vectors.conj().T @ (matrix @ vectors)
    a = (a + a.conj().T) / 2
    w, u = np.linalg.eigh(a)
    groups: list[tuple[float, np.ndarray]] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tol:
            cols = vectors @ u[:, start:i]
            groups.append((float(np.mean(w[start:i])), cols))
            start = i
    return groups


def _half_int_from(value: float, what: str, scale: float = 1.0) -> int:
    doubled = round(2 * value)
    if abs(2 * value - doubled) > 1e-6 * max(1.0, scale):
        raise EigenFailure(f"{what} eigenvalue {value} is not half-integral")
    return int(doubled)


def _j_from_square(value: float, what: str) -> int:
    j = (-1 + np.sqrt(max(0.0, 1 + 4 * value))) / 2
    return _half_int_from(j, what, scale=j + 1)


def _labeled_basis(gens: dict, n: int) -> list[tuple[tuple[int, int, int, int], np.ndarray]]:
    """Simultaneously diagonalize both chains and phase-lock each block.

    Within every (j1, j2) block the top state (m1=j1, m2=j2) gets a canonical
    phase (largest component real positive) and all lower states are produced
    by the two lowering operators, so the whole block is phase-coherent.
    """
    ju, jv = _su2_pair(gens)
    whole = np.eye(n, dtype=complex)
    out = []
    for sq1, v1 in _eig_clusters(ju.square, whole):
        tj1 = _j_from_square(sq1, "J1 square")
        for sq2, v2 in _eig_clusters(jv.square, v1):
            tj2 = _j_from_square(sq2, "J2 square")
            for z1, v3 in _eig_clusters(ju.z, v2):
                if _half_int_from(z1, "J1z") != tj1:
                    continue
                for z2, top in _eig_clusters(jv.z, v3):
                    if _half_int_from(z2, "J2z") != tj2:
                        continue
                    # top holds the (m1, m2) = (j1, j2) states of every
                    # multiplicity copy of this (j1, j2) block
                    for copy in range(top.shape[1]):
                        vec = top[:, copy]
                        pivot = int(np.argmax(np.abs(vec)))
                        vec = vec * (abs(vec[pivot]) / vec[pivot])
                        # generate all lower states by the two chains
                        states = {(tj1, tj2): vec}
                        for tm1 in range(tj1, -tj1, -2):
                            prev = states[(tm1, tj2)]
                            fac = np.sqrt((tj1 + tm1) * (tj1 - tm1 + 2)) / 2
                            states[(tm1 - 2, tj2)] = (ju.minus @ prev) / fac
                        for tm1 in range(tj1, -tj1 - 2, -2):
                            for tm2 in range(tj2, -tj2, -2):
                                prev = states[(tm1, tm2)]
                                fac = np.sqrt((tj2 + tm2) * (tj2 - tm2 + 2)) / 2
                                states[(tm1, tm2 - 2)] = (jv.minus @ prev) / fac
                        for (tm1, tm2), v in states.items():
                            out.append(((tj1, tj2, tm1, tm2), v))
    return out


def _retag(gens: dict, n: int) -> tuple[dict, list[tuple[int, int, int, int]]]:
    """Rewrite generators in the labeled basis, tags sorted lexicographically."""
    tagged = _labeled_basis(gens, n)
    tagged.sort(key=lambda tv: tv[0])
    if len(tagged) != n:
        raise EigenFailure(f"labeled basis has {len(tagged)} of {n} states")
    u = np.column_stack([v for _, v in tagged])
    resid = np.linalg.norm(u.conj().T @ u - np.eye(n))
    if resid > 1e-8:
        raise DegenerateBasis(f"labeled basis not orthonormal: {resid:.2e}")
    new_gens = {p: u.conj().T @ (g @ u) for p, g in gens.items()}
    return new_gens, [t for t, _ in tagged]


@lru_cache(maxsize=None)
def build_irrep(label: IrrepLabel) -> RepMatrices:
    """Construct one irrep inside V^(2 j2bar) x S^(2 j1bar - 2 j2bar).

    The product of the factors' highest-weight states is the unique maximal
    weight vector; the irrep is its closure under all ten generators,
    orthonormalized as it grows.
    """
    n = dim(label)
    if n > DEFAULT_CAP:
        raise DimensionCap(f"dim {n} exceeds cap {DEFAULT_CAP} for {label}")
    nv = label.tj2
    ns = label.tj1 - label.tj2
    vg = _vector_generators()
    sg = _spinor_generators()
    factors = [(5, vg)] * nv + [(4, sg)] * ns
    if not factors:
        gens = {p: np.zeros((1, 1), dtype=complex) for p in PAIRS}
        return RepMatrices(label, gens, [(0, 0, 0, 0)])
    sizes = [s for s, _ in factors]
    total = int(np.prod(sizes))
    gens = {}
    for p in PAIRS:
        g = np.zeros((total, total), dtype=complex)
        for i, (_, fg) in enumerate(factors):
            mats = [fg[p] if k == i else np.eye(sizes[k], dtype=complex)
                    for k in range(len(factors))]
            g += _kron_all(mats)
        gens[p] = g

    # highest-weight vector: each vector factor at weight (1,0), each spinor
    # factor at weight (1/2,1/2), in the H1 = M12, H2 = M34 Cartan frame
    def top_state(size: int, fg: dict) -> np.ndarray:
        h1, h2 = _m(fg, 0, 1), _m(fg, 2, 3)
        want = (1.0, 0.0) if size == 5 else (0.5, 0.5)
        w1, u = np.linalg.eigh(h1)
        for i in range(size):
            if abs(w1[i] - want[0]) < 1e-9:
                vec = u[:, i:i + 1]
                w2 = (vec.conj().T @ (h2 @ vec))[0, 0].real
                if abs(w2 - want[1]) < 1e-9:
                    return vec[:, 0]
        # the (1,0) weight space of the vector rep is degenerate with others
        # under h1 alone only through rounding; refine jointly
        for val1, v1 in _eig_clusters(h1, np.eye(size, dtype=complex)):
            if abs(val1 - want[0]) < 1e-9:
                for val2, v2 in _eig_clusters(h2, v1):
                    if abs(val2 - want[1]) < 1e-9:
                        return v2[:, 0]
        raise DegenerateBasis(f"no factor state of weight {want}")

    v0 = _kron_all([top_state(s, fg).reshape(-1, 1) for s, fg in factors])[:, 0]
    v0 = v0 / np.linalg.norm(v0)

    basis = [v0]
    queue = [v0]
    while queue and len(basis) <= n:
        v = queue.pop(0)
        for p in PAIRS:
            w = gens[p] @ v
            for b in basis:
                w = w - b * (b.conj() @ w)
            for b in basis:
                w = w - b * (b.conj() @ w)
            norm = np.linalg.norm(w)
            if norm > 1e-8:
                w = w / norm
                basis.append(w)
                queue.append(w)
    if len(basis) != n:
        raise DegenerateBasis(
            f"closure from the highest weight gives {len(basis)} states, "
            f"expected {n} for {label}")
    u = np.column_stack(basis)
    small = {p: u.conj().T @ (g @ u) for p, g in gens.items()}
    tagged, tags = _retag(small, n)
    return RepMatrices(label, tagged, tags)


def casimir_value(label: IrrepLabel) -> float:
    """Expected Casimir ratio anchor: l1(l1+3) + l2(l2+1) in weight coords."""
    l1 = (label.tj1 + label.tj2) / 2
    l2 = (label.tj1 - label.tj2) / 2
    return l1 * (l1 + 3) + l2 * (l2 + 1)


@dataclass
class NumericBlock:
    """One coupled irrep block recovered numerically."""

    target: IrrepLabel
    multiplicity: int
    # (t, mt1, mt2) doubled -> (N x multiplicity) orthonormal columns
    cells: dict[tuple[int, int, int, int], np.ndarray]


@dataclass
class NumericDecomposition:
    source: IrrepLabel
    blocks: list[NumericBlock]
    product_tags: list[tuple[tuple[int, ...], tuple[int, ...]]]

    def content(self) -> dict[IrrepLabel, int]:
        return {b.target: b.multiplicity for b in self.blocks}


def _product_rep(source: IrrepLabel) -> tuple[dict, list]:
    left = build_irrep(source)
    right = build_irrep(FOURTEEN)
    nl, nr = left.size, right.size
    il, ir = np.eye(nl, dtype=complex), np.eye(nr, dtype=complex)
    gens = {p: np.kron(left.generators[p], ir) + np.kron(il, right.generators[p])
            for p in PAIRS}
    tags = [(lt, rt) for lt in left.basis for rt in right.basis]
    return gens, tags


def _candidates(max_tj1: int) -> list[IrrepLabel]:
    return list(iter_labels(max_tj1 + 2))


def numeric_decompose(source: IrrepLabel) -> NumericDecomposition:
    """Decompose source x 14 by simultaneous diagonalization.

    Blocks are identified by their (j1, j2) content signature; the Casimir
    ratio against the 14-dim baseline is asserted as a cross-check.
    """
    gens, tags = _product_rep(source)
    n = len(tags)
    ju, jv = _su2_pair(gens)
    cas = np.zeros((n, n), dtype=complex)
    for p in PAIRS:
        cas += gens[p] @ gens[p]
    fourteen = build_irrep(FOURTEEN)
    c14 = fourteen.casimir()
    baseline = c14[0, 0].real / casimir_value(FOURTEEN)
    if np.linalg.norm(c14 - baseline * casimir_value(FOURTEEN) * np.eye(14)) > 1e-8:
        raise EigenFailure("Casimir is not scalar on the 14-dim rep")

    blocks = []
    for cval, cvecs in _eig_clusters(cas, np.eye(n, dtype=complex)):
        # label every state of the cluster through the two chains
        content: dict[tuple[int, int], int] = {}
        cells: dict[tuple[int, int, int, int], np.ndarray] = {}
        for sq1, v1 in _eig_clusters(ju.square, cvecs):
            tj1 = _j_from_square(sq1, "J1 square")
            for sq2, v2 in _eig_clusters(jv.square, v1):
                tj2 = _j_from_square(sq2, "J2 square")
                for z1, v3 in _eig_clusters(ju.z, v2):
                    tm1 = _half_int_from(z1, "J1z")
                    for z2, v4 in _eig_clusters(jv.z, v3):
                        tm2 = _half_int_from(z2, "J2z")
                        cells[(tj1, tj2, tm1, tm2)] = v4
                        if (tm1, tm2) == (tj1, tj2):
                            content[(tj1, tj2)] = v4.shape[1]
        target, mult = _identify(content, cval, baseline)
        blocks.append(NumericBlock(target, mult, cells))
    blocks.sort(key=lambda b: (b.target.tj1, b.target.tj2))
    total = sum(b.multiplicity * dim(b.target) for b in blocks)
    if total != n:
        raise EigenFailure(f"blocks cover {total} of {n} product states")
    return NumericDecomposition(source, blocks, tags)


def _identify(content: dict[tuple[int, int], int], cval: float,
              baseline: float) -> tuple[IrrepLabel, int]:
    """Match a Casimir cluster's block content to a unique irrep label."""
    if not content:
        raise EigenFailure("empty Casimir cluster")
    max_tj1 = max(t[0] for t in content)
    for cand in _candidates(max_tj1):
        want = {(s.tj1, s.tj2) for s in branching(cand)}
        if set(content) != want:
            continue
        mults = {content[t] for t in content}
        if len(mults) != 1:
            continue
        mult = mults.pop()
        expected = baseline * casimir_value(cand)
        if abs(cval - expected) > 1e-6 * max(1.0, abs(expected)):
            raise EigenFailure(
                f"content matches {cand} but Casimir {cval:.6f} != {expected:.6f}")
        return cand, mult
    raise EigenFailure(f"no irrep label matches content {sorted(content)}")


@dataclass
class BlockReport:
    target: IrrepLabel
    copy_count: int
    max_abs_dev: float
    projector_dev: float


@dataclass
class ComparisonReport:
    source: IrrepLabel
    blocks: list[BlockReport]
    passed: bool


def _analytic_columns(matrix: CouplingMatrix,
                      tag_index: dict) -> dict[ColState, np.ndarray]:
    """Exact columns realized as float vectors over the numeric product basis."""
    out = {}
    n = len(tag_index)
    for col in matrix.cols:
        v = np.zeros(n, dtype=complex)
        column = matrix.columns[col]
        for i in column:
            row = matrix.rows[i]
            lt = (row.source_so4.tj1, row.source_so4.tj2,
                  row.m1.twice, row.m2.twice)
            rt = (row.part.tj1, row.part.tj2,
                  row.pm1.twice, row.pm2.twice)
            v[tag_index[(lt, rt)]] = float(column.value(i))
        out[col] = v
    return out


def _gauge_classes(tags: list) -> np.ndarray:
    """Class id per product index: one gauge phase per (block, block) pair."""
    keys = sorted({(lt[:2], rt[:2]) for lt, rt in tags})
    lookup = {k: i for i, k in enumerate(keys)}
    return np.array([lookup[(lt[:2], rt[:2])] for lt, rt in tags]), len(keys)


def _sync_gauge(p_num: np.ndarray, p_ana: np.ndarray,
                classes: np.ndarray, nclasses: int) -> np.ndarray:
    """Per-class phases aligning P_ana with P_num before the Frobenius test.

    The basis realization of each (j1,j2) block of either factor carries one
    free phase that no independent construction can pin; those phases are
    recovered by propagating the observed phase of the class-pair overlaps
    along each connected component of the overlap graph.  Classes in
    different components share no nonzero projector entries, so their
    relative phase is unobservable and may be fixed arbitrarily.  Any model
    violation survives into the reported Frobenius deviation.
    """
    t = np.zeros((nclasses, nclasses), dtype=complex)
    prod = np.conj(p_ana) * p_num
    for g in range(nclasses):
        rows = classes == g
        for h in range(nclasses):
            t[g, h] = prod[np.ix_(rows, classes == h)].sum()
    thresh = 1e-8 * max(np.abs(t).max(), 1e-300)
    phases = np.ones(nclasses, dtype=complex)
    visited = np.zeros(nclasses, dtype=bool)
    for root in range(nclasses):
        if visited[root]:
            continue
        visited[root] = True
        queue = [root]
        while queue:
            g = queue.pop(0)
            for h in range(nclasses):
                if not visited[h] and abs(t[g, h]) > thresh:
                    ratio = t[g, h] / abs(t[g, h])
                    # t_gh ~ w e^{i(d_g - d_h)} with w > 0
                    phases[h] = phases[g] / ratio
                    visited[h] = True
                    queue.append(h)
    return phases[classes]


def compare(source: IrrepLabel, tol: float = 1e-9) -> ComparisonReport:
    """Compare numeric and exact coefficients block by block.

    Per-component moduli are gauge-proof and drive max_abs_dev; for each
    block the subspace projectors are compared in Frobenius norm after
    synchronizing the unobservable per-block basis phases.  For blocks with
    two copies the moduli comparison uses the within-cell projector diagonal,
    which is invariant under rotations of the numeric multiplicity basis.
    """
    nd = numeric_decompose(source)
    exact = {e.target: e.multiplicity for e in decompose_with_14(source)}
    if nd.content() != exact:
        raise EigenFailure(
            f"numeric content {nd.content()} != exact {exact} for {source}")
    matrix = coupling_matrix(source)
    tag_index = {t: i for i, t in enumerate(nd.product_tags)}
    acols = _analytic_columns(matrix, tag_index)
    classes, nclasses = _gauge_classes(nd.product_tags)
    n = len(nd.product_tags)

    by_block: dict[IrrepLabel, list[ColState]] = {}
    for col in matrix.cols:
        by_block.setdefault(col.target, []).append(col)

    reports = []
    passed = True
    for block in nd.blocks:
        cols = by_block[block.target]
        max_dev = 0.0
        a_all = np.column_stack([acols[col] for col in cols])
        p_ana = a_all @ a_all.conj().T
        v_all = np.column_stack([block.cells[k] for k in sorted(block.cells)])
        p_num = v_all @ v_all.conj().T
        if block.multiplicity == 1:
            for col in cols:
                key = (col.target_so4.tj1, col.target_so4.tj2,
                       col.mt1.twice, col.mt2.twice)
                vnum = block.cells[key][:, 0]
                dev = float(np.max(np.abs(np.abs(vnum) - np.abs(acols[col]))))
                max_dev = max(max_dev, dev)
        else:
            for key, cell in block.cells.items():
                group = [c for c in cols
                         if (c.target_so4.tj1, c.target_so4.tj2,
                             c.mt1.twice, c.mt2.twice) == key]
                d_num = np.sum(np.abs(cell) ** 2, axis=1)
                d_ana = np.zeros(n)
                for c in group:
                    d_ana += np.abs(acols[c]) ** 2
                max_dev = max(max_dev, float(np.max(np.abs(d_num - d_ana))))
        gauge = _sync_gauge(p_num, p_ana, classes, nclasses)
        p_rot = p_ana * np.outer(gauge, np.conj(gauge))
        proj_dev = float(np.linalg.norm(p_num - p_rot))
        reports.append(BlockReport(block.target, block.multiplicity,
                                   max_dev, proj_dev))
        if max_dev > tol or proj_dev > PROJECTOR_TOL:
            passed = False
    return ComparisonReport(source, reports, passed)
