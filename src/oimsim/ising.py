"""Ising / max-cut instances, their coupling operators, energies, and an exact small-n oracle.

Conventions used throughout the package:

* Hamiltonian ``H(s) = -sum_{i<j} J_ij s_i s_j - sum_i h_i s_i`` with each
  unordered pair counted once.
* A max-cut graph with weights ``w_ij`` maps to couplings ``J_ij = -w_ij``
  and zero field, so that ``cut(s) = (W - H(s)) / 2`` for every assignment,
  where ``W`` is the total edge weight.  Minimizing H maximizes the cut.
"""
from __future__ import annotations

import io
import numbers
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, TextIO

import numpy as np

from .errors import CapacityError, GraphParseError

BRUTE_FORCE_MAX_N = 24
_CHUNK_BITS = 14
_BLOCK_ELEMENTS = 1 << 16   # gathered terms per row block of a CSR product


# An IsingInstance holds CSR arrays instead of the dense J when it has at
# least _SPARSE_MIN_N spins and at most one nonzero coupling in
# _SPARSE_FILL_DIVISOR.  Coupling-kernel times from three bench/rhs_layer.py
# runs (BENCH_rhs_29c8af7-dirty.json is the first; one BLAS thread, x86_64,
# a noisy shared host), in us per call, of two dense matrix-vector products
# against the CSR level kernel that +-1 couplings take:
# - 6% fill: about even at n = 200 (11-18 against 13-23); CSR about 1.7x
#   faster at n = 400, 3x at 500, 4.5x at 800 and 6.5x at 2000.
# - 1/8 fill: about even at n = 400; CSR about 1.3x faster at n = 500, 3x
#   at 800 and 2.4x at 2000.
# - 1/4 fill: about even from n = 500 to 2000.
# - Full fill: dense faster at every size, 3x at n = 800.
# Continuous weights take the weight kernel, up to 1.7x slower than the
# level kernel at 6% fill; for them the crossover stays near n = 400 at 6%
# fill, as measured before.  For +-1 graphs it lies below _SPARSE_MIN_N in
# size and near 1/4 in fill.  The constants stay as they are: a graph that
# changed path would change bits.
_SPARSE_FILL_DIVISOR = 8
_SPARSE_MIN_N = 500


def _prefers_csr(n: int, nnz: int) -> bool:
    """The size-and-fill rule: CSR for n >= _SPARSE_MIN_N spins with at most
    one nonzero coupling in _SPARSE_FILL_DIVISOR, dense J otherwise."""
    return n >= _SPARSE_MIN_N and nnz * _SPARSE_FILL_DIVISOR <= n * n


class _Dense:
    """The coupling operator of a dense J, made read-only, with the methods of
    ``_CSR``: ``coupling()``, ``products(x)`` (``x @ J``) and ``dense()``."""

    def __init__(self, J: np.ndarray):
        J.setflags(write=False)
        self.J = J

    def coupling(self):
        """(J cos theta, J sin theta) of z = cos theta + i sin theta, as two
        BLAS matrix-vector products on z's parts, into two new arrays."""
        J = self.J
        return lambda z: (J @ z.real, J @ z.imag)

    def products(self, x: np.ndarray) -> np.ndarray:
        return x @ self.J

    def dense(self) -> np.ndarray:
        return self.J


@dataclass(frozen=True, eq=False)
class _CSR:
    """The coupling operator of the nonzero couplings of a symmetric J, row by
    row with columns ascending in each row: the order of ``np.nonzero(J)``.
    A row without nonzeros gets one zero-weight diagonal entry, so that each
    row i owns the non-empty segment ``starts[i]:starts[i + 1]`` and
    ``np.add.reduceat`` over ``starts`` sees one segment per row.

    When the stored weights take L distinct values with L * n <= nnz, as
    +-1 and unweighted graphs do, ``levels`` holds those values and
    ``table_at`` each entry's index into the flattened (L, n) table of
    level-times-column products; both are None otherwise."""

    n: int
    starts: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    levels: np.ndarray | None
    table_at: np.ndarray | None

    @classmethod
    def from_sorted(cls, n: int, rows: np.ndarray, cols: np.ndarray,
                    vals: np.ndarray) -> "_CSR":
        """From entries sorted by row, then column, with nonzero weights."""
        lonely = np.flatnonzero(np.bincount(rows, minlength=n) == 0)
        at = np.searchsorted(rows, lonely)
        rows = np.insert(rows, at, lonely)
        cols = np.insert(cols, at, lonely)
        vals = np.insert(vals, at, 0.0)
        starts = np.searchsorted(rows, np.arange(n))
        # vals holds no -0.0 (only nonzeros and the +0.0 above), so each
        # levels[level_of[k]] has the bits of vals[k]
        levels, level_of = np.unique(vals, return_inverse=True)
        if levels.size * n <= vals.size:
            table_at = level_of * n + cols
        else:
            levels = table_at = None
        for arr in (starts, cols, vals, levels, table_at):
            if arr is not None:
                arr.setflags(write=False)
        return cls(n, starts, cols, vals, levels, table_at)

    @classmethod
    def from_dense(cls, J: np.ndarray) -> "_CSR":
        rows, cols = np.nonzero(J)
        return cls.from_sorted(J.shape[0], rows, cols, J[rows, cols])

    @classmethod
    def from_edges(cls, n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> "_CSR":
        """Of J_ij = J_ji = -w for edges (i, j, w) with i < j and no repeats,
        the same arrays as ``from_dense`` of that J, with no n x n array."""
        keep = w != 0.0
        i, j, w = i[keep], j[keep], w[keep]
        rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
        vals = -np.concatenate([w, w])
        order = np.argsort(rows * n + cols)  # keys are unique: edges do not repeat
        return cls.from_sorted(n, rows[order], cols[order], vals[order])

    def rows(self) -> np.ndarray:
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.n), np.diff(self.starts, append=self.cols.size))

    def coupling(self):
        """(J cos theta, J sin theta) over the CSR arrays of J, from the
        complex vector z = cos theta + i sin theta.

        Both are the real and imaginary parts of the row sums of J_ij z_j,
        one np.add.reduceat segment per row, a new array on each call.
        The weight kernel gathers z over the entries and multiplies each by
        its weight.  The level kernel, taken when ``levels`` is set, forms
        the (L, n) table z_j * level once per call and gathers the entries'
        products from it: L * n multiplies instead of nnz, and every term
        the same product as the weight kernel's, so the two agree bit for
        bit.  The choice rests on the operator's arrays alone.
        """
        starts = self.starts
        # stored complex: numpy would cast each real weight or level v to
        # v + 0i in every product below, with the same bits
        if self.levels is not None:
            levels, table_at = self.levels.astype(complex)[:, None], self.table_at

            def couple_levels(z: np.ndarray):
                sums = np.add.reduceat((z * levels).ravel()[table_at], starts)
                return sums.real, sums.imag

            return couple_levels

        cols, weights = self.cols, self.vals.astype(complex)

        def couple(z: np.ndarray):
            # fancy indexing into a fresh array: faster here than np.take into
            # a reused buffer
            terms = z[cols]
            terms *= weights
            sums = np.add.reduceat(terms, starts)
            return sums.real, sums.imag

        return couple

    def dense(self) -> np.ndarray:
        J = np.zeros((self.n, self.n))
        J[self.rows(), self.cols] = self.vals
        J.setflags(write=False)
        return J

    def products(self, x: np.ndarray) -> np.ndarray:
        """``x @ J`` for a (k, n) array of rows, in row blocks of bounded size."""
        out = np.empty(x.shape)
        step = max(1, _BLOCK_ELEMENTS // self.cols.size)
        for a in range(0, x.shape[0], step):
            out[a:a + step] = np.add.reduceat(x[a:a + step, self.cols] * self.vals,
                                              self.starts, axis=1)
        return out


@dataclass(frozen=True, eq=False, init=False)
class IsingInstance:
    """Symmetric pairwise couplings plus optional external field.

    ``IsingInstance(n, couplings, field=None)`` takes an integer ``n`` and a
    dense (n, n) J and checks them: n >= 1; integer or float entries in J and
    h, not bool, string or complex; J finite, symmetric, zero diagonal.  The
    instance then holds one coupling operator, picked once by the
    size-and-fill rule: ``_CSR`` arrays of J's nonzeros for a large sparse J
    (``sparse`` is True), ``_Dense`` on J otherwise.
    ``ising_from_maxcut`` builds the operator of a graph from its edge list,
    with no n x n array on the CSR side.  ``couplings`` is the dense J,
    read-only; on a CSR instance it is built anew on each access.
    """

    n: int
    field: np.ndarray

    def __init__(self, n: int, couplings, field: np.ndarray | None = None):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"spin count n must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"spin count n must be >= 1, got {n}")
        J = _real_array("couplings", couplings)
        if J.shape != (n, n):
            raise ValueError(f"couplings must be {n}x{n}, got {J.shape}")
        if not np.all(np.isfinite(J)):
            raise ValueError("couplings must be finite")
        if not np.array_equal(J, J.T):
            raise ValueError("couplings must be symmetric")
        if np.any(np.diag(J) != 0.0):
            raise ValueError("couplings must have zero diagonal")
        operator = _CSR.from_dense(J) if _prefers_csr(n, np.count_nonzero(J)) else _Dense(J)
        self._set(int(n), operator, field)

    @classmethod
    def _of(cls, n: int, operator: _Dense | _CSR) -> "IsingInstance":
        """A zero-field instance on an operator built by this module."""
        inst = object.__new__(cls)
        inst._set(n, operator, None)
        return inst

    def _set(self, n: int, operator: _Dense | _CSR, field: np.ndarray | None) -> None:
        h = np.zeros(n) if field is None else _real_array("field", field)
        if h.shape != (n,):
            raise ValueError(f"field must have length {n}, got {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError("field must be finite")
        h.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "field", h)
        object.__setattr__(self, "_operator", operator)

    @property
    def sparse(self) -> bool:
        """True when the couplings are held as CSR arrays, False when dense."""
        return isinstance(self._operator, _CSR)

    @property
    def couplings(self) -> np.ndarray:
        """The dense (n, n) J, read-only."""
        return self._operator.dense()

    @property
    def has_field(self) -> bool:
        return bool(np.any(self.field != 0.0))

    def _coupling(self):
        """The kernel of the coupling operator: z = cos theta + i sin theta to
        (J cos theta, J sin theta), two arrays that are the caller's to keep
        or overwrite."""
        return self._operator.coupling()


def _real_array(name: str, value) -> np.ndarray:
    """``value`` as a new float array; ValueError naming ``name`` when an entry
    is not a real number (a bool, string or complex is not)."""
    arr = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
    if arr.dtype.kind == "O":
        bad = next((v for v in arr.flat
                    if isinstance(v, bool) or not isinstance(v, numbers.Real)), None)
        if bad is not None:
            raise ValueError(f"{name} entries must be real numbers, got {bad!r}")
    elif arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} entries must be real numbers, got dtype {arr.dtype}")
    return np.array(arr, dtype=float)


class _EdgeRuleError(ValueError):
    """Edge ``index``, in edge order, breaks a max-cut edge rule; ``message(base)``
    words the rule with the vertices numbered from ``base``."""

    def __init__(self, index: int, template: str, i: int, j: int, n: int):
        self.index = index
        self.message = lambda base: template.format(i=i + base, j=j + base, n=n)
        super().__init__(self.message(0))


def _check_edges(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> None:
    """Raise _EdgeRuleError for the first edge, in edge order, that breaks a
    max-cut edge rule, naming the first rule it breaks in the order below."""
    in_range = (0 <= i) & (i < j) & (j < n)
    # pairs out of range (past int64 too) become (-1, -1): the range rule already
    # outranks their repeats.  The stable sort lists each pair's first edge first.
    ii, jj = (np.where(in_range, a, -1).astype(np.int64) for a in (i, j))
    order = np.lexsort((jj, ii))
    repeat = np.zeros(i.size, dtype=bool)
    repeat[order[1:]] = (np.diff(ii[order]) == 0) & (np.diff(jj[order]) == 0)
    rules = {
        "self-loop at vertex {i}": i == j,
        "edge ({i}, {j}) out of range for n={n}": ~in_range,
        "duplicate edge ({i}, {j})": repeat,
        "edge ({i}, {j}) has non-finite weight": ~np.isfinite(w),
    }
    broken = np.any(list(rules.values()), axis=0)
    if broken.any():
        k = int(np.argmax(broken))
        template = next(t for t, mask in rules.items() if mask[k])
        raise _EdgeRuleError(k, template, int(i[k]), int(j[k]), n)


def _check_edge_types(icol: tuple, jcol: tuple, wcol: tuple) -> None:
    """Raise ValueError naming the first edge, in edge order, whose vertex
    indices are not both integers or whose weight is not a real number; a
    bool is neither."""
    def foreign(col: tuple, kind: type) -> set:
        return {t for t in set(map(type, col)) if not issubclass(t, kind) or issubclass(t, bool)}

    bad = (foreign(icol, numbers.Integral), foreign(jcol, numbers.Integral),
           foreign(wcol, numbers.Real))
    if any(bad):
        edge = next(e for e in zip(icol, jcol, wcol) if any(type(v) in b for v, b in zip(e, bad)))
        raise ValueError(f"edge {edge!r} needs integer vertices and a real weight")


@dataclass(frozen=True, eq=False, init=False)
class MaxCutInstance:
    """Weighted undirected graph for max-cut, edges (i, j, w) with i < j.

    ``MaxCutInstance(n, edges)`` takes an integer ``n`` and (i, j, w) triples
    of integer vertices and real weights, bools excluded; it checks their
    types, then the edge rules.  It holds only ``n`` and the read-only arrays
    of ``edge_arrays()``; ``edges`` builds Python triples on each access.
    """

    n: int

    def __init__(self, n: int, edges: Iterable[tuple]):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"vertex count must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        icol, jcol, wcol = tuple(zip(*edges, strict=True)) or ((), (), ())
        _check_edge_types(icol, jcol, wcol)
        try:
            i, j = (np.array(col, dtype=np.int64) for col in (icol, jcol))
        except OverflowError:  # such indices can only break the range rule
            i, j = (np.array(col, dtype=object) for col in (icol, jcol))
        self._set(int(n), i, j, np.array(wcol, dtype=float))

    @classmethod
    def _of_arrays(cls, n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> "MaxCutInstance":
        """A graph of n >= 1 vertices on int64 endpoint and float64 weight
        arrays, whose dtypes stand in for the type checks; the edge rules
        are checked as by the constructor."""
        g = object.__new__(cls)
        g._set(n, i, j, w)
        return g

    def _set(self, n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> None:
        _check_edges(n, i, j, w)
        arrays = (i.astype(np.int64, copy=False), j.astype(np.int64, copy=False), w)
        for arr in arrays:
            arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_arrays", arrays)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The edges as Python (int, int, float) triples, in edge order."""
        return tuple(zip(*(arr.tolist() for arr in self._arrays)))

    @property
    def total_weight(self) -> float:
        """The sum of the weights, left to right in edge order."""
        return float(sum(self._arrays[2].tolist()))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge endpoints and weights as read-only parallel arrays, in edge order."""
        return self._arrays


@dataclass(frozen=True, eq=False)
class SpinAssignment:
    """Vector of +-1 spins."""

    spins: np.ndarray

    def __post_init__(self):
        s = np.array(self.spins, dtype=float)
        if s.ndim != 1 or s.size < 1:
            raise ValueError("spins must be a non-empty vector")
        if not np.all(np.abs(s) == 1.0):
            raise ValueError("spins must be exactly -1 or +1")
        s.setflags(write=False)
        object.__setattr__(self, "spins", s)

    @property
    def n(self) -> int:
        return self.spins.size


def hamiltonian_energy(inst: IsingInstance, s: SpinAssignment) -> float:
    """Ising energy of an assignment, each unordered pair counted once."""
    v = s.spins
    if v.size != inst.n:
        raise ValueError(f"assignment length {v.size} != instance n {inst.n}")
    return float(energies(inst, v[None])[0])


def energies(inst: IsingInstance, spins: np.ndarray) -> np.ndarray:
    """Ising energy of each row of a (k, n) array of +-1 spins.

    On a CSR instance the products J s sum each row's nonzeros in a
    different order than the dense matrix product, so real-valued weights
    may give energies that differ in the last bits; integer weights give
    the same energies."""
    return _quadratic_energies(inst._operator.products(spins), inst.field, spins)


def _quadratic_energies(products: np.ndarray, h: np.ndarray, spins: np.ndarray) -> np.ndarray:
    """``-spins.J.spins/2 - spins.h`` of each row, given ``products = spins @ J``."""
    return -0.5 * np.einsum("ki,ki->k", products, spins) - spins @ h


def cut_value(g: MaxCutInstance, s: SpinAssignment) -> float:
    """Total weight of edges whose endpoints carry opposite spins."""
    v = s.spins
    if v.size != g.n:
        raise ValueError(f"assignment length {v.size} != instance n {g.n}")
    i, j, w = g.edge_arrays()
    return float(w[v[i] != v[j]].sum())


def ising_from_maxcut(g: MaxCutInstance) -> IsingInstance:
    """Map max-cut weights to couplings J_ij = -w_ij with zero field.

    When the size-and-fill rule picks CSR arrays for the graph, they come
    straight from its edge arrays, in O(n + m log m) time and O(n + m)
    memory for m edges, with no n x n array: the same arrays that an
    IsingInstance of the dense J would hold.  Otherwise the dense J is built.
    """
    i, j, w = g.edge_arrays()
    if _prefers_csr(g.n, 2 * np.count_nonzero(w)):
        return IsingInstance._of(g.n, _CSR.from_edges(g.n, i, j, w))
    J = np.zeros((g.n, g.n))
    J[i, j] = J[j, i] = -w
    return IsingInstance._of(g.n, _Dense(J))


def brute_force_ground_state(inst: IsingInstance) -> tuple[SpinAssignment, float, int]:
    """Exhaustive minimum-energy search.

    Enumerates 2^(n-1) assignments with the first spin pinned to +1 when the
    field is zero (global flip symmetry), all 2^n otherwise; bit b of an
    enumeration index sets the b-th free spin to -1.  Returns the minimizer
    with the lowest enumeration index among those within ``atol = 1e-9`` of
    the minimum energy, its energy, and how many assignments lie within
    ``atol`` of the minimum, counting each flip pair once in the zero-field
    case.  ``atol`` only matters for real-valued weights.  Raises ValueError
    when ``bound = 4 * (sum_{i<j} |J_ij| + sum_i |h_i|)``, which covers every
    partial sum below, is not a finite float.

    The spins split in two: V, the ``min(n_bits, _CHUNK_BITS)`` lowest free
    spins, which vary inside a chunk of 2^|V| indices, and C, the pinned
    spin and the H high bits, which stay constant across a chunk.  Energies
    are built by sign-flip doubling, with no spin rows stored: the indices
    ``[m, 2m)``, ``m = 2^b``, are the indices ``[0, m)`` with V-spin b
    flipped from +1 to -1.  The energies e_V of all V-assignments under
    (J_VV, h_V) are built once, by ``_local_energies``.  Chunk c's energies
    are ``e_V - r(u_c) + K_c``: ``r`` is the doubling vector of
    ``u_c = J_VC s_C`` (``r[0] = sum(u)``, ``r[m:2m] = r[:m] - 2 u_b``) and
    ``K_c = -s_C.J_CC.s_C / 2 - h_C.s_C``, all 2^H of them from one product.

    Pass 1 walks the chunks in Gray order, ``c = t ^ (t >> 1)``, so that each
    step flips one C spin j and changes ``d = e_V - r(u_c)``, held in one
    buffer, by ``+2 R_j`` (j to -1) or ``-2 R_j`` (j back to +1), where
    ``R_j``, stored for each of the H walked spins, is the doubling vector
    of column j of J_VC.  The walk only chooses the chunks that pass 2
    recomputes, so it runs in float32 on values scaled by ``2^-e``,
    ``e = frexp(bound)[1]`` (0 for a zero bound), which puts every walked
    magnitude below 1/2: chunk 0's ``d`` is computed in float64, scaled and
    cast, and the table of ``2 R_j 2^-e`` is built by ``_signed_sums`` in
    float32 from the scaled and cast columns.  A chunk costs one in-place
    add and one min; its walked minimum is ``2^e d.min() + K_c``.  Walked
    values are exact when the weights are integers and ``bound < 2^25``.
    In general a walked energy drifts from the one pass 2 computes for the
    same assignment by at most
    ``delta = (2^H + 8 n) eps bound + (2^H + 3 |V| H + 1) (eps32 / 2) bound``,
    ``eps = 2^-52``, ``eps32 = 2^-23``.  Both share e_V and K_c.  The first
    term covers the float64 roundings: of u_0 and u_c (|C| terms each), of
    r(u_0) and r(u_c) (2 |V| operations each) and of the add of K_c, each
    below ``eps / 2`` times a value below ``bound / 2``.  The second covers
    the float32 roundings: the cast of chunk 0's ``d``, the cast of each
    R_j's |V| terms and its doubling (2 |V| operations; each R_j enters the
    walked sum with net weight 0 or 1, so at most H of them count) and the
    2^H - 1 step adds.  A float32 rounding of a scaled value x errs by at
    most ``2^-24 |x| + 2^-150``, the second term for subnormal results; with
    ``|x| < 2^-e bound / 2`` and ``2^(e-1) <= bound`` that is below
    ``(2^-25 + 2^-149) bound < (eps32 / 2) bound`` unscaled.  Scaling by
    ``2^-e`` in float64 loses at most 2^-1075 to float64 subnormals, inside
    that slack; scaling back by ``2^e`` is exact unless ``bound < 2^-874``,
    and then every value lies within ``atol`` of every other and every chunk
    is a candidate anyway.  So every assignment within ``atol`` of the
    minimum lies in a chunk whose walked minimum is within
    ``atol + 2 delta`` of the walked best: those chunks are the candidates.

    Pass 2 recomputes each candidate chunk directly, ``e_V - r(u_c) + K_c``,
    in ascending chunk order and in float64.  The best energy is the least
    of these values; the pick and the count are taken from them against
    ``atol``.
    """
    check_brute_force_size(inst.n)
    n, J, h = inst.n, inst.couplings, inst.field
    with np.errstate(over="ignore"):
        bound = 4.0 * (np.abs(np.triu(J, 1)).sum() + np.abs(h).sum())
    if not np.isfinite(bound):
        raise ValueError("energies overflow: 4 * (sum of |J_ij| over pairs + sum of |h_i|) "
                         "exceeds the float range; scale the weights down")
    n_bits = n if inst.has_field else n - 1
    first = n - n_bits                      # index of the first free spin
    low = min(n_bits, _CHUNK_BITS)
    high = n_bits - low
    V = np.arange(first, first + low)
    C = np.r_[0:first, first + low:n]
    e_V = _local_energies(J[np.ix_(V, V)], h[V])
    J_VC, J_CC, h_C = J[np.ix_(V, C)], J[np.ix_(C, C)], h[C]
    s_C = np.hstack([np.ones((1 << high, first)), _bit_spins(np.arange(1 << high), high)])
    K = _quadratic_energies(s_C @ J_CC, h_C, s_C)
    e = int(np.frexp(bound)[1])
    steps = _signed_sums(np.ldexp(J_VC[:, first:].T, 1 - e).astype(np.float32))  # row j: 2 R_j 2^-e
    d = np.empty(1 << low)      # reused: each fresh array faults its pages in anew

    def signed_part(c: int) -> np.ndarray:
        """``e_V - r(u_c)`` of chunk c, in ``d``."""
        return np.subtract(e_V, _signed_sums(J_VC @ s_C[c], out=d), out=d)

    d32 = np.empty(1 << low, np.float32)
    d32[:] = np.ldexp(signed_part(0), -e, out=d)
    walked = np.empty(1 << high)
    walked[0] = d32.min()
    c = 0
    for t in range(1, 1 << high):
        j = (t & -t).bit_length() - 1
        c ^= 1 << j
        if c >> j & 1:
            d32 += steps[j]
        else:
            d32 -= steps[j]
        walked[c] = d32.min()
    np.ldexp(walked, e, out=walked)
    walked += K

    def chunk_energies(c: int) -> np.ndarray:
        values = signed_part(c)
        values += K[c]
        return values

    atol = 1e-9
    delta = (((1 << high) + 8 * n) * np.finfo(float).eps
             + ((1 << high) + 3 * low * high + 1) * np.finfo(np.float32).eps / 2) * bound
    candidates = np.flatnonzero(walked - walked.min() <= atol + 2.0 * delta)
    chunk_min = [chunk_energies(c).min() for c in candidates]
    best_energy = min(chunk_min)
    best_index, count = None, 0
    for c, m in zip(candidates, chunk_min):
        if m - best_energy <= atol:
            near = np.flatnonzero(chunk_energies(c) - best_energy <= atol)
            if best_index is None:
                best_index = (int(c) << low) + int(near[0])
            count += near.size

    spins = np.ones(n)
    spins[first:] = _bit_spins(np.array([best_index]), n_bits)[0]
    best = SpinAssignment(spins)
    return best, hamiltonian_energy(inst, best), count


def _local_energies(J: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Energies of all 2^L assignments of L spins under (J, h), bit b of the
    index setting spin b to -1, by sign-flip doubling: the indices
    ``[m, 2m)``, ``m = 2^b``, are the indices ``[0, m)`` with spin b flipped,
    which raises the energy by twice spin b's local field.  Over those
    indices that field is the doubling vector of ``J[b, :b]`` offset by
    ``sum(J[b, b+1:]) + h[b]``.  Row b of one buffer holds that doubling
    vector in its first 2^b entries, so at bit j one subtract extends every
    row b > j."""
    L = h.size
    fields = np.empty((L, 1 << max(L - 1, 0)))
    fields[:, 0] = [J[b, :b].sum() for b in range(L)]
    for j in range(L - 1):
        m = 1 << j
        np.subtract(fields[j + 1:, :m], 2.0 * J[j + 1:, j, None], out=fields[j + 1:, m:2 * m])
    e = np.empty(1 << L)
    e[0] = -0.5 * J.sum() - h.sum()
    for b in range(L):
        m = 1 << b
        field_b = fields[b, :m]
        field_b += J[b, b + 1:].sum() + h[b]
        field_b *= 2.0
        np.add(e[:m], field_b, out=e[m:2 * m])
    return e


def check_brute_force_size(n: int) -> None:
    """Raise CapacityError when n spins exceed what brute force enumerates."""
    if n > BRUTE_FORCE_MAX_N:
        raise CapacityError(f"brute force capped at n={BRUTE_FORCE_MAX_N}, got n={n}")


def _signed_sums(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``r[..., k] = sum_b (1 - 2 bit_b(k)) w[..., b]`` for every k < 2^L, L the
    length of w's last axis, by doubling: ``r[..., 0] = w.sum(-1)``, then
    ``r[..., m:2m] = r[..., :m] - 2 w[..., b]`` for ``m = 2^b``.  Written into
    ``out`` when given, else into a new array of w's dtype."""
    r = np.empty(w.shape[:-1] + (1 << w.shape[-1],), w.dtype) if out is None else out
    r[..., 0] = w.sum(axis=-1)
    # bit axis first, so that a vector's terms are numpy scalars, which a
    # subtract takes faster than one-element arrays
    rt = r.T
    for b, wb in enumerate(2.0 * w.T):
        m = 1 << b
        np.subtract(rt[:m], wb, out=rt[m:2 * m])
    return r


def _bit_spins(index: np.ndarray, width: int) -> np.ndarray:
    """+-1 rows of enumeration indices, bit b -> column b (set bit -> -1)."""
    return 1.0 - 2.0 * ((index.astype(np.int64)[:, None] >> np.arange(width)) & 1)


def parse_graph(source: str | TextIO | Iterable[str]) -> MaxCutInstance:
    """Parse the rudy/Gset-style edge list format.

    First significant line is ``n m``, followed by ``m`` lines ``i j w`` with
    1-indexed vertices ``i < j``.  Lines starting with ``#`` and blank lines
    are ignored.  Raises GraphParseError with the offending line number:
    syntax faults first, then the first edge that breaks a MaxCutInstance
    edge rule, with its vertices numbered from 1.

    The header is read once (``_read_header``), whatever the source.  The
    edge lines of a string are read first by numpy's C reader (``_read_graph``);
    whatever that read cannot take as a valid graph, and every other body,
    goes to the line-by-line scan (``_scan_graph``), which alone raises, so
    both give the same graph or the same error.
    """
    text = isinstance(source, str)
    lines = io.StringIO(source) if text else iter(source)    # a string's lines end at "\n"
    n, m, header_line = _read_header(lines)
    if text and m >= 1:
        body = lines.tell()
        graph = _read_graph(lines, n, m)
        if graph is not None:
            return graph
        lines.seek(body)
    return _scan_graph(lines, n, m, header_line)


def _read_header(lines: Iterator[str]) -> tuple[int, int, int]:
    """n, m and the line number of the header ``n m``, the first line of
    ``lines`` neither blank nor a comment; ``lines`` is left at the line
    after it.  Raises GraphParseError when there is none or it is malformed."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError("expected header 'n m'", lineno)
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("header entries must be integers", lineno) from None
        if n < 1 or m < 0:
            raise GraphParseError(f"invalid header values n={n} m={m}", lineno)
        return n, m, lineno
    raise GraphParseError("empty input, expected header 'n m'", 1)


_EDGE_ROW = np.dtype([("i", "i8"), ("j", "i8"), ("w", "f8")])


def _read_graph(body: TextIO, n: int, m: int) -> MaxCutInstance | None:
    """The graph of n vertices whose m >= 1 edge lines ``body`` holds from
    its position on, read by ``np.loadtxt``, or None when the scan must
    decide: a comment line or a field that is not an int64 or a float64, a
    row count other than m, or an edge that breaks an edge rule.  A lone
    "\r", which the reader would take for a line end, it refuses."""
    try:
        # a warning ends the read too: "input contained no data" for a body
        # without rows, and the DeprecationWarning of the numpy versions that
        # still read "1.0" as an integer
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(body, dtype=_EDGE_ROW, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if rows.size != m:
        return None
    # a vertex at int64's minimum wraps to its maximum, out of range either way
    i, j, w = rows["i"] - 1, rows["j"] - 1, np.ascontiguousarray(rows["w"])
    try:
        return MaxCutInstance._of_arrays(n, i, j, w)
    except _EdgeRuleError:
        return None


def _scan_graph(lines: Iterable[str], n: int, m: int, lineno: int) -> MaxCutInstance:
    """The graph of n vertices and the m edge lines of ``lines``, the body
    after a header on line ``lineno``, read line by line in Python: the
    reference that raises."""
    edges, linenos = [], []
    for lineno, raw in enumerate(lines, start=lineno + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(edges) >= m:
            raise GraphParseError(f"more than {m} edge lines", lineno)
        if len(parts) != 3:
            raise GraphParseError("expected edge line 'i j w'", lineno)
        try:
            edges.append((int(parts[0]) - 1, int(parts[1]) - 1, float(parts[2])))
        except ValueError:
            raise GraphParseError("edge entries must be 'int int real'", lineno) from None
        linenos.append(lineno)
    if len(edges) != m:
        raise GraphParseError(f"header promised {m} edges, found {len(edges)}", lineno)
    try:
        return MaxCutInstance(n=n, edges=tuple(edges))
    except _EdgeRuleError as err:
        raise GraphParseError(err.message(base=1), linenos[err.index]) from None


def serialize_graph(g: MaxCutInstance) -> str:
    """Emit the edge list format with 1-indexed, lexicographically sorted edges."""
    i, j, w = g.edge_arrays()
    lines = [f"{g.n} {w.size}"]
    for a, b, x in sorted(zip(i.tolist(), j.tolist(), w.tolist())):
        lines.append(f"{a + 1} {b + 1} {x!r}")
    return "\n".join(lines) + "\n"


def random_instance(
    n: int,
    density: float,
    weight_set: Literal["pm1", "uniform"] = "pm1",
    seed: int = 0,
) -> MaxCutInstance:
    """Seeded random graph: each pair i < j kept with probability ``density``.

    ``pm1`` draws weights from {-1, +1}; ``uniform`` from uniform(-1, 1).
    Edges come out in row-major order.

    The generator draws, in this order: the gaps between kept pairs, as
    ``geometric(density)`` variates in batches, whose running sums give the
    kept pairs' row-major indices (none with ``density == 1``, which keeps
    every pair); then all weights in one call.  It never visits the pairs it
    skips, and hands its int64 and float64 arrays to the graph as they are,
    so time and memory are O(n + m) for m kept edges (Batagelj and
    Brandes, "Efficient generation of large random networks", Phys. Rev. E
    71, 036113, 2005).
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"vertex count must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    if weight_set not in ("pm1", "uniform"):
        raise ValueError(f"unknown weight_set {weight_set!r}")
    rng = np.random.default_rng(seed)
    pairs = n * (n - 1) // 2
    k = np.arange(pairs) if density == 1.0 else _kept_pairs(rng, pairs, density)
    # row i's pairs (i, i+1), ..., (i, n-1) start at index i*n - i(i+1)/2
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * n - rows * (rows + 1) // 2
    i = np.searchsorted(offsets, k, side="right") - 1
    j = k - offsets[i] + i + 1
    if weight_set == "pm1":
        w = rng.choice([-1.0, 1.0], size=k.size)
    else:
        w = rng.uniform(-1.0, 1.0, size=k.size)
    return MaxCutInstance._of_arrays(int(n), i, j, w)


def _kept_pairs(rng: np.random.Generator, pairs: int, density: float) -> np.ndarray:
    """Sorted indices below ``pairs``, each kept with probability ``density``:
    running sums of geometric gaps, drawn in batches sized to the expected
    count plus six standard deviations, so one batch almost always suffices."""
    mean = pairs * density
    batch = int(mean + 6.0 * np.sqrt(mean) + 16)
    chunks, last = [], -1
    while last < pairs:
        # a gap past the end ends the draw; capping it keeps the sums in int64
        gaps = np.minimum(rng.geometric(density, size=batch), pairs + 1)
        kept = last + np.cumsum(gaps)
        last = int(kept[-1])
        chunks.append(kept[kept < pairs])
    return np.concatenate(chunks)
