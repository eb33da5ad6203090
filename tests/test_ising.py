"""Problem representation, energies, conversion, parsing, and the exact oracle."""
import dataclasses
import io
import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oimsim import (
    CapacityError,
    DynamicsConfig,
    GraphParseError,
    IsingInstance,
    MaxCutInstance,
    Mode,
    PhaseState,
    SpinAssignment,
    brute_force_ground_state,
    cut_value,
    hamiltonian_energy,
    ising_from_maxcut,
    make_rhs,
    parse_graph,
    potential_energy,
    random_instance,
    serialize_graph,
)
from oimsim import ising
from oimsim.cli import main
from oimsim.ising import _bit_spins, _local_energies, _signed_sums, energies


def reference_hamiltonian_energy(inst: IsingInstance, s: SpinAssignment) -> float:
    """Scalar reference energy -v.J.v/2 - h.v of one assignment."""
    v = s.spins
    return float(-0.5 * v @ inst.couplings @ v - inst.field @ v)


def enumeration_rows(inst: IsingInstance, start: int, stop: int) -> np.ndarray:
    """Spin rows of enumeration indices [start, stop): the first spin pinned to
    +1 without field, and bit b of the index setting the b-th free spin to -1."""
    n_bits = inst.n if inst.has_field else inst.n - 1
    bits = (np.arange(start, stop, dtype=np.int64)[:, None] >> np.arange(n_bits)) & 1
    spins = np.ones((stop - start, inst.n))
    spins[:, inst.n - n_bits:] = 1.0 - 2.0 * bits
    return spins


def reference_brute_force_ground_state(inst: IsingInstance) -> tuple[SpinAssignment, float, int]:
    """Two-pass reference oracle on full spin rows: the minimizer with the
    lowest enumeration index among the minimal computed energies, its
    energy, and the number of assignments within 1e-9 of that energy."""
    total = 1 << (inst.n if inst.has_field else inst.n - 1)
    chunk = 1 << 16
    best_energy = np.inf
    best_index = 0
    for start in range(0, total, chunk):
        e = energies(inst, enumeration_rows(inst, start, min(start + chunk, total)))
        k = int(np.argmin(e))
        if e[k] < best_energy:
            best_energy = float(e[k])
            best_index = start + k

    atol = 1e-9
    count = 0
    for start in range(0, total, chunk):
        e = energies(inst, enumeration_rows(inst, start, min(start + chunk, total)))
        count += int(np.count_nonzero(np.abs(e - best_energy) <= atol))

    best = SpinAssignment(enumeration_rows(inst, best_index, best_index + 1)[0])
    return best, hamiltonian_energy(inst, best), count


def enumeration_index(inst: IsingInstance, s: SpinAssignment) -> int:
    n_bits = inst.n if inst.has_field else inst.n - 1
    free = s.spins[inst.n - n_bits:]
    return sum(1 << b for b in range(n_bits) if free[b] == -1.0)


def assert_lowest_index_within_atol(inst: IsingInstance, best: SpinAssignment, ground: float):
    """``best`` is the first assignment, in enumeration order, whose energy lies
    within 1e-9 of ``ground``."""
    if not inst.has_field:
        assert best.spins[0] == 1.0
    k = enumeration_index(inst, best)
    e = energies(inst, enumeration_rows(inst, 0, k + 1))
    assert abs(e[k] - ground) <= 1e-9
    assert np.all(e[:k] - ground > 1e-9)


def seeded_instance(n: int, seed: int, integer: bool, with_field: bool) -> IsingInstance:
    """Random couplings of random fill on n spins: integers in [-3, 3] or reals
    in [-1, 1], with a field of the same kind or none."""
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < rng.uniform(0.2, 1.0), 1)
    if integer:
        W = rng.integers(-3, 4, (n, n)).astype(float)
        h = rng.integers(-2, 3, n).astype(float)
    else:
        W, h = rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-1.0, 1.0, n)
    J = np.where(mask, W, 0.0)
    return IsingInstance(n=n, couplings=J + J.T, field=h if with_field else None)


def complete_instance(n: int, w: float) -> IsingInstance:
    return ising_from_maxcut(MaxCutInstance(
        n=n, edges=tuple((i, j, w) for i in range(n) for j in range(i + 1, n))))


def ring_instance(n: int, w: float) -> IsingInstance:
    edges = ((0, n - 1, w),) + tuple((i, i + 1, w) for i in range(n - 1))
    return ising_from_maxcut(MaxCutInstance(n=n, edges=edges))


def pair_instance(j12: float) -> IsingInstance:
    return IsingInstance(n=2, couplings=[[0.0, j12], [j12, 0.0]])


def triangle_graph(w: float = 1.0) -> MaxCutInstance:
    return MaxCutInstance(n=3, edges=((0, 1, w), (0, 2, w), (1, 2, w)))


def dense_couplings(g: MaxCutInstance) -> np.ndarray:
    """J_ij = J_ji = -w_ij of a graph, built as an n x n array."""
    J = np.zeros((g.n, g.n))
    i, j, w = g.edge_arrays()
    J[i, j] = J[j, i] = -w
    return J


def dense_instance(g: MaxCutInstance) -> IsingInstance:
    """The instance of a graph's dense J, kept dense whatever its size and fill."""
    with mock.patch.object(ising, "_SPARSE_MIN_N", g.n + 1):
        inst = IsingInstance(n=g.n, couplings=dense_couplings(g))
    assert not inst.sparse
    return inst


def torus(rows: int, cols: int, seed: int) -> MaxCutInstance:
    """A rows x cols 2-D torus with +-1 weights, each vertex joined to its
    right and lower neighbours."""
    v = np.arange(rows * cols).reshape(rows, cols)
    pairs = np.concatenate([
        np.stack([v.ravel(), np.roll(v, -1, axis=1).ravel()], axis=1),
        np.stack([v.ravel(), np.roll(v, -1, axis=0).ravel()], axis=1),
    ])
    pairs.sort(axis=1)
    w = np.random.default_rng(seed).choice([-1.0, 1.0], len(pairs))
    return MaxCutInstance(n=rows * cols, edges=tuple(zip(*pairs.T.tolist(), w.tolist())))


@st.composite
def sparse_graphs(draw):
    """Graphs on 500-900 vertices at 0.2-3% fill, so on the CSR path: +-1 or
    uniform(-1, 1) weights, some of them set to +-0, some vertices stripped
    of all their edges, and the edges in row-major or shuffled order."""
    n = draw(st.integers(500, 900))
    weight_set = draw(st.sampled_from(["pm1", "uniform"]))
    g = random_instance(n, draw(st.floats(0.002, 0.03)), weight_set,
                        seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    isolated = rng.random(n) < draw(st.floats(0.0, 0.3))
    zeroed = rng.random(len(g.edges)) < draw(st.floats(0.0, 0.3))
    edges = [(i, j, rng.choice([0.0, -0.0]) if z else w)
             for (i, j, w), z in zip(g.edges, zeroed) if not (isolated[i] or isolated[j])]
    if draw(st.booleans()):
        edges = [edges[k] for k in rng.permutation(len(edges))]
    return MaxCutInstance(n=n, edges=tuple(edges))


BENCHMARK_GRAPH = random_instance(800, 0.06, "pm1", seed=3)  # the solve_g800 graph of seed 3


@st.composite
def level_graphs(draw):
    """Graphs on 500-900 vertices at 2-6% fill whose weights take few values:
    +-1, all one, or three levels, with some vertices stripped of all their
    edges (a zero-weight diagonal entry each, one more level)."""
    n = draw(st.integers(500, 900))
    g = random_instance(n, draw(st.floats(0.02, 0.06)), "pm1", seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = draw(st.sampled_from([(-1.0, 1.0), (1.0,), (-0.5, 1.0, 2.75)]))
    isolated = rng.random(n) < draw(st.floats(0.0, 0.2))
    i, j, _ = g.edge_arrays()
    keep = ~(isolated[i] | isolated[j])
    w = rng.choice(values, keep.sum())
    return MaxCutInstance(n=n, edges=zip(i[keep].tolist(), j[keep].tolist(), w.tolist()))


weights = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def graphs(draw):
    """Random graphs on n <= 12 vertices with real edge weights."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    kept = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    return MaxCutInstance(n=n, edges=tuple((i, j, draw(weights)) for i, j in kept))


def reference_validate_edges(n: int, edges) -> tuple:
    """Per-edge reference for the MaxCutInstance edge rules: the normalised
    (int, int, float) edges, or ValueError for the first edge that breaks a
    rule, checked in the order self-loop, range, duplicate, finite weight."""
    seen = set()
    norm = []
    for i, j, w in edges:
        i, j, w = int(i), int(j), float(w)
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if not (0 <= i < j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        if (i, j) in seen:
            raise ValueError(f"duplicate edge ({i}, {j})")
        if not np.isfinite(w):
            raise ValueError(f"edge ({i}, {j}) has non-finite weight")
        seen.add((i, j))
        norm.append((i, j, w))
    return tuple(norm)


BIG_INDICES = [2**63 - 1, 2**63, 2**64, 10**30, -(2**63) - 1, -(10**30)]


@st.composite
def faulty_edge_lists(draw):
    """An edge list on n <= 12 vertices with zero or more faults mixed in:
    reversed, equal, negative, out-of-range and past-int64 indices, repeated
    pairs, and NaN or infinite weights.  Indices come as Python or numpy
    integers, weights as floats or ints."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    kept = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(i, j, draw(weights)) for i, j in kept]
    vertex = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["reversed", "equal", "negative", "beyond_n", "big", "duplicate", "weight"]))
        i, j = draw(vertex), draw(vertex)
        w = draw(weights)
        if kind == "reversed":
            i, j = max(i, j), min(i, j)
        elif kind == "equal":
            j = i
        elif kind == "negative":
            i = draw(st.integers(-3, -1))
        elif kind == "beyond_n":
            j = draw(st.integers(n, n + 3))
        elif kind == "big":
            i, j = draw(st.sampled_from([(i, None), (None, j), (None, None)]))
            i, j = (draw(st.sampled_from(BIG_INDICES)) if v is None else v for v in (i, j))
        elif kind == "duplicate" and edges:
            i, j, _ = draw(st.sampled_from(edges))
        elif kind == "weight":
            w = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        edges.insert(draw(st.integers(0, len(edges))), (i, j, w))
    mixed = []
    for i, j, w in edges:
        if draw(st.booleans()) and max(abs(i), abs(j)) < 2**62:
            i, j = np.int64(i), np.int64(j)
        if draw(st.booleans()) and np.isfinite(w):
            w = round(w)
        mixed.append((i, j, w))
    return n, tuple(mixed)


def spin_rows(n: int):
    rows = st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)
    return st.lists(rows, min_size=1, max_size=8).map(np.array)


def all_assignments(n: int):
    for bits in itertools.product((1.0, -1.0), repeat=n):
        yield SpinAssignment(np.array(bits))


class TestHamiltonian:
    def test_aligned_pair(self):
        assert hamiltonian_energy(pair_instance(1.0), SpinAssignment([1, 1])) == -1.0

    def test_antialigned_pair(self):
        assert hamiltonian_energy(pair_instance(1.0), SpinAssignment([1, -1])) == 1.0

    def test_frustrated_triangle_minimum(self):
        # brute enumeration over all 8 assignments is the oracle here
        J = -np.ones((3, 3))
        np.fill_diagonal(J, 0.0)
        inst = IsingInstance(n=3, couplings=J)
        lowest = min(hamiltonian_energy(inst, s) for s in all_assignments(3))
        assert lowest == -1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamiltonian_energy(pair_instance(1.0), SpinAssignment([1, 1, 1]))

    def test_global_flip_invariance_zero_field(self):
        rng = np.random.default_rng(5)
        J = rng.uniform(-1, 1, (6, 6))
        J = np.triu(J, 1)
        J = J + J.T
        inst = IsingInstance(n=6, couplings=J)
        for _ in range(50):
            s = rng.choice([-1.0, 1.0], 6)
            a = hamiltonian_energy(inst, SpinAssignment(s))
            b = hamiltonian_energy(inst, SpinAssignment(-s))
            assert a == pytest.approx(b, abs=1e-12)


class TestBatchedEnergies:
    @settings(deadline=None)
    @given(data=st.data())
    def test_rows_match_scalar_energy(self, data):
        g = data.draw(graphs())
        field = data.draw(st.lists(weights, min_size=g.n, max_size=g.n))
        inst = IsingInstance(n=g.n, couplings=ising_from_maxcut(g).couplings, field=field)
        spins = data.draw(spin_rows(g.n))
        got = energies(inst, spins)
        assert got.shape == (len(spins),)
        for row, e in zip(spins, got):
            assert abs(e - reference_hamiltonian_energy(inst, SpinAssignment(row))) <= 1e-12

    @settings(deadline=None)
    @given(data=st.data())
    def test_zero_field_cut_identity(self, data):
        g = data.draw(graphs())
        spins = data.draw(spin_rows(g.n))
        for row, e in zip(spins, energies(ising_from_maxcut(g), spins)):
            assert abs(cut_value(g, SpinAssignment(row)) - (g.total_weight - e) / 2.0) <= 1e-12


class TestCutValue:
    def test_one_sided_cut_is_zero(self):
        assert cut_value(triangle_graph(), SpinAssignment([1, 1, 1])) == 0.0

    def test_triangle_split(self):
        assert cut_value(triangle_graph(), SpinAssignment([1, 1, -1])) == 2.0

    def test_weighted_path(self):
        g = MaxCutInstance(n=3, edges=((0, 1, 2.0), (1, 2, 3.0)))
        assert cut_value(g, SpinAssignment([1, -1, 1])) == 5.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cut_value(triangle_graph(), SpinAssignment([1, -1]))


class TestConversion:
    def test_single_edge_sign(self):
        g = MaxCutInstance(n=2, edges=((0, 1, 1.0),))
        inst = ising_from_maxcut(g)
        assert inst.couplings[0, 1] == -1.0
        assert not inst.has_field

    def test_triangle_identity_case(self):
        g = triangle_graph()
        inst = ising_from_maxcut(g)
        s = SpinAssignment([1, 1, -1])
        h = hamiltonian_energy(inst, s)
        assert h == -1.0
        assert (g.total_weight - h) / 2.0 == cut_value(g, s)

    def test_empty_edge_list(self):
        g = MaxCutInstance(n=3, edges=())
        inst = ising_from_maxcut(g)
        assert np.all(inst.couplings == 0.0)
        for s in all_assignments(3):
            assert hamiltonian_energy(inst, s) == 0.0
            assert cut_value(g, s) == 0.0

    def test_cut_energy_identity_exhaustive(self):
        # identity cut(s) = (W - H(s)) / 2 over every assignment
        for seed in range(5):
            g = random_instance(4 + seed, 0.8, "uniform" if seed % 2 else "pm1", seed)
            inst = ising_from_maxcut(g)
            W = g.total_weight
            for s in all_assignments(g.n):
                lhs = cut_value(g, s)
                rhs = (W - hamiltonian_energy(inst, s)) / 2.0
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_couplings_are_negated_edge_weights(self):
        for weight_set in ("pm1", "uniform"):
            for seed in (11, 12, 13):
                g = random_instance(7 + seed, 0.7, weight_set, seed=seed)
                g = MaxCutInstance(n=g.n, edges=g.edges[::-1])  # not row-major
                expected = np.zeros((g.n, g.n))
                for i, j, w in g.edges:
                    expected[i, j] = expected[j, i] = -w
                assert np.array_equal(ising_from_maxcut(g).couplings, expected)

    @settings(deadline=None)
    @given(g=graphs())
    def test_edge_arrays_are_read_only_and_match_edges(self, g):
        i, j, w = g.edge_arrays()
        assert (i.dtype.kind, j.dtype.kind, w.dtype) == ("i", "i", np.float64)
        assert list(zip(i.tolist(), j.tolist(), w.tolist())) == list(g.edges)
        for arr in (i, j, w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0


class TestCouplingOperator:
    """The one coupling operator of an IsingInstance: dense J, or CSR arrays
    built from a graph's edges or from a dense J."""

    @settings(deadline=None, max_examples=40)
    @given(g=sparse_graphs(), seed=st.integers(0, 2**16))
    @example(g=BENCHMARK_GRAPH, seed=0)
    def test_csr_from_edges_equals_csr_from_dense_j(self, g, seed):
        from_edges = ising_from_maxcut(g)
        from_j = IsingInstance(n=g.n, couplings=dense_couplings(g))
        assert from_edges.sparse and from_j.sparse
        a, b = from_edges._operator, from_j._operator
        for name in ("starts", "cols", "vals"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        assert np.array_equal(a.rows(), b.rows())
        # the stored entries are the nonzeros of J in np.nonzero order, plus
        # one zero-weight diagonal entry for each row without any
        J = dense_couplings(g)
        real = a.vals != 0.0
        assert np.array_equal(np.stack([a.rows()[real], a.cols[real]]), np.stack(np.nonzero(J)))
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-10.0, 10.0, g.n)
        cfg = DynamicsConfig(sigma=1.3, kappa_s=0.8, mode=Mode.CENTRALIZED, injection_phase=0.4)
        assert np.array_equal(make_rhs(from_edges, cfg)(theta, 2.5),
                              make_rhs(from_j, cfg)(theta, 2.5))

    @pytest.mark.parametrize("n", [ising._SPARSE_MIN_N - 1, ising._SPARSE_MIN_N])
    @pytest.mark.parametrize("density", [0.06, 0.12, 0.13, 0.5])
    def test_edges_and_dense_j_pick_the_same_operator(self, n, density):
        g = random_instance(n, density, "pm1", seed=1)
        expected = n >= ising._SPARSE_MIN_N and density < 0.125
        assert ising_from_maxcut(g).sparse == expected
        assert IsingInstance(n=n, couplings=dense_couplings(g)).sparse == expected

    @pytest.mark.parametrize("n, density, sparse", [(10, 1.0, False), (600, 0.06, True)])
    def test_ising_from_maxcut_decides_the_layout_once(self, n, density, sparse):
        g = random_instance(n, density, "pm1", seed=3)
        with mock.patch.object(ising, "_prefers_csr", wraps=ising._prefers_csr) as rule:
            inst = ising_from_maxcut(g)
        assert rule.call_count == 1
        assert inst.sparse == sparse
        assert np.array_equal(inst.couplings, dense_couplings(g))

    @settings(deadline=None, max_examples=20)
    @given(g=sparse_graphs(), seed=st.integers(0, 2**16))
    @example(g=BENCHMARK_GRAPH, seed=0)
    def test_energies_match_the_dense_instance(self, g, seed):
        # within 1e-12 of the largest |energy| any assignment can have;
        # exact when every weight is an integer, as sums of integers are
        sparse, dense = ising_from_maxcut(g), dense_instance(g)
        w = g.edge_arrays()[2]
        integer = np.array_equal(w, np.round(w))
        scale = max(1.0, np.abs(w).sum())
        rng = np.random.default_rng(seed)
        k = 2 * ising._BLOCK_ELEMENTS // sparse._operator.cols.size + 3  # spans row blocks
        spins = rng.choice([-1.0, 1.0], (k, g.n))
        got, want = energies(sparse, spins), energies(dense, spins)
        one = SpinAssignment(spins[0])
        got_one, want_one = hamiltonian_energy(sparse, one), hamiltonian_energy(dense, one)
        if integer:
            assert np.array_equal(got, want)
            assert got_one == want_one
        else:
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
            assert abs(got_one - want_one) <= 1e-12 * scale
        cfg = DynamicsConfig(sigma=0.7, kappa_s=0.6, mode=Mode.DISTRIBUTED, injection_phase=0.3)
        state = PhaseState(rng.uniform(-10.0, 10.0, g.n))
        potential = [potential_energy(inst, cfg, state) for inst in (sparse, dense)]
        assert abs(potential[0] - potential[1]) <= 1e-12 * (0.7 * scale + 0.6 * g.n)

    def test_couplings_of_a_csr_instance_are_the_dense_j_read_only(self):
        g = BENCHMARK_GRAPH
        for inst in (ising_from_maxcut(g), IsingInstance(n=g.n, couplings=dense_couplings(g))):
            assert inst.sparse
            J = inst.couplings
            assert np.array_equal(J, dense_couplings(g))
            assert not J.flags.writeable
            with pytest.raises(ValueError):
                J[0, 1] = 2.0

    def test_torus_build_and_rhs_allocate_edges_not_pairs(self):
        # a 5000-vertex torus: the dense J alone would be 200 MB
        g = torus(50, 100, seed=2)
        tracemalloc.start()
        try:
            f = make_rhs(ising_from_maxcut(g), DynamicsConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert callable(f)
        assert peak < 4 * 2**20

    @settings(deadline=None, max_examples=30)
    @given(g=level_graphs(), seed=st.integers(0, 2**16))
    @example(g=BENCHMARK_GRAPH, seed=0)
    def test_level_kernel_is_bit_equal_to_the_weight_kernel(self, g, seed):
        op = ising_from_maxcut(g)._operator
        assert op.levels is not None
        assert np.array_equal(op.levels[(op.table_at - op.cols) // g.n], op.vals)
        weight = dataclasses.replace(op, levels=None, table_at=None)
        theta = np.random.default_rng(seed).uniform(-10.0, 10.0, g.n)
        z = np.cos(theta) + 1j * np.sin(theta)
        for got, want in zip(op.coupling()(z), weight.coupling()(z)):
            assert np.array_equal(float_bits(got), float_bits(want))

    @pytest.mark.parametrize("weight_set, levels", [("pm1", True), ("uniform", False)])
    def test_few_weight_levels_take_the_level_kernel(self, weight_set, levels):
        op = ising_from_maxcut(random_instance(800, 0.06, weight_set, seed=3))._operator
        assert (op.levels is not None) == levels
        assert (op.table_at is not None) == levels
        if levels:
            assert op.levels.size * op.n <= op.vals.size
            assert not op.levels.flags.writeable and not op.table_at.flags.writeable


class TestEdgeRules:
    @settings(max_examples=400, deadline=None)
    @given(faulty_edge_lists())
    def test_matches_per_edge_reference(self, case):
        n, edges = case
        try:
            expected = reference_validate_edges(n, edges)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                MaxCutInstance(n=n, edges=edges)
            assert str(got.value) == str(err)
        else:
            g = MaxCutInstance(n=n, edges=edges)
            assert g.edges == expected
            assert all(type(i) is int and type(j) is int and type(w) is float
                       for i, j, w in g.edges)

    @pytest.mark.parametrize("edges, message", [
        (((0, 1, 1.0), (1, 1, np.nan)), "self-loop at vertex 1"),
        (((0, 1, 1.0), (2, 1, np.nan)), r"edge \(2, 1\) out of range for n=3"),
        (((0, 1, 1.0), (0, 1, np.nan)), r"duplicate edge \(0, 1\)"),
        (((0, 1, 1.0), (1, 2, np.inf), (0, 1, 2.0)), r"edge \(1, 2\) has non-finite weight"),
    ])
    def test_first_broken_edge_names_its_first_broken_rule(self, edges, message):
        with pytest.raises(ValueError, match=message):
            MaxCutInstance(n=3, edges=edges)

    def test_edges_must_be_triples(self):
        with pytest.raises(ValueError):
            MaxCutInstance(n=3, edges=((0, 1),))

    @pytest.mark.parametrize("n, edges, message", [
        pytest.param(3, ((0, 1.5, 1.0),), r"edge \(0, 1\.5, 1\.0\) needs integer vertices",
                     id="float-index"),
        pytest.param(3, ((0, True, 1.0),), r"edge \(0, True, 1\.0\) needs integer vertices",
                     id="bool-index"),
        pytest.param(3, ((np.bool_(False), 1, 1.0),), "needs integer vertices",
                     id="numpy-bool-index"),
        pytest.param(3, ((0, np.float64(1.0), 1.0),), "needs integer vertices",
                     id="numpy-float-index"),
        pytest.param(3, ((0, 1, "2.5"),),
                     r"edge \(0, 1, '2\.5'\) needs integer vertices and a real weight",
                     id="str-weight"),
        pytest.param(3, ((0, 1, True),),
                     r"edge \(0, 1, True\) needs integer vertices and a real weight",
                     id="bool-weight"),
        # a type fault is reported before an earlier edge's rule fault
        pytest.param(3, ((1, 1, 1.0), (0, 2, 1.0), (0, 1, "1")), r"edge \(0, 1, '1'\)",
                     id="type-before-rule"),
        pytest.param(3.5, ((0, 3, 1.0),), "vertex count must be an integer, got 3.5",
                     id="float-n"),
        pytest.param(True, (), "vertex count must be an integer, got True", id="bool-n"),
        pytest.param(np.float64(3.0), (), "vertex count must be an integer",
                     id="numpy-float-n"),
    ])
    def test_types_are_checked_before_rules(self, n, edges, message):
        with pytest.raises(ValueError, match=message):
            MaxCutInstance(n=n, edges=edges)

    @pytest.mark.parametrize("n, edges, expected", [
        pytest.param(np.int64(3), ((np.int64(0), np.int64(2), 2),), ((0, 2, 2.0),),
                     id="numpy-int-n-and-index-int-weight"),
        pytest.param(3, ((0, np.int32(1), np.float32(0.5)), (1, 2, np.float32(0.1))),
                     ((0, 1, 0.5), (1, 2, float(np.float32(0.1)))), id="float32-weights"),
    ])
    def test_numpy_integers_and_real_weights_are_accepted(self, n, edges, expected):
        g = MaxCutInstance(n=n, edges=edges)
        assert type(g.n) is int and g.n == 3
        assert g.edges == expected


def reference_serialize_graph(g: MaxCutInstance) -> str:
    """The edge list format written from the sorted edge tuples."""
    lines = [f"{g.n} {len(g.edges)}"]
    for i, j, w in sorted(g.edges):
        lines.append(f"{i + 1} {j + 1} {w!r}")
    return "\n".join(lines) + "\n"


@st.composite
def shuffled_graphs(draw):
    """Graphs on n <= 30 vertices, edges in any order, with weights drawn
    from uniform(-1, 1), +-0 and magnitudes near 1e-300 and 1e300."""
    n = draw(st.integers(1, 30))
    pairs = list(itertools.combinations(range(n), 2))
    kept = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60)) if pairs else []
    weight = st.one_of(
        st.floats(-1.0, 1.0, exclude_max=True),
        st.sampled_from([0.0, -0.0]),
        st.sampled_from([1.0, -1.0, 3.7, -0.3]).map(lambda x: x * 1e-300),
        st.sampled_from([1.0, -1.0, 1.7, -0.3]).map(lambda x: x * 1e300),
    )
    return MaxCutInstance(n=n, edges=tuple((i, j, draw(weight)) for i, j in kept))


def float_bits(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestEdgeStorage:
    """A graph holds its edges once, as three read-only arrays."""

    @settings(deadline=None, max_examples=200)
    @given(g=shuffled_graphs())
    def test_serialize_matches_the_tuple_sorting_formatter(self, g):
        assert serialize_graph(g) == reference_serialize_graph(g)

    @settings(deadline=None)
    @given(g=st.one_of(shuffled_graphs(), graphs()))
    @example(g=random_instance(300, 0.5, "uniform", seed=5))  # np.sum differs in the last bit
    def test_total_weight_is_the_left_to_right_sum(self, g):
        total = 0
        for _, _, w in g.edges:
            total += w
        assert g.total_weight.hex() == float(total).hex()

    @settings(deadline=None)
    @given(g=shuffled_graphs())
    def test_parse_of_serialize_holds_the_arrays_in_pair_order(self, g):
        back = parse_graph(serialize_graph(g))
        i, j, w = g.edge_arrays()
        order = np.lexsort((j, i))
        got = back.edge_arrays()
        assert back.n == g.n
        assert np.array_equal(got[0], i[order]) and np.array_equal(got[1], j[order])
        assert np.array_equal(float_bits(got[2]), float_bits(w[order]))

    @pytest.mark.parametrize("make", [
        lambda: random_instance(30, 0.4, "uniform", seed=2),
        lambda: parse_graph("4 2\n1 3 2\n2 4 -0.5\n"),
        lambda: MaxCutInstance(4, ((np.int64(0), np.int64(3), np.float32(0.25)), (1, 2, 2))),
    ], ids=["random", "parsed", "numpy-input"])
    def test_edges_are_python_triples_and_read_only(self, make):
        g = make()
        assert type(g.edges) is tuple
        assert all(type(e) is tuple and len(e) == 3 for e in g.edges)
        assert all(type(i) is int and type(j) is int and type(w) is float
                   for i, j, w in g.edges)
        with pytest.raises(AttributeError):
            g.edges = ()
        with pytest.raises(AttributeError):
            g.n = 5

    def test_a_graph_retains_its_arrays_only(self):
        # three 40074-entry arrays take 0.92 MiB; a tuple of Python triples
        # of the same edges would add about 7 MiB
        tracemalloc.start()
        try:
            g = random_instance(20000, 2e-4, "uniform", seed=1)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert g.edge_arrays()[0].size == 40074
        assert retained < 3 * 2**20


class TestBruteForce:
    def test_two_spins(self):
        best, energy, count = brute_force_ground_state(pair_instance(1.0))
        assert energy == -1.0
        assert count == 1
        assert best.spins[0] == best.spins[1]

    def test_frustrated_triangle_degeneracy(self):
        J = -np.ones((3, 3))
        np.fill_diagonal(J, 0.0)
        best, energy, count = brute_force_ground_state(IsingInstance(n=3, couplings=J))
        assert energy == -1.0
        assert count == 3

    def test_single_spin_follows_field(self):
        inst = IsingInstance(n=1, couplings=[[0.0]], field=[1.0])
        best, energy, count = brute_force_ground_state(inst)
        assert best.spins[0] == 1.0
        assert energy == -1.0
        assert count == 1

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            brute_force_ground_state(IsingInstance(n=25, couplings=np.zeros((25, 25))))

    def test_not_beaten_by_random_sampling(self):
        g = random_instance(10, 0.6, "uniform", seed=2)
        inst = ising_from_maxcut(g)
        _, ground, _ = brute_force_ground_state(inst)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            s = SpinAssignment(rng.choice([-1.0, 1.0], 10))
            assert ground <= hamiltonian_energy(inst, s) + 1e-12

    def test_matches_exhaustive_enumeration_with_field(self):
        rng = np.random.default_rng(3)
        J = rng.uniform(-1, 1, (5, 5))
        J = np.triu(J, 1)
        J = J + J.T
        inst = IsingInstance(n=5, couplings=J, field=rng.uniform(-1, 1, 5))
        _, energy, _ = brute_force_ground_state(inst)
        expected = min(hamiltonian_energy(inst, s) for s in all_assignments(5))
        assert energy == pytest.approx(expected, abs=1e-12)

    def test_overflowing_energies_raise(self):
        # 4 * (sum of |J_ij| + sum of |h_i|) past the float range: NaN energies
        # once left the search without a minimizer
        J = ising_from_maxcut(random_instance(20, 0.5, "pm1", seed=1)).couplings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for inst in (IsingInstance(n=20, couplings=J * 1e307),
                         ising_from_maxcut(triangle_graph(1e308))):
                with pytest.raises(ValueError, match="energies overflow"):
                    brute_force_ground_state(inst)
            assert brute_force_ground_state(pair_instance(1e307))[1] == -1e307


def assert_same_as_reference(inst: IsingInstance, exact: bool) -> None:
    """Same count as the reference; same spins and energy bits when ``exact``
    (integer weights: distinct energies differ by at least 1), the energy to
    1e-12 otherwise; and the spins are the tie rule's pick."""
    best, energy, count = brute_force_ground_state(inst)
    ref_best, ref_energy, ref_count = reference_brute_force_ground_state(inst)
    assert count == ref_count
    if exact:
        assert np.array_equal(best.spins, ref_best.spins)
        assert energy == ref_energy
    else:
        assert abs(energy - ref_energy) <= 1e-12
    assert_lowest_index_within_atol(inst, best, ref_energy)


class TestSplitEnumeration:
    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 18), seed=st.integers(0, 2**32 - 1),
           integer=st.booleans(), with_field=st.booleans())
    def test_matches_reference_oracle(self, n, seed, integer, with_field):
        assert_same_as_reference(seeded_instance(n, seed, integer, with_field), exact=integer)

    # free spins one fewer than a chunk holds, exactly one chunk, and two
    # chunks; pinned without field, all free with it
    @pytest.mark.parametrize("n_bits", [ising._CHUNK_BITS - 1, ising._CHUNK_BITS,
                                        ising._CHUNK_BITS + 1])
    @pytest.mark.parametrize("with_field", [False, True])
    @pytest.mark.parametrize("integer", [True, False])
    def test_chunk_edges(self, n_bits, with_field, integer):
        n = n_bits if with_field else n_bits + 1
        inst = seeded_instance(n, 100 + n_bits, integer, with_field)
        assert_same_as_reference(inst, exact=integer)

    # 32 chunks: the Gray-order walk flips each of five high spins both ways
    @pytest.mark.parametrize("with_field", [False, True])
    @pytest.mark.parametrize("integer", [True, False])
    def test_deep_walk(self, with_field, integer):
        n_bits = ising._CHUNK_BITS + 5
        n = n_bits if with_field else n_bits + 1
        inst = seeded_instance(n, 200 + n_bits, integer, with_field)
        assert_same_as_reference(inst, exact=integer)

    @pytest.mark.parametrize("field", [None, [0.0], [-0.5], [2.0]])
    def test_single_spin(self, field):
        inst = IsingInstance(n=1, couplings=[[0.0]], field=field)
        best, energy, count = brute_force_ground_state(inst)
        assert best.spins.tolist() == ([-1.0] if field == [-0.5] else [1.0])
        assert count == 1
        assert energy == -abs((field or [0.0])[0])
        assert_same_as_reference(inst, exact=True)

    # many tied minimizers with real weights, whose computed energies differ in
    # the last bits: the pick must not depend on that rounding.  At n = 19 the
    # ties spread over four chunks.
    @pytest.mark.parametrize("n", [5, 7, 9, 17, 19])
    @pytest.mark.parametrize("family", [(complete_instance, 0.1), (ring_instance, 0.3)],
                             ids=["complete-0.1", "ring-0.3"])
    def test_tie_rule_on_degenerate_real_weights(self, n, family):
        make, w = family
        inst = make(n, w)
        assert reference_brute_force_ground_state(inst)[2] > 1
        assert_same_as_reference(inst, exact=False)

    # an odd ring's 21 ties up to the flip lie in 7 of the 64 walked chunks
    def test_tie_rule_across_walked_chunks(self):
        n = ising._CHUNK_BITS + 7
        inst = ring_instance(n, 0.3)
        e = energies(inst, enumeration_rows(inst, 0, 1 << (n - 1)))
        ties = np.flatnonzero(e - e.min() <= 1e-9)
        assert np.unique(ties >> ising._CHUNK_BITS).size > 1
        assert_same_as_reference(inst, exact=False)

    # at the cap: 2^23 assignments in 128 chunks without a field, 2^24 in 256
    # with it.  J_ij = s*_i s*_j w_ij with w_ij > 0 is a gauge-transformed
    # ferromagnet: every pair is satisfied exactly at +-s*, and h = s*/2
    # breaks the flip symmetry towards s*.
    @pytest.mark.parametrize("with_field", [False, True])
    @pytest.mark.parametrize("integer", [True, False])
    def test_planted_ground_state_at_the_cap(self, with_field, integer):
        n = 24
        rng = np.random.default_rng(24)
        planted = rng.choice([-1.0, 1.0], n)
        w = rng.integers(1, 4, (n, n)).astype(float) if integer else rng.uniform(0.5, 1.5, (n, n))
        w = np.triu(w, 1)
        w = w + w.T
        field = 0.5 * planted if with_field else None
        inst = IsingInstance(n=n, couplings=np.outer(planted, planted) * w, field=field)
        best, energy, count = brute_force_ground_state(inst)
        expected = planted if with_field else planted[0] * planted
        assert np.array_equal(best.spins, expected)
        assert count == 1
        ground = -np.triu(w, 1).sum() - (0.5 * n if with_field else 0.0)
        if integer:
            assert energy == ground
        else:
            assert abs(energy - ground) <= 1e-12

    @pytest.mark.parametrize("k", range(13))
    def test_signed_sums_match_the_spin_rows(self, k):
        rng = np.random.default_rng(k)
        rows = _bit_spins(np.arange(1 << k), k)
        w_int = rng.integers(-5, 6, k).astype(float)
        assert np.array_equal(_signed_sums(w_int), rows @ w_int)
        w_real = rng.uniform(-1.0, 1.0, k)
        np.testing.assert_allclose(_signed_sums(w_real), rows @ w_real, rtol=0, atol=1e-12)
        out = np.empty(1 << k)
        assert _signed_sums(w_real, out=out) is out
        w_rows = rng.integers(-5, 6, (3, k)).astype(float)
        assert np.array_equal(_signed_sums(w_rows), w_rows @ rows.T)
        assert np.array_equal(_signed_sums(w_rows.T.copy().T), w_rows @ rows.T)
        r32 = _signed_sums(w_rows.astype(np.float32))
        assert r32.dtype == np.float32
        assert np.array_equal(r32, w_rows @ rows.T)

    @pytest.mark.parametrize("k", [1, 2, 9, 13])
    @pytest.mark.parametrize("integer", [True, False])
    def test_local_energies_match_the_spin_rows(self, k, integer):
        inst = seeded_instance(k, 500 + k, integer, True)
        expected = energies(inst, _bit_spins(np.arange(1 << k), k))
        np.testing.assert_allclose(_local_energies(inst.couplings, inst.field), expected,
                                   rtol=0, atol=0 if integer else 1e-12)

    # the walk scales by 2^-e, so a power-of-two scale changes no pick and no
    # count; distinct energies stay at least 2^k > atol apart
    @pytest.mark.parametrize("k", [30, 300, 900])
    @pytest.mark.parametrize("with_field", [False, True])
    def test_power_of_two_scale_keeps_the_answer(self, k, with_field):
        n = ising._CHUNK_BITS + 4 if with_field else ising._CHUNK_BITS + 5
        inst = seeded_instance(n, 300 + n, True, with_field)
        best, energy, count = brute_force_ground_state(inst)
        scaled = IsingInstance(n=n, couplings=np.ldexp(inst.couplings, k),
                               field=np.ldexp(inst.field, k) if with_field else None)
        scaled_best, scaled_energy, scaled_count = brute_force_ground_state(scaled)
        assert np.array_equal(scaled_best.spins, best.spins)
        assert scaled_count == count
        assert scaled_energy == np.ldexp(energy, k)

    # every energy lies within atol of every other: all assignments count,
    # and the pick is index 0, all spins +1
    @pytest.mark.parametrize("with_field", [False, True])
    def test_tiny_scale_makes_every_assignment_a_minimizer(self, with_field):
        n = ising._CHUNK_BITS + 4 if with_field else ising._CHUNK_BITS + 5
        inst = seeded_instance(n, 300 + n, True, with_field)
        tiny = IsingInstance(n=n, couplings=np.ldexp(inst.couplings, -1000),
                             field=np.ldexp(inst.field, -1000) if with_field else None)
        best, energy, count = brute_force_ground_state(tiny)
        assert count == 1 << (n if with_field else n - 1)
        assert best.spins.tolist() == [1.0] * n
        assert energy == np.ldexp(hamiltonian_energy(inst, best), -1000)

    def test_pass_2_separates_minima_the_walk_cannot(self):
        # V spins 0-13, each held at +1 by a field of 8; C spins 14 and 15,
        # a ferromagnetic pair of 50.  J_{0,14} = -eps puts the best state of
        # chunk 3 (spins 14, 15 at -1) 2 eps below that of chunk 0 (both
        # +1): more than atol, less than the float32 walk resolves at
        # bound ~ 2^9.4, so both chunks walk to the same minimum
        n, eps = ising._CHUNK_BITS + 2, 5e-7
        J = np.zeros((n, n))
        J[n - 2, n - 1] = J[n - 1, n - 2] = 50.0
        J[0, n - 2] = J[n - 2, 0] = -eps
        field = np.r_[np.full(n - 2, 8.0), 0.0, 0.0]
        inst = IsingInstance(n=n, couplings=J, field=field)
        e = int(np.frexp(4.0 * (50.0 + eps + 8.0 * (n - 2)))[1])
        walked = np.float32(np.ldexp(-8.0 * (n - 2) - eps, -e))
        assert walked == np.float32(np.ldexp(-8.0 * (n - 2) + eps, -e))
        best, energy, count = brute_force_ground_state(inst)
        assert best.spins.tolist() == [1.0] * (n - 2) + [-1.0, -1.0]
        assert count == 1
        assert energy == -50.0 - eps - 8.0 * (n - 2)
        assert_same_as_reference(inst, exact=True)

    # couplings of 1e20 on a path 1 - (n-1) - (n-2) - 2 that crosses V and C,
    # and of at most 3 elsewhere: neither pass sees the small ones beside the
    # path's -3e20, so every assignment that satisfies the path's three
    # couplings is a minimizer, and the window must admit every chunk that
    # holds one
    def test_huge_weights_beside_unit_ones(self):
        n = ising._CHUNK_BITS + 5
        inst = seeded_instance(n, 400, True, False)
        J = inst.couplings.copy()
        for a, b, w in ((1, n - 1, 1e20), (2, n - 2, -1e20), (n - 1, n - 2, 1e20)):
            J[a, b] = J[b, a] = w
        inst = IsingInstance(n=n, couplings=J)
        best, energy, count = brute_force_ground_state(inst)
        assert energy == -3e20
        assert count == 1 << (n - 4)
        assert_same_as_reference(inst, exact=True)

    def test_memory_stays_below_the_spin_block(self):
        # a (2^16, 16) block of float spin rows alone is 8 MiB; at n = 24 with
        # a field the walk stores ten step vectors R_j
        for n, with_field in ((22, False), (24, True)):
            couplings = ising_from_maxcut(random_instance(n, 0.5, "pm1", seed=5)).couplings
            field = np.random.default_rng(5).choice([-1.0, 1.0], n) if with_field else None
            inst = IsingInstance(n=n, couplings=couplings, field=field)
            tracemalloc.start()
            try:
                brute_force_ground_state(inst)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20


class TestParseGraph:
    def test_unit_triangle(self):
        g = parse_graph("3 3\n1 2 1\n1 3 1\n2 3 1")
        assert g.n == 3
        assert g.edges == ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))

    def test_negative_weight(self):
        g = parse_graph("2 1\n1 2 -5")
        assert g.edges == ((0, 1, -5.0),)

    def test_index_out_of_range_names_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("2 1\n1 3 1")

    def test_comments_and_blanks_ignored(self):
        g = parse_graph("# a comment\n\n3 2\n1 2 1\n# inner\n2 3 4\n")
        assert len(g.edges) == 2

    def test_duplicate_edge(self):
        with pytest.raises(GraphParseError, match="duplicate"):
            parse_graph("3 2\n1 2 1\n1 2 2")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("3 1\n2 2 1")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphParseError):
            parse_graph("3 2\n1 2 1")

    def test_malformed_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("2 1\n1 2")

    def test_empty_input(self):
        with pytest.raises(GraphParseError):
            parse_graph("")

    @pytest.mark.parametrize("fault", [
        "1 5 1", "3 1 1", "0 2 1", "2 2 1", "1 2 5", "1 3 inf", "1 3 nan", "1 3 -inf",
    ])
    def test_rule_fault_names_its_line(self, fault):
        # the faulty edge sits on line 6, after comments and a blank line
        text = f"# a graph\n4 3\n1 2 1\n\n# an edge follows\n{fault}\n3 4 1\n"
        with pytest.raises(GraphParseError, match="^line 6: ") as err:
            parse_graph(text)
        assert err.value.line == 6

    def test_rule_faults_number_vertices_from_one(self):
        with pytest.raises(GraphParseError, match=r"line 3: duplicate edge \(1, 2\)"):
            parse_graph("3 2\n1 2 1\n1 2 2")
        with pytest.raises(GraphParseError, match="line 2: self-loop at vertex 2"):
            parse_graph("3 1\n2 2 1")

    def test_index_past_int64_is_a_parse_error(self):
        with pytest.raises(GraphParseError, match="line 2") as err:
            parse_graph("2 1\n1 99999999999999999999 1")
        assert err.value.line == 2

    def test_syntax_faults_are_reported_before_rule_faults(self):
        with pytest.raises(GraphParseError, match="line 4: expected edge line"):
            parse_graph("3 3\n1 2 1\n1 2 1\n2 3\n")

    def test_roundtrip_identity(self):
        for seed in range(4):
            g = random_instance(8, 0.5, "uniform", seed)
            back = parse_graph(serialize_graph(g))
            assert back.n == g.n
            assert back.edges == g.edges


@st.composite
def edge_list_texts(draw):
    """``serialize_graph`` text of a graph from ``shuffled_graphs``, restyled:
    comment and blank lines, tabs and runs of spaces, CRLF line ends, and
    ``+`` signs on vertices and non-negative weights.  Also returns whether
    any comment line follows the header."""
    lines = serialize_graph(draw(shuffled_graphs())).splitlines()
    plus = draw(st.booleans())
    gap = st.sampled_from([" ", "\t", "  ", " \t "])
    out, body_comments = [], False
    for k, line in enumerate(lines):
        for _ in range(draw(st.integers(0, 1))):
            extra = draw(st.sampled_from(["", "   ", "\t", "# a comment", "  # 1 2 3"]))
            out.append(extra)
            body_comments |= k > 0 and "#" in extra
        fields = line.split()
        if plus and k > 0:
            fields = [f if f.startswith("-") else "+" + f for f in fields]
        out.append(draw(st.sampled_from(["", " "])) + draw(gap).join(fields))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(out) + draw(st.sampled_from(["", end])), body_comments


def edge_bits(g: MaxCutInstance) -> list:
    i, j, w = g.edge_arrays()
    assert i.dtype == j.dtype == np.int64 and w.dtype == np.float64
    return [i.tolist(), j.tolist(), float_bits(w).tolist()]


def scanned(text: str) -> MaxCutInstance:
    """``_scan_graph`` of the body of ``text``, after its header."""
    lines = io.StringIO(text)
    return ising._scan_graph(lines, *ising._read_header(lines))


def read(text: str) -> MaxCutInstance | None:
    """``_read_graph`` of the body of ``text``, or None where ``parse_graph``
    does not call it: a header fault, or no edges."""
    body = io.StringIO(text)
    try:
        n, m, _ = ising._read_header(body)
    except GraphParseError:
        return None
    return ising._read_graph(body, n, m) if m >= 1 else None


def sources(text: str) -> list:
    r"""``text`` as each kind of source ``parse_graph`` takes: the string, a
    file object, and a list of its lines split at "\n" as a file object splits
    them (``str.splitlines`` would also end a line at a lone "\r")."""
    return [text, io.StringIO(text), io.StringIO(text).readlines()]


REJECTED_TEXTS = [
    ("3 1\n1 2 1 # x\n", 2, "expected edge line 'i j w'"),
    ("3 1\n1.0 2 1\n", 2, "edge entries must be 'int int real'"),
    ("3 1\n1 1.5 1\n", 2, "edge entries must be 'int int real'"),
    ("3 1\n1 2 1 4\n", 2, "expected edge line 'i j w'"),
    ("3 1\n1 2 1\n2 3 1\n", 3, "more than 1 edge lines"),
    ("# c\n3 2\n1 2 1\n\n# trailing\n", 5, "header promised 2 edges, found 1"),
    ("3 2\n\n1 2 1\n\n", 4, "header promised 2 edges, found 1"),
    ("3 2\n", 1, "header promised 2 edges, found 0"),
    ("3 0\n1 2 1\n", 2, "more than 0 edge lines"),
    ("3 0\n\n# a comment\n1 2 1", 4, "more than 0 edge lines"),
    ("3 2\n1 2 1\n1 2 1\n", 3, "duplicate edge (1, 2)"),
    ("3 1\n2 2 1\n", 2, "self-loop at vertex 2"),
    ("3 1\n1 4 1\n", 2, "edge (1, 4) out of range for n=3"),
    ("3 1\n1 99999999999999999999 1\n", 2,
     "edge (1, 99999999999999999999) out of range for n=3"),
    ("3 1\n-9223372036854775808 2 1\n", 2,
     "edge (-9223372036854775808, 2) out of range for n=3"),
    ("3 1\n1 2 nan\n", 2, "edge (1, 2) has non-finite weight"),
    ("3 2\n1 2 1\r2 3 1\n", 2, "expected edge line 'i j w'"),
    ("", 1, "empty input, expected header 'n m'"),
    ("\n# nothing\n  \n", 1, "empty input, expected header 'n m'"),
]


class TestGraphReader:
    """``parse_graph`` of a string: numpy's C reader, with the line scan as
    the fallback that alone raises."""

    @settings(deadline=None, max_examples=300)
    @given(case=edge_list_texts())
    def test_reader_and_scan_give_the_same_arrays(self, case):
        text, body_comments = case
        scan = scanned(text)
        fast = read(text)
        # only an edgeless graph or a comment line after the header needs the scan
        assert (fast is None) == (body_comments or not scan.edge_arrays()[0].size)
        for g in (fast, parse_graph(text)):
            if g is not None:
                assert g.n == scan.n
                assert edge_bits(g) == edge_bits(scan)

    @pytest.mark.parametrize("text, line, message", REJECTED_TEXTS)
    def test_rejected_text_keeps_its_message_and_line(self, text, line, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read(text) is None
            for source in sources(text):
                with pytest.raises(GraphParseError) as err:
                    parse_graph(source)
                assert str(err.value) == f"line {line}: {message}"
                assert err.value.line == line

    @pytest.mark.parametrize("text", ["3 0\n", "3 0\n\n# a comment\n", "# c\n3 0"])
    def test_edgeless_graph_is_scanned_without_a_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read(text) is None
            for source in sources(text):
                g = parse_graph(source)
                assert g.n == 3 and g.edges == ()

    def test_reader_parses_the_benchmark_graph(self):
        text = serialize_graph(BENCHMARK_GRAPH)
        fast = read(text)
        assert fast is not None
        assert edge_bits(fast) == edge_bits(scanned(text))


class TestRandomInstance:
    def test_full_density_is_complete(self):
        g = random_instance(4, 1.0, "pm1", seed=7)
        assert len(g.edges) == 6
        assert all(abs(w) == 1.0 for _, _, w in g.edges)

    @pytest.mark.parametrize("n, density, seed", [(2, 0.5, 0), (9, 0.4, 3), (300, 0.05, 1)])
    def test_edges_are_increasing_row_major_pairs(self, n, density, seed):
        i, j, _ = random_instance(n, density, "pm1", seed=seed).edge_arrays()
        assert np.all((0 <= i) & (i < j) & (j < n))
        assert np.all(np.diff(i * n + j) > 0)

    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_full_density_keeps_every_pair_in_row_major_order(self, n):
        g = random_instance(n, 1.0, "uniform", seed=4)
        assert [(i, j) for i, j, _ in g.edges] == list(itertools.combinations(range(n), 2))

    @pytest.mark.parametrize("n, density", [(800, 0.06), (200, 0.5), (2000, 0.001)])
    def test_edge_count_is_binomial(self, n, density):
        pairs = n * (n - 1) // 2
        mean, sd = pairs * density, np.sqrt(pairs * density * (1 - density))
        for seed in range(3):
            assert abs(len(random_instance(n, density, "pm1", seed=seed).edges) - mean) <= 5 * sd

    def test_vanishing_density_gives_no_edges(self):
        # geometric(1e-300) saturates at the int64 maximum; the gaps' sums must not wrap
        assert random_instance(1000, 1e-300, "pm1", seed=0).edges == ()

    def test_weight_sets(self):
        pm1 = random_instance(100, 0.5, "pm1", seed=1).edge_arrays()[2]
        assert set(pm1.tolist()) == {-1.0, 1.0}
        uniform = random_instance(100, 0.5, "uniform", seed=1).edge_arrays()[2]
        assert np.all((-1.0 <= uniform) & (uniform < 1.0))
        assert uniform.min() < 0.0 < uniform.max()

    @pytest.mark.parametrize("n, weight_set, seed, edges", [
        (7, "uniform", 3, (
            (0, 1, 0.517410922309838), (0, 2, 0.7569603693325078),
            (0, 5, -0.7953601561558512), (1, 2, 0.6995366749323075),
            (1, 3, -0.2121453347353297), (1, 4, -0.040632152975450087),
            (1, 5, -0.707330860483603), (1, 6, 0.3968526898941871),
            (2, 4, -0.41604276802429796), (2, 5, 0.7422782995871782),
            (2, 6, -0.4492512461038458), (3, 5, 0.12361943746177984),
            (3, 6, -0.20068755773909452), (4, 6, 0.2258189838048783))),
        (6, "pm1", 11, (
            (0, 1, 1.0), (0, 2, -1.0), (0, 4, 1.0), (0, 5, -1.0),
            (1, 2, -1.0), (2, 3, -1.0), (2, 4, -1.0), (2, 5, -1.0))),
    ])
    def test_golden_graph(self, n, weight_set, seed, edges):
        # pins the stream: a change here changes every seeded graph
        assert random_instance(n, 0.5, weight_set, seed=seed).edges == edges

    def test_memory_grows_with_the_edges_not_the_pairs(self):
        # 40k edges out of 2e8 pairs: one 8-byte array over the pairs is 1.5 GiB
        tracemalloc.start()
        try:
            g = random_instance(20000, 2e-4, "pm1", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g.edges) > 30000
        assert peak < 32 * 2**20

    def test_determinism(self):
        a = random_instance(10, 0.3, "uniform", seed=7)
        b = random_instance(10, 0.3, "uniform", seed=7)
        assert a.edges == b.edges

    def test_seeds_differ(self):
        a = random_instance(10, 0.3, "pm1", seed=1)
        b = random_instance(10, 0.3, "pm1", seed=2)
        assert a.edges != b.edges

    @pytest.mark.parametrize("n, density, weight_set, seed", [
        (2, 1.0, "pm1", 0), (7, 0.5, "uniform", 3), (50, 0.2, "pm1", 4),
        (300, 0.05, "uniform", 1), (800, 0.06, "pm1", 3), (1000, 1e-300, "uniform", 0),
    ])
    def test_arrays_go_to_the_graph_as_the_constructor_would_make_them(
            self, tmp_path, n, density, weight_set, seed):
        g = random_instance(n, density, weight_set, seed=seed)
        # the constructor on Python triples of the same edges
        built = MaxCutInstance(n, zip(*(a.tolist() for a in g.edge_arrays())))
        assert type(g.n) is int and g.n == built.n
        for got, want in zip(g.edge_arrays(), built.edge_arrays()):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert not got.flags.writeable
        assert serialize_graph(g) == serialize_graph(built)
        out = tmp_path / "g.graph"
        assert main(["gen", str(out), "--n", str(n), "--density", repr(density),
                     "--weights", weight_set, "--seed", str(seed), "--quiet"]) == 0
        assert out.read_bytes() == serialize_graph(built).encode()

    def test_a_non_integer_vertex_count_is_refused(self):
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            random_instance(10.0, 0.5, "pm1", seed=0)

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            random_instance(5, 1.5, "pm1", seed=0)
        with pytest.raises(ValueError):
            random_instance(5, 0.0, "pm1", seed=0)


class TestValidation:
    @pytest.mark.parametrize("n, message", [
        (True, "spin count n must be an integer, got True"),
        (2.0, "spin count n must be an integer, got 2.0"),
        (0, "spin count n must be >= 1, got 0"),
    ])
    def test_spin_count_must_be_a_positive_integer(self, n, message):
        with pytest.raises(ValueError, match=message):
            IsingInstance(n=n, couplings=[[0.0]])

    @pytest.mark.parametrize("couplings, field, message", [
        ([[False, True], [True, False]], None, "couplings entries must be real numbers, got False"),
        ([[0, 1], [1, 0]], [True, "0.5"], "field entries must be real numbers, got True"),
        ([[0, 1], [1, 0]], [1.0, "0.5"], "field entries must be real numbers, got '0.5'"),
        ([[0, "1"], ["1", 0]], None, "couplings entries must be real numbers, got '1'"),
        ([[0, 1j], [1j, 0]], None, "couplings entries must be real numbers, got 1j"),
        ([[0, 1], [1, 0]], [np.True_, 0.0],
         "field entries must be real numbers, got np.True_"),
        (np.array([[0, 1], [1, 0]], dtype=bool), None,
         "couplings entries must be real numbers, got dtype bool"),
        (np.zeros((2, 2), dtype=complex), None,
         "couplings entries must be real numbers, got dtype complex128"),
        ([[0, 1], [1, 0]], np.array(["1", "2"]),
         "field entries must be real numbers, got dtype <U1"),
    ])
    def test_couplings_and_field_must_be_real(self, couplings, field, message):
        with pytest.raises(ValueError) as err:
            IsingInstance(n=2, couplings=couplings, field=field)
        assert str(err.value) == message

    @pytest.mark.parametrize("couplings, field", [
        ([[0, 1], [1, 0]], [1, -2]),
        ([[0.0, np.int64(1)], [np.float32(1.0), 0.0]], [np.float64(0.5), np.uint8(2)]),
        (np.array([[0, 1], [1, 0]], dtype=np.int32), np.array([0.5, 1.5], dtype=np.float32)),
    ], ids=["python", "numpy-scalars", "numpy-arrays"])
    def test_integer_and_float_entries_are_accepted(self, couplings, field):
        inst = IsingInstance(n=2, couplings=couplings, field=field)
        assert inst.couplings.dtype == inst.field.dtype == np.float64
        assert inst.couplings.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_asymmetric_couplings_rejected(self):
        with pytest.raises(ValueError):
            IsingInstance(n=2, couplings=[[0.0, 1.0], [2.0, 0.0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            IsingInstance(n=2, couplings=[[1.0, 0.0], [0.0, 0.0]])

    def test_bad_spin_values_rejected(self):
        with pytest.raises(ValueError):
            SpinAssignment([1.0, 0.5])

    def test_instances_are_immutable(self):
        inst = pair_instance(1.0)
        with pytest.raises(ValueError):
            inst.couplings[0, 1] = 2.0
