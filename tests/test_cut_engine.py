"""Differential tests of the cut engine against the reference oracles.

The fast kernels in :mod:`repro.synth.truth` and
:mod:`repro.synth.cuts` must reproduce ``tests/oracles`` bit for bit:
the same cut lists (leaves, tables, order), the same truth tables, the
same NPN transforms and the same technology-library match tables.
"""

import random
import sys
import threading

import pytest

from repro import obs
from repro.benchgen.suite import build_suite
from repro.mapping import TechLibraryView
from repro.mapping.library import MatchConfig
from repro.mapping.techmap import TechnologyMapper
from repro.synth import AIG, map_luts, refactor, rewrite
from repro.synth import cuts as cuts_module
from repro.synth import truth
from repro.synth.cuts import Cut, enumerate_cuts, structure_key

from .oracles import cuts_ref, truth_ref


def random_aig(seed: int, n_pis: int = 8, n_ands: int = 160) -> AIG:
    rng = random.Random(seed)
    g = AIG(f"rand{seed}")
    lits = [g.add_pi() for _ in range(n_pis)]
    for _ in range(n_ands):
        a, b = rng.sample(lits, 2)
        lits.append(g.add_and(a ^ rng.randint(0, 1), b ^ rng.randint(0, 1)))
    for lit in lits[-4:]:
        g.add_po(lit)
    return g


def as_lists(cuts) -> dict:
    return {node: [(c.leaves, c.table) for c in node_cuts] for node, node_cuts in cuts.items()}


#: (k, max_cuts) as the passes use them: rewrite/techmap, lutmap, refactor.
SETTINGS = [(4, 8), (6, 8), (8, 4)]

EPFL_SMALL = build_suite("small")


@pytest.fixture(scope="module")
def library():
    from repro.charlib import default_library

    return default_library(10.0)


@pytest.fixture(autouse=True)
def _cold_memo():
    cuts_module.enumerate_structure.cache_clear()
    yield
    cuts_module.enumerate_structure.cache_clear()


# ----------------------------------------------------------------------
# Cut lists
# ----------------------------------------------------------------------
class TestCutListsMatchOracle:
    @pytest.mark.parametrize("tables", [True, False])
    @pytest.mark.parametrize("k,max_cuts", SETTINGS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_aigs(self, seed, k, max_cuts, tables):
        g = random_aig(seed)
        fast = enumerate_cuts(g, k=k, max_cuts=max_cuts, compute_tables=tables)
        ref = cuts_ref.enumerate_cuts(g, k=k, max_cuts=max_cuts, compute_tables=tables)
        assert as_lists(fast) == ref

    @pytest.mark.parametrize("name", sorted(EPFL_SMALL))
    def test_epfl_small(self, name):
        g = EPFL_SMALL[name]
        for k, max_cuts in SETTINGS:
            for tables in (True, False):
                fast = enumerate_cuts(g, k=k, max_cuts=max_cuts, compute_tables=tables)
                ref = cuts_ref.enumerate_cuts(
                    g, k=k, max_cuts=max_cuts, compute_tables=tables
                )
                assert as_lists(fast) == ref, (name, k, max_cuts, tables)

    def test_without_trivial_cuts(self):
        g = random_aig(7)
        fast = enumerate_cuts(g, k=4, max_cuts=8, include_trivial=False)
        assert as_lists(fast) == cuts_ref.enumerate_cuts(g, k=4, max_cuts=8, include_trivial=False)


class TestCutObject:
    def test_signature_has_one_bit_per_leaf_mod_64(self):
        cut = Cut((1, 3, 65), 0)
        assert cut.sig == (1 << 1) | (1 << 3)
        assert Cut((1, 3, 65), 0) == Cut((1, 3, 65), 0)

    def test_dominates_despite_signature_collision(self):
        small, big = Cut((1, 65), 0), Cut((1, 2, 65), 0)
        alias = Cut((1, 129), 0)  # same signature as ``small``
        assert small.dominates(big) and not big.dominates(small)
        assert alias.sig == small.sig and not alias.dominates(big)

    def test_cut_sets_are_read_only(self):
        cuts = enumerate_cuts(random_aig(1), k=4)
        node = next(iter(cuts))
        assert isinstance(cuts[node], tuple)
        with pytest.raises(TypeError):
            cuts[node] = ()


# ----------------------------------------------------------------------
# Truth kernels
# ----------------------------------------------------------------------
class TestTruthKernelsMatchOracle:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_flip_permute_expand(self, n):
        rng = random.Random(n)
        for _ in range(25):
            # Bits above the table must be ignored, as by the oracle.
            tt = rng.getrandbits(1 << n) | (rng.getrandbits(4) << (1 << n))
            for var in range(n):
                assert truth.tt_flip_input(tt, var, n) == truth_ref.tt_flip_input(tt, var, n)
            perm = tuple(rng.sample(range(n), n))
            assert truth.tt_permute(tt, perm, n) == truth_ref.tt_permute(tt, perm, n)
            for n_to in range(n, 9):
                positions = sorted(rng.sample(range(n_to), n))
                assert truth.tt_expand(tt, positions, n, n_to) == truth_ref.tt_expand(
                    tt, positions, n, n_to
                )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_var(self, n):
        for var in range(n):
            assert truth.tt_var(var, n) == truth_ref.tt_expand(0b10, [var], 1, n)

    @pytest.mark.parametrize(
        "positions,n_from,n_to",
        [([1, 0], 2, 3), ([0, 0], 2, 3), ([0, 3], 2, 3), ([0], 2, 3), ([-1, 1], 2, 3)],
    )
    def test_expand_rejects_bad_positions(self, positions, n_from, n_to):
        with pytest.raises(ValueError):
            truth.tt_expand(0b0110, positions, n_from, n_to)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_npn_canon_exhaustive_small(self, n):
        for tt in range(1 << (1 << n)):
            assert truth.npn_canon(tt, n) == truth_ref.npn_canon(tt, n), tt

    def test_npn_canon_seeded_4_input_sample(self):
        rng = random.Random(2023)
        for tt in rng.sample(range(1 << 16), 400):
            assert truth.npn_canon(tt, 4) == truth_ref.npn_canon(tt, 4), hex(tt)


# ----------------------------------------------------------------------
# Library view
# ----------------------------------------------------------------------
def test_match_tables_match_oracle(library, monkeypatch):
    fast = TechLibraryView(library)

    def reference_index(self, table, arity):
        for final, perm, neg_mask, out_neg in truth_ref.np_configurations(table, arity):
            self.match_tables[arity].setdefault(final, []).append(
                MatchConfig((table, arity), perm, neg_mask, out_neg)
            )

    monkeypatch.setattr(TechLibraryView, "_index_function", reference_index)
    ref = TechLibraryView(library)
    for arity in fast.match_tables:
        assert list(fast.match_tables[arity].items()) == list(ref.match_tables[arity].items())


# ----------------------------------------------------------------------
# Structure-keyed reuse
# ----------------------------------------------------------------------
def renamed_copy(g: AIG) -> AIG:
    """Same AND structure, different network, PI and PO names."""
    copy = AIG(g.name + "_renamed")
    for i in range(g.num_pis):
        copy.add_pi(f"in{i}")
    for node in g.and_nodes():
        copy.add_and(*g.fanins(node))
    for i, po in enumerate(g.pos):
        copy.add_po(po, f"out{i}")
    return copy


class TestReuse:
    def test_renamed_network_hits(self):
        g = random_aig(3)
        first = enumerate_cuts(g, k=4)
        again = enumerate_cuts(renamed_copy(g), k=4)
        assert again is first
        assert cuts_module.enumerate_structure.cache_info().hits == 1

    def test_settings_are_part_of_the_key(self):
        g = random_aig(3)
        base = enumerate_cuts(g, k=4, max_cuts=8)
        for kwargs in (
            {"k": 5}, {"max_cuts": 7}, {"include_trivial": False}, {"compute_tables": False}
        ):
            assert enumerate_cuts(g, **{"k": 4, "max_cuts": 8, **kwargs}) is not base
        assert cuts_module.enumerate_structure.cache_info().hits == 0

    def test_changed_structure_misses(self):
        g = random_aig(3)
        first = enumerate_cuts(g, k=4)
        g.add_po(g.add_and(2 * g.pis[0], 2 * g.pis[1] + 1))
        assert enumerate_cuts(g, k=4) is not first

    def test_key_is_the_exact_structure(self):
        g = random_aig(4)
        fanin0, fanin1, is_pi, pis = structure_key(g)
        assert list(fanin0) == g._fanin0 and list(fanin1) == g._fanin1
        assert list(is_pi) == g._is_pi and list(pis) == g.pis
        assert structure_key(renamed_copy(g)) == structure_key(g)

    def test_hash_collision_does_not_hit(self, monkeypatch):
        """Keys that collide in ``hash()`` must still be told apart."""

        class Colliding(tuple):
            def __hash__(self):
                return 0

        plain = cuts_module.structure_key
        monkeypatch.setattr(cuts_module, "structure_key", lambda g: Colliding(plain(g)))
        a, b = random_aig(5), random_aig(6)
        cuts_a = enumerate_cuts(a, k=4)
        cuts_b = enumerate_cuts(b, k=4)
        assert cuts_module.enumerate_structure.cache_info().hits == 0
        assert as_lists(cuts_a) == cuts_ref.enumerate_cuts(a, k=4)
        assert as_lists(cuts_b) == cuts_ref.enumerate_cuts(b, k=4)

    def test_reuse_counter_is_exact_across_threads(self):
        """Every call is counted once as computed or reused, per thread,
        while threads share (and evict from) one memo."""
        networks = [random_aig(seed, n_ands=40) for seed in range(6)]
        expected = [cuts_ref.enumerate_cuts(g, k=4) for g in networks]
        counters, failures = [], []

        def worker(offset):
            try:
                with obs.Tracer() as tracer:
                    for i in range(24):
                        index = (offset + i) % len(networks)
                        if as_lists(enumerate_cuts(networks[index], k=4)) != expected[index]:
                            failures.append(index)
                counters.append(tracer.counters)
            except Exception as exc:  # surfaced by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures and len(counters) == 8
        assert all(c["synth.cuts.calls"] == 24 for c in counters)
        computed = sum(c["synth.cuts.calls"] - c.get("synth.cuts.reused", 0) for c in counters)
        assert computed == cuts_module.enumerate_structure.cache_info().misses

    def test_bounded_and_cleared(self):
        for seed in range(7):
            enumerate_cuts(random_aig(seed, n_ands=30), k=4)
            assert cuts_module.enumerate_structure.cache_info().currsize <= 4
        assert cuts_module.enumerate_structure.cache_info().currsize == 4
        cuts_module.enumerate_structure.cache_clear()
        assert cuts_module.enumerate_structure.cache_info().currsize == 0


class TestSharedCutSetsGiveIdenticalResults:
    """Passes that share one memoized cut set must not disturb it."""

    def test_synthesis_passes(self):
        g = EPFL_SMALL["int2float"]
        twin = renamed_copy(g)
        for run in (rewrite, refactor):
            first, second = run(g), run(twin)
            assert structure_key(first) == structure_key(second)
            assert first.pos == second.pos
        first, second = map_luts(g, k=6), map_luts(twin, k=6)
        assert (first.luts, first.outputs) == (second.luts, second.outputs)
        assert cuts_module.enumerate_structure.cache_info().hits == 3

    def test_techmap(self, library):
        view = TechLibraryView(library)
        g = EPFL_SMALL["ctrl"]
        mapper = TechnologyMapper(view)
        first, second = mapper.map(g), mapper.map(g)
        assert cuts_module.enumerate_structure.cache_info().hits >= 1
        assert first == second
