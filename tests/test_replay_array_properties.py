"""Property-based tests (hypothesis) for compiled replay on array-backed caches.

Three layers of randomized evidence, all shrinkable to tiny
counterexamples:

* A pure **stack-distance oracle** — the textbook inclusion property
  of LRU (an access hits iff the number of distinct lines touched in
  its set since its previous occurrence is below the associativity) —
  checked against the scalar ``Cache`` walk.  If it ever disagreed
  with the dict walk, every downstream equivalence argument would be
  void.
* The **array-backed cache** (``ArrayCache``, whose ``access`` is the
  compiled kernel's per-access routine) with random geometry — one way,
  the 20-way L2 shape, non-power-of-two set counts — warm state
  cross-loaded from the oracle with ``load_state_dict``, and a flush in
  mid-stream, vs the scalar walk AND the oracle: hits, dirty victims,
  counters, per-set LRU order, dirty bits.
* **Full MemorySystem traces** — random interleaved dense / bypass /
  stream ops with random cache geometry, warm state, a mid-stream flush
  and random chunk boundaries, replayed through ``replay="compiled"`` vs
  the scalar oracle: per-access service levels, every AccessStats
  counter and the complete hierarchy state.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, scaled_config
from repro.memory.cache import Cache
from repro.memory.compiled import ArrayCache
from repro.memory.hierarchy import (
    OP_DENSE,
    OP_DENSE_BYPASS,
    OP_STREAM,
    TRACE_REGIONS,
    MemorySystem,
    encode_op,
)

from tests.test_memory_batched_parity import (
    CACHE_COUNTERS,
    cache_state,
    counters,
    scalar_system_replay,
    system_state,
)


# ---------------------------------------------------------------------------
# The shrinkable stack-distance oracle
# ---------------------------------------------------------------------------


def stack_distance_reference(lines, num_sets: int, ways: int):
    """Hit/miss per access by the LRU inclusion property alone.

    Each set keeps an unbounded recency stack (index 0 = MRU).  An
    access hits iff its line sits at stack depth < ``ways``: exactly
    the lines a W-way LRU set would still hold.  No evictions are ever
    modelled — that independence is what makes it an oracle.
    """
    stacks = [[] for _ in range(num_sets)]
    hits = []
    for line in lines:
        s = stacks[line % num_sets]
        if line in s:
            hit = s.index(line) < ways
            s.remove(line)
        else:
            hit = False
        s.insert(0, line)
        hits.append(hit)
    return hits


def scalar_replay(cache, lines, writes):
    return [cache.access(l, w) for l, w in zip(lines, writes)]


traces = st.lists(
    st.tuples(st.integers(0, 23), st.booleans()),
    min_size=1,
    max_size=120,
)


@given(ways=st.integers(1, 8), set_bits=st.integers(0, 3), trace=traces)
@settings(max_examples=80, deadline=None)
def test_scalar_cache_matches_stack_distance_oracle(
    ways, set_bits, trace
):
    num_sets = 1 << set_bits
    cfg = CacheConfig(
        size_bytes=64 * ways * num_sets, associativity=ways
    )
    cache = Cache(cfg)
    assert cache.num_sets == num_sets
    lines = [t[0] for t in trace]
    writes = [t[1] for t in trace]
    assert [h for h, _ in scalar_replay(cache, lines, writes)] == (
        stack_distance_reference(lines, num_sets, ways)
    )


# ---------------------------------------------------------------------------
# ArrayCache vs the oracle on random geometry, warm state and flushes
# ---------------------------------------------------------------------------

# One way, small associativities, the 12-way LLC and 20-way L2 shapes.
WAYS = st.sampled_from([1, 2, 3, 4, 8, 12, 20])
# Powers of two and not.
NUM_SETS = st.sampled_from([1, 2, 3, 4, 5, 7, 8])


@st.composite
def geometry_and_trace(draw):
    ways = draw(WAYS)
    num_sets = draw(NUM_SETS)
    # Footprints from "fits in one set" to far beyond capacity.
    footprint = draw(st.sampled_from([ways, 2 * ways, 24, 200]))
    trace = draw(
        st.lists(
            st.tuples(st.integers(0, footprint - 1), st.booleans()),
            min_size=1,
            max_size=150,
        )
    )
    warm = draw(st.integers(0, len(trace)))
    flush_at = draw(st.integers(warm, len(trace)))
    return ways, num_sets, trace, warm, flush_at


@given(geometry_and_trace())
@settings(max_examples=120, deadline=None)
def test_array_solver_matches_bruteforce(params):
    ways, num_sets, trace, warm, flush_at = params
    cfg = CacheConfig(
        size_bytes=64 * ways * num_sets, associativity=ways
    )
    lines = [t[0] for t in trace]
    writes = [t[1] for t in trace]

    oracle = Cache(cfg, name="oracle")
    compiled = ArrayCache(cfg, name="compiled")
    # Warm-up on the oracle only; the array cache inherits its state.
    scalar_replay(oracle, lines[:warm], writes[:warm])
    compiled.load_state_dict(oracle.state_dict())
    assert compiled.state_dict() == oracle.state_dict()
    for lo, hi in ((warm, flush_at), (flush_at, len(trace))):
        want = scalar_replay(oracle, lines[lo:hi], writes[lo:hi])
        got = scalar_replay(compiled, lines[lo:hi], writes[lo:hi])
        assert got == want
        assert counters(oracle, CACHE_COUNTERS) == counters(
            compiled, CACHE_COUNTERS
        )
        assert cache_state(oracle) == cache_state(compiled)
        assert oracle.dirty_lines() == compiled.dirty_lines()
        if hi == flush_at:
            assert oracle.flush() == compiled.flush()
    assert compiled.state_dict() == oracle.state_dict()
    # A flush empties every set, so the oracle restarts cold after it.
    hits = [h for h, _ in scalar_replay(Cache(cfg), lines[:flush_at],
                                        writes[:flush_at])]
    assert hits == stack_distance_reference(lines[:flush_at], num_sets, ways)


# ---------------------------------------------------------------------------
# Full MemorySystem parity on random op traces
# ---------------------------------------------------------------------------


def _cache(draw, max_sets: int = 8) -> CacheConfig:
    ways = draw(WAYS)
    num_sets = draw(st.integers(1, max_sets))
    return CacheConfig(size_bytes=64 * ways * num_sets, associativity=ways)


@st.composite
def system_configs(draw):
    cfg = scaled_config(2, cache_shrink=8)
    pe = dataclasses.replace(
        cfg.pe, l1d=_cache(draw, 4), victim_cache=_cache(draw, 4)
    )
    mem = dataclasses.replace(
        cfg.memory, l2=_cache(draw), llc_slice=_cache(draw), num_llc_slices=1
    )
    return dataclasses.replace(cfg, pe=pe, memory=mem)


@st.composite
def op_traces(draw):
    footprint = draw(st.sampled_from([48, 1024, 1 << 14]))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, footprint - 1),
                st.sampled_from([OP_DENSE, OP_DENSE_BYPASS, OP_STREAM]),
                st.booleans(),
                st.integers(0, len(TRACE_REGIONS) - 1),
            ),
            min_size=1,
            max_size=200,
        )
    )
    warm = draw(st.integers(0, len(ops)))
    cut = draw(st.integers(warm, len(ops)))
    pe_ids = (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    flush = draw(st.sampled_from(["none", "pe", "all"]))
    return ops, warm, cut, pe_ids, flush


@given(system_configs(), op_traces())
@settings(max_examples=60, deadline=None)
def test_memory_system_array_matches_scalar(cfg, params):
    ops, warm, cut, pe_ids, flush = params
    ms_s = MemorySystem(dataclasses.replace(cfg, replay="scalar"))
    ms_c = MemorySystem(dataclasses.replace(cfg, replay="compiled"))
    lines = np.array([o[0] for o in ops], dtype=np.int64)
    enc = np.array(
        [encode_op(int(p), bool(w), int(r)) for _, p, w, r in ops],
        dtype=np.int64,
    )
    # Warm state: replayed on the oracle, then loaded into both.
    scalar_system_replay(ms_s, pe_ids[0], lines[:warm], enc[:warm])
    ms_c.load_state_dict(ms_s.state_dict())
    assert ms_c.state_dict() == ms_s.state_dict()
    for (lo, hi), pe_id in zip(((warm, cut), (cut, len(ops))), pe_ids):
        if hi > lo:
            lv_s = scalar_system_replay(
                ms_s, pe_id, lines[lo:hi], enc[lo:hi]
            )
            lv_c = ms_c.replay_trace(pe_id, lines[lo:hi], enc[lo:hi])
            assert np.array_equal(lv_s, lv_c)
        if hi == cut and flush == "pe":
            assert ms_s.flush_pe(pe_id) == ms_c.flush_pe(pe_id)
        elif hi == cut and flush == "all":
            assert ms_s.flush_all() == ms_c.flush_all()
    assert dataclasses.asdict(ms_s.collect_stats()) == (
        dataclasses.asdict(ms_c.collect_stats())
    )
    assert system_state(ms_s) == system_state(ms_c)
    assert ms_c.state_dict() == ms_s.state_dict()
