"""Property-based tests (hypothesis) on core data-structure invariants."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.store import CacheStore
from repro.core.characterization import QueueMix, WorkloadCharacterizer, WorkloadGroup
from repro.io.device_queue import DeviceQueue
from repro.io.request import DeviceOp, OpTag
from repro.schemes.allocation import QuotaAllocator
from repro.sim.engine import Simulator
from repro.trace.iostat import eq1_queue_time

# ---------------------------------------------------------------------------
# Cache store invariants
# ---------------------------------------------------------------------------

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "insert",
                "insert_dirty",
                "invalidate",
                "lookup",
                "clean",
                "mark_dirty",
                "evict_dirty",
            ]
        ),
        st.integers(min_value=0, max_value=255),
    ),
    max_size=200,
)


def _assert_dirty_index_exact(store):
    """The store's dirty index and per-set counts agree with a recount."""
    assert store.dirty_lbas == {b.lba for b in store if b.dirty}
    for cset in store._sets:
        assert cset.dirty == sum(1 for b in cset.entries.values() if b.dirty)
    assert store.dirty_count == len(store.dirty_lbas)


@given(ops=ops_strategy, repl=st.sampled_from(["lru", "fifo", "clock", "lfu"]))
@settings(max_examples=60, deadline=None)
def test_store_invariants_under_random_ops(ops, repl):
    """Residency ≤ capacity; dirty ⊆ resident; the dirty index is exact."""
    store = CacheStore(32, associativity=4, replacement=repl)
    now = 0.0
    for action, lba in ops:
        now += 1.0
        if action == "insert":
            store.insert(lba, now)
        elif action == "insert_dirty":
            store.insert(lba, now, dirty=True)
        elif action == "invalidate":
            store.invalidate(lba)
        elif action == "lookup":
            store.lookup(lba, now)
        elif action == "clean":
            store.mark_clean(lba)
        elif action == "mark_dirty":
            store.mark_dirty(lba)
        elif action == "evict_dirty":
            # one more dirty block than the set holds: at least one of
            # them is evicted while dirty
            for k in range(1, store.associativity + 2):
                store.insert(lba + k * store.num_sets, now, dirty=True)

        assert 0 <= store.occupied <= store.capacity_blocks
        assert 0 <= store.dirty_count <= store.occupied
        _assert_dirty_index_exact(store)

    # recount from scratch: cached counters must agree with reality
    resident = list(store)
    assert len(resident) == store.occupied
    assert sum(1 for b in resident if b.dirty) == store.dirty_count
    # no duplicate tags
    lbas = [b.lba for b in resident]
    assert len(lbas) == len(set(lbas))
    # every block lives in its home set
    for block in resident:
        assert store.set_index(block.lba) < store.num_sets


# ---------------------------------------------------------------------------
# Dirty-index fast paths vs. plain reference scans
# ---------------------------------------------------------------------------


def _reference_recycle_victim(store, owned, limit):
    """The oldest clean resident block among the first ``limit`` owned."""
    for i, lba in enumerate(owned):
        if i >= limit:
            break
        block = store.peek(lba)
        if block is not None and not block.dirty:
            return lba
    return None


def _reference_dirty_blocks(store, limit):
    """Dirty LBAs in set order, stopping once ``limit`` are collected.

    A limit of zero or less lists nothing, as ``CacheStore.dirty_blocks``
    documents.
    """
    if limit is not None and limit <= 0:
        return []
    out = []
    for block in store:
        if block.dirty:
            out.append(block.lba)
            if limit is not None and len(out) >= limit:
                break
    return out


@given(
    inserts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=95),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=120,
    ),
    dirty_below=st.integers(min_value=0, max_value=4),
    owned=st.lists(st.integers(min_value=0, max_value=127), unique=True, max_size=48),
    scan_limit=st.integers(min_value=1, max_value=24),
    flush_limit=st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    repl=st.sampled_from(["lru", "fifo", "clock", "lfu"]),
)
@settings(max_examples=80, deadline=None)
def test_dirty_fast_paths_match_reference_scans(
    inserts, dirty_below, owned, scan_limit, flush_limit, repl
):
    """Recycling and the flusher's listing equal the scans they replace.

    ``dirty_below`` sets the dirty share (0: all clean, 4: all dirty) so
    wholly dirty windows are common.  Owned LBAs are in random order and
    include addresses that were never inserted or were evicted since.
    """
    store = CacheStore(32, associativity=4, replacement=repl)
    for now, (lba, draw) in enumerate(inserts):
        store.insert(lba, float(now), dirty=draw < dirty_below)
    alloc = QuotaAllocator(store, default_quota_blocks=0, recycle_scan_limit=scan_limit)
    for lba in owned:
        alloc.note_insert(0, lba)

    reference = _reference_dirty_blocks(store, flush_limit)
    assert store.dirty_blocks(flush_limit) == reference

    while True:
        owned_now = list(alloc._owned.get(0, ()))
        expected = _reference_recycle_victim(store, owned_now, scan_limit)
        recycled = alloc.recycled.get(0, 0)
        assert alloc._recycle_one(0) is (expected is not None)
        _assert_dirty_index_exact(store)
        if expected is None:
            assert alloc.recycled.get(0, 0) == recycled
            break
        assert expected not in store
        assert expected not in alloc._owned[0]
        assert alloc.recycled[0] == recycled + 1
    reference = _reference_dirty_blocks(store, flush_limit)
    assert store.dirty_blocks(flush_limit) == reference


@given(
    lbas=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=300)
)
@settings(max_examples=40, deadline=None)
def test_store_insert_is_idempotent_on_occupancy(lbas):
    """Inserting the same set of addresses twice never grows occupancy."""
    store = CacheStore(64, associativity=8)
    for lba in lbas:
        store.insert(lba, 0.0)
    first = store.occupied
    for lba in lbas:
        store.insert(lba, 1.0)
    assert store.occupied <= first + 0  # idempotent w.r.t. residency count


# ---------------------------------------------------------------------------
# Device queue invariants
# ---------------------------------------------------------------------------

queue_ops = st.lists(
    st.tuples(
        st.sampled_from(["push_r", "push_w", "pop", "steal"]),
        st.integers(min_value=0, max_value=1000),
    ),
    max_size=150,
)


@given(ops=queue_ops, merge=st.sampled_from([0, 8, 32]))
@settings(max_examples=60, deadline=None)
def test_queue_conservation(ops, merge):
    """Every logical op is eventually accounted: merged + pending +
    dispatched + stolen == enqueued."""
    q = DeviceQueue("d", max_merge_blocks=merge)
    now = 0.0
    inflight = []
    for action, lba in ops:
        now += 1.0
        if action == "push_r":
            q.push(DeviceOp(lba, 1, is_write=False, tag=OpTag.READ), now)
        elif action == "push_w":
            q.push(DeviceOp(lba, 1, is_write=True, tag=OpTag.WRITE), now)
        elif action == "pop":
            op = q.pop_next(now)
            if op is not None:
                inflight.append(op)
        elif action == "steal":
            q.steal_tail(lba % 4, now)
        assert q.qsize == len(q.pending) + len(q.inflight)

    s = q.stats
    logical_pending = sum(1 + len(o.merged) for o in q.pending)
    logical_inflight = sum(1 + len(o.merged) for o in inflight)
    logical_stolen = s.stolen  # stolen counts physical ops
    # merged ops are absorbed, not lost
    assert (
        logical_pending + logical_inflight
        + sum(1 + len(o2.merged) for o2 in [])  # placeholder for clarity
        <= s.enqueued
    )
    assert s.dispatched == len(inflight)
    assert logical_pending + logical_inflight >= 0
    # physical conservation: pending + inflight + stolen + merged == enqueued
    assert len(q.pending) + len(inflight) + s.stolen + s.merged == s.enqueued


@given(
    n=st.integers(min_value=0, max_value=50),
    k=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=40, deadline=None)
def test_steal_tail_never_reorders_head(n, k):
    q = DeviceQueue("d", max_merge_blocks=0)
    for i in range(n):
        q.push(DeviceOp(i * 10, 1, is_write=True, tag=OpTag.WRITE), 0.0)
    q.steal_tail(k, 1.0)
    remaining = [o.lba for o in q.pending]
    assert remaining == sorted(remaining)
    assert remaining == [i * 10 for i in range(len(remaining))]


# ---------------------------------------------------------------------------
# Eq. 1 and classifier properties
# ---------------------------------------------------------------------------


@given(
    q1=st.integers(min_value=0, max_value=10_000),
    q2=st.integers(min_value=0, max_value=10_000),
    lat=st.floats(min_value=0.001, max_value=10_000.0),
)
def test_eq1_monotone_in_queue_size(q1, q2, lat):
    if q1 <= q2:
        assert eq1_queue_time(q1, lat) <= eq1_queue_time(q2, lat)


@given(
    r=st.integers(min_value=0, max_value=1000),
    w=st.integers(min_value=0, max_value=1000),
    p=st.integers(min_value=0, max_value=1000),
    e=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_classifier_total_and_membership(r, w, p, e):
    """The classifier always returns a defined group and the mix always
    normalizes to 1 (when non-empty)."""
    counts = Counter(
        {OpTag.READ: r, OpTag.WRITE: w, OpTag.PROMOTE: p, OpTag.EVICT: e}
    )
    mix = QueueMix.from_counts(counts)
    total = r + w + p + e
    assert mix.total == total
    if total:
        assert abs(mix.r + mix.w + mix.p + mix.e - 1.0) < 1e-9
    group = WorkloadCharacterizer().classify(mix)
    assert isinstance(group, WorkloadGroup)


@given(
    r=st.integers(min_value=0, max_value=100),
    w=st.integers(min_value=0, max_value=100),
    p=st.integers(min_value=0, max_value=100),
    e=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=100, deadline=None)
def test_classifier_scale_invariant(r, w, p, e):
    """Scaling all counts by a constant never changes the group."""
    clf = WorkloadCharacterizer()
    c1 = Counter({OpTag.READ: r, OpTag.WRITE: w, OpTag.PROMOTE: p, OpTag.EVICT: e})
    c2 = Counter(
        {OpTag.READ: 7 * r, OpTag.WRITE: 7 * w, OpTag.PROMOTE: 7 * p, OpTag.EVICT: 7 * e}
    )
    if sum(c1.values()) >= clf.config.min_queue_ops:
        assert clf.classify_counts(c1) == clf.classify_counts(c2)


# ---------------------------------------------------------------------------
# Simulator determinism
# ---------------------------------------------------------------------------


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=50))
@settings(max_examples=40, deadline=None)
def test_simulator_order_is_deterministic(delays):
    def run_once():
        sim = Simulator()
        order = []
        for i, d in enumerate(delays):
            sim.schedule_call(d, order.append, i)
        sim.run()
        return order

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# Datapath conservation: every request completes, under any policy schedule
# ---------------------------------------------------------------------------

request_script = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "policy_wb", "policy_wt", "policy_ro", "policy_wo"]),
        st.integers(min_value=0, max_value=500),
    ),
    min_size=1,
    max_size=80,
)


@given(script=request_script)
@settings(max_examples=40, deadline=None)
def test_controller_conservation_under_policy_churn(script):
    """Every submitted request completes exactly once, and the store's
    invariants hold, no matter how the write policy flips mid-stream."""
    from repro.cache.controller import CacheController
    from repro.cache.store import CacheStore
    from repro.cache.write_policy import WritePolicy
    from repro.devices.base import StorageDevice
    from repro.devices.hdd import HddConfig, HddModel
    from repro.devices.ssd import SsdConfig, SsdModel
    from repro.io.request import Request

    sim = Simulator()
    ssd = StorageDevice(sim, "ssd", SsdModel(SsdConfig(jitter_sigma=0.0)))
    hdd = StorageDevice(sim, "hdd", HddModel(HddConfig(jitter_sigma=0.0)))
    store = CacheStore(32, associativity=4)
    controller = CacheController(sim, ssd, hdd, store)
    completions: list[int] = []
    controller.add_completion_hook(lambda r: completions.append(r.req_id))

    submitted = []
    policies = {
        "policy_wb": WritePolicy.WB,
        "policy_wt": WritePolicy.WT,
        "policy_ro": WritePolicy.RO,
        "policy_wo": WritePolicy.WO,
    }
    for action, lba in script:
        if action in policies:
            controller.set_policy(policies[action])
            continue
        req = Request(sim.now, lba * 7, 1, is_write=(action == "write"))
        submitted.append(req)
        controller.submit(req)
    sim.run()

    assert all(r.done for r in submitted)
    assert sorted(completions) == sorted(r.req_id for r in submitted)
    assert len(completions) == len(set(completions))  # exactly once
    assert store.occupied <= store.capacity_blocks
    assert store.dirty_count <= store.occupied
