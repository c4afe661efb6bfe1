"""Differential test of the FTL allocator against a heap-based reference.

:class:`ReferenceFTL` below is the earlier page-mapping FTL kept verbatim in
its allocation, garbage-collection, refresh and wear logic (metrics, tracing
and logging stripped): every plane starts with an eager ``(wear, block)``
min-heap holding all of its blocks, and flat indices go through the
per-field address arithmetic.  :class:`repro.ssd.ftl.FlashTranslationLayer`
replaces the eager heap with a never-used-block counter plus a heap of
erased blocks, and derives flat indices from precomputed plane bases.  The
two must be indistinguishable from outside.

Hypothesis drives both on a tiny geometry with random streams of fresh and
overwriting writes, TRIMs and refreshes, including streams that fill a
channel so GC fires and, without over-provisioning, until ``CapacityError``.
After every step the returned address (or the exception text), every
logical page's lookup, the GC record, the relocation count, the wear
statistics and the refreshable-block list must agree.
"""

import heapq
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FlashConfig
from repro.errors import AddressError, CapacityError, SimulationError
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.geometry import PhysicalAddress

PlaneKey = Tuple[int, int, int, int]


# --- reference implementation ------------------------------------------------


class RefBlockState:
    __slots__ = ("block", "pages_per_block", "write_pointer", "valid", "erase_count")

    def __init__(self, block: int, pages_per_block: int) -> None:
        self.block = block
        self.pages_per_block = pages_per_block
        self.write_pointer = 0
        self.valid = bytearray(pages_per_block)
        self.erase_count = 0

    @property
    def is_full(self) -> bool:
        return self.write_pointer >= self.pages_per_block

    @property
    def valid_pages(self) -> int:
        return sum(self.valid)

    def erase(self) -> None:
        self.write_pointer = 0
        self.valid = bytearray(self.pages_per_block)
        self.erase_count += 1


class _RefPlaneState:
    __slots__ = ("blocks", "free_heap", "active", "in_gc")

    def __init__(self, blocks_per_plane: int) -> None:
        self.blocks: Dict[int, RefBlockState] = {}
        self.free_heap: List[Tuple[int, int]] = [(0, b) for b in range(blocks_per_plane)]
        self.active: Optional[RefBlockState] = None
        self.in_gc = False


class ReferenceFTL:
    def __init__(self, config: FlashConfig, gc_threshold: int = 2, op_ratio: float = 0.07):
        if gc_threshold < 1:
            raise SimulationError("gc_threshold must be >= 1")
        if not (0.0 <= op_ratio < 0.5):
            raise SimulationError("op_ratio must be in [0, 0.5)")
        self.config = config
        self.gc_threshold = gc_threshold
        self.op_ratio = op_ratio
        self._l2p: Dict[int, int] = {}
        self._p2l: Dict[int, int] = {}
        self._planes: Dict[PlaneKey, _RefPlaneState] = {}
        self.gc_events: List[Tuple[PlaneKey, int, int]] = []
        self.pages_written = 0
        self.pages_relocated = 0

    # Address arithmetic as the geometry did it: per-field checks, property
    # chains for the strides.
    def _check(self, addr: PhysicalAddress) -> None:
        cfg = self.config
        limits = (
            ("channel", addr.channel, cfg.channels),
            ("package", addr.package, cfg.packages_per_channel),
            ("die", addr.die, cfg.dies_per_package),
            ("plane", addr.plane, cfg.planes_per_die),
            ("block", addr.block, cfg.blocks_per_plane),
            ("page", addr.page, cfg.pages_per_block),
        )
        for name, value, limit in limits:
            if value >= limit:
                raise AddressError(f"{name}={value} exceeds fan-out {limit} in {addr!r}")

    def _to_flat(self, addr: PhysicalAddress) -> int:
        cfg = self.config
        self._check(addr)
        flat = addr.channel
        flat = flat * cfg.packages_per_channel + addr.package
        flat = flat * cfg.dies_per_package + addr.die
        flat = flat * cfg.planes_per_die + addr.plane
        flat = flat * cfg.blocks_per_plane + addr.block
        flat = flat * cfg.pages_per_block + addr.page
        return flat

    def _to_physical(self, flat: int) -> PhysicalAddress:
        total = self.config.total_pages
        if not (0 <= flat < total):
            raise AddressError(f"flat page {flat} outside [0, {total})")
        cfg = self.config
        channel, rest = divmod(flat, cfg.pages_per_channel)
        package, rest = divmod(rest, cfg.dies_per_package * cfg.pages_per_die)
        die, rest = divmod(rest, cfg.pages_per_die)
        plane, rest = divmod(rest, cfg.pages_per_plane)
        block, page = divmod(rest, cfg.pages_per_block)
        return PhysicalAddress(channel, package, die, plane, block, page)

    @property
    def user_pages_per_channel(self) -> int:
        return int(self.config.pages_per_channel * (1.0 - self.op_ratio))

    @property
    def user_pages(self) -> int:
        return self.user_pages_per_channel * self.config.channels

    def channel_of_logical(self, logical_page: int) -> int:
        if not (0 <= logical_page < self.user_pages):
            raise AddressError(
                f"logical page {logical_page} outside user space"
                f" [0, {self.user_pages})"
            )
        return logical_page // self.user_pages_per_channel

    def write(self, logical_page: int) -> PhysicalAddress:
        channel = self.channel_of_logical(logical_page)
        old = self._l2p.pop(logical_page, None)
        if old is not None:
            self._invalidate(old)
        address = self._allocate(channel, logical_page)
        flat = self._to_flat(address)
        self._l2p[logical_page] = flat
        self._p2l[flat] = logical_page
        self.pages_written += 1
        return address

    def lookup(self, logical_page: int) -> PhysicalAddress:
        flat = self._l2p.get(logical_page)
        if flat is None:
            raise AddressError(f"logical page {logical_page} is unmapped")
        return self._to_physical(flat)

    def is_mapped(self, logical_page: int) -> bool:
        return logical_page in self._l2p

    def trim(self, logical_page: int) -> None:
        flat = self._l2p.pop(logical_page, None)
        if flat is not None:
            self._invalidate(flat)

    @property
    def mapped_pages(self) -> int:
        return len(self._l2p)

    def _allocate(self, channel: int, logical_page: int) -> PhysicalAddress:
        plane_key = self._pick_plane(channel, logical_page)
        block = self._active_block(plane_key)
        page = block.write_pointer
        block.write_pointer += 1
        block.valid[page] = 1
        if block.is_full:
            self._plane(plane_key).active = None
        return PhysicalAddress(
            channel=plane_key[0],
            package=plane_key[1],
            die=plane_key[2],
            plane=plane_key[3],
            block=block.block,
            page=page,
        )

    def _pick_plane(self, channel: int, logical_page: int) -> PlaneKey:
        cfg = self.config
        planes_per_channel = (
            cfg.packages_per_channel * cfg.dies_per_package * cfg.planes_per_die
        )
        idx = logical_page % planes_per_channel
        package, rest = divmod(idx, cfg.dies_per_package * cfg.planes_per_die)
        die, plane = divmod(rest, cfg.planes_per_die)
        return (channel, package, die, plane)

    def _plane(self, plane_key: PlaneKey) -> _RefPlaneState:
        state = self._planes.get(plane_key)
        if state is None:
            state = _RefPlaneState(self.config.blocks_per_plane)
            self._planes[plane_key] = state
        return state

    def _active_block(self, plane_key: PlaneKey) -> RefBlockState:
        state = self._plane(plane_key)
        if state.active is not None and not state.active.is_full:
            return state.active
        if len(state.free_heap) <= self.gc_threshold and not state.in_gc:
            self._garbage_collect(plane_key)
            if state.active is not None and not state.active.is_full:
                return state.active
        state.active = self._pop_free_block(plane_key)
        return state.active

    def _pop_free_block(self, plane_key: PlaneKey) -> RefBlockState:
        state = self._plane(plane_key)
        if not state.free_heap:
            touched = len(state.blocks)
            valid = sum(block.valid_pages for block in state.blocks.values())
            wear = [block.erase_count for block in state.blocks.values()]
            wear_lo = min(wear) if wear else 0
            wear_hi = max(wear) if wear else 0
            raise CapacityError(
                f"plane {plane_key} has no free blocks (GC failed): "
                f"{touched}/{self.config.blocks_per_plane} blocks touched, "
                f"{valid} valid pages pinned, erase counts "
                f"[{wear_lo}, {wear_hi}], gc_threshold={self.gc_threshold}, "
                f"op_ratio={self.op_ratio}"
            )
        _wear, block_index = heapq.heappop(state.free_heap)
        block = state.blocks.get(block_index)
        if block is None:
            block = RefBlockState(block_index, self.config.pages_per_block)
            state.blocks[block_index] = block
        return block

    def _garbage_collect(self, plane_key: PlaneKey) -> None:
        state = self._plane(plane_key)
        state.in_gc = True
        try:
            while len(state.free_heap) <= self.gc_threshold:
                victim = self._pick_victim(plane_key)
                if victim is None:
                    return
                self._collect_victim(plane_key, state, victim)
        finally:
            state.in_gc = False

    def _collect_victim(
        self, plane_key: PlaneKey, state: _RefPlaneState, victim: RefBlockState
    ) -> None:
        relocated = 0
        for page_index in range(victim.pages_per_block):
            if not victim.valid[page_index]:
                continue
            flat = self._to_flat(
                PhysicalAddress(
                    plane_key[0],
                    plane_key[1],
                    plane_key[2],
                    plane_key[3],
                    victim.block,
                    page_index,
                )
            )
            logical_page = self._p2l.pop(flat)
            victim.valid[page_index] = 0
            new_address = self._allocate(plane_key[0], logical_page)
            new_flat = self._to_flat(new_address)
            self._l2p[logical_page] = new_flat
            self._p2l[new_flat] = logical_page
            relocated += 1
        victim.erase()
        heapq.heappush(state.free_heap, (victim.erase_count, victim.block))
        self.pages_relocated += relocated
        self.gc_events.append((plane_key, victim.block, relocated))

    def _pick_victim(self, plane_key: PlaneKey) -> Optional[RefBlockState]:
        state = self._plane(plane_key)
        candidates = [
            block
            for block in state.blocks.values()
            if block.is_full
            and block is not state.active
            and block.valid_pages < block.pages_per_block
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda block: (block.valid_pages, block.erase_count))

    def block_erase_count(self, address: PhysicalAddress) -> int:
        plane_key = (address.channel, address.package, address.die, address.plane)
        state = self._planes.get(plane_key)
        if state is None:
            return 0
        block = state.blocks.get(address.block)
        return block.erase_count if block is not None else 0

    def iter_refreshable_blocks(self) -> List[Tuple[PlaneKey, int]]:
        refreshable: List[Tuple[PlaneKey, int]] = []
        for plane_key in sorted(self._planes):
            state = self._planes[plane_key]
            for block_index in sorted(state.blocks):
                block = state.blocks[block_index]
                if block.is_full and block is not state.active and block.valid_pages:
                    refreshable.append((plane_key, block_index))
        return refreshable

    def refresh_block(self, plane_key: PlaneKey, block_index: int) -> int:
        state = self._plane(plane_key)
        block = state.blocks.get(block_index)
        if block is None:
            raise AddressError(
                f"block {block_index} on plane {plane_key} has never been written"
            )
        if block is state.active:
            raise SimulationError(
                f"block {block_index} on plane {plane_key} is the active "
                "append point and cannot be refreshed"
            )
        if not block.is_full:
            raise SimulationError(
                f"block {block_index} on plane {plane_key} is still open "
                f"(write pointer {block.write_pointer})"
            )
        relocated = block.valid_pages
        state.in_gc = True
        try:
            self._collect_victim(plane_key, state, block)
        finally:
            state.in_gc = False
        return relocated

    def wear_stats(self) -> Tuple[int, int, float]:
        counts = [
            block.erase_count
            for state in self._planes.values()
            for block in state.blocks.values()
        ]
        if not counts:
            return 0, 0, 0.0
        return min(counts), max(counts), sum(counts) / len(counts)

    def _invalidate(self, flat: int) -> None:
        address = self._to_physical(flat)
        plane_key = (address.channel, address.package, address.die, address.plane)
        block = self._plane(plane_key).blocks[address.block]
        block.valid[address.page] = 0
        self._p2l.pop(flat, None)


# --- differential harness ----------------------------------------------------


def tiny_config() -> FlashConfig:
    # Two channels of 2 planes x 6 blocks x 4 pages: small enough that a few
    # dozen writes exhaust a plane, and two planes per channel exercise the
    # round-robin plane pick and the plane bases.
    return FlashConfig(
        channels=2,
        packages_per_channel=1,
        dies_per_package=1,
        planes_per_die=2,
        blocks_per_plane=6,
        pages_per_block=4,
    )


def outcome(call):
    """A call's result, or its exception's type and text."""
    try:
        return ("ok", call())
    except Exception as exc:  # compared by type and text, like any result
        return (type(exc).__name__, str(exc))


def snapshot(ftl, user_pages: int):
    """Everything observable about an FTL's state."""
    return {
        "lookups": [outcome(lambda lpa=lpa: ftl.lookup(lpa)) for lpa in range(user_pages)],
        "mapped": ftl.mapped_pages,
        "gc_events": [
            event if isinstance(event, tuple)
            else (event.plane, event.victim_block, event.relocated_pages)
            for event in ftl.gc_events
        ],
        "pages_written": ftl.pages_written,
        "pages_relocated": ftl.pages_relocated,
        "wear": ftl.wear_stats(),
        "refreshable": ftl.iter_refreshable_blocks(),
    }


def apply(ftl, op):
    kind = op[0]
    if kind == "write":
        return outcome(lambda: ftl.write(op[1]))
    if kind == "trim":
        return outcome(lambda: ftl.trim(op[1]))
    if kind == "refresh":
        return outcome(lambda: ftl.refresh_block(op[1], op[2]))
    raise AssertionError(kind)


def run_differential(ops, gc_threshold: int, op_ratio: float):
    """Drive both FTLs step by step; returns the reference for coverage checks."""
    config = tiny_config()
    ref = ReferenceFTL(config, gc_threshold=gc_threshold, op_ratio=op_ratio)
    ftl = FlashTranslationLayer(config, gc_threshold=gc_threshold, op_ratio=op_ratio)
    assert ftl.user_pages == ref.user_pages
    errors = []
    for step, op in enumerate(ops):
        if op[0] == "refresh_nth":
            refreshable = ref.iter_refreshable_blocks()
            if not refreshable:
                continue
            op = ("refresh",) + refreshable[op[1] % len(refreshable)]
        expected = apply(ref, op)
        got = apply(ftl, op)
        assert got == expected, f"step {step} {op}"
        if expected[0] != "ok":
            errors.append(expected)
        assert snapshot(ftl, ref.user_pages) == snapshot(ref, ref.user_pages), (
            f"state diverged after step {step} {op}"
        )
    return ref, errors


PLANE_KEYS = [(c, 0, 0, p) for c in range(2) for p in range(2)]


@st.composite
def op_streams(draw):
    gc_threshold = draw(st.integers(1, 3))
    op_ratio = draw(st.sampled_from([0.0, 0.1, 0.25]))
    user_pages = ReferenceFTL(tiny_config(), op_ratio=op_ratio).user_pages
    per_channel = user_pages // 2
    # A hot set of a few pages drives overwrite churn (GC); the full range
    # gives fresh writes on both channels.
    lpa = st.one_of(st.integers(0, 5), st.integers(0, user_pages - 1))
    op = st.one_of(
        st.tuples(st.just("write"), lpa),
        st.tuples(st.just("write"), lpa),
        st.tuples(st.just("write"), lpa),
        st.tuples(st.just("trim"), lpa),
        st.tuples(st.just("refresh_nth"), st.integers(0, 50)),
        st.tuples(st.just("refresh_nth"), st.integers(0, 50)),
        st.tuples(st.just("refresh"), st.sampled_from(PLANE_KEYS), st.integers(0, 6)),
    )
    # Fill a prefix of channel 0 first.  A partial fill leaves full blocks
    # beside never-used ones, so a refresh erases a block while fresh ones
    # remain; a full fill at op_ratio 0 leaves GC no free destination for
    # any later overwrite there.
    fill = draw(st.one_of(st.just(per_channel), st.integers(0, per_channel)))
    ops = [("write", page) for page in range(fill)]
    ops.extend(draw(st.lists(op, max_size=150)))
    return ops, gc_threshold, op_ratio


class TestDifferential:
    @given(op_streams())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_after_every_step(self, stream):
        ops, gc_threshold, op_ratio = stream
        run_differential(ops, gc_threshold, op_ratio)

    def test_overwrite_churn_runs_gc_identically(self):
        # A hot set churns while a cold set is rewritten rarely, so victims
        # still hold valid pages that GC must relocate.
        ops = [
            ("write", 20 + (i // 10) % 8) if i % 10 == 0 else ("write", i % 3)
            for i in range(400)
        ]
        ref, errors = run_differential(ops, gc_threshold=2, op_ratio=0.07)
        assert len(ref.gc_events) > 10 and ref.pages_relocated > 0
        assert ref.wear_stats()[1] >= 2  # erased blocks were reused
        assert not errors

    def test_refresh_and_trim_mix(self):
        ops = [("write", lpa) for lpa in range(40)]
        ops += [("trim", lpa) for lpa in range(0, 40, 3)]
        ops += [("refresh_nth", i) for i in range(6)]
        ops += [("write", i % 7) for i in range(120)]
        ref, errors = run_differential(ops, gc_threshold=1, op_ratio=0.1)
        assert ref.gc_events and not errors

    def test_never_used_blocks_before_erased_ones(self):
        # Refresh erases a block while the plane still has never-used
        # blocks; the next block opened must be a never-used one.
        ops = [("write", lpa) for lpa in range(24)]
        ops += [("refresh_nth", 0), ("refresh_nth", 1)]
        ops += [("write", lpa) for lpa in range(24, 60)]
        ref, errors = run_differential(ops, gc_threshold=1, op_ratio=0.1)
        assert not ref.gc_events[2:] and ref.wear_stats()[1] == 1
        assert not errors

    @pytest.mark.parametrize("gc_threshold", [1, 2, 3])
    def test_capacity_error_at_same_step(self, gc_threshold):
        per_channel = ReferenceFTL(tiny_config(), op_ratio=0.0).user_pages_per_channel
        ops = [("write", page) for page in range(per_channel)]
        ops += [("write", 0), ("write", 1), ("write", 2)]
        _ref, errors = run_differential(ops, gc_threshold=gc_threshold, op_ratio=0.0)
        assert errors and errors[0][0] == "CapacityError"
        assert "has no free blocks (GC failed)" in errors[0][1]
