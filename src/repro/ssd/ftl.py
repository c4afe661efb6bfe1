"""Flash Translation Layer: L2P mapping, allocation, GC, wear leveling.

The FTL is the firmware function the paper's interleaving framework relies on
(§5.3): each flash channel owns a contiguous logical address range, so a host
that assigns a logical address from channel *c*'s range is guaranteed its data
lands on channel *c*.  :meth:`FlashTranslationLayer.channel_logical_range`
exposes exactly that contract.

Internals:

* **L2P map** — a dict from logical page to flat physical page, with the
  reverse map for invalidation.  (The real device keeps this table in DRAM;
  :class:`repro.ssd.device.SSDDevice` charges DRAM accesses for lookups.)
* **Allocation** — per-channel append points: each (channel, die, plane) has
  an active block written page-by-page, spreading programs across dies.
* **Garbage collection** — greedy cost-benefit: when a plane's free-block
  reserve drops below ``gc_threshold``, the full block with the fewest valid
  pages is the victim; its valid pages are relocated and the block erased.
* **Wear leveling** — a plane hands out its never-written blocks first, in
  index order, then erased blocks from a min-heap keyed by erase count, so
  erases spread across blocks.  Never-written blocks are a counter, not heap
  entries: they all have wear 0 and every erased block wear >= 1, so the
  order is the one a single heap over all free blocks would pop, without
  building a ``blocks_per_plane`` list for every plane a write touches.

State is created lazily per plane/block: a Table 2 device has half a million
blocks, and experiments only ever touch a sliver of them, so memory tracks
the written footprint rather than the raw geometry.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import FlashConfig
from ..errors import AddressError, CapacityError, SimulationError
from ..obs import get_registry, get_tracer
from .geometry import FlashGeometry, PhysicalAddress

logger = logging.getLogger(__name__)

# A plane is identified by (channel, package, die, plane).
PlaneKey = Tuple[int, int, int, int]


class BlockState:
    """Bookkeeping for one physical block (valid bitmap + wear)."""

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


@dataclass
class GcEvent:
    """Record of one garbage-collection invocation (for tests/telemetry)."""

    plane: PlaneKey
    victim_block: int
    relocated_pages: int


class _PlaneState:
    """Lazily-created allocation state for one plane.

    Free blocks are the never-used ones from ``next_fresh`` up, plus the
    ``erased`` ``(wear, block)`` min-heap (see the module docstring for why
    this pops in the order one heap over all free blocks would).
    """

    __slots__ = ("key", "base", "blocks", "next_fresh", "erased", "active", "in_gc")

    def __init__(self, key: PlaneKey, base: int) -> None:
        self.key = key
        self.base = base  # flat index of the plane's first page
        self.blocks: Dict[int, BlockState] = {}
        self.next_fresh = 0
        self.erased: List[Tuple[int, int]] = []
        self.active: Optional[BlockState] = None
        # Re-entrancy guard: GC's own relocation writes must not trigger a
        # nested collection of the same plane (the over-provisioned reserve
        # exists precisely so relocations always find a destination).
        self.in_gc = False


class FlashTranslationLayer:
    """Page-mapping FTL over a :class:`FlashGeometry`.

    ``gc_threshold`` is the minimum number of free blocks a plane keeps in
    reserve; dropping to it triggers GC on that plane.  ``op_ratio`` reserves
    over-provisioned blocks per plane that the host-visible capacity never
    touches, which guarantees GC can always find a destination.
    """

    def __init__(
        self,
        config: FlashConfig,
        gc_threshold: int = 2,
        op_ratio: float = 0.07,
    ) -> None:
        if gc_threshold < 1:
            raise SimulationError("gc_threshold must be >= 1")
        if not (0.0 <= op_ratio < 0.5):
            raise SimulationError("op_ratio must be in [0, 0.5)")
        self.config = config
        self.geometry = FlashGeometry(config)
        self.gc_threshold = gc_threshold
        self.op_ratio = op_ratio

        # Geometry constants the per-page write path would otherwise derive
        # through chains of FlashConfig properties on every call.
        self._user_pages_per_channel = int(config.pages_per_channel * (1.0 - op_ratio))
        self._user_pages = self._user_pages_per_channel * config.channels
        self._planes_per_channel = (
            config.packages_per_channel * config.dies_per_package * config.planes_per_die
        )
        self._blocks_per_plane = config.blocks_per_plane
        self._pages_per_block = config.pages_per_block
        self._pages_per_plane = config.pages_per_plane
        # Global plane index (channel * planes_per_channel + index within the
        # channel) -> plane key.  Channel-major, like flat page indices, so a
        # plane's first flat page is its global index * pages_per_plane.
        self._plane_keys: List[PlaneKey] = [
            (channel, package, die, plane)
            for channel in range(config.channels)
            for package in range(config.packages_per_channel)
            for die in range(config.dies_per_package)
            for plane in range(config.planes_per_die)
        ]

        self._l2p: Dict[int, int] = {}
        self._p2l: Dict[int, int] = {}
        self._planes: Dict[PlaneKey, _PlaneState] = {}
        self.gc_events: List[GcEvent] = []
        self.pages_written = 0
        self.pages_relocated = 0

    # --- logical address ranges (§5.3 contract) -------------------------------
    def channel_logical_range(self, channel: int) -> range:
        """The logical page range whose writes land on ``channel``.

        The firmware statically partitions the logical space channel-by-
        channel; user capacity excludes the over-provisioned share.
        """
        if not (0 <= channel < self.config.channels):
            raise AddressError(f"channel {channel} outside device")
        per_channel = self._user_pages_per_channel
        start = channel * per_channel
        return range(start, start + per_channel)

    @property
    def user_pages_per_channel(self) -> int:
        return self._user_pages_per_channel

    @property
    def user_pages(self) -> int:
        return self._user_pages

    def channel_of_logical(self, logical_page: int) -> int:
        """Which channel a logical page is statically routed to."""
        if not (0 <= logical_page < self._user_pages):
            raise AddressError(
                f"logical page {logical_page} outside user space"
                f" [0, {self._user_pages})"
            )
        return logical_page // self._user_pages_per_channel

    # --- mapping ---------------------------------------------------------------
    def write(self, logical_page: int) -> PhysicalAddress:
        """Map ``logical_page`` to a fresh physical page; returns its PPA.

        Overwrites invalidate the previous physical page.  The channel is
        determined by the static logical range; within the channel the
        allocator round-robins dies/planes for program parallelism.
        """
        channel = self.channel_of_logical(logical_page)
        old = self._l2p.pop(logical_page, None)
        if old is not None:
            self._invalidate(old)
        address, flat = self._allocate(channel, logical_page)
        self._l2p[logical_page] = flat
        self._p2l[flat] = logical_page
        self.pages_written += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "ftl_pages_written_total", "pages programmed through the FTL"
            ).inc(channel=channel)
        return address

    def lookup(self, logical_page: int) -> PhysicalAddress:
        """Translate a logical page to its current physical address."""
        flat = self._l2p.get(logical_page)
        if flat is None:
            raise AddressError(f"logical page {logical_page} is unmapped")
        return self.geometry.to_physical(flat)

    def is_mapped(self, logical_page: int) -> bool:
        return logical_page in self._l2p

    def trim(self, logical_page: int) -> None:
        """Discard a mapping (host TRIM); the physical page becomes invalid."""
        flat = self._l2p.pop(logical_page, None)
        if flat is not None:
            self._invalidate(flat)

    @property
    def mapped_pages(self) -> int:
        return len(self._l2p)

    # --- allocation --------------------------------------------------------------
    def _allocate(self, channel: int, logical_page: int) -> Tuple[PhysicalAddress, int]:
        """Program the next page of the plane ``logical_page`` round-robins to.

        Planes within the channel are picked by logical page number, spreading
        programs across dies.  Host writes and GC relocations both allocate
        here.  Returns the validated physical address and its flat index.
        """
        per_channel = self._planes_per_channel
        key = self._plane_keys[channel * per_channel + logical_page % per_channel]
        state = self._planes.get(key)
        if state is None:
            state = self._plane(key)
        block = state.active
        if block is None or block.write_pointer >= self._pages_per_block:
            block = self._open_block(state)
        page = block.write_pointer
        block.write_pointer = page + 1
        block.valid[page] = 1
        if page + 1 >= self._pages_per_block:
            state.active = None
        address = PhysicalAddress(key[0], key[1], key[2], key[3], block.block, page)
        self.geometry.check(address)
        return address, state.base + block.block * self._pages_per_block + page

    def _plane(self, plane_key: PlaneKey) -> _PlaneState:
        state = self._planes.get(plane_key)
        if state is None:
            cfg = self.config
            channel, package, die, plane = plane_key
            index = (
                (channel * cfg.packages_per_channel + package) * cfg.dies_per_package
                + die
            ) * cfg.planes_per_die + plane
            state = _PlaneState(plane_key, index * self._pages_per_plane)
            self._planes[plane_key] = state
        return state

    def _free_blocks(self, state: _PlaneState) -> int:
        return self._blocks_per_plane - state.next_fresh + len(state.erased)

    def _open_block(self, state: _PlaneState) -> BlockState:
        """The plane's append point once its active block is gone or full."""
        if self._free_blocks(state) <= self.gc_threshold and not state.in_gc:
            self._garbage_collect(state)
            # GC's relocations may have opened an active block with room
            # left; reuse it rather than stranding its free pages.
            if state.active is not None and not state.active.is_full:
                return state.active
        state.active = self._pop_free_block(state)
        return state.active

    def _pop_free_block(self, state: _PlaneState) -> BlockState:
        if state.next_fresh < self._blocks_per_plane:
            block = BlockState(state.next_fresh, self._pages_per_block)
            state.blocks[state.next_fresh] = block
            state.next_fresh += 1
            return block
        if state.erased:
            _wear, block_index = heapq.heappop(state.erased)
            return state.blocks[block_index]
        touched = len(state.blocks)
        valid = sum(block.valid_pages for block in state.blocks.values())
        wear = [block.erase_count for block in state.blocks.values()]
        wear_lo = min(wear) if wear else 0
        wear_hi = max(wear) if wear else 0
        raise CapacityError(
            f"plane {state.key} has no free blocks (GC failed): "
            f"{touched}/{self.config.blocks_per_plane} blocks touched, "
            f"{valid} valid pages pinned, erase counts "
            f"[{wear_lo}, {wear_hi}], gc_threshold={self.gc_threshold}, "
            f"op_ratio={self.op_ratio}"
        )

    # --- garbage collection ---------------------------------------------------------
    def _garbage_collect(self, state: _PlaneState) -> None:
        """Reclaim blocks until the plane's free reserve is replenished.

        One pass may reclaim a block whose pages the next allocation
        immediately consumes, so collection loops while reclaimable victims
        exist and the reserve is still at or below the threshold.
        """
        state.in_gc = True
        try:
            while self._free_blocks(state) <= self.gc_threshold:
                victim = self._pick_victim(state)
                if victim is None:
                    return  # nothing reclaimable; allocation may still succeed
                self._collect_victim(state, victim)
        finally:
            state.in_gc = False

    def _collect_victim(self, state: _PlaneState, victim: BlockState) -> None:
        plane_key = state.key
        victim_base = state.base + victim.block * self._pages_per_block
        relocated = 0
        for page_index in range(victim.pages_per_block):
            if not victim.valid[page_index]:
                continue
            logical_page = self._p2l.pop(victim_base + page_index)
            victim.valid[page_index] = 0
            _address, new_flat = self._allocate(plane_key[0], logical_page)
            self._l2p[logical_page] = new_flat
            self._p2l[new_flat] = logical_page
            relocated += 1
        victim.erase()
        heapq.heappush(state.erased, (victim.erase_count, victim.block))
        self.pages_relocated += relocated
        self.gc_events.append(
            GcEvent(plane=plane_key, victim_block=victim.block, relocated_pages=relocated)
        )
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "ftl_gc_total", "garbage-collection invocations"
            ).inc(channel=plane_key[0])
            registry.counter(
                "ftl_pages_relocated_total", "valid pages moved by GC"
            ).inc(relocated, channel=plane_key[0])
        tracer = get_tracer()
        if tracer.enabled:
            # The FTL has no simulated clock of its own: GC shows up as a
            # wall-time instant event tagged with its plane and cost.
            tracer.instant(
                "gc",
                attrs={
                    "plane": list(plane_key),
                    "victim_block": victim.block,
                    "relocated_pages": relocated,
                    "erase_count": victim.erase_count,
                },
            )
        logger.debug(
            "gc: plane %s victim block %d relocated %d pages",
            plane_key, victim.block, relocated,
        )

    def _pick_victim(self, state: _PlaneState) -> Optional[BlockState]:
        candidates = [
            block
            for block in state.blocks.values()
            if block.is_full
            and block is not state.active
            and block.valid_pages < block.pages_per_block
        ]
        # A fully valid block is never a victim: collecting it reclaims
        # nothing and consumes exactly the space it frees, so GC would
        # live-lock shuffling pages at 100% utilization instead of letting
        # the allocator surface CapacityError.
        if not candidates:
            return None
        return min(candidates, key=lambda block: (block.valid_pages, block.erase_count))

    # --- reliability hooks (scrub/refresh, wear lookup) -------------------------------
    def block_erase_count(self, address: PhysicalAddress) -> int:
        """Erase count (P/E cycles) of the block holding ``address``.

        The fault injector binds this as its wear source: RBER grows with
        P/E cycling, and the FTL's per-block ledger is the ground truth.
        Untouched blocks have zero wear.
        """
        plane_key = (address.channel, address.package, address.die, address.plane)
        state = self._planes.get(plane_key)
        if state is None:
            return 0
        block = state.blocks.get(address.block)
        return block.erase_count if block is not None else 0

    def iter_refreshable_blocks(self) -> List[Tuple[PlaneKey, int]]:
        """Blocks a scrub pass may refresh, in deterministic order.

        A block is refreshable when it is full (no open write pointer),
        not the plane's active block, and still holds valid pages to
        migrate.  Sorted by (plane, block) so scrub order never depends on
        dict iteration.
        """
        refreshable: List[Tuple[PlaneKey, int]] = []
        for plane_key in sorted(self._planes):
            state = self._planes[plane_key]
            for block_index in sorted(state.blocks):
                block = state.blocks[block_index]
                if block.is_full and block is not state.active and block.valid_pages:
                    refreshable.append((plane_key, block_index))
        return refreshable

    def refresh_block(self, plane_key: PlaneKey, block_index: int) -> int:
        """Migrate a block's valid pages and erase it (scrub/refresh).

        Re-programming rewinds retention for every page the block held, and
        the erased block re-enters the wear-leveling heap keyed by its new
        erase count — refresh *is* a targeted GC pass.  Returns the number
        of pages migrated.
        """
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
            self._collect_victim(state, block)
        finally:
            state.in_gc = False
        return relocated

    # --- wear statistics --------------------------------------------------------------
    def wear_stats(self) -> Tuple[int, int, float]:
        """(min, max, mean) erase counts across *touched* blocks.

        Untouched planes have uniformly zero wear and are excluded from the
        mean so the statistic reflects the written footprint.
        """
        counts = [
            block.erase_count
            for state in self._planes.values()
            for block in state.blocks.values()
        ]
        if not counts:
            return 0, 0, 0.0
        return min(counts), max(counts), sum(counts) / len(counts)

    def _invalidate(self, flat: int) -> None:
        plane_index, offset = divmod(flat, self._pages_per_plane)
        block_index, page = divmod(offset, self._pages_per_block)
        block = self._planes[self._plane_keys[plane_index]].blocks[block_index]
        block.valid[page] = 0
        self._p2l.pop(flat, None)
