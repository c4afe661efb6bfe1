"""Flash geometry: the channel/package/die/plane/block/page hierarchy.

Physical page addresses (PPA) identify a page by its position in the
hierarchy; logical page addresses (LPA) are flat integers the FTL maps onto
PPAs.  :class:`FlashGeometry` converts between flat page indices and
structured addresses and knows the fan-out at every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..config import FlashConfig
from ..errors import AddressError

# PhysicalAddress fields, outermost level first.
_FIELDS = ("channel", "package", "die", "plane", "block", "page")


@dataclass(frozen=True, order=True)
class LogicalAddress:
    """A logical page address: a flat page number in the device's LPA space."""

    page: int

    def __post_init__(self) -> None:
        if self.page < 0:
            raise AddressError(f"negative logical page {self.page}")


@dataclass(frozen=True, order=True)
class PhysicalAddress:
    """A physical page address within the flash hierarchy."""

    channel: int
    package: int
    die: int
    plane: int
    block: int
    page: int

    def __post_init__(self) -> None:
        if (
            self.channel >= 0 and self.package >= 0 and self.die >= 0
            and self.plane >= 0 and self.block >= 0 and self.page >= 0
        ):
            return
        for name in _FIELDS:
            if getattr(self, name) < 0:
                raise AddressError(f"negative {name} in {self!r}")


class FlashGeometry:
    """Address arithmetic over a :class:`FlashConfig` hierarchy.

    Flat physical indices are channel-major: channel, then package, die,
    plane, block, page.  This means that ``flat // pages_per_channel`` is the
    channel index, the property the FTL exploits to give each channel a
    contiguous physical index range.
    """

    def __init__(self, config: FlashConfig) -> None:
        self.config = config
        # Fan-out per address field, in _FIELDS order; check() runs once per
        # flash command and FTL write, so it must not walk config properties.
        self._fanout = (
            config.channels,
            config.packages_per_channel,
            config.dies_per_package,
            config.planes_per_die,
            config.blocks_per_plane,
            config.pages_per_block,
        )
        # Pages under one channel, package, die, plane and block.
        self._strides = (
            config.pages_per_channel,
            config.dies_per_package * config.pages_per_die,
            config.pages_per_die,
            config.pages_per_plane,
            config.pages_per_block,
        )
        self._total_pages = config.total_pages

    # --- fan-out shortcuts ---------------------------------------------------
    @property
    def channels(self) -> int:
        return self.config.channels

    @property
    def pages_per_channel(self) -> int:
        return self.config.pages_per_channel

    @property
    def total_pages(self) -> int:
        return self.config.total_pages

    @property
    def page_size(self) -> int:
        return self.config.page_size

    # --- flat <-> structured -------------------------------------------------
    def to_physical(self, flat: int) -> PhysicalAddress:
        """Convert a flat physical page index to a structured address."""
        if not (0 <= flat < self._total_pages):
            raise AddressError(f"flat page {flat} outside [0, {self._total_pages})")
        per_channel, per_package, per_die, per_plane, per_block = self._strides
        channel, rest = divmod(flat, per_channel)
        package, rest = divmod(rest, per_package)
        die, rest = divmod(rest, per_die)
        plane, rest = divmod(rest, per_plane)
        block, page = divmod(rest, per_block)
        return PhysicalAddress(channel, package, die, plane, block, page)

    def to_flat(self, addr: PhysicalAddress) -> int:
        """Convert a structured physical address to a flat page index."""
        cfg = self.config
        self.check(addr)
        flat = addr.channel
        flat = flat * cfg.packages_per_channel + addr.package
        flat = flat * cfg.dies_per_package + addr.die
        flat = flat * cfg.planes_per_die + addr.plane
        flat = flat * cfg.blocks_per_plane + addr.block
        flat = flat * cfg.pages_per_block + addr.page
        return flat

    def check(self, addr: PhysicalAddress) -> None:
        """Validate every field of ``addr`` against this geometry's fan-out.

        Raises :class:`AddressError` naming the offending field.  Public so
        :class:`repro.ssd.controller.FlashCommand` can validate addresses at
        construction rather than first failing deep inside ``submit``.
        """
        channels, packages, dies, planes, blocks, pages = self._fanout
        if (
            addr.channel < channels and addr.package < packages and addr.die < dies
            and addr.plane < planes and addr.block < blocks and addr.page < pages
        ):
            return
        for name, limit in zip(_FIELDS, self._fanout):
            value = getattr(addr, name)
            if value >= limit:
                raise AddressError(f"{name}={value} exceeds fan-out {limit} in {addr!r}")

    # --- derived views --------------------------------------------------------
    def channel_of(self, flat: int) -> int:
        """Channel index of a flat physical page (cheap, no full decode)."""
        if not (0 <= flat < self.total_pages):
            raise AddressError(f"flat page {flat} outside [0, {self.total_pages})")
        return flat // self.config.pages_per_channel

    def die_index_of(self, flat: int) -> int:
        """Global die index (channel-major) of a flat physical page."""
        if not (0 <= flat < self.total_pages):
            raise AddressError(f"flat page {flat} outside [0, {self.total_pages})")
        return flat // self.config.pages_per_die

    def channel_page_range(self, channel: int) -> range:
        """The flat physical page index range owned by ``channel``."""
        if not (0 <= channel < self.channels):
            raise AddressError(f"channel {channel} outside [0, {self.channels})")
        start = channel * self.pages_per_channel
        return range(start, start + self.pages_per_channel)

    def iter_channels(self) -> Iterator[int]:
        return iter(range(self.channels))

    def pages_for_bytes(self, num_bytes: int) -> int:
        """Number of whole pages needed to hold ``num_bytes``."""
        if num_bytes < 0:
            raise AddressError(f"negative byte count {num_bytes}")
        return -(-num_bytes // self.page_size)
