"""Tests for flash geometry and address conversion (repro.ssd.geometry)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FlashConfig
from repro.errors import AddressError
from repro.ssd.controller import CommandKind, FlashCommand
from repro.ssd.geometry import FlashGeometry, LogicalAddress, PhysicalAddress

FIELDS = ("channel", "package", "die", "plane", "block", "page")
# small_config()'s fan-out per field.
FANOUT = {"channel": 4, "package": 2, "die": 2, "plane": 2, "block": 8, "page": 16}


def small_config() -> FlashConfig:
    return FlashConfig(
        channels=4,
        packages_per_channel=2,
        dies_per_package=2,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=16,
    )


@pytest.fixture
def geometry() -> FlashGeometry:
    return FlashGeometry(small_config())


class TestAddresses:
    def test_logical_rejects_negative(self):
        with pytest.raises(AddressError):
            LogicalAddress(-1)

    def test_physical_rejects_negative(self):
        with pytest.raises(AddressError):
            PhysicalAddress(0, 0, 0, 0, -1, 0)

    def test_addresses_are_ordered(self):
        assert LogicalAddress(1) < LogicalAddress(2)
        assert PhysicalAddress(0, 0, 0, 0, 0, 1) < PhysicalAddress(0, 0, 0, 0, 0, 2)


class TestConversions:
    def test_zero_maps_to_origin(self, geometry):
        assert geometry.to_physical(0) == PhysicalAddress(0, 0, 0, 0, 0, 0)

    def test_last_page(self, geometry):
        last = geometry.total_pages - 1
        addr = geometry.to_physical(last)
        cfg = geometry.config
        assert addr.channel == cfg.channels - 1
        assert addr.page == cfg.pages_per_block - 1

    def test_channel_major_layout(self, geometry):
        # Page index pages_per_channel lands at the start of channel 1.
        addr = geometry.to_physical(geometry.pages_per_channel)
        assert addr == PhysicalAddress(1, 0, 0, 0, 0, 0)

    def test_out_of_range_rejected(self, geometry):
        with pytest.raises(AddressError):
            geometry.to_physical(geometry.total_pages)
        with pytest.raises(AddressError):
            geometry.to_physical(-1)

    def test_to_flat_checks_fanout(self, geometry):
        with pytest.raises(AddressError):
            geometry.to_flat(PhysicalAddress(99, 0, 0, 0, 0, 0))

    @given(st.integers(min_value=0, max_value=4 * 2 * 2 * 2 * 8 * 16 - 1))
    @settings(max_examples=200)
    def test_roundtrip(self, flat):
        geometry = FlashGeometry(small_config())
        assert geometry.to_flat(geometry.to_physical(flat)) == flat

    @given(
        st.integers(0, 3),
        st.integers(0, 1),
        st.integers(0, 1),
        st.integers(0, 1),
        st.integers(0, 7),
        st.integers(0, 15),
    )
    @settings(max_examples=200)
    def test_roundtrip_structured(self, ch, pkg, die, plane, block, page):
        geometry = FlashGeometry(small_config())
        addr = PhysicalAddress(ch, pkg, die, plane, block, page)
        assert geometry.to_physical(geometry.to_flat(addr)) == addr


def address_text(fields) -> str:
    inner = ", ".join(f"{name}={fields[name]}" for name in FIELDS)
    return f"PhysicalAddress({inner})"


class TestValidationMessages:
    """The exact AddressError texts, pinned per field."""

    @pytest.mark.parametrize("name", FIELDS)
    def test_negative_field_message(self, name):
        fields = dict.fromkeys(FIELDS, 1)
        fields[name] = -1
        with pytest.raises(AddressError) as excinfo:
            PhysicalAddress(**fields)
        assert str(excinfo.value) == f"negative {name} in {address_text(fields)}"

    def test_first_negative_field_is_named(self):
        with pytest.raises(AddressError, match="^negative die in"):
            PhysicalAddress(0, 0, -2, 0, -1, -3)

    @pytest.mark.parametrize("name", FIELDS)
    def test_field_at_fanout_limit_message(self, geometry, name):
        fields = dict.fromkeys(FIELDS, 0)
        fields[name] = FANOUT[name]
        with pytest.raises(AddressError) as excinfo:
            geometry.check(PhysicalAddress(**fields))
        assert str(excinfo.value) == (
            f"{name}={FANOUT[name]} exceeds fan-out {FANOUT[name]}"
            f" in {address_text(fields)}"
        )

    @pytest.mark.parametrize("name", FIELDS)
    def test_field_below_limit_passes(self, geometry, name):
        fields = dict.fromkeys(FIELDS, 0)
        fields[name] = FANOUT[name] - 1
        geometry.check(PhysicalAddress(**fields))

    def test_first_field_over_limit_is_named(self, geometry):
        with pytest.raises(AddressError, match="^plane=5 exceeds fan-out 2 in"):
            geometry.check(PhysicalAddress(0, 0, 0, 5, 99, 99))

    def test_flash_command_rejects_out_of_range_at_construction(self, geometry):
        with pytest.raises(AddressError, match="^block=8 exceeds fan-out 8 in"):
            FlashCommand(CommandKind.READ, PhysicalAddress(0, 0, 0, 0, 8, 0), geometry)
        command = FlashCommand(CommandKind.READ, PhysicalAddress(3, 1, 1, 1, 7, 15), geometry)
        assert command.address.page == 15


class TestDerivedViews:
    def test_channel_of_matches_decode(self, geometry):
        for flat in range(0, geometry.total_pages, 97):
            assert geometry.channel_of(flat) == geometry.to_physical(flat).channel

    def test_channel_of_bounds(self, geometry):
        with pytest.raises(AddressError):
            geometry.channel_of(geometry.total_pages)

    def test_die_index_is_global(self, geometry):
        # First page of channel 1 starts a new die index block.
        per_die = geometry.config.pages_per_die
        assert geometry.die_index_of(0) == 0
        assert geometry.die_index_of(per_die) == 1

    def test_channel_page_range(self, geometry):
        r = geometry.channel_page_range(1)
        assert r.start == geometry.pages_per_channel
        assert len(r) == geometry.pages_per_channel
        with pytest.raises(AddressError):
            geometry.channel_page_range(99)

    def test_iter_channels(self, geometry):
        assert list(geometry.iter_channels()) == [0, 1, 2, 3]

    def test_pages_for_bytes(self, geometry):
        page = geometry.page_size
        assert geometry.pages_for_bytes(0) == 0
        assert geometry.pages_for_bytes(1) == 1
        assert geometry.pages_for_bytes(page) == 1
        assert geometry.pages_for_bytes(page + 1) == 2
        with pytest.raises(AddressError):
            geometry.pages_for_bytes(-1)
