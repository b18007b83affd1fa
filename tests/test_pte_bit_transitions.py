"""The Table I transitions are bit arithmetic equal to their decoded form.

``pte_status``, ``hw_install_frame``, ``os_sync_metadata`` and
``evict_to_lba`` work on the raw 64-bit value.  The oracle below is their
decoded formulation: :func:`decode_pte`, then the ``make_present_pte`` /
``make_lba_pte`` constructors.  For any PTE value and any PFN, LBA, device
or socket argument, in range or not, both must return the same integer or
raise :class:`PageTableError` with the same message.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageTableError
from repro.vm.pte import (
    LBA_BIT,
    MAX_DEVICE_ID,
    MAX_LBA,
    MAX_PFN,
    MAX_SOCKET_ID,
    PteStatus,
    decode_pte,
    evict_to_lba,
    hw_install_frame,
    make_lba_pte,
    make_present_pte,
    os_sync_metadata,
    pte_status,
)


# ----------------------------------------------------------------------
# oracle: the decoded formulations
# ----------------------------------------------------------------------
def oracle_pte_status(value):
    return decode_pte(value).status


def oracle_hw_install_frame(lba_pte, pfn):
    decoded = decode_pte(lba_pte)
    if decoded.present or not decoded.lba_bit:
        raise PageTableError(
            f"hw_install_frame on PTE in state {decoded.status}; "
            "expected NON_RESIDENT_HW"
        )
    return make_present_pte(
        pfn,
        writable=decoded.writable,
        user=decoded.user,
        nx=decoded.nx,
        pkey=decoded.pkey,
        lba_pending=True,
    )


def oracle_os_sync_metadata(pte):
    decoded = decode_pte(pte)
    if decoded.status is not PteStatus.RESIDENT_PENDING_SYNC:
        raise PageTableError(
            f"os_sync_metadata on PTE in state {decoded.status}; "
            "expected RESIDENT_PENDING_SYNC"
        )
    return pte & ~LBA_BIT


def oracle_evict_to_lba(present_pte, lba, device_id=0, socket_id=0):
    decoded = decode_pte(present_pte)
    if not decoded.present:
        raise PageTableError("evict_to_lba requires a present PTE")
    return make_lba_pte(
        lba,
        device_id=device_id,
        socket_id=socket_id,
        writable=decoded.writable,
        user=decoded.user,
        nx=decoded.nx,
        pkey=decoded.pkey,
    )


def outcome(function, *args, **kwargs):
    """The value returned, or the PageTableError message raised."""
    try:
        return ("value", function(*args, **kwargs))
    except PageTableError as exc:
        return ("error", str(exc))


# ----------------------------------------------------------------------
# strategies: arbitrary 64-bit values, arguments around their ranges
# ----------------------------------------------------------------------
ptes = st.integers(min_value=0, max_value=(1 << 64) - 1)


def around(maximum):
    """In-range values (drawn twice as often), values just outside, and
    far out-of-range ones."""
    in_range = st.integers(min_value=0, max_value=maximum)
    return st.one_of(
        in_range,
        in_range,
        st.integers(min_value=-2, max_value=1).map(lambda v: v if v < 0 else maximum + 1 + v),
        st.integers(min_value=-(1 << 64), max_value=1 << 64),
    )


@given(value=ptes)
@settings(max_examples=500, deadline=None)
def test_pte_status_matches_decoder(value):
    assert pte_status(value) is oracle_pte_status(value)


@given(value=ptes, pfn=around(MAX_PFN))
@settings(max_examples=500, deadline=None)
def test_hw_install_frame_matches_decoded_form(value, pfn):
    assert outcome(hw_install_frame, value, pfn) == outcome(
        oracle_hw_install_frame, value, pfn
    )


@given(value=ptes)
@settings(max_examples=500, deadline=None)
def test_os_sync_metadata_matches_decoded_form(value):
    assert outcome(os_sync_metadata, value) == outcome(oracle_os_sync_metadata, value)


@given(
    value=ptes,
    lba=around(MAX_LBA),
    device_id=around(MAX_DEVICE_ID),
    socket_id=around(MAX_SOCKET_ID),
)
@settings(max_examples=500, deadline=None)
def test_evict_to_lba_matches_decoded_form(value, lba, device_id, socket_id):
    kwargs = {"device_id": device_id, "socket_id": socket_id}
    assert outcome(evict_to_lba, value, lba, **kwargs) == outcome(
        oracle_evict_to_lba, value, lba, **kwargs
    )
