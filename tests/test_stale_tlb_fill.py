"""Known defect: the TLB fill after an OS fault can install a freed frame.

The fault handler installs the page and puts it on the reclaim list; during
the fault's final ``kernel_phase`` another thread's reclaim can evict the
page and shoot down its TLB entries.  ``Mmu.translate`` then fills the TLB
with the freed frame anyway, writable because the PTE it reads back is not
present.  The cold policy-zoo cell ``osdp/scan/lru2/-`` at paper shape hits
it once (vpn 0x10001ee, pfn 856).  Skipping that fill changes the zoo's
recorded payloads, so the fix waits for a change that may record them
again; this test then passes and its ``xfail`` marker goes.
"""

import pytest

from repro.experiments.policy_zoo import _zoo_cell
from repro.experiments.runner import PAPER_SHAPE
from repro.mem.address import PAGE_SHIFT
from repro.vm.mmu import Mmu, TranslationKind
from repro.vm.pte import PFN_MASK, PFN_SHIFT, PRESENT_BIT


@pytest.mark.xfail(strict=True, reason="stale TLB fill after an OS fault")
def test_os_fault_tlb_fill_maps_the_installed_frame(monkeypatch):
    stale = []
    translate = Mmu.translate

    def checked_translate(self, thread, vaddr, is_write=False):
        translation = yield from translate(self, thread, vaddr, is_write)
        # translate fills the TLB and returns without yielding, so the TLB
        # entry and the PTE read here are the ones the fill saw.
        filled = self.tlb._map.get(vaddr >> PAGE_SHIFT)
        if translation.kind is TranslationKind.OS_FAULT and filled is not None:
            pte = thread.process.page_table.get_pte(vaddr)
            if not pte & PRESENT_BIT or (pte & PFN_MASK) >> PFN_SHIFT != filled[0]:
                stale.append((vaddr, filled, pte))
        return translation

    monkeypatch.setattr(Mmu, "translate", checked_translate)
    params = {"path": "osdp", "policy": "lru2", "prefetcher": "-", "pattern": "scan"}
    _zoo_cell(PAPER_SHAPE, params)
    assert stale == []
