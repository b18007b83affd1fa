"""Tests for ProcessContext and fork semantics (paper §V)."""

import pytest

from repro.config import PagingMode
from repro.mem.address import PAGE_SHIFT
from repro.os.vma import MmapFlags
from repro.vm import PteStatus, decode_pte, make_present_pte, pte_status

from tests.helpers import build_mapped_system, touch_pages


def run_coroutine(system, body):
    holder = {}

    def wrapper():
        holder["result"] = yield from body

    proc = system.spawn(wrapper(), "aux")
    while not proc.finished:
        system.sim.step()
    return holder["result"]


class TestProcessContext:
    def test_pids_unique(self):
        system, thread, _ = build_mapped_system(PagingMode.OSDP)
        a = system.create_process("a")
        b = system.create_process("b")
        assert a.pid != b.pid
        assert a.page_table is not b.page_table

    def test_page_tables_isolated(self):
        system, thread, _ = build_mapped_system(PagingMode.OSDP)
        a = system.create_process("a")
        b = system.create_process("b")
        a.page_table.set_pte(0x1000, make_present_pte(1))
        assert b.page_table.get_pte(0x1000) == 0

    def test_find_vma(self):
        system, thread, vma = build_mapped_system(PagingMode.OSDP)
        process = thread.process
        assert process.find_vma(vma.start) is vma
        assert process.find_vma(vma.end) is None


class TestFork:
    def test_fork_reverts_only_nonresident_lba_ptes(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP, file_pages=8)
        touch_pages(system, thread, vma, [0])  # page 0 resident-pending-sync
        child = run_coroutine(system, system.kernel.sys_fork(thread))
        table = thread.process.page_table
        # Page 0 was resident: untouched by the revert.
        assert pte_status(table.get_pte(vma.start)) is PteStatus.RESIDENT_PENDING_SYNC
        # Pages 1..7 were LBA-augmented: reverted to plain empty PTEs.
        for index in range(1, 8):
            status = pte_status(table.get_pte(vma.start + (index << PAGE_SHIFT)))
            assert status is PteStatus.NON_RESIDENT_OS

    def test_fork_clears_fastmap_flag(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP, file_pages=8)
        kernel = system.kernel
        assert vma.is_fastmap
        touch_pages(system, thread, vma, [0])
        run_coroutine(system, kernel.sys_msync(thread, vma))  # page 0 tracked
        child = run_coroutine(system, kernel.sys_fork(thread))
        # Parent: the flag and the cached attribute are both cleared.
        assert not vma.is_fastmap
        assert not vma.flags & MmapFlags.FASTMAP
        assert thread.process.layout.fastmap_vmas() == []
        # Child: no fast-mmap area either.
        assert not any(area.is_fastmap for area in child.layout.vmas)
        assert child.layout.fastmap_vmas() == []
        # Evicting a page of the reverted VMA clears its PTE: a stale
        # fast-mmap flag would LBA-augment it again.
        table = thread.process.page_table
        pfn = decode_pte(table.get_pte(vma.start)).pfn
        kernel.evict_page(kernel._page_info[pfn])
        assert table.get_pte(vma.start) == 0

    def test_child_registered_with_kernel(self):
        system, thread, _ = build_mapped_system(PagingMode.HWDP)
        before = len(system.kernel.processes)
        child = run_coroutine(system, system.kernel.sys_fork(thread))
        assert child in system.kernel.processes
        assert len(system.kernel.processes) == before + 1
        assert child.parent is thread.process

    def test_post_fork_faults_use_os_path(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP, file_pages=8)
        run_coroutine(system, system.kernel.sys_fork(thread))
        results = touch_pages(system, thread, vma, [2])
        from repro.vm.mmu import TranslationKind

        assert results[0].kind is TranslationKind.OS_FAULT
        assert system.kernel.counters["fault.major"] == 1

    def test_fork_counter(self):
        system, thread, _ = build_mapped_system(PagingMode.HWDP)
        run_coroutine(system, system.kernel.sys_fork(thread))
        assert system.kernel.counters["fork.count"] == 1
