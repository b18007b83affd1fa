"""The bulk page-population path equals a per-page loop, state for state.

FASTMAP mmap (file and anonymous), MAP_POPULATE and the experiments'
pre-warm write page tables through ``PageTable.set_ptes`` and
``Kernel.install_resident_pages``.  The oracles below are the per-page
loops over the public ``set_pte`` / ``install_resident_page`` /
``map_cached_page`` that those paths replace (with the cached FASTMAP
branch registering its reverse-map entry, as ``map_cached_page`` does).
Each scenario runs once through the bulk path and once through the
oracle on identically built systems, then compares the whole-system
checkpoint digest, the page-cache counters and the kernel counters.
"""

import pytest

from repro.check.sanitizer import SimSanitizer
from repro.config import PagingMode
from repro.core.system import build_system
from repro.errors import OutOfMemoryError
from repro.experiments.runner import prewarm_pages, usable_data_frames
from repro.faults.invariants import check_invariants
from repro.mem.address import PAGE_SHIFT
from repro.os.kernel import Kernel
from repro.os.vma import MmapFlags
from repro.sim.checkpoint import state_digest
from repro.vm import PageTable, decode_pte
from repro.vm.pte import make_anon_lba_pte, make_lba_pte, make_present_pte

from tests.helpers import build_mapped_system, tiny_config, touch_pages
from tests.test_os_kernel import run_coroutine

MODES = [PagingMode.OSDP, PagingMode.SWDP, PagingMode.HWDP]


# ----------------------------------------------------------------------
# oracles: the per-page loops the bulk path replaces
# ----------------------------------------------------------------------
def oracle_fastmap_fill(kernel, process, vma, first, count):
    """Per-page stand-in for ``Kernel._fastmap_fill``."""
    for index in range(first, first + count):
        vaddr = vma.start + (index << PAGE_SHIFT)
        if vma.file is None:
            process.page_table.set_pte(vaddr, make_anon_lba_pte(writable=vma.writable))
            continue
        file_page = vma.file_page_offset + index
        cached = kernel.page_cache.lookup(vma.file, file_page)
        if cached is not None:
            kernel.map_cached_page(process, vma, vaddr, cached)
        else:
            process.page_table.set_pte(
                vaddr,
                make_lba_pte(vma.file.lba_of_page(file_page), writable=vma.writable),
            )


def oracle_install(kernel, process, vma, indices, budget, map_cached=False):
    """Per-page stand-in for ``Kernel.install_resident_pages``."""
    installed = 0
    for index in indices:
        if installed >= budget:
            break
        vaddr = vma.start + (index << PAGE_SHIFT)
        if decode_pte(process.page_table.get_pte(vaddr)).present:
            continue
        if map_cached and vma.file is not None:
            cached = kernel.page_cache.lookup(vma.file, vma.file_page_of(vaddr))
            if cached is not None:
                kernel.map_cached_page(process, vma, vaddr, cached)
                continue
        pfn = kernel.frame_pool.try_alloc()
        if pfn < 0:
            raise OutOfMemoryError("resident install does not fit in memory")
        kernel.install_resident_page(process, vma, vaddr, pfn)
        installed += 1
    return installed


def observe(system):
    kernel = system.kernel
    return (
        state_digest(system),
        kernel.page_cache.lookups,
        kernel.page_cache.hits,
        kernel.counters.as_dict(),
    )


def bulk_and_oracle(monkeypatch, scenario):
    """``scenario`` once through the bulk path, once through the oracles."""
    bulk = observe(scenario())
    with monkeypatch.context() as patch:
        patch.setattr(Kernel, "_fastmap_fill", oracle_fastmap_fill)
        patch.setattr(Kernel, "install_resident_pages", oracle_install)
        oracle = observe(scenario())
    return bulk, oracle


def mmap(system, thread, file, num_pages, flags, file_page_offset=0):
    return run_coroutine(
        system,
        system.kernel.sys_mmap(
            thread, file, num_pages, flags, file_page_offset=file_page_offset
        ),
    )


def warm_file_system(mode, total_frames=512, file_pages=1400):
    """A system whose first mapping of ``data`` has faulted pages in and
    synced them, so part of the file sits in the page cache."""
    system, thread, vma = build_mapped_system(
        mode, file_pages=file_pages, total_frames=total_frames
    )
    touch_pages(system, thread, vma, [3, 4, 510, 511, 512, 600, 1100])
    run_coroutine(system, system.kernel.sys_msync(thread, vma))
    return system, thread, vma


# ----------------------------------------------------------------------
# the page-table range write
# ----------------------------------------------------------------------
class TestSetPtes:
    def table_state(self, table):
        return (
            list(table.iter_populated()),
            table.table_pages_allocated,
            table.populated_ptes,
            sorted(table._nodes_by_base),
        )

    def test_matches_set_pte_loop_across_leaf_boundaries(self):
        start = (5 << 30) + (500 << PAGE_SHIFT)  # unaligned, crosses leaves
        values = [make_lba_pte(1000 + i) if i % 7 else 0 for i in range(1100)]
        bulk, loop = PageTable(asid=3), PageTable(asid=3)
        for table in (bulk, loop):
            table.set_pte(start + (600 << PAGE_SHIFT), make_present_pte(9))
            table.set_pte(start + (14 << PAGE_SHIFT), make_present_pte(8))
        bulk.set_ptes(start, values)
        for offset, value in enumerate(values):
            loop.set_pte(start + (offset << PAGE_SHIFT), value)
        assert self.table_state(bulk) == self.table_state(loop)
        for offset in (0, 11, 12, 13, 14, 600, 1099):
            vaddr = start + (offset << PAGE_SHIFT)
            assert bulk.walk(vaddr) == loop.walk(vaddr)

    def test_sanitizer_records_one_write_per_pte(self):
        counts = []
        for bulk in (True, False):
            system = build_system(tiny_config(PagingMode.HWDP))
            sanitizer = SimSanitizer()
            sanitizer.attach_sim(system.sim)
            table = PageTable()
            sanitizer.watch(table, "table")
            values = [make_lba_pte(i) for i in range(700)]
            if bulk:
                table.set_ptes(300 << PAGE_SHIFT, values)
            else:
                for offset, value in enumerate(values):
                    table.set_pte((300 + offset) << PAGE_SHIFT, value)
            counts.append(sanitizer.accesses)
        assert counts[0] == counts[1] == 700


# ----------------------------------------------------------------------
# kernel paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
class TestBulkEqualsOracle:
    def test_fastmap_file_from_unaligned_start(self, monkeypatch, mode):
        def scenario():
            system, thread, vma = build_mapped_system(mode, file_pages=3)
            file = system.kernel.fs.create_file("big", 1500)
            mmap(system, thread, file, 1300, MmapFlags.FASTMAP, file_page_offset=100)
            return system

        bulk, oracle = bulk_and_oracle(monkeypatch, scenario)
        assert bulk == oracle

    def test_fastmap_over_cached_pages(self, monkeypatch, mode):
        def scenario():
            system, thread, vma = warm_file_system(mode)
            mmap(system, thread, vma.file, 1300, MmapFlags.FASTMAP, file_page_offset=2)
            return system

        bulk, oracle = bulk_and_oracle(monkeypatch, scenario)
        assert bulk == oracle
        assert bulk[2] > 0 or mode is PagingMode.OSDP  # cache hits seen

    def test_anonymous_fastmap(self, monkeypatch, mode):
        def scenario():
            system, thread, _ = build_mapped_system(mode, file_pages=5)
            mmap(system, thread, None, 1030, MmapFlags.FASTMAP)
            return system

        bulk, oracle = bulk_and_oracle(monkeypatch, scenario)
        assert bulk == oracle

    def test_map_populate_over_cached_pages(self, monkeypatch, mode):
        def scenario():
            system, thread, vma = warm_file_system(mode, total_frames=2048)
            mmap(system, thread, vma.file, 1100, MmapFlags.POPULATE, file_page_offset=1)
            return system

        bulk, oracle = bulk_and_oracle(monkeypatch, scenario)
        assert bulk == oracle

    def test_prewarm_skips_present_pages_until_budget(self, monkeypatch, mode):
        def scenario():
            system, thread, vma = warm_file_system(mode)
            pages = [5, 3, 4, 900, 5, 511, 512, 513] + list(range(1399, 0, -2))
            budget = usable_data_frames(system)
            assert 0 < budget < len(pages) - 100
            assert prewarm_pages(system, thread, vma, pages) == budget
            return system

        bulk, oracle = bulk_and_oracle(monkeypatch, scenario)
        assert bulk == oracle

    def test_free_frame_pool_running_out(self, monkeypatch, mode):
        def scenario():
            system, thread, vma = warm_file_system(mode)
            kernel = system.kernel
            with pytest.raises(OutOfMemoryError):
                kernel.install_resident_pages(
                    thread.process, vma, range(vma.num_pages), vma.num_pages,
                    map_cached=True,
                )
            assert kernel.frame_pool.free_frames == 0
            return system

        bulk, oracle = bulk_and_oracle(monkeypatch, scenario)
        assert bulk == oracle


# ----------------------------------------------------------------------
# regression: FASTMAP over cached pages must register the reverse map
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", [PagingMode.HWDP, PagingMode.SWDP], ids=lambda m: m.value)
def test_fastmap_of_cached_pages_survives_eviction(mode):
    """A second FASTMAP of a file whose pages kpted has synced into the
    page cache maps those frames; evicting them must unmap that second
    mapping too instead of leaving it on a freed frame."""
    system, thread, vma = build_mapped_system(mode, file_pages=64)
    touch_pages(system, thread, vma, range(16))
    system.sim.run(until=system.sim.now + 2_000_000.0)  # kpted syncs them
    kernel = system.kernel
    second = mmap(system, thread, vma.file, 64, MmapFlags.FASTMAP)
    pages = [page for page in kernel._page_info.values() if page.file is vma.file]
    assert len(pages) == 16
    assert sum(len(page.extra_mappings) for page in pages) == 16
    for page in pages:
        kernel.evict_page(page)
    assert check_invariants(system).violations == []
    first_pte = decode_pte(thread.process.page_table.get_pte(second.start))
    assert not first_pte.present and first_pte.lba == vma.file.lba_of_page(0)
