"""OS page cache: (file, page index) → resident frame.

Used on the paths the paper describes: ``mmap()`` consults it to decide
whether a PTE can point at a cached page immediately (§IV-B), the fault
paths insert freshly read pages, kpted inserts hardware-handled pages
(§IV-C), and eviction removes entries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import KernelError
from repro.os.filesystem import File


class PageCache:
    """A dictionary-shaped radix tree."""

    def __init__(self) -> None:
        self._pages: Dict[Tuple[int, int], int] = {}
        self.lookups = 0
        self.hits = 0

    @staticmethod
    def _key(file: File, page_index: int) -> Tuple[int, int]:
        # Inode numbers are per-filesystem sequential and identical across
        # processes; id() here would poison cross-process checkpoint digests.
        return (file.ino, page_index)

    def lookup(self, file: File, page_index: int) -> Optional[int]:
        """Return the cached PFN for a file page, or None."""
        self.lookups += 1
        pfn = self._pages.get(self._key(file, page_index))
        if pfn is not None:
            self.hits += 1
        return pfn

    def lookup_range(self, file: File, first: int, count: int) -> List[Optional[int]]:
        """:meth:`lookup` of ``count`` consecutive pages from ``first``."""
        get = self._pages.get
        ino = file.ino
        pfns = [get((ino, page)) for page in range(first, first + count)]
        self.lookups += count
        self.hits += count - pfns.count(None)
        return pfns

    def insert(self, file: File, page_index: int, pfn: int) -> None:
        key = self._key(file, page_index)
        existing = self._pages.get(key)
        if existing is not None and existing != pfn:
            raise KernelError(
                f"page cache alias: {file.name}[{page_index}] already cached "
                f"as PFN {existing}, inserting {pfn}"
            )
        self._pages[key] = pfn

    def remove(self, file: File, page_index: int) -> Optional[int]:
        return self._pages.pop(self._key(file, page_index), None)

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0
