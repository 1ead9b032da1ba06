"""Program loading: the kernel-loader imitation of paper §3.1.

CRAC loads *two* programs into one process:

- the **lower half**: a tiny helper CUDA program plus the real CUDA
  libraries, loaded first, into a *reserved address window*, by a loader
  that imitates the way the kernel loads an application (ELF interpreter
  first, then the dynamically linked target) while interposing on every
  ``mmap`` so each region can be attributed to the lower half and placed
  with ``MAP_FIXED`` inside the window;
- the **upper half**: the end user's CUDA application, loaded normally.

The loader is therefore the component that *can* answer "which half owns
this page" — information the merged ``/proc/PID/maps`` view cannot provide
(see :mod:`repro.linux.proc_maps`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import LoaderError
from repro.linux.address_space import page_align_up
from repro.linux.process import SimProcess

#: Reserved address window for the lower half (helper + CUDA libraries +
#: all CUDA-library-allocated arenas). Chosen well below the default mmap
#: window so upper and lower cannot collide unless someone bypasses the
#: loader (which is exactly the §3.2.2 corruption scenario).
LOWER_HALF_WINDOW = (0x0000_1000_0000_0000, 0x0000_2000_0000_0000)


@dataclass(frozen=True)
class Segment:
    """A loadable program segment."""

    name: str
    size: int
    perms: str = "rw-"


@dataclass(frozen=True)
class ProgramImage:
    """An on-disk program: an executable plus its dynamic libraries.

    Libraries are themselves flat segment lists here (text+data per lib);
    the GNU link map chaining of Figure 1 is represented by the order of
    ``libraries``.
    """

    name: str
    segments: tuple[Segment, ...]
    libraries: tuple["ProgramImage", ...] = ()

    @staticmethod
    def simple(name: str, text_kb: int = 64, data_kb: int = 64) -> "ProgramImage":
        """A minimal executable with a text and a data segment."""
        return ProgramImage(
            name=name,
            segments=(
                Segment(f"{name}.text", text_kb * 1024, "r-x"),
                Segment(f"{name}.data", data_kb * 1024, "rw-"),
            ),
        )


@dataclass
class LoadedProgram:
    """A program resident in memory."""

    image: ProgramImage
    half: str  # "upper" or "lower"
    regions: list[tuple[int, int]] = field(default_factory=list)  # (start, size)

    @property
    def base(self) -> int:
        return min(start for start, _ in self.regions)

    def footprint(self) -> int:
        """Total mapped bytes of this program's segments."""
        return sum(size for _, size in self.regions)


class ProgramLoader:
    """Loads programs into a :class:`SimProcess` and tracks half ownership.

    This registry — not ``/proc/PID/maps`` — is CRAC's source of truth for
    "is this address upper-half (checkpoint it) or lower-half (skip it)".
    """

    def __init__(self, process: SimProcess) -> None:
        self.process = process
        self._half_ranges: dict[str, list[tuple[int, int]]] = {
            "upper": [],
            "lower": [],
        }
        self.loaded: list[LoadedProgram] = []

    # -- loading ------------------------------------------------------------

    def load(self, image: ProgramImage, half: str) -> LoadedProgram:
        """Load ``image`` (interpreter-style: libs then executable).

        Lower-half loads are confined to :data:`LOWER_HALF_WINDOW`;
        upper-half loads use the normal (possibly ASLR-randomized) window.
        """
        if half not in ("upper", "lower"):
            raise LoaderError(f"unknown half {half!r}")
        prog = LoadedProgram(image=image, half=half)
        # The kernel loads the ELF interpreter first; it then maps each
        # dynamic library, and finally the target executable's segments.
        for lib in image.libraries:
            for seg in lib.segments:
                self._map_segment(prog, seg, half)
        for seg in image.segments:
            self._map_segment(prog, seg, half)
        self.loaded.append(prog)
        return prog

    def adopt(self, prog: LoadedProgram) -> LoadedProgram:
        """Register ``prog`` as loaded when its regions are already mapped
        in the process (a copied lower-half template)."""
        self.register(prog.half, prog.regions)
        self.loaded.append(prog)
        return prog

    def register(self, half: str, ranges: Iterable[tuple[int, int]]) -> None:
        """Record ``(start, size)`` ranges already mapped in the process
        (restored from an image, or copied) as owned by ``half``."""
        self._half_ranges[half].extend(ranges)

    def mmap_for_half(
        self,
        half: str,
        size: int,
        *,
        perms: str = "rw-",
        tag_leaf: str = "anon",
        window: tuple[int, int] | None = None,
    ) -> int:
        """Runtime allocation on behalf of one half (library arenas, heaps).

        This is the interposition point of §3.1: every ``mmap`` issued by
        lower-half code is routed here so it lands inside the lower window
        and is recorded as lower-owned. ``window`` may narrow placement
        further (e.g. per-arena sub-windows mimicking CUDA's UVA address
        carving); for the lower half it must lie inside the lower window.
        """
        if half == "lower":
            if window is None:
                window = LOWER_HALF_WINDOW
            elif not (
                LOWER_HALF_WINDOW[0] <= window[0] and window[1] <= LOWER_HALF_WINDOW[1]
            ):
                raise LoaderError("lower-half window outside the reserved range")
        addr = self.process.vas.mmap(
            size, perms=perms, tag=f"{half}:{tag_leaf}", window=window
        )
        self._track(half, addr, page_align_up(size))
        return addr

    def munmap_for_half(self, half: str, addr: int, size: int) -> None:
        """Release a half-owned mapping and update the registry."""
        size = page_align_up(size)
        self.process.vas.munmap(addr, size)
        self._untrack(half, addr, size)

    # -- ownership queries -------------------------------------------------------

    def half_of(self, addr: int) -> str | None:
        """Which half owns ``addr`` according to the loader registry."""
        for half, ranges in self._half_ranges.items():
            for start, size in ranges:
                if start <= addr < start + size:
                    return half
        return None

    def ranges(self, half: str) -> list[tuple[int, int]]:
        """All (start, size) ranges currently owned by ``half``."""
        return sorted(self._half_ranges[half])

    def owned_bytes(self, half: str) -> int:
        """Total bytes currently owned by ``half``."""
        return sum(size for _, size in self._half_ranges[half])

    # -- internals -----------------------------------------------------------------

    def _map_segment(self, prog: LoadedProgram, seg: Segment, half: str) -> None:
        addr = self.mmap_for_half(half, seg.size, perms=seg.perms, tag_leaf=seg.name)
        prog.regions.append((addr, page_align_up(seg.size)))

    def _track(self, half: str, start: int, size: int) -> None:
        self._half_ranges[half].append((start, size))

    def _untrack(self, half: str, start: int, size: int) -> None:
        ranges = self._half_ranges[half]
        for i, (s, sz) in enumerate(ranges):
            if s == start and sz == size:
                ranges.pop(i)
                return
        # Partial unmap: drop any fully-covered entries, shrink the rest.
        new: list[tuple[int, int]] = []
        for s, sz in ranges:
            if s >= start and s + sz <= start + size:
                continue  # fully released
            if s < start + size and s + sz > start:  # partial overlap
                if s < start:
                    new.append((s, start - s))
                if s + sz > start + size:
                    new.append((start + size, s + sz - (start + size)))
            else:
                new.append((s, sz))
        self._half_ranges[half] = new
