"""Shared utilities for layer trace builders.

The two central helpers are:

* :class:`PcAllocator` -- gives every static memory-access *site* in a
  generated kernel a stable program counter, so the PC-based reuse predictor
  sees the same PC for every dynamic instance of that site (just as it would
  for a real compiled kernel).
* :class:`ProgramBuilder` -- a small fluent API for emitting the coalesced
  memory instructions and compute batches of one wavefront.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.gpu.coalescer import coalesce_addresses
from repro.memory.request import AccessType
from repro.workloads.tensor import Tensor
from repro.workloads.trace import ComputeInstr, MemInstr, WavefrontProgram

__all__ = ["PcAllocator", "ProgramBuilder", "chunks"]


def chunks(total: int, size: int) -> Iterator[tuple[int, int]]:
    """Yield ``(start, count)`` pairs covering ``range(total)`` in blocks."""
    if size <= 0:
        raise ValueError("chunk size must be positive")
    start = 0
    while start < total:
        count = min(size, total - start)
        yield start, count
        start += count


@dataclass
class PcAllocator:
    """Stable program-counter assignment for static access sites.

    PCs start at a per-kernel base so different kernels never share PCs
    (the predictor should not transfer training between unrelated kernels),
    and consecutive sites are 8 bytes apart like real instruction encodings.
    """

    base: int = 0x1000
    stride: int = 8
    _sites: dict[str, int] = field(default_factory=dict)

    def pc(self, site: str) -> int:
        """PC of the named site, allocating one on first use."""
        if site not in self._sites:
            self._sites[site] = self.base + len(self._sites) * self.stride
        return self._sites[site]

    def sites(self) -> dict[str, int]:
        """Copy of all allocated sites (for tests)."""
        return dict(self._sites)


class ProgramBuilder:
    """Builds the instruction stream of one wavefront.

    All memory emission methods coalesce the per-lane addresses into line
    requests before appending the :class:`MemInstr`; compute emission batches
    wavefront-wide vector operations.
    """

    def __init__(
        self,
        pcs: PcAllocator,
        wavefront_size: int = 64,
        line_bytes: int = 64,
        workgroup_id: int = 0,
    ) -> None:
        if wavefront_size <= 0 or line_bytes <= 0:
            raise ValueError("wavefront_size and line_bytes must be positive")
        self.pcs = pcs
        self.wavefront_size = wavefront_size
        self.line_bytes = line_bytes
        self.program = WavefrontProgram(workgroup_id=workgroup_id)

    # ------------------------------------------------------------------
    def compute(self, vector_ops: int) -> "ProgramBuilder":
        """Append ``vector_ops`` wavefront-wide vector operations."""
        if vector_ops > 0:
            self.program.append(ComputeInstr(vector_ops=int(vector_ops)))
        return self

    def access(
        self,
        site: str,
        access: AccessType,
        tensor: Tensor,
        start_element: int,
        count: int | None = None,
        stride: int = 1,
    ) -> "ProgramBuilder":
        """Emit one or more memory instructions covering ``count`` lanes.

        Lane *i* touches element ``start_element + i * stride`` of ``tensor``.
        Counts larger than the wavefront size are split into multiple
        instructions (the same static site / PC), which is how a loop over a
        per-thread chunk appears in hardware.

        A positive-stride instruction that does not wrap around the end of
        the tensor gets its lines computed directly, in O(lines); every
        other instruction coalesces its per-lane addresses.  Both give the
        same lines.
        """
        lanes_total = self.wavefront_size if count is None else count
        if lanes_total <= 0:
            raise ValueError("count must be positive")
        pc = self.pcs.pc(site)
        line_bytes = self.line_bytes
        for offset, lanes in chunks(lanes_total, self.wavefront_size):
            first = start_element + offset * stride
            wrapped = first % tensor.num_elements
            if stride > 0 and wrapped + (lanes - 1) * stride < tensor.num_elements:
                # the lanes' addresses ascend without wrapping, so their
                # distinct lines in first-touch order are the ascending lines
                step = stride * tensor.element_bytes
                low = tensor.base_address + wrapped * tensor.element_bytes
                if step <= line_bytes:
                    # no line between the first and last lane is skipped
                    high = low + (lanes - 1) * step
                    lines = tuple(
                        range(low - low % line_bytes, high - high % line_bytes + 1, line_bytes)
                    )
                else:
                    # every lane touches its own line
                    lines = tuple(
                        address - address % line_bytes
                        for address in range(low, low + lanes * step, step)
                    )
            else:
                addresses = [
                    tensor.address_of(first + lane * stride) for lane in range(lanes)
                ]
                lines = coalesce_addresses(addresses, line_bytes)
            self.program.append(MemInstr(access=access, line_addresses=lines, pc=pc))
        return self

    def load(
        self,
        site: str,
        tensor: Tensor,
        start_element: int,
        count: int | None = None,
        stride: int = 1,
    ) -> "ProgramBuilder":
        """Emit a load access (see :meth:`access`)."""
        return self.access(site, AccessType.LOAD, tensor, start_element, count, stride)

    def store(
        self,
        site: str,
        tensor: Tensor,
        start_element: int,
        count: int | None = None,
        stride: int = 1,
    ) -> "ProgramBuilder":
        """Emit a store access (see :meth:`access`)."""
        return self.access(site, AccessType.STORE, tensor, start_element, count, stride)

    def gather(
        self, site: str, tensor: Tensor, element_indices: Sequence[int]
    ) -> "ProgramBuilder":
        """Emit loads of arbitrary (possibly divergent) element indices."""
        if not element_indices:
            raise ValueError("gather needs at least one element index")
        pc = self.pcs.pc(site)
        for offset, lanes in chunks(len(element_indices), self.wavefront_size):
            addresses = [
                tensor.address_of(element_indices[offset + lane]) for lane in range(lanes)
            ]
            lines = coalesce_addresses(addresses, self.line_bytes)
            self.program.append(MemInstr(access=AccessType.LOAD, line_addresses=lines, pc=pc))
        return self

    def scatter(
        self, site: str, tensor: Tensor, element_indices: Sequence[int]
    ) -> "ProgramBuilder":
        """Emit stores to arbitrary (possibly divergent) element indices."""
        if not element_indices:
            raise ValueError("scatter needs at least one element index")
        pc = self.pcs.pc(site)
        for offset, lanes in chunks(len(element_indices), self.wavefront_size):
            addresses = [
                tensor.address_of(element_indices[offset + lane]) for lane in range(lanes)
            ]
            lines = coalesce_addresses(addresses, self.line_bytes)
            self.program.append(MemInstr(access=AccessType.STORE, line_addresses=lines, pc=pc))
        return self

    # ------------------------------------------------------------------
    def build(self) -> WavefrontProgram:
        """Finish and return the wavefront program."""
        if not self.program.instructions:
            raise ValueError("refusing to build an empty wavefront program")
        return self.program
