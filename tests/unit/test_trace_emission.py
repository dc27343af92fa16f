"""Trace emission: the strided fast path against per-lane coalescing.

:meth:`ProgramBuilder.access` computes the lines of a positive-stride,
non-wrapping instruction arithmetically.  These tests hold it to the
per-lane definition -- one :meth:`Tensor.address_of` per lane, merged by
:func:`coalesce_addresses` -- and pin every registered workload's trace.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.coalescer import coalesce_addresses
from repro.memory.request import AccessType
from repro.workloads.layers.common import PcAllocator, ProgramBuilder, chunks
from repro.workloads.registry import WORKLOAD_NAMES, get_workload
from repro.workloads.tensor import Tensor
from repro.workloads.trace import ComputeInstr


def per_lane_lines(tensor, start, count, stride, wavefront_size, line_bytes):
    return [
        coalesce_addresses(
            [tensor.address_of(start + (offset + lane) * stride) for lane in range(lanes)],
            line_bytes,
        )
        for offset, lanes in chunks(count, wavefront_size)
    ]


@st.composite
def strided_accesses(draw):
    """(num_elements, start, count, stride) of one access.

    Half the draws are fully random (zero, negative and wrapping strides);
    the other half size the tensor so that the last lane lands just
    before, on or just past the tensor's end, where the fast path's
    no-wrap test decides.
    """
    count = draw(st.integers(min_value=1, max_value=200))
    if draw(st.booleans()):
        num_elements = draw(st.integers(min_value=1, max_value=4096))
        start = draw(st.integers(min_value=-10_000, max_value=10_000))
        stride = draw(st.integers(min_value=-40, max_value=300))
        return num_elements, start, count, stride
    stride = draw(st.integers(min_value=1, max_value=40))
    offset = draw(st.integers(min_value=0, max_value=500))
    slack = draw(st.integers(min_value=-1, max_value=2))
    num_elements = offset + (count - 1) * stride + 1 + slack
    if num_elements <= offset:
        num_elements = offset + 1
    start = offset + draw(st.integers(min_value=-2, max_value=2)) * num_elements
    return num_elements, start, count, stride


class TestStridedAccess:
    @settings(max_examples=400, deadline=None)
    @given(
        base=st.integers(min_value=0, max_value=1 << 20),
        access=strided_accesses(),
        element_bytes=st.sampled_from([1, 2, 3, 4, 8, 12, 16, 64, 96, 256]),
        wavefront_size=st.sampled_from([1, 7, 32, 64]),
        line_bytes=st.sampled_from([1, 16, 32, 64, 100, 128]),
    )
    def test_lines_match_per_lane_coalescing(
        self, base, access, element_bytes, wavefront_size, line_bytes
    ):
        num_elements, start, count, stride = access
        tensor = Tensor("t", num_elements, element_bytes, base)
        builder = ProgramBuilder(PcAllocator(), wavefront_size, line_bytes)
        builder.access("site", AccessType.LOAD, tensor, start, count, stride)
        emitted = [instr.line_addresses for instr in builder.program]
        assert emitted == per_lane_lines(
            tensor, start, count, stride, wavefront_size, line_bytes
        )

    @pytest.mark.parametrize(
        "start, stride",
        [
            (0, 0),  # every lane on one element
            (100, -1),  # descending
            (1000, 1),  # runs off the end and wraps to element 0
            (-3, 1),  # starts in the previous wrap
            (5, 17),  # sparse, one line per lane
        ],
    )
    def test_edge_strides(self, start, stride):
        tensor = Tensor("t", 1024, 4, 4096)
        builder = ProgramBuilder(PcAllocator())
        builder.access("site", AccessType.STORE, tensor, start, 150, stride)
        emitted = [instr.line_addresses for instr in builder.program]
        assert emitted == per_lane_lines(tensor, start, 150, stride, 64, 64)


def trace_digest(trace) -> str:
    """SHA-256 over everything a trace feeds the timing model."""
    digest = hashlib.sha256()
    digest.update(trace.name.encode())
    for kernel in trace.kernels:
        digest.update(f"K{kernel.name}\n".encode())
        for wavefront in kernel.wavefronts:
            digest.update(f"W{wavefront.workgroup_id},{wavefront.device}\n".encode())
            for instr in wavefront.instructions:
                if isinstance(instr, ComputeInstr):
                    digest.update(f"C{instr.vector_ops}\n".encode())
                else:
                    digest.update(
                        f"M{instr.access.value},{instr.pc},{instr.line_addresses}\n".encode()
                    )
    return digest.hexdigest()


#: trace digests at scale 0.05, taken from the per-lane emitter before the
#: strided fast path existed
TRACE_DIGESTS = {
    "DGEMM": "c86cd02bdebb76cf5186f9d755c9b8b12b1064c9520226f2d23f746b7ef13be6",
    "SGEMM": "2606e5d15951809401fcd95c8abfa116420f2e4068081d73f392c8cf5e3bbf8b",
    "CM": "5b1dd567384204d917b4634b4b43fac985e96674f260c134c5d51638f6479e2c",
    "FwBN": "793a985d0fef1f9b4904f41973b1a181e31755bbe8afc5e26186b0f7e3df3274",
    "FwPool": "69488a84f8c8696dc5f68718c296ca6a943fa0a9131b1404d59d3961962efdd7",
    "FwSoft": "0e2bc1e00532729a56baae370005411959109c8df82188edce520206c4e50f5b",
    "BwSoft": "c0d7127a47235f49437626e131532e1c23512b69a520caaa422732b5fae8a85a",
    "BwPool": "e5cb2bbc7a9d67d1aa73e9544cb62bb31da514861067e2a70dcdf65419cc4fd1",
    "FwGRU": "ab7f3b00df0094483b47547bb5888c66189d35d8d1c16faae1c268c5ee266f87",
    "FwLSTM": "2ec85e526bb03faac041b3aa5dcce6665a0f3bb3dced2b30c493d25d5b754ef5",
    "FwBwGRU": "c951f25a7f9e877235504281a8c7a8511b7b09d3c5f1503a77d4fd4e553713e7",
    "FwBwLSTM": "4fc4d58e8b1711251df44dba78644727a162b5f8db8ca46ca0f37f8ea228ce21",
    "BwBN": "2749918934403e7a1e872ef4a9ededd44ac21d828eace81335737d202b761387",
    "FwFc": "3b53ed038fa98e89d00db51b0fe6305f879cf11d64ffb05a946c8c4e56e14d94",
    "FwAct": "1ff58ea698b8e4f495ba46f168e7eb66599b32ff326fa1b21d4b4c7797757b7e",
    "FwLRN": "cf64b4fcc38dbc7fc2a9b9ad8d2e61f6dc660aa22be416b7671191a1f68de86f",
    "BwAct": "02b13cd6e31570184c962bff51fb4ee83574053b9f85ddf9960ce0d1213749d0",
    "MHA": "06c3f436a32f641c28fa1255b4f27e76cbe773249bae65b49847920b695abc68",
}


def test_every_workload_is_pinned():
    assert set(TRACE_DIGESTS) == set(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_trace_digest_is_pinned(name):
    trace = get_workload(name, scale=0.05).build_trace()
    assert trace_digest(trace) == TRACE_DIGESTS[name]
