"""CPU/NIC cost model for the raw-performance evaluation (Fig. 7).

The paper's Sec. 5.1 testbed (Xeon E5-2630 v3-class cores, 40 Gbps
NICs, single-threaded endpoints) is replaced by a mechanistic model:
each stack is described by *where its bytes spend CPU time* -- AEAD
per byte, syscalls per batch, kernel per-packet work, ACK processing,
segmentation offload -- and the sustainable throughput is the inverse
of the busiest side's per-byte time, capped by the link.  Orderings and
ratios between stacks are emergent from these architectural factors;
only the primitive costs are calibrated (see DESIGN.md).
"""

from repro.perf.costmodel import (
    CpuProfile,
    QuicSenderModel,
    TcplsVariant,
    TlsTcpModel,
    QuicModel,
    TcplsModel,
    solve_throughput_gbps,
)
from repro.perf.loadgen import (
    LoadgenHarness,
    merge_shards,
    run_shard,
    shard_points,
)
from repro.perf.pageload import make_policy, run_pageload_cell
from repro.perf.cache import (
    ResultCache,
    resolve_cache_dir,
    source_fingerprint,
)
from repro.perf.matrix import (
    Axis,
    MatrixPoint,
    MatrixSpec,
    expand_matrix,
    filter_points,
    matrix_to_json,
    run_matrix,
)

__all__ = [
    "Axis",
    "CpuProfile",
    "MatrixPoint",
    "MatrixSpec",
    "ResultCache",
    "expand_matrix",
    "filter_points",
    "matrix_to_json",
    "resolve_cache_dir",
    "run_matrix",
    "source_fingerprint",
    "LoadgenHarness",
    "QuicModel",
    "QuicSenderModel",
    "TcplsModel",
    "TcplsVariant",
    "TlsTcpModel",
    "make_policy",
    "merge_shards",
    "run_pageload_cell",
    "run_shard",
    "shard_points",
    "solve_throughput_gbps",
]
