"""TCPLS: modern transport services from TCP + TLS (the paper's core).

The package implements every mechanism of Secs. 3-4 of the paper:

- **TCPLS records** (:mod:`repro.core.record`): TLS 1.3 encrypted
  records whose *inner* type space is extended with stream data, ACK,
  SYNC, TCP-option, eBPF and control types; TCPLS control fields sit at
  the *end* of the plaintext so receivers can decrypt into contiguous
  buffers and truncate (the zero-copy receive path of Sec. 3.1).
- **Per-stream crypto contexts** (:mod:`repro.core.crypto_context`):
  one application key, per-stream IVs derived as in Fig. 2 (stream id
  summed into the left 32 IV bits, record sequence XORed into the right
  64), giving every record of every stream a unique nonce.
- **Stream multiplexing** with implicit stream ids recovered by AEAD
  tag trial (:class:`~repro.core.engine.session.TcplsEngine` demux).
- **Session management**: TCPLS Hello negotiation, SESSID + single-use
  COOKIE join of additional TCP connections, server address
  advertisement (Sec. 3.2, Fig. 3).
- **Failover** (Sec. 3.3.2, Fig. 4): record-level ACKs, explicit SYNC,
  as-is ciphertext replay onto a joined connection, triggered by RST /
  FIN / the User Timeout shipped inside encrypted records.
- **Application-triggered migration and stream steering**, and
  **coupled streams** with an explicit trailing sequence number and a
  receive-side reordering heap for bandwidth aggregation (Sec. 3.3.3).
- **eBPF code remote attachment** (Sec. 4.4): chunked transfer of
  verified congestion-controller bytecode.
- An event-driven application API in the spirit of Fig. 5
  (:mod:`repro.core.api`).
"""

from repro.core.record import (
    RECORD_TYPE_ACK,
    RECORD_TYPE_CONTROL,
    RECORD_TYPE_EBPF,
    RECORD_TYPE_PING,
    RECORD_TYPE_STREAM_DATA,
    RECORD_TYPE_SYNC,
    RECORD_TYPE_TCP_OPTION,
    TcplsRecord,
)
from repro.core.crypto_context import StreamCryptoContext, derive_stream_iv
from repro.core.errors import (
    DriverError,
    JoinError,
    SessionNotReadyError,
    SessionStateError,
    StreamClosedError,
    TcplsError,
    TcplsProtocolError,
)
from repro.core.engine.events import SessionEvent
from repro.core.engine.session import TcplsEngine
from repro.core.stream import TcplsStream
from repro.core.drivers.sim import TcplsClient, TcplsServer
from repro.core.engine.policy import (
    LowestRttScheduler,
    Policy,
    PredictivePolicy,
    RecordContext,
    RedundantScheduler,
    RoundRobinScheduler,
    WeightedScheduler,
)
from repro.core.api import TcplsConnection, tcpls_connect

__all__ = [
    "DriverError",
    "JoinError",
    "LowestRttScheduler",
    "RECORD_TYPE_ACK",
    "RECORD_TYPE_CONTROL",
    "RECORD_TYPE_EBPF",
    "RECORD_TYPE_PING",
    "RECORD_TYPE_STREAM_DATA",
    "RECORD_TYPE_SYNC",
    "RECORD_TYPE_TCP_OPTION",
    "Policy",
    "PredictivePolicy",
    "RecordContext",
    "RedundantScheduler",
    "RoundRobinScheduler",
    "SessionEvent",
    "SessionNotReadyError",
    "SessionStateError",
    "StreamClosedError",
    "StreamCryptoContext",
    "TcplsClient",
    "TcplsConnection",
    "TcplsEngine",
    "TcplsError",
    "TcplsProtocolError",
    "TcplsRecord",
    "TcplsServer",
    "TcplsStream",
    "WeightedScheduler",
    "derive_stream_iv",
    "tcpls_connect",
]
