"""psk_ke mode (RFC 8446 Sec. 4.2.9): PSK-only establishment.

The mass-session load generator (repro.perf.loadgen) negotiates
psk_ke so per-handshake cost stays flat at thousands of sessions --
no FFDHE exponentiations, just the HKDF schedule.  These tests pin the
negotiation shape and that psk_ke produces working, *distinct* traffic
keys while the default DHE handshake is untouched.
"""

import random

import pytest

from repro.tls import TlsClient, TlsError, TlsServer
from repro.tls.extensions import EXT_KEY_SHARE

def pump(client, server, rounds=10):
    for _ in range(rounds):
        moved = False
        data = client.data_to_send()
        if data:
            server.feed(data)
            moved = True
        data = server.data_to_send()
        if data:
            client.feed(data)
            moved = True
        if not moved:
            return


def handshake(client_kwargs=None, server_kwargs=None, psk=b"psk"):
    client = TlsClient(psk, random.Random(1), **(client_kwargs or {}))
    server = TlsServer(psk, random.Random(2), **(server_kwargs or {}))
    client.start()
    pump(client, server)
    return client, server


def test_psk_ke_handshake_completes_without_key_share():
    client, server = handshake({"key_exchange": "psk"})
    assert client.handshake_complete and server.handshake_complete
    assert client._dh is None
    cs, ss = client.schedule, server.schedule
    assert cs.client_application.key == ss.client_application.key
    assert cs.server_application.key == ss.server_application.key


def test_psk_ke_application_data_flows():
    client, server = handshake({"key_exchange": "psk"})
    got = []
    server.on_application_data = lambda s, d: got.append(d)
    client.send_application_data(b"over psk_ke")
    server.feed(client.data_to_send())
    assert b"".join(got) == b"over psk_ke"


def test_psk_ke_keys_differ_per_handshake():
    """The random nonces still separate sessions sharing one PSK."""
    a = TlsClient(b"psk", random.Random(11), key_exchange="psk")
    sa = TlsServer(b"psk", random.Random(12))
    a.start()
    pump(a, sa)
    b = TlsClient(b"psk", random.Random(21), key_exchange="psk")
    sb = TlsServer(b"psk", random.Random(22))
    b.start()
    pump(b, sb)
    assert a.schedule.client_application.key != \
        b.schedule.client_application.key


def test_psk_ke_keys_differ_between_modes():
    dhe, _ = handshake()
    psk, _ = handshake({"key_exchange": "psk"})
    assert dhe.schedule.client_application.key != \
        psk.schedule.client_application.key


def test_dhe_client_rejects_keyshareless_server_hello():
    """A DHE client never silently downgrades to psk-only."""
    client = TlsClient(b"psk", random.Random(1))
    server = TlsServer(b"psk", random.Random(2))
    client.start()
    raw = client.data_to_send()
    # Strip the key share from the ClientHello by replaying it through
    # a psk_ke client's hello instead: simpler -- hand the DHE client a
    # psk_ke ServerHello produced against a psk_ke ClientHello.
    psk_client = TlsClient(b"psk", random.Random(1), key_exchange="psk")
    psk_client.start()
    server.feed(psk_client.data_to_send())
    with pytest.raises(TlsError):
        client.feed(server.data_to_send())


def test_psk_ke_mode_survives_strict_extension_server():
    """psk_key_exchange_modes is standard TLS 1.3; the Sec. 5.2 legacy
    server models only abort on genuinely unknown extensions."""
    client, server = handshake({"key_exchange": "psk"},
                               {"strict_extensions": True})
    assert client.handshake_complete and server.handshake_complete


def test_dhe_server_hello_still_carries_key_share():
    """Default-mode wire bytes are unchanged by the psk_ke feature."""
    client, server = handshake()
    # ServerHello seen by the client carried a key share (the client
    # keeps the DH keypair only in DHE mode and completed with it).
    assert client._dh is not None
    assert client.handshake_complete
    sh_ks = None
    # Re-run a fresh handshake and inspect the ServerHello bytes.
    c2 = TlsClient(b"psk", random.Random(1))
    s2 = TlsServer(b"psk", random.Random(2))
    c2.start()
    s2.feed(c2.data_to_send())
    out = s2.data_to_send()
    from repro.tls.handshake_messages import ServerHello
    from repro.tls.record import RecordReassembler

    reasm = RecordReassembler()
    records = reasm.feed(out)
    body = records[0][5:]
    hello = ServerHello.decode(body[4:])
    sh_ks = hello.find_extension(EXT_KEY_SHARE)
    assert sh_ks is not None
