"""TLS 1.3 handshake state machines.

:class:`TlsClient` and :class:`TlsServer` run the PSK + FFDHE
handshake over any reliable bytestream: callers push inbound bytes via
:meth:`feed` and drain outbound bytes via :meth:`data_to_send`.

The machines expose exactly the surface TCPLS extends:

- callers inject extra ClientHello extensions (TCPLS Hello / Join);
- the server asks a callback for its EncryptedExtensions content given
  the parsed ClientHello (TCPLS SESSID / COOKIE / address advertisement);
- on completion both sides expose the :class:`~repro.tls.keyschedule.
  KeySchedule` so TCPLS can spin per-stream crypto contexts from the
  application traffic secrets.

Simplifications (documented in DESIGN.md): no HelloRetryRequest, no
certificate path (PSK authentication), and PSK binders are omitted --
none of these interact with the TCPLS mechanisms under study.
"""

from repro.crypto.ffdhe import DHKeyPair, FFDHE2048
from repro.crypto.aead import get_cipher
from repro.tls.extensions import (
    EXT_EARLY_DATA,
    EXT_KEY_SHARE,
    EXT_PRE_SHARED_KEY,
    EXT_PSK_KEY_EXCHANGE_MODES,
    EXT_SUPPORTED_VERSIONS,
    Extension,
    find_extension,
)

#: RFC 8446 Sec. 4.2.9 PskKeyExchangeMode values.
PSK_KE = 0       #: PSK-only establishment (no (EC)DHE)
PSK_DHE_KE = 1   #: PSK with (EC)DHE (the default handshake here)
from repro.tls.handshake_messages import (
    CIPHER_SUITE_NAMES,
    ClientHello,
    EncryptedExtensions,
    Finished,
    HS_CLIENT_HELLO,
    HS_ENCRYPTED_EXTENSIONS,
    HS_FINISHED,
    HS_SERVER_HELLO,
    ServerHello,
    TLS13_VERSION,
    parse_handshake_messages,
)
from repro.tls.keyschedule import KeySchedule
from repro.tls.record import (
    CONTENT_ALERT,
    CONTENT_APPLICATION_DATA,
    CONTENT_HANDSHAKE,
    MAX_RECORD_PAYLOAD,
    RECORD_HEADER_SIZE,
    RecordDecryptor,
    RecordEncryptor,
    RecordReassembler,
    TlsRecordError,
    encode_plaintext_record,
)


class TlsError(Exception):
    """Fatal handshake or record-layer failure."""


class _TlsEndpoint:
    """Shared plumbing for both roles."""

    def __init__(self, psk, cipher_names, rng):
        self.psk = psk
        self.cipher_names = list(cipher_names)
        self.rng = rng
        self.reassembler = RecordReassembler()
        self.schedule = None
        self.cipher_cls = None
        self.negotiated_cipher = None
        self.handshake_complete = False
        self.peer_encrypted_extensions = []
        self._out = bytearray()
        self._handshake_buffer = b""
        self._encryptor = None
        self._decryptor = None
        self._app_encryptor = None
        self._app_decryptor = None
        # Callbacks.
        self.on_handshake_complete = None
        self.on_application_data = None
        #: once set (by TCPLS after handshake completion), the raw
        #: records of a read are handed over, as a list, instead of
        #: being processed here.
        self.takeover = None

    # -- transport glue -----------------------------------------------------

    def data_to_send(self):
        """Drain bytes queued for the transport."""
        data = bytes(self._out)
        self._out.clear()
        return data

    def send_application_data(self, data):
        """Encrypt application data into records (post-handshake)."""
        if not self.handshake_complete:
            raise TlsError("handshake not complete")
        for offset in range(0, len(data), MAX_RECORD_PAYLOAD):
            chunk = data[offset:offset + MAX_RECORD_PAYLOAD]
            self._out += self._app_encryptor.protect(
                CONTENT_APPLICATION_DATA, chunk
            )
        return len(data)

    def feed(self, data):
        """Process inbound transport bytes."""
        records = self.reassembler.feed(data)
        for index, record in enumerate(records):
            if self.handshake_complete and self.takeover is not None:
                # what shared a read with the Finished, as one read
                self.takeover(records[index:])
                return
            self._process_record(record)

    # -- internals -----------------------------------------------------------

    def _process_record(self, record):
        outer_type = record[0]
        body = record[RECORD_HEADER_SIZE:]
        if outer_type == CONTENT_HANDSHAKE:
            self._process_handshake_bytes(body)
        elif outer_type == CONTENT_APPLICATION_DATA:
            decryptor = (
                self._app_decryptor
                if self.handshake_complete and self._app_decryptor
                else self._decryptor
            )
            if decryptor is None:
                raise TlsError("encrypted record before any keys")
            content_type, plaintext = decryptor.unprotect(record)
            if content_type == CONTENT_HANDSHAKE:
                self._process_handshake_bytes(plaintext)
            elif content_type == CONTENT_APPLICATION_DATA:
                self._deliver_application_data(plaintext)
            elif content_type == CONTENT_ALERT:
                raise TlsError(
                    "alert received: %r" % (plaintext[:2],)
                )
        elif outer_type == CONTENT_ALERT:
            raise TlsError("plaintext alert received: %r" % (body[:2],))

    def _deliver_application_data(self, plaintext):
        if self.on_application_data is not None:
            self.on_application_data(self, plaintext)

    def _process_handshake_bytes(self, data):
        messages, leftover = parse_handshake_messages(
            self._handshake_buffer + data
        )
        self._handshake_buffer = leftover
        for msg_type, body, raw in messages:
            self._handle_handshake_message(msg_type, body, raw)

    def _handle_handshake_message(self, msg_type, body, raw):
        raise NotImplementedError

    def _random(self):
        return bytes(self.rng.getrandbits(8) for _ in range(32))

    def _suite_ids(self):
        from repro.tls.handshake_messages import CIPHER_SUITE_IDS

        return [CIPHER_SUITE_IDS[name] for name in self.cipher_names]


class TlsClient(_TlsEndpoint):
    """Client role.

    Parameters
    ----------
    extra_extensions:
        Additional ClientHello extensions (the TCPLS Hello / Join).
    early_data:
        Optional 0-RTT payload encrypted under the early traffic keys
        and flushed together with the ClientHello (pairs with TCP Fast
        Open for the paper's Sec. 4.5 low-latency establishment).
    """

    def __init__(self, psk, rng, cipher_names=("null-tag",),
                 extra_extensions=(), early_data=b"", key_exchange="dhe"):
        super().__init__(psk, cipher_names, rng)
        self.extra_extensions = list(extra_extensions)
        self.early_data = early_data
        if key_exchange not in ("dhe", "psk"):
            raise ValueError("key_exchange must be 'dhe' or 'psk'")
        #: ``"dhe"`` runs the full PSK + FFDHE handshake; ``"psk"``
        #: offers RFC 8446 ``psk_ke`` (no key share, no modular
        #: exponentiation) -- the mode a server multiplexing thousands
        #: of PSK sessions negotiates to keep handshake cost flat.
        self.key_exchange = key_exchange
        self._dh = None
        self._state = "START"

    def start(self):
        """Emit the ClientHello (and any 0-RTT early data)."""
        if self._state != "START":
            raise TlsError("client already started")
        extensions = [
            Extension(EXT_SUPPORTED_VERSIONS,
                      bytes([2]) + TLS13_VERSION.to_bytes(2, "big")),
        ]
        if self.key_exchange == "dhe":
            self._dh = FFDHE2048.generate(self.rng)
            extensions.append(
                Extension(EXT_KEY_SHARE, self._dh.public_bytes()))
        else:
            extensions.append(
                Extension(EXT_PSK_KEY_EXCHANGE_MODES, bytes([1, PSK_KE])))
        extensions.append(Extension(EXT_PRE_SHARED_KEY, b"psk-identity"))
        if self.early_data:
            extensions.append(Extension(EXT_EARLY_DATA, b""))
        extensions.extend(self.extra_extensions)
        hello = ClientHello(self._random(), self._suite_ids(), extensions)
        raw = hello.encode()
        # The schedule begins with the first offered suite's hash; all
        # implemented suites share SHA-256.
        self.schedule = KeySchedule(get_cipher(self.cipher_names[0]),
                                    psk=self.psk)
        self.schedule.update_transcript(raw)
        self._out += encode_plaintext_record(CONTENT_HANDSHAKE, raw)
        if self.early_data:
            keys = self.schedule.derive_early_traffic()
            encryptor = RecordEncryptor(
                self.schedule.cipher_cls(keys.key), keys.iv
            )
            self._out += encryptor.protect(CONTENT_APPLICATION_DATA,
                                           self.early_data)
        self._state = "WAIT_SH"

    def _handle_handshake_message(self, msg_type, body, raw):
        if self._state == "WAIT_SH" and msg_type == HS_SERVER_HELLO:
            self._on_server_hello(ServerHello.decode(body), raw)
        elif self._state == "WAIT_EE" and msg_type == HS_ENCRYPTED_EXTENSIONS:
            ee = EncryptedExtensions.decode(body)
            self.peer_encrypted_extensions = ee.extensions
            self.schedule.update_transcript(raw)
            self._state = "WAIT_FINISHED"
        elif self._state == "WAIT_FINISHED" and msg_type == HS_FINISHED:
            self._on_server_finished(Finished.decode(body), raw)
        else:
            raise TlsError(
                "unexpected handshake message %d in state %s"
                % (msg_type, self._state)
            )

    def _on_server_hello(self, hello, raw):
        if hello.cipher_suite not in self._suite_ids():
            raise TlsError("server selected unoffered suite 0x%04x"
                           % hello.cipher_suite)
        self.negotiated_cipher = CIPHER_SUITE_NAMES[hello.cipher_suite]
        self.cipher_cls = get_cipher(self.negotiated_cipher)
        self.schedule.cipher_cls = self.cipher_cls
        key_share = hello.find_extension(EXT_KEY_SHARE)
        if self.key_exchange == "psk":
            if key_share is not None:
                raise TlsError("server sent key_share in psk_ke mode")
            shared = b""
        else:
            if key_share is None:
                raise TlsError("server omitted key_share")
            peer_public = DHKeyPair.public_from_bytes(key_share.data)
            shared = FFDHE2048.shared_secret(self._dh.private, peer_public)
        self.schedule.update_transcript(raw)
        client_hs, server_hs = self.schedule.derive_handshake(shared)
        self._decryptor = RecordDecryptor(self.cipher_cls(server_hs.key),
                                          server_hs.iv)
        self._encryptor = RecordEncryptor(self.cipher_cls(client_hs.key),
                                          client_hs.iv)
        self._state = "WAIT_EE"

    def _on_server_finished(self, finished, raw):
        expected = self.schedule.finished_verify_data(
            self.schedule.server_handshake.secret
        )
        if finished.verify_data != expected:
            raise TlsError("server Finished verification failed")
        self.schedule.update_transcript(raw)
        client_app, server_app = self.schedule.derive_application()
        # Client Finished, still under the handshake keys.
        verify = self.schedule.finished_verify_data(
            self.schedule.client_handshake.secret
        )
        fin_raw = Finished(verify).encode()
        self.schedule.update_transcript(fin_raw)
        self._out += self._encryptor.protect(CONTENT_HANDSHAKE, fin_raw)
        self._app_encryptor = RecordEncryptor(
            self.cipher_cls(client_app.key), client_app.iv
        )
        self._app_decryptor = RecordDecryptor(
            self.cipher_cls(server_app.key), server_app.iv
        )
        self.handshake_complete = True
        self._state = "CONNECTED"
        if self.on_handshake_complete is not None:
            self.on_handshake_complete(self)


class TlsServer(_TlsEndpoint):
    """Server role.

    ``encrypted_extensions_fn(client_hello) -> list[Extension]`` lets the
    embedding layer (the TCPLS session manager) answer the client's
    extensions inside EncryptedExtensions.  ``strict_extensions`` models
    the legacy servers of Sec. 5.2 that abort on unknown extensions.
    """

    KNOWN_EXTENSIONS = frozenset({
        EXT_SUPPORTED_VERSIONS, EXT_KEY_SHARE, EXT_PRE_SHARED_KEY,
        EXT_EARLY_DATA, EXT_PSK_KEY_EXCHANGE_MODES,
    })

    def __init__(self, psk, rng, cipher_names=("null-tag",),
                 encrypted_extensions_fn=None, strict_extensions=False):
        super().__init__(psk, cipher_names, rng)
        self.encrypted_extensions_fn = encrypted_extensions_fn
        self.strict_extensions = strict_extensions
        self.client_hello = None
        self._early_decryptor = None
        self._state = "WAIT_CH"

    def _handle_handshake_message(self, msg_type, body, raw):
        if self._state == "WAIT_CH" and msg_type == HS_CLIENT_HELLO:
            self._on_client_hello(ClientHello.decode(body), raw)
        elif self._state == "WAIT_FINISHED" and msg_type == HS_FINISHED:
            self._on_client_finished(Finished.decode(body), raw)
        else:
            raise TlsError(
                "unexpected handshake message %d in state %s"
                % (msg_type, self._state)
            )

    def _on_client_hello(self, hello, raw):
        if self.strict_extensions:
            unknown = [
                e for e in hello.extensions
                if e.ext_type not in self.KNOWN_EXTENSIONS
            ]
            if unknown:
                raise TlsError(
                    "legacy server aborting on unknown extension 0x%04x"
                    % unknown[0].ext_type
                )
        self.client_hello = hello
        offered = set(hello.cipher_suites)
        suite = next(
            (s for s in self._suite_ids() if s in offered), None
        )
        if suite is None:
            raise TlsError("no common cipher suite")
        self.negotiated_cipher = CIPHER_SUITE_NAMES[suite]
        self.cipher_cls = get_cipher(self.negotiated_cipher)
        key_share = hello.find_extension(EXT_KEY_SHARE)
        psk_modes = hello.find_extension(EXT_PSK_KEY_EXCHANGE_MODES)
        psk_only = (
            key_share is None and psk_modes is not None
            and PSK_KE in psk_modes.data[1:1 + (psk_modes.data[0]
                                                if psk_modes.data else 0)]
        )
        if psk_only:
            dh = None
            shared = b""
        else:
            if key_share is None:
                raise TlsError("client omitted key_share")
            peer_public = DHKeyPair.public_from_bytes(key_share.data)
            dh = FFDHE2048.generate(self.rng)
            shared = FFDHE2048.shared_secret(dh.private, peer_public)

        self.schedule = KeySchedule(self.cipher_cls, psk=self.psk)
        self.schedule.update_transcript(raw)
        if hello.find_extension(EXT_EARLY_DATA) is not None:
            keys = self.schedule.derive_early_traffic()
            self._early_decryptor = RecordDecryptor(
                self.cipher_cls(keys.key), keys.iv
            )

        sh_extensions = [
            Extension(EXT_SUPPORTED_VERSIONS, TLS13_VERSION.to_bytes(2, "big")),
        ]
        if dh is not None:
            sh_extensions.append(Extension(EXT_KEY_SHARE, dh.public_bytes()))
        sh_extensions.append(Extension(EXT_PRE_SHARED_KEY, b"\x00\x00"))
        server_hello = ServerHello(self._random(), suite, sh_extensions)
        sh_raw = server_hello.encode()
        self.schedule.update_transcript(sh_raw)
        self._out += encode_plaintext_record(CONTENT_HANDSHAKE, sh_raw)

        client_hs, server_hs = self.schedule.derive_handshake(shared)
        self._encryptor = RecordEncryptor(self.cipher_cls(server_hs.key),
                                          server_hs.iv)
        self._decryptor = RecordDecryptor(self.cipher_cls(client_hs.key),
                                          client_hs.iv)

        ee_extensions = []
        if self.encrypted_extensions_fn is not None:
            ee_extensions = list(self.encrypted_extensions_fn(hello))
        ee_raw = EncryptedExtensions(ee_extensions).encode()
        self.schedule.update_transcript(ee_raw)
        self._out += self._encryptor.protect(CONTENT_HANDSHAKE, ee_raw)

        verify = self.schedule.finished_verify_data(
            self.schedule.server_handshake.secret
        )
        fin_raw = Finished(verify).encode()
        self.schedule.update_transcript(fin_raw)
        self._out += self._encryptor.protect(CONTENT_HANDSHAKE, fin_raw)

        client_app, server_app = self.schedule.derive_application()
        self._app_encryptor = RecordEncryptor(
            self.cipher_cls(server_app.key), server_app.iv
        )
        self._pending_app_decryptor = RecordDecryptor(
            self.cipher_cls(client_app.key), client_app.iv
        )
        self._state = "WAIT_FINISHED"

    def _process_record(self, record):
        # 0-RTT early data arrives between CH and client Finished and is
        # protected under the early traffic keys.
        outer_type = record[0]
        if (outer_type == CONTENT_APPLICATION_DATA
                and self._state == "WAIT_FINISHED"
                and self._early_decryptor is not None):
            try:
                content_type, plaintext = self._early_decryptor.unprotect(
                    record
                )
            except TlsRecordError:
                pass  # not early data; fall through to handshake keys
            else:
                if content_type == CONTENT_APPLICATION_DATA:
                    self._deliver_application_data(plaintext)
                    return
        super()._process_record(record)

    def _on_client_finished(self, finished, raw):
        expected = self.schedule.finished_verify_data(
            self.schedule.client_handshake.secret
        )
        if finished.verify_data != expected:
            raise TlsError("client Finished verification failed")
        self.schedule.update_transcript(raw)
        self._app_decryptor = self._pending_app_decryptor
        self.handshake_complete = True
        self._state = "CONNECTED"
        if self.on_handshake_complete is not None:
            self.on_handshake_complete(self)
