"""Semantically secure symmetric encryption.

The paper encrypts tuples and index payloads with AES-128-CBC via
JavaX.crypto.  This module provides the same *primitive class* — an
IND-CPA secure symmetric cipher with optional authentication — behind a
single small API:

``SemanticCipher``
    Randomized encryption (fresh nonce per call) in encrypt-then-MAC
    composition.  Uses AES-128-CTR from the locally installed
    ``cryptography`` wheel when importable; otherwise falls back to a
    pure-stdlib stream cipher whose keystream is HMAC-SHA-512 in counter
    mode (a PRF in CTR mode is the textbook IND-CPA construction).

The fallback keeps the library runnable on a bare CPython, and the two
backends are byte-compatible in *shape* (nonce ‖ ciphertext ‖ tag), so
index-size measurements do not depend on which backend is active.

Substitution note (README § "Reproducing the paper's evaluation"): CBC
vs CTR is irrelevant to every experiment in the paper — both are
per-byte symmetric encryption and all schemes share the same cipher, so
relative comparisons are preserved.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets

from repro.crypto.prf import KEY_LEN, derive_subkey
from repro.errors import IntegrityError, KeyError_

try:  # pragma: no cover - exercised implicitly by the active backend
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    _HAVE_CRYPTOGRAPHY = True
except Exception:  # pragma: no cover
    _HAVE_CRYPTOGRAPHY = False

#: Nonce length in bytes (AES block / CTR IV size).
NONCE_LEN = 16

#: Authentication tag length in bytes (truncated HMAC-SHA-256).
TAG_LEN = 16


def _aes_ctr_xor(key16: bytes, nonce: bytes, data: bytes) -> bytes:
    """AES-128-CTR keystream XOR via the ``cryptography`` backend."""
    cipher = Cipher(algorithms.AES(key16), modes.CTR(nonce))
    enc = cipher.encryptor()
    return enc.update(data) + enc.finalize()


def _hmac_ctr_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """PRF-in-CTR-mode keystream XOR using HMAC-SHA-512 (stdlib only)."""
    out = bytearray(len(data))
    block = 64  # SHA-512 digest size
    for i in range(0, len(data), block):
        counter = (i // block).to_bytes(8, "big")
        ks = hmac.new(key, nonce + counter, hashlib.sha512).digest()
        chunk = data[i : i + block]
        for j, byte in enumerate(chunk):
            out[i + j] = byte ^ ks[j]
    return bytes(out)


class SemanticCipher:
    """Randomized authenticated encryption keyed by a 32-byte master key.

    The master key is split (via the PRF) into an encryption subkey and a
    MAC subkey, so a single key suffices at the call site.

    Parameters
    ----------
    key:
        Master key of :data:`repro.crypto.prf.KEY_LEN` bytes.
    authenticated:
        When ``True`` (default) every ciphertext carries a 16-byte
        encrypt-then-MAC tag and :meth:`decrypt` raises
        :class:`~repro.errors.IntegrityError` on tampering.  Schemes that
        only need IND-CPA (e.g. EDB payloads already bound to labels) may
        disable it to shave ``TAG_LEN`` bytes per entry.
    rng:
        Optional ``randbytes``-bearing source for nonces; defaults to the
        OS CSPRNG.  Injected by tests for determinism.
    """

    def __init__(self, key: bytes, *, authenticated: bool = True, rng=None) -> None:
        if not isinstance(key, (bytes, bytearray)) or len(key) != KEY_LEN:
            raise KeyError_(f"cipher key must be {KEY_LEN} bytes")
        key = bytes(key)
        self._enc_key = derive_subkey(key, b"semantic-cipher.enc")
        self._mac_key = derive_subkey(key, b"semantic-cipher.mac")
        self._authenticated = authenticated
        self._rng = rng

    # -- internals -------------------------------------------------------

    def _nonce(self) -> bytes:
        if self._rng is None:
            return secrets.token_bytes(NONCE_LEN)
        return self._rng.randbytes(NONCE_LEN)

    def _keystream_xor(self, nonce: bytes, data: bytes) -> bytes:
        if _HAVE_CRYPTOGRAPHY:
            return _aes_ctr_xor(self._enc_key[:16], nonce, data)
        return _hmac_ctr_xor(self._enc_key, nonce, data)

    def _tag(self, nonce: bytes, ct: bytes) -> bytes:
        return hmac.new(self._mac_key, nonce + ct, hashlib.sha256).digest()[:TAG_LEN]

    # -- public API ------------------------------------------------------

    @property
    def overhead(self) -> int:
        """Ciphertext expansion in bytes over the plaintext length."""
        return NONCE_LEN + (TAG_LEN if self._authenticated else 0)

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt with a fresh nonce; layout ``nonce ‖ ct [‖ tag]``."""
        nonce = self._nonce()
        ct = self._keystream_xor(nonce, bytes(plaintext))
        if self._authenticated:
            return nonce + ct + self._tag(nonce, ct)
        return nonce + ct

    def decrypt(self, blob: bytes) -> bytes:
        """Decrypt a blob produced by :meth:`encrypt`.

        Raises
        ------
        IntegrityError
            If the blob is too short or (in authenticated mode) the MAC
            does not verify.
        """
        blob = bytes(blob)
        tag_len = TAG_LEN if self._authenticated else 0
        if len(blob) < NONCE_LEN + tag_len:
            raise IntegrityError("ciphertext too short")
        nonce = blob[:NONCE_LEN]
        if self._authenticated:
            ct, tag = blob[NONCE_LEN:-TAG_LEN], blob[-TAG_LEN:]
            if not hmac.compare_digest(tag, self._tag(nonce, ct)):
                raise IntegrityError("MAC verification failed")
        else:
            ct = blob[NONCE_LEN:]
        return self._keystream_xor(nonce, ct)


def active_backend() -> str:
    """Name of the cipher backend in use (``aes-ctr`` or ``hmac-ctr``)."""
    return "aes-ctr" if _HAVE_CRYPTOGRAPHY else "hmac-ctr"
