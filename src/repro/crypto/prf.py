"""Pseudorandom function (PRF) substrate.

The paper implements PRF and GGM evaluations with HMAC-SHA-512 and hash
computations with SHA-1 (Section 8, Setup).  We mirror that choice: the
PRF family here is HMAC-SHA-512 keyed with a ``KEY_LEN``-byte secret, and
the convenience digest used for non-cryptographic fingerprinting is SHA-1.

All functions operate on :class:`bytes`.  Higher layers are responsible
for canonical serialization of structured inputs (see
:mod:`repro.sse.encoding`).
"""

from __future__ import annotations

import hashlib
import hmac
import secrets

from repro.errors import KeyError_

#: Length, in bytes, of PRF keys and of GGM seeds (λ = 256 bits doubled to
#: the 64-byte HMAC-SHA-512 block output; we keep full 32-byte security).
KEY_LEN = 32

#: Length, in bytes, of a single PRF output (SHA-512 digest size).
PRF_OUT_LEN = 64


def generate_key(rng: "secrets.SystemRandom | None" = None) -> bytes:
    """Sample a fresh uniformly random PRF key.

    Parameters
    ----------
    rng:
        Optional :class:`random.Random`-compatible source with a
        ``randbytes`` method.  When ``None`` (the default and the only
        choice appropriate for production keys), the operating system
        CSPRNG is used via :func:`secrets.token_bytes`.  Tests inject a
        seeded generator for reproducibility.
    """
    if rng is None:
        return secrets.token_bytes(KEY_LEN)
    return rng.randbytes(KEY_LEN)


def check_key(key: bytes) -> bytes:
    """Validate a PRF key, returning it unchanged.

    Raises
    ------
    KeyError_
        If ``key`` is not ``bytes`` of length :data:`KEY_LEN`.
    """
    if not isinstance(key, (bytes, bytearray)):
        raise KeyError_(f"PRF key must be bytes, got {type(key).__name__}")
    if len(key) != KEY_LEN:
        raise KeyError_(f"PRF key must be {KEY_LEN} bytes, got {len(key)}")
    return bytes(key)


def prf(key: bytes, message: bytes) -> bytes:
    """Evaluate the PRF: ``HMAC-SHA-512(key, message)`` (64 bytes).

    Uses the one-shot :func:`hmac.digest` fast path — identical output
    to ``hmac.new(...).digest()`` without per-call object construction,
    which matters at exec-engine scale (thousands of evaluations per
    delegated range query).
    """
    check_key(key)
    return hmac.digest(key, message, hashlib.sha512)


def prf_many(key: bytes, messages) -> "list[bytes]":
    """Bulk PRF evaluation under one key, in message order.

    The array-in/array-out counterpart of :func:`prf`: the key is
    validated once and each evaluation takes the same one-shot
    ``hmac.digest`` path, so output is byte-identical to mapping
    :func:`prf`.
    """
    check_key(key)
    return [hmac.digest(key, message, hashlib.sha512) for message in messages]


def prf_truncated(key: bytes, message: bytes, out_len: int) -> bytes:
    """Evaluate the PRF and truncate the output to ``out_len`` bytes.

    Truncating an HMAC output preserves pseudorandomness; this is the
    standard way to obtain short labels (e.g. 16-byte EDB labels) from a
    64-byte digest without a second primitive.
    """
    if not 0 < out_len <= PRF_OUT_LEN:
        raise ValueError(f"out_len must be in (0, {PRF_OUT_LEN}], got {out_len}")
    return prf(key, message)[:out_len]


def derive_subkey(key: bytes, purpose: bytes) -> bytes:
    """Derive an independent :data:`KEY_LEN`-byte subkey for ``purpose``.

    Distinct ``purpose`` strings yield computationally independent keys,
    letting a scheme split one master key into per-component keys (e.g.
    one for EDB labels, one for value encryption) without storing extra
    key material.
    """
    return prf(key, b"repro.subkey|" + purpose)[:KEY_LEN]


def fingerprint(data: bytes) -> bytes:
    """Non-secret SHA-1 fingerprint (the paper's auxiliary hash)."""
    return hashlib.sha1(data).digest()
