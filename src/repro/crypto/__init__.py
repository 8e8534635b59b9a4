"""Cryptographic substrate: PRF, GGM PRG, DPRF, symmetric encryption.

These are the only primitives the paper's constructions need — all
schemes are built from PRF evaluations (HMAC-SHA-512), the GGM
pseudorandom generator, the delegatable PRF of Kiayias et al., and an
IND-CPA symmetric cipher.
"""

from repro.crypto.dprf import COVER_BRC, COVER_URC, DelegationToken, GgmDprf
from repro.crypto.kernel import SerialKernel, default_kernel
from repro.crypto.prf import (
    KEY_LEN,
    PRF_OUT_LEN,
    derive_subkey,
    fingerprint,
    generate_key,
    prf,
    prf_many,
    prf_truncated,
)
from repro.crypto.prg import SEED_LEN, g, g0, g1, g_bit, g_many, g_path
from repro.crypto.symmetric import NONCE_LEN, TAG_LEN, SemanticCipher, active_backend

__all__ = [
    "COVER_BRC",
    "COVER_URC",
    "DelegationToken",
    "GgmDprf",
    "KEY_LEN",
    "NONCE_LEN",
    "PRF_OUT_LEN",
    "SEED_LEN",
    "SemanticCipher",
    "SerialKernel",
    "TAG_LEN",
    "active_backend",
    "default_kernel",
    "derive_subkey",
    "fingerprint",
    "g",
    "g0",
    "g1",
    "g_bit",
    "g_many",
    "g_path",
    "generate_key",
    "prf",
    "prf_many",
    "prf_truncated",
]
