"""Delegatable PRF (DPRF) over the GGM tree (Kiayias et al., CCS'13).

A DPRF lets the secret-key holder hand an untrusted party a *small* set
of intermediate GGM seeds ("tokens") from which that party can derive
the PRF values of every domain point in a delegated range — and nothing
outside it.  The Constant-BRC/URC schemes use exactly this: the owner
ships ``O(log R)`` tokens, the server expands them into the ``R``
leaf-level DPRF values that unlock the matching SSE entries.

Construction (paper Section 2.2): the PRF value of an ℓ-bit domain value
``a_{ℓ-1} … a_0`` is ``G_{a_0}(…(G_{a_{ℓ-1}}(k)))`` — a root-to-leaf
GGM walk.  A token for a dyadic node is the seed at that node of the GGM
tree, paired with the node's level so the receiver knows how many
further expansions produce leaves.  The token-generation function ``T``
decomposes a range with BRC or URC; the evaluation function ``C``
expands tokens to leaf values.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass

from repro.covers.brc import best_range_cover
from repro.covers.dyadic import DomainTree, Node
from repro.covers.urc import uniform_range_cover
from repro.crypto import prg
from repro.errors import InvalidRangeError, KeyError_, TokenError

#: Supported range-covering strategies for token generation.
COVER_BRC = "brc"
COVER_URC = "urc"


@dataclass(frozen=True)
class DelegationToken:
    """One GGM seed delegating a dyadic subtree.

    ``seed`` is the GGM value at the subtree root; ``level`` is the
    subtree height (0 = the seed *is* a leaf DPRF value).  Deliberately
    carries no positional information — the paper's tokens reveal levels
    but never indexes.
    """

    seed: bytes
    level: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise TokenError(f"token level must be >= 0, got {self.level}")
        if len(self.seed) != prg.SEED_LEN:
            raise TokenError(
                f"token seed must be {prg.SEED_LEN} bytes, got {len(self.seed)}"
            )

    @property
    def leaf_count(self) -> int:
        """Number of leaf DPRF values this token expands to: ``2^level``."""
        return 1 << self.level

    def serialized_size(self) -> int:
        """Wire size in bytes: seed plus a one-byte level tag."""
        return len(self.seed) + 1

    def descriptor(self) -> "tuple[bytes, int]":
        """The token as a plain ``(seed, level)`` descriptor.

        The :mod:`~repro.crypto.kernel` batch currency: descriptors are
        pure data, so kernel batches and the expansion cache never hold
        token objects.
        """
        return (self.seed, self.level)


class GgmDprf:
    """GGM-based DPRF over a domain of ``domain_size`` values.

    Parameters
    ----------
    domain_size:
        Size of the input domain ``{0, …, domain_size-1}``; the GGM tree
        height is ``ceil(log2 domain_size)``.
    """

    def __init__(self, domain_size: int) -> None:
        self.tree = DomainTree(domain_size)
        self.height = self.tree.height

    # -- secret-key-holder operations -------------------------------------

    @staticmethod
    def generate_key(rng=None) -> bytes:
        """Sample a fresh DPRF key (a GGM root seed)."""
        if rng is None:
            return secrets.token_bytes(prg.SEED_LEN)
        return rng.randbytes(prg.SEED_LEN)

    def evaluate(self, key: bytes, value: int) -> bytes:
        """Direct DPRF evaluation ``f_k(value)`` by the key holder."""
        self._check_key(key)
        return prg.g_path(key, self.tree.value_bits(value))

    def node_seed(self, key: bytes, node: Node) -> bytes:
        """GGM seed of an arbitrary dyadic node (key holder only).

        The path to a node at level ℓ is the top ``height - ℓ`` bits of
        any value below it.
        """
        self._check_key(key)
        if not self.tree.node_in_tree(node):
            raise InvalidRangeError(f"{node!r} outside GGM tree of height {self.height}")
        depth = self.height - node.level
        bits = [(node.index >> i) & 1 for i in range(depth - 1, -1, -1)]
        return prg.g_path(key, bits)

    def delegate(
        self,
        key: bytes,
        lo: int,
        hi: int,
        *,
        cover: str = COVER_BRC,
        shuffle_rng: "random.Random | None" = None,
    ) -> list[DelegationToken]:
        """Token generation ``T``: delegate the range ``[lo, hi]``.

        Decomposes the range with BRC or URC, emits one token per cover
        node, and randomly permutes the tokens (paper: the trapdoor hides
        node order).

        Parameters
        ----------
        cover:
            ``"brc"`` or ``"urc"``.
        shuffle_rng:
            Randomness for the permutation; defaults to a fresh
            :class:`random.SystemRandom`-seeded shuffle.  Tests inject a
            seeded generator.
        """
        self.tree.check_range(lo, hi)
        if cover == COVER_BRC:
            nodes = best_range_cover(lo, hi)
        elif cover == COVER_URC:
            nodes = uniform_range_cover(lo, hi)
        else:
            raise ValueError(f"unknown cover strategy {cover!r}")
        tokens = [DelegationToken(self.node_seed(key, n), n.level) for n in nodes]
        rng = shuffle_rng if shuffle_rng is not None else random.SystemRandom()
        rng.shuffle(tokens)
        return tokens

    # -- untrusted-party operations ----------------------------------------

    @staticmethod
    def iter_leaves(token: DelegationToken):
        """Lazily yield a token's leaf DPRF values, left to right.

        Adjacent leaves share their path prefix inside the delegated
        subtree; the walk keeps the current root-to-node path on an
        explicit stack and re-derives only the suffix below the common
        ancestor when stepping from one leaf to the next — never a leaf
        from the subtree root.  Each internal seed is expanded exactly
        once (``2^level - 1`` PRG calls total, the information-theoretic
        floor), and memory stays ``O(level)`` instead of materializing
        whole tree levels, which is what lets the exec engine stream
        4096-leaf expansions without building intermediate lists.
        """
        stack = [(token.seed, token.level)]
        while stack:
            seed, level = stack.pop()
            if level == 0:
                yield seed
                continue
            left, right = prg.g(seed)
            # Right child pushed first so the left subtree pops first:
            # in-subtree left-to-right order, same as the old BFS.
            stack.append((right, level - 1))
            stack.append((left, level - 1))

    @classmethod
    def expand_token(cls, token: DelegationToken, *, kernel=None) -> list[bytes]:
        """Evaluation ``C``: expand one token to its leaf DPRF values.

        Anyone holding the token can do this — ``G`` is public and the
        level says how deep to recurse.  Output order is the in-subtree
        left-to-right order, which carries no global position.  With a
        :class:`~repro.crypto.kernel.SerialKernel` the expansion runs
        as one kernel batch (byte-identical output).
        """
        if kernel is not None:
            return kernel.expand_subtrees([token.descriptor()])[0]
        return list(cls.iter_leaves(token))

    @classmethod
    def expand_all(
        cls, tokens: "list[DelegationToken]", *, kernel=None
    ) -> list[bytes]:
        """Expand a token vector into the concatenated leaf values.

        With a kernel the whole vector rides one batch.
        """
        if kernel is not None:
            values: list[bytes] = []
            for leaves in kernel.expand_subtrees(
                [token.descriptor() for token in tokens]
            ):
                values.extend(leaves)
            return values
        values = []
        for token in tokens:
            values.extend(cls.expand_token(token))
        return values

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _check_key(key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)) or len(key) != prg.SEED_LEN:
            raise KeyError_(f"DPRF key must be {prg.SEED_LEN} bytes")
