"""repro — Practical Private Range Search Revisited (SIGMOD 2016).

A complete reproduction of the paper's Range Searchable Symmetric
Encryption (RSSE) framework: all schemes of Table 1, the PB baseline of
Li et al., the batch-update framework with forward privacy, leakage
accounting, synthetic workloads standing in for Gowalla/USPS, and a
harness regenerating every figure and table of the evaluation — grown
into a split-trust library: owner-side schemes, a key-free
:class:`~repro.core.EncryptedDatabase` server role with pluggable
storage backends, a wire protocol covering every scheme, and the
:class:`RangeStore` facade tying it all together.

Quickstart (the facade — updatable encrypted range store)::

    from repro import RangeStore

    store = RangeStore.open("logarithmic-src-i", domain_size=1 << 16)
    store.insert(0, 1500)
    store.insert(1, 42000)
    store.insert(2, 1501)
    outcome = store.search(1000, 2000)
    print(sorted(outcome.ids))  # -> [0, 2]
    store.save("checkpoint.rsse", passphrase="s3cret")

Quickstart (one static scheme, as in the paper)::

    from repro import make_scheme

    scheme = make_scheme("logarithmic-src-i", domain_size=1 << 16)
    scheme.build_index([(0, 1500), (1, 42000), (2, 1501)])
    outcome = scheme.query(1000, 2000)
    print(sorted(outcome.ids))  # -> [0, 2]

For a real client/server split, see
:class:`repro.protocol.RemoteRangeClient` (owner: keys only) and
:class:`repro.protocol.RsseServer` (server: ciphertext only), and the
storage backends in :mod:`repro.storage`.  To put that split on an
actual network, :mod:`repro.net` hosts the server over TCP
(``RsseNetServer``, one thread per connection) and pools owner-side
blocking sockets (``NetTransport``) — same frames, real sockets.
"""

from repro.core import (
    EXPERIMENT_SCHEMES,
    SCHEMES,
    SECURITY_LEVELS,
    EncryptedDatabase,
    QueryOutcome,
    RangeScheme,
    Record,
    ServerState,
    make_scheme,
)
from repro.exec import (
    CostDispatcher,
    CostModel,
    ExpansionCache,
    QueryExecutor,
    calibrate_cost_model,
    configure_default_executor,
    default_executor,
)
from repro.rangestore import HybridRangeStore, RangeStore
from repro.storage import (
    FileBackend,
    InMemoryBackend,
    PrefixedBackend,
    ShardedBackend,
    SqliteBackend,
    StorageBackend,
)

__version__ = "1.2.0"

__all__ = [
    "CostDispatcher",
    "CostModel",
    "EXPERIMENT_SCHEMES",
    "EncryptedDatabase",
    "ExpansionCache",
    "FileBackend",
    "HybridRangeStore",
    "InMemoryBackend",
    "PrefixedBackend",
    "QueryExecutor",
    "QueryOutcome",
    "RangeScheme",
    "RangeStore",
    "Record",
    "SCHEMES",
    "SECURITY_LEVELS",
    "ServerState",
    "ShardedBackend",
    "SqliteBackend",
    "StorageBackend",
    "__version__",
    "calibrate_cost_model",
    "configure_default_executor",
    "default_executor",
    "make_scheme",
]
