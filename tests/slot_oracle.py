"""One-slot resolve over a transmitter list: the unbatched oracle that
:meth:`~repro.radio.channel.SlotKernel.resolve_batch` and the kernel's
tables are compared against."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def resolve(kernel, tx_nodes
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve one slot of *kernel*'s topology given the transmitting
    node indices.

    Returns ``(heard, received, collided, senders)``, all fresh arrays.
    ``senders[v]`` is the delivering neighbour wherever ``received[v]``
    is True and garbage elsewhere.
    """
    tx_nodes = np.asarray(tx_nodes, dtype=np.int64)
    n = kernel.num_nodes
    nbrs = kernel.padded_rows()[tx_nodes].ravel()
    heard = np.bincount(nbrs, minlength=n + 1)[:n]
    # Exactly one writer reaches any node with heard == 1, so the
    # scatter leaves the unique sender there; collided or silent entries
    # hold garbage and are never read.
    senders = np.empty(n + 1, dtype=np.int64)
    senders[nbrs] = tx_nodes.repeat(kernel.max_degree)
    received = heard == 1
    collided = heard >= 2
    # Half-duplex: transmitters hear nothing.
    received[tx_nodes] = False
    collided[tx_nodes] = False
    return heard, received, collided, senders[:n]
