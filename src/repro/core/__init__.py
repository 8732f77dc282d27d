"""The paper's contribution: broadcast protocols for regular WSNs.

Public surface:

* :func:`protocol_for` — topology -> protocol factory.
* :class:`Mesh2D3Protocol` / :class:`Mesh2D4Protocol` /
  :class:`Mesh2D8Protocol` / :class:`Mesh3D6Protocol` — Section 3.
* :mod:`repro.core.baselines` — flooding / gossip / delay ablations.
* :func:`compile_broadcast` — the offline schedule compiler.
* :mod:`repro.core.ideal` — the Section 4 ideal-case analytic model.
* :func:`validate_broadcast` — schedule audit (100 % reach + causality).
"""

from .alltoall import AllToAllResult, all_to_all
from .base import BroadcastProtocol, CompiledBroadcast, RelayPlan
from .cache import ScheduleCache, class_profile_key, schedule_cache_key
from .compiler import (CompilationError, compile_broadcast,
                       compile_call_count)
from .store import (STORE_FORMAT_VERSION, ArtifactStore, StoredEntry,
                    shard_id)
from .etr import (OPTIMAL_ETR, diagonal_vs_axis_etr, optimal_etr,
                  optimal_etr_fraction, trace_etrs, transmission_etr)
from .ideal import (IdealCase, ideal_case, ideal_delay, ideal_max_delay,
                    ideal_tx_2d, ideal_tx_3d6)
from .mesh2d3 import Mesh2D3Protocol
from .mesh2d4 import Mesh2D4Protocol
from .mesh2d8 import Mesh2D8Protocol
from .mesh3d6 import Mesh3D6Protocol
from .registry import PROTOCOL_CLASSES, protocol_for
from .symmetry import (ClassMemberResult, compile_class, compile_classes,
                       group_sources, sweep_compile)
from .regions import base_nodes
from .validate import ScheduleError, ValidationReport, validate_broadcast

__all__ = [
    "AllToAllResult",
    "all_to_all",
    "BroadcastProtocol",
    "CompiledBroadcast",
    "RelayPlan",
    "CompilationError",
    "compile_broadcast",
    "compile_call_count",
    "ScheduleCache",
    "schedule_cache_key",
    "class_profile_key",
    "ArtifactStore",
    "StoredEntry",
    "STORE_FORMAT_VERSION",
    "shard_id",
    "ClassMemberResult",
    "compile_class",
    "compile_classes",
    "group_sources",
    "sweep_compile",
    "Mesh2D3Protocol",
    "Mesh2D4Protocol",
    "Mesh2D8Protocol",
    "Mesh3D6Protocol",
    "PROTOCOL_CLASSES",
    "protocol_for",
    "base_nodes",
    "OPTIMAL_ETR",
    "optimal_etr",
    "optimal_etr_fraction",
    "transmission_etr",
    "trace_etrs",
    "diagonal_vs_axis_etr",
    "IdealCase",
    "ideal_case",
    "ideal_delay",
    "ideal_max_delay",
    "ideal_tx_2d",
    "ideal_tx_3d6",
    "ScheduleError",
    "ValidationReport",
    "validate_broadcast",
]
