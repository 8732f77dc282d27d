"""Slot-synchronous broadcast simulator."""

from .backend import (ENGINES, NativeRecoveryState, make_backend,
                      resolve_engine)
from .engine import (replay, replay_batch, run_reactive,
                     run_reactive_batch, run_reactive_multi)
from .metrics import BroadcastMetrics, compute_metrics
from .native import native_available, native_reason
from .recovery import (BatchRecoveryState, RecoveryPolicy,
                       relay_like_from_schedule, relay_like_mask)
from .shard import (replay_batch_sharded, run_reactive_batch_sharded,
                    shard_ranges)
from .translate import (TranslationError, translate_compiled,
                        translate_plan, translate_schedule,
                        translate_trace)
from .reference import ReferenceSimulator
from .schedule import BroadcastSchedule
from .summary import TraceSummary, merge_summaries
from .trace import BroadcastTrace

__all__ = [
    "BroadcastSchedule",
    "BroadcastTrace",
    "BroadcastMetrics",
    "ENGINES",
    "ReferenceSimulator",
    "TraceSummary",
    "compute_metrics",
    "make_backend",
    "merge_summaries",
    "native_available",
    "native_reason",
    "replay",
    "replay_batch",
    "replay_batch_sharded",
    "resolve_engine",
    "run_reactive",
    "run_reactive_batch",
    "run_reactive_batch_sharded",
    "run_reactive_multi",
    "shard_ranges",
    "RecoveryPolicy",
    "BatchRecoveryState",
    "NativeRecoveryState",
    "relay_like_mask",
    "relay_like_from_schedule",
    "TranslationError",
    "translate_compiled",
    "translate_plan",
    "translate_schedule",
    "translate_trace",
]
