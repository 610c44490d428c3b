"""``repro.flashsim`` — the simulated flash-device substrate.

The paper benchmarks physical flash devices as black boxes; this
subpackage builds those black boxes: NAND chips
(:mod:`~repro.flashsim.chip`), four FTL families
(:mod:`~repro.flashsim.ftl`), RAM caching
(:mod:`~repro.flashsim.cache`), the controller
(:mod:`~repro.flashsim.controller`), and the assembled block device
(:mod:`~repro.flashsim.device`) with calibrated per-device profiles
(:mod:`~repro.flashsim.profiles`).
"""

from repro.flashsim.analytic import KernelStats
from repro.flashsim.bitmap import PackedBits, mask_from_indices, pack_bits
from repro.flashsim.cache import WriteBackCache
from repro.flashsim.chip import ERASED, ChannelSet, FlashChip
from repro.flashsim.clock import EventTimeline, SimClock
from repro.flashsim.controller import Controller, ControllerConfig
from repro.flashsim.device import (
    BackgroundPolicy,
    CommandQueue,
    DeviceStats,
    FlashDevice,
    NoiseSpec,
    QueuedCompletion,
)
from repro.flashsim.ftl.base import BaseFTL
from repro.flashsim.snapshot import (
    DeviceSnapshot,
    PackedSnapshot,
    SnapshotStore,
    pack_snapshot,
    unpack_snapshot,
)
from repro.flashsim.geometry import Geometry
from repro.flashsim.power import (
    MLC_POWER,
    SLC_POWER,
    EnergyMeter,
    PowerSpec,
    measure_run_energy,
)
from repro.flashsim.host import AsyncHost, ParallelHost, SyncHost
from repro.flashsim.profiles import (
    ALL_PROFILES,
    TABLE3_PROFILES,
    DeviceProfile,
    build_device,
    get_profile,
    profile_names,
    scaled_profile,
)
from repro.flashsim.recorder import (
    COMPONENTS,
    FlightRecorder,
    IOEvent,
    events_from_trace,
    summarize_components,
)
from repro.flashsim.timing import MLC_TIMING, SLC_TIMING, CostAccumulator, TimingSpec
from repro.flashsim.trace import ATTRIBUTION_COLUMNS, IOTrace
from repro.flashsim.wear import (
    LifetimeProjection,
    WearReport,
    project_lifetime,
    wear_report,
)

__all__ = [
    "ALL_PROFILES",
    "ATTRIBUTION_COLUMNS",
    "AsyncHost",
    "BackgroundPolicy",
    "BaseFTL",
    "COMPONENTS",
    "ChannelSet",
    "CommandQueue",
    "Controller",
    "ControllerConfig",
    "CostAccumulator",
    "DeviceProfile",
    "DeviceSnapshot",
    "DeviceStats",
    "EnergyMeter",
    "ERASED",
    "EventTimeline",
    "FlashChip",
    "FlashDevice",
    "FlightRecorder",
    "Geometry",
    "IOEvent",
    "IOTrace",
    "KernelStats",
    "PackedBits",
    "PackedSnapshot",
    "QueuedCompletion",
    "LifetimeProjection",
    "MLC_POWER",
    "MLC_TIMING",
    "NoiseSpec",
    "ParallelHost",
    "PowerSpec",
    "SLC_TIMING",
    "SLC_POWER",
    "SimClock",
    "SnapshotStore",
    "SyncHost",
    "TABLE3_PROFILES",
    "TimingSpec",
    "WearReport",
    "WriteBackCache",
    "build_device",
    "events_from_trace",
    "get_profile",
    "mask_from_indices",
    "pack_bits",
    "pack_snapshot",
    "profile_names",
    "measure_run_energy",
    "project_lifetime",
    "scaled_profile",
    "summarize_components",
    "unpack_snapshot",
    "wear_report",
]
